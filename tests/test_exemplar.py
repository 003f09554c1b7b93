import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptsan.exemplar import (
    ScoringError,
    SelectionError,
    UnigramPerplexityScorer,
    select_exemplar,
)
from promptsan.mechanisms import PrivacyLedger, Stage

from conftest import make_group

WORDS = ["harbor", "lantern", "meadow", "kettle", "the", "on", "a", "zq7y"]


def per_token_perplexity(scorer: UnigramPerplexityScorer, tokens: list[str]) -> float:
    """The definition, one math.log per token, summed left to right."""
    denom = scorer.total + len(scorer.counts)
    log_sum = 0.0
    for tok in tokens:
        log_sum += math.log((scorer.counts.get(tok, 0) + 1) / denom)
    return math.exp(-log_sum / len(tokens))


class TestUnigramScorer:
    def test_two_copy_group_scores_two(self):
        scorer = UnigramPerplexityScorer(["a b", "a b"])
        # counts {a: 2, b: 2}, add-one over vocab of 2 -> p = 3/6 for both.
        assert scorer("a b") == pytest.approx(2.0, abs=1e-12)

    def test_single_token_vocabulary_is_certain(self):
        scorer = UnigramPerplexityScorer(["x x x"])
        assert scorer("x") == pytest.approx(1.0, abs=1e-12)

    def test_perplexity_at_least_one(self):
        scorer = UnigramPerplexityScorer(["rust harbor lantern", "quiet meadow"])
        for text in ("rust", "meadow lantern", "unseen tokens here"):
            assert scorer(text) >= 1.0

    @given(
        st.lists(st.lists(st.sampled_from(WORDS), max_size=15), min_size=1, max_size=10),
        st.lists(st.sampled_from(WORDS + ["unseen", "never", "Ünïcode"]), min_size=1, max_size=30),
    )
    def test_perplexity_equals_the_per_token_log_sum(self, fit_lists, tokens):
        scorer = UnigramPerplexityScorer.from_tokens(fit_lists)
        if not scorer.total:
            with pytest.raises(ZeroDivisionError):
                scorer.perplexity(tokens)
            return
        assert scorer.perplexity(tokens) == per_token_perplexity(scorer, tokens)

    def test_empty_text_rejected(self):
        scorer = UnigramPerplexityScorer(["a b"])
        with pytest.raises(ScoringError):
            scorer("")
        with pytest.raises(ScoringError):
            scorer("...")


class TestSelectExemplar:
    def fixed_scorer(self, table):
        def scorer(text: str) -> float:
            return table[text]

        return scorer

    def test_argmin(self):
        group = make_group(["one", "two", "three"])
        scorer = self.fixed_scorer({"one": 3.2, "two": 1.1, "three": 7.0})
        chosen = select_exemplar(group, scorer)
        assert chosen.index == 1
        assert chosen.text == "two"

    def test_tie_goes_to_lowest_index(self):
        group = make_group(["first", "second"])
        scorer = self.fixed_scorer({"first": 2.0, "second": 2.0})
        assert select_exemplar(group, scorer).index == 0

    def test_matches_brute_force_oracle(self, rng):
        words = ["silver", "archive", "meadow", "kettle", "harbor", "lantern"]
        texts = [
            " ".join(rng.choice(words, size=5)) + f" tag{i}" for i in range(10)
        ]
        group = make_group(texts)
        scorer = UnigramPerplexityScorer(texts)
        oracle_scores = [scorer(t) for t in texts]
        oracle_index = min(range(len(texts)), key=lambda i: (oracle_scores[i], i))
        assert select_exemplar(group, scorer).index == oracle_index

    def test_argmin_invariant_under_increasing_transforms(self, rng):
        words = ["silver", "archive", "meadow", "kettle", "harbor", "lantern", "canal"]
        for trial in range(30):
            texts = [" ".join(rng.choice(words, size=6)) for _ in range(8)]
            group = make_group(texts)
            base = UnigramPerplexityScorer(texts)
            baseline = select_exemplar(group, base).index
            for transform in (lambda x: x * x, lambda x: 10 * x, lambda x: x + 3):
                assert select_exemplar(group, lambda t: transform(base(t))).index == baseline

    def test_scaled_scores_keep_argmin(self):
        group = make_group(["alpha beta", "gamma delta"])
        base = UnigramPerplexityScorer(group.texts())
        assert (
            select_exemplar(group, base).index
            == select_exemplar(group, lambda t: 10 * base(t)).index
        )

    def test_unscorable_rewrites_skipped(self):
        group = make_group(["...", "valid text"])
        chosen = select_exemplar(group, UnigramPerplexityScorer(group.texts()))
        assert chosen.index == 1

    def test_custom_scorer_never_sees_an_empty_token_stream(self):
        seen = []

        def scorer(text: str) -> float:
            seen.append(text)
            return float(len(text))

        group = make_group(["...", "valid text", "!!!", "more valid text"])
        assert select_exemplar(group, scorer).index == 1
        assert seen == ["valid text", "more valid text"]

    def test_default_scorer_matches_explicit_unigram_scorer(self, rng):
        words = ["silver", "archive", "meadow", "kettle", "harbor", "lantern", "canal"]
        for _ in range(20):
            texts = [" ".join(rng.choice(words, size=6)) for _ in range(8)] + ["..."]
            group = make_group(texts)
            assert select_exemplar(group) == select_exemplar(group, UnigramPerplexityScorer(texts))

    def test_all_unscorable_is_error(self):
        group = make_group(["...", "!!!"])
        with pytest.raises(SelectionError):
            select_exemplar(group, UnigramPerplexityScorer(group.texts()))

    def test_ledger_neutrality(self):
        group = make_group(["alpha beta", "gamma delta"])
        ledger = PrivacyLedger()
        ledger.record(Stage.REWRITE, 2.0, 10)
        before = ledger.total()
        select_exemplar(group, UnigramPerplexityScorer(group.texts()), ledger)
        assert ledger.total() == before
        assert ledger.entries[-1].stage is Stage.POST_PROCESS

    def test_deterministic_given_scorer(self):
        group = make_group(["alpha beta gamma", "beta gamma delta", "gamma delta"])
        scorer = UnigramPerplexityScorer(group.texts())
        first = select_exemplar(group, scorer)
        assert all(select_exemplar(group, scorer) == first for _ in range(5))
