import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptsan.exemplar import (
    ScoredParaphrase,
    ScoringError,
    SelectionError,
    UnigramPerplexityScorer,
    select_exemplar,
)
from promptsan.keywords import tokenize_group
from promptsan.mechanisms import PrivacyLedger, Stage

from conftest import argmin_under, select_from, unigram_of

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
        scorer = unigram_of(["a b", "a b"])
        # counts {a: 2, b: 2}, add-one over vocab of 2 -> p = 3/6 for both.
        assert scorer("a b") == pytest.approx(2.0, abs=1e-12)

    def test_single_token_vocabulary_is_certain(self):
        scorer = unigram_of(["x x x"])
        assert scorer("x") == pytest.approx(1.0, abs=1e-12)

    def test_perplexity_at_least_one(self):
        scorer = unigram_of(["rust harbor lantern", "quiet meadow"])
        for text in ("rust", "meadow lantern", "unseen tokens here"):
            assert scorer(text) >= 1.0

    @given(
        st.lists(st.lists(st.sampled_from(WORDS), max_size=15), min_size=1, max_size=10),
        st.lists(st.sampled_from(WORDS + ["unseen", "never", "Ünïcode"]), min_size=1, max_size=30),
    )
    def test_perplexity_equals_the_per_token_log_sum(self, fit_lists, tokens):
        scorer = UnigramPerplexityScorer(Counter(tok for tokens in fit_lists for tok in tokens))
        if not scorer.total:
            with pytest.raises(ZeroDivisionError):
                scorer.perplexity(tokens)
            return
        assert scorer.perplexity(tokens) == per_token_perplexity(scorer, tokens)

    def test_empty_text_rejected(self):
        scorer = unigram_of(["a b"])
        with pytest.raises(ScoringError):
            scorer("")
        with pytest.raises(ScoringError):
            scorer("...")


class TestSelectExemplar:
    def test_argmin(self):
        # counts {one: 1, two: 3, three: 2} over 9 = 6 + 3: "two two" has
        # p = 4/9 per token, perplexity 9/4; the others score about 3.1 and 3.
        texts = ["one two three", "two two", "three"]
        chosen = select_from(texts, unigram_of(texts))
        assert chosen.index == 1
        assert chosen.text == "two two"
        assert chosen.perplexity == pytest.approx(2.25, abs=1e-12)

    def test_tie_goes_to_lowest_index(self):
        texts = ["first second", "second first"]
        scorer = unigram_of(texts)
        assert scorer("first second") == scorer("second first")
        assert select_from(texts, scorer).index == 0

    def test_matches_brute_force_oracle(self, rng):
        words = ["silver", "archive", "meadow", "kettle", "harbor", "lantern"]
        texts = [
            " ".join(rng.choice(words, size=5)) + f" tag{i}" for i in range(10)
        ]
        scorer = unigram_of(texts)
        oracle_scores = [scorer(t) for t in texts]
        oracle_index = min(range(len(texts)), key=lambda i: (oracle_scores[i], i))
        assert select_from(texts, scorer).index == oracle_index

    def test_argmin_invariant_under_increasing_transforms(self, rng):
        words = ["silver", "archive", "meadow", "kettle", "harbor", "lantern", "canal"]
        for trial in range(30):
            texts = [" ".join(rng.choice(words, size=6)) for _ in range(8)]
            base = unigram_of(texts)
            baseline = select_from(texts, base).index
            for transform in (lambda x: x * x, lambda x: 10 * x, lambda x: x + 3):
                assert argmin_under(texts, lambda t: transform(base(t))) == baseline

    def test_scaled_scores_keep_argmin(self):
        texts = ["alpha beta", "beta beta gamma", "gamma delta"]
        base = unigram_of(texts)
        assert select_from(texts, base).index == argmin_under(texts, lambda t: 10 * base(t)) == 1

    def test_unscorable_rewrites_skipped(self):
        texts = ["...", "valid text"]
        chosen = select_from(texts, unigram_of(texts))
        assert chosen.index == 1

    def test_custom_scorer_never_sees_an_empty_token_stream(self):
        seen = []

        class RecordingScorer(UnigramPerplexityScorer):
            def perplexity(self, tokens):
                seen.append(list(tokens))
                return super().perplexity(tokens)

        texts = ["...", "valid text", "!!!", "more valid text"]
        chosen = select_from(texts, RecordingScorer(tokenize_group(texts)[1]))
        assert chosen.index == 1
        assert seen == [["valid", "text"], ["more", "valid", "text"]]

    def test_default_scorer_matches_explicit_unigram_scorer(self, rng):
        words = ["silver", "archive", "meadow", "kettle", "harbor", "lantern", "canal"]
        for _ in range(20):
            texts = [" ".join(rng.choice(words, size=6)) for _ in range(8)] + ["..."]
            token_lists, counts = tokenize_group(texts)
            unigram = UnigramPerplexityScorer(counts)
            # Scoring the token lists picks what scoring each text picks.
            index = argmin_under(texts, unigram)
            assert select_exemplar(texts, token_lists, unigram) == ScoredParaphrase(
                index, texts[index], unigram(texts[index])
            )

    def test_all_unscorable_is_error(self):
        texts = ["...", "!!!"]
        with pytest.raises(SelectionError):
            select_from(texts, unigram_of(texts))

    def test_ledger_neutrality(self):
        texts = ["alpha beta", "gamma delta"]
        ledger = PrivacyLedger()
        ledger.record(Stage.REWRITE, 2.0, 10)
        before = ledger.total()
        select_from(texts, unigram_of(texts), ledger)
        assert ledger.total() == before
        assert ledger.entries[-1].stage is Stage.POST_PROCESS

    def test_deterministic_given_scorer(self):
        texts = ["alpha beta gamma", "beta gamma delta", "gamma delta"]
        scorer = unigram_of(texts)
        first = select_from(texts, scorer)
        assert all(select_from(texts, scorer) == first for _ in range(5))
