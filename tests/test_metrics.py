import math
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from promptsan import metrics
from promptsan.metrics import all_metrics, bleu, rouge1, rougeL
from promptsan.normalization import tokenize

WORDS = ["harbor", "lantern", "meadow", "kettle", "canal", "archive", "the", "on", "cat"]
token_lists = st.lists(st.sampled_from(WORDS), min_size=0, max_size=12)
nonempty_token_lists = st.lists(st.sampled_from(WORDS), min_size=1, max_size=12)


def oracle_clipped_overlap(ref: list[str], hyp: list[str]) -> int:
    ref_counts, hyp_counts = Counter(ref), Counter(hyp)
    return sum(min(ref_counts[w], hyp_counts[w]) for w in set(ref) & set(hyp))


def oracle_lcs(a: list[str], b: list[str]) -> int:
    """The rolling-row dynamic programme ``metrics._lcs_length`` ran before its bit-vector form."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for tok in a:
        curr = [0] * (len(b) + 1)
        for j, other in enumerate(b, start=1):
            if tok == other:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


class TestRouge1:
    def test_identity(self):
        assert rouge1("the cat sat".split(), "the cat sat".split()) == 1.0

    def test_disjoint(self):
        assert rouge1("alpha beta".split(), "gamma delta".split()) == 0.0

    def test_clipped_overlap_example(self):
        ref = "the cat sat on the mat".split()
        hyp = "the cat on a mat".split()
        overlap = oracle_clipped_overlap(ref, hyp)
        assert overlap == 4  # second "the" clipped away
        precision, recall = overlap / 5, overlap / 6
        assert rouge1(ref, hyp) == pytest.approx(2 * precision * recall / (precision + recall), abs=1e-12)

    def test_empty_cases(self):
        assert rouge1([], ["something"]) == 0.0
        assert rouge1(["something"], []) == 0.0
        assert rouge1([], []) == 0.0

    def test_case_and_punctuation_normalized(self):
        assert rouge1(tokenize("The Cat!"), tokenize("the cat")) == 1.0


class TestRougeL:
    def test_identity(self):
        assert rougeL("a b c d".split(), "a b c d".split()) == 1.0

    def test_swap_example(self):
        assert metrics._lcs_length("a b c d".split(), "a c b d".split()) == 3
        assert rougeL("a b c d".split(), "a c b d".split()) == pytest.approx(0.75, abs=1e-12)

    def test_reversed_distinct_tokens(self):
        ref = "harbor lantern meadow kettle".split()
        hyp = "kettle meadow lantern harbor".split()
        assert metrics._lcs_length(ref, hyp) == 1
        assert rougeL(ref, hyp) == pytest.approx(0.25, abs=1e-12)

    def test_empty_cases(self):
        assert rougeL([], ["anything"]) == 0.0


class TestBitVectorLcs:
    @given(st.integers(1, 8), st.lists(st.integers(0, 7), max_size=90), st.lists(st.integers(0, 7), max_size=90))
    @example(1, [], [])
    @example(1, [], [0] * 5)
    @example(1, [0] * 64, [0] * 64)
    @example(1, [0] * 130, [0] * 70)
    @example(8, [0, 1, 2, 3, 4, 5, 6, 7] * 10, [7, 6, 5, 4, 3, 2, 1, 0] * 9)
    def test_equals_the_dynamic_programme(self, vocab, a, b):
        a = [f"w{i % vocab}" for i in a]
        b = [f"w{i % vocab}" for i in b]
        assert metrics._lcs_length(a, b) == oracle_lcs(a, b)


class TestBleu:
    def test_identity_of_four_tokens(self):
        assert bleu("a b c d".split(), "a b c d".split()) == 1.0

    def test_brevity_penalty_closed_form(self):
        assert bleu("a b c d e".split(), "a b c d".split()) == pytest.approx(math.exp(-0.25), abs=1e-12)

    def test_disjoint_scores_zero(self):
        assert bleu("alpha beta".split(), "gamma delta".split()) == 0.0
        ref = [f"left{i}" for i in range(20)]
        hyp = [f"right{i}" for i in range(20)]
        assert bleu(ref, hyp) == 0.0

    def test_swap_example_nist_geometric_smoothing(self):
        # Unigrams 4/4; bigrams, trigrams and the 4-gram match nothing, so
        # they are the 1st, 2nd and 3rd zero orders: 1/(2*3), 1/(4*2), 1/(8*1).
        assert bleu("a b c d".split(), "a c b d".split()) == pytest.approx(384 ** -0.25, abs=1e-12)

    def test_short_hypothesis_renormalizes_orders(self):
        assert bleu(["a", "b"], ["a", "b"]) == 1.0
        assert bleu(["a"], ["a"]) == 1.0

    def test_empty_cases(self):
        assert bleu([], "a b c d".split()) == 0.0
        assert bleu("a b c d".split(), []) == 0.0

    def test_formula_oracle_random_pairs(self, rng):
        for _ in range(50):
            ref = [WORDS[i] for i in rng.integers(0, len(WORDS), size=int(rng.integers(1, 12)))]
            hyp = [WORDS[i] for i in rng.integers(0, len(WORDS), size=int(rng.integers(1, 12)))]
            assert bleu(ref, hyp) == pytest.approx(oracle_bleu(ref, hyp), abs=1e-9)


def oracle_bleu(ref: list[str], hyp: list[str]) -> float:
    """BLEU-4 with one Counter per order and side, and Chen & Cherry's method 3."""
    if not hyp or not ref:
        return 0.0
    precisions, zero_orders = [], 0
    for n in range(1, min(4, len(hyp)) + 1):
        hyp_ngrams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
        ref_ngrams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        total = sum(hyp_ngrams.values())
        clipped = sum(min(c, ref_ngrams[g]) for g, c in hyp_ngrams.items())
        if clipped:
            precisions.append(clipped / total)
        elif n == 1:
            return 0.0
        else:
            zero_orders += 1
            precisions.append(1.0 / (2**zero_orders * total))
    geo = math.exp(sum(math.log(p) for p in precisions) / len(precisions))
    bp = math.exp(1 - len(ref) / len(hyp)) if len(hyp) < len(ref) else 1.0
    return min(1.0, bp * geo)


class TestProperties:
    @given(token_lists, token_lists)
    def test_bounds_and_identity(self, ref, hyp):
        for fn in (rouge1, rougeL, bleu):
            assert 0.0 <= fn(ref, hyp) <= 1.0
        if ref:
            assert rouge1(ref, ref) == 1.0
            assert rougeL(ref, ref) == 1.0

    @given(token_lists, token_lists)
    def test_lcs_never_exceeds_clipped_overlap(self, ref, hyp):
        lcs = oracle_lcs(ref, hyp)
        overlap = oracle_clipped_overlap(ref, hyp)
        assert lcs <= overlap
        # Consequently rougeL F1 <= rouge1 F1.
        assert rougeL(ref, hyp) <= rouge1(ref, hyp) + 1e-12

    @given(token_lists)
    def test_disjoint_scores_zero(self, ref):
        hyp = ["zq" + w for w in ref] or ["zqfill"]
        assert rouge1(ref, hyp) == 0.0
        assert rougeL(ref, hyp) == 0.0
        assert bleu(ref, hyp) == 0.0

    @given(nonempty_token_lists, nonempty_token_lists)
    def test_bleu_positive_exactly_when_a_token_is_shared(self, ref, hyp):
        assert (bleu(ref, hyp) > 0.0) == bool(set(ref) & set(hyp))

    def test_all_metrics_shape(self):
        scores = all_metrics("a b c", "a b c")
        assert set(scores) == {"rouge1", "rougeL", "bleu"}
        assert scores["rouge1"] == 1.0

    def test_all_metrics_tokenises_each_text_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "tokenize", lambda text: calls.append(text) or tokenize(text))
        all_metrics("Where is the harbor lantern?", "Where's the lantern, by the harbor?")
        assert calls == ["Where is the harbor lantern?", "Where's the lantern, by the harbor?"]

    def test_all_metrics_calls_each_public_metric_once(self, monkeypatch):
        # The benchmark times the metrics by wrapping these module names; a
        # call that bypassed them would read as zero time.
        calls = []
        for name in ("rouge1", "rougeL", "bleu"):
            metric = getattr(metrics, name)
            monkeypatch.setattr(
                metrics, name, lambda ref, hyp, name=name, metric=metric: calls.append(name) or metric(ref, hyp)
            )
        all_metrics("Where is the harbor lantern?", "Where's the lantern, by the harbor?")
        assert sorted(calls) == ["bleu", "rouge1", "rougeL"]

    @given(
        st.lists(st.sampled_from(WORDS + ["Harbor,", "lantern!", "--"]), max_size=12),
        st.lists(st.sampled_from(WORDS + ["Harbor,", "lantern!", "--"]), max_size=12),
    )
    def test_all_metrics_equals_the_three_public_metrics(self, ref, hyp):
        ref_text, hyp_text = " ".join(ref), " ".join(hyp)
        ref_tokens, hyp_tokens = tokenize(ref_text), tokenize(hyp_text)
        assert all_metrics(ref_text, hyp_text) == {
            "rouge1": rouge1(ref_tokens, hyp_tokens),
            "rougeL": rougeL(ref_tokens, hyp_tokens),
            "bleu": bleu(ref_tokens, hyp_tokens),
        }
