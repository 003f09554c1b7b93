import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptsan import metrics
from promptsan.metrics import Metric, all_metrics, bleu, rouge1, rougeL
from promptsan.normalization import tokenize

WORDS = ["harbor", "lantern", "meadow", "kettle", "canal", "archive", "the", "on", "cat"]
token_lists = st.lists(st.sampled_from(WORDS), min_size=0, max_size=12)


def oracle_clipped_overlap(ref: list[str], hyp: list[str]) -> int:
    ref_counts, hyp_counts = Counter(ref), Counter(hyp)
    return sum(min(ref_counts[w], hyp_counts[w]) for w in set(ref) & set(hyp))


def oracle_lcs(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


class TestRouge1:
    def test_identity(self):
        assert rouge1("the cat sat", "the cat sat").value == 1.0

    def test_disjoint(self):
        assert rouge1("alpha beta", "gamma delta").value == 0.0

    def test_clipped_overlap_example(self):
        ref = "the cat sat on the mat"
        hyp = "the cat on a mat"
        score = rouge1(ref, hyp)
        overlap = oracle_clipped_overlap(tokenize(ref), tokenize(hyp))
        assert overlap == 4  # second "the" clipped away
        precision, recall = overlap / 5, overlap / 6
        assert score.value == pytest.approx(2 * precision * recall / (precision + recall), abs=1e-12)

    def test_empty_cases(self):
        assert rouge1("", "something").value == 0.0
        assert rouge1("something", "").value == 0.0
        assert rouge1("", "").value == 0.0

    def test_case_and_punctuation_normalized(self):
        assert rouge1("The Cat!", "the cat").value == 1.0


class TestRougeL:
    def test_identity(self):
        assert rougeL("a b c d", "a b c d").value == 1.0

    def test_swap_example(self):
        score = rougeL("a b c d", "a c b d")
        assert score.details["lcs"] == 3
        assert score.value == pytest.approx(0.75, abs=1e-12)

    def test_reversed_distinct_tokens(self):
        score = rougeL("harbor lantern meadow kettle", "kettle meadow lantern harbor")
        assert score.details["lcs"] == 1

    def test_empty_cases(self):
        assert rougeL("", "anything").value == 0.0


class TestBleu:
    def test_identity_of_four_tokens(self):
        assert bleu("a b c d", "a b c d").value == 1.0

    def test_brevity_penalty_closed_form(self):
        score = bleu("a b c d e", "a b c d")
        assert score.value == pytest.approx(math.exp(-0.25), abs=1e-12)
        assert score.details["precisions"] == [1.0, 1.0, 1.0, 1.0]

    def test_disjoint_smoothed_near_zero(self):
        ref = " ".join(f"left{i}" for i in range(20))
        hyp = " ".join(f"right{i}" for i in range(20))
        score = bleu(ref, hyp)
        assert 0.0 < score.value < 0.05

    def test_short_hypothesis_renormalizes_orders(self):
        assert bleu("a b", "a b").value == 1.0
        assert bleu("a", "a").value == 1.0

    def test_empty_cases(self):
        assert bleu("", "a b c d").value == 0.0
        assert bleu("a b c d", "").value == 0.0

    def test_formula_oracle_random_pairs(self, rng):
        for _ in range(50):
            ref = [WORDS[i] for i in rng.integers(0, len(WORDS), size=int(rng.integers(1, 12)))]
            hyp = [WORDS[i] for i in rng.integers(0, len(WORDS), size=int(rng.integers(1, 12)))]
            score = bleu(" ".join(ref), " ".join(hyp))
            expected = oracle_bleu(ref, hyp)
            assert score.value == pytest.approx(expected, abs=1e-9)


def oracle_bleu(ref: list[str], hyp: list[str]) -> float:
    if not hyp or not ref:
        return 0.0
    precisions = []
    for n in range(1, min(4, len(hyp)) + 1):
        hyp_ngrams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
        ref_ngrams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        total = sum(hyp_ngrams.values())
        clipped = sum(min(c, ref_ngrams[g]) for g, c in hyp_ngrams.items())
        precisions.append(clipped / total if clipped else 1.0 / (2.0 * total))
    geo = math.exp(sum(math.log(p) for p in precisions) / len(precisions))
    bp = math.exp(1 - len(ref) / len(hyp)) if len(hyp) < len(ref) else 1.0
    return min(1.0, bp * geo)


class TestProperties:
    @given(token_lists, token_lists)
    def test_bounds_and_identity(self, ref, hyp):
        ref_text, hyp_text = " ".join(ref), " ".join(hyp)
        for fn in (rouge1, rougeL, bleu):
            value = fn(ref_text, hyp_text).value
            assert 0.0 <= value <= 1.0
        if ref:
            assert rouge1(ref_text, ref_text).value == 1.0
            assert rougeL(ref_text, ref_text).value == 1.0

    @given(token_lists, token_lists)
    def test_lcs_never_exceeds_clipped_overlap(self, ref, hyp):
        lcs = oracle_lcs(ref, hyp)
        overlap = oracle_clipped_overlap(ref, hyp)
        assert lcs <= overlap
        # Consequently rougeL F1 <= rouge1 F1.
        assert rougeL(" ".join(ref), " ".join(hyp)).value <= rouge1(
            " ".join(ref), " ".join(hyp)
        ).value + 1e-12

    @given(token_lists)
    def test_disjoint_scores_zero(self, ref):
        hyp = ["zq" + w for w in ref] or ["zqfill"]
        assert rouge1(" ".join(ref), " ".join(hyp)).value == 0.0
        assert rougeL(" ".join(ref), " ".join(hyp)).value == 0.0

    def test_all_metrics_shape(self):
        scores = all_metrics("a b c", "a b c")
        assert set(scores) == {"rouge1", "rougeL", "bleu"}
        assert scores["rouge1"] == 1.0

    def test_all_metrics_tokenises_each_text_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "tokenize", lambda text: calls.append(text) or tokenize(text))
        all_metrics("Where is the harbor lantern?", "Where's the lantern, by the harbor?")
        assert calls == ["Where is the harbor lantern?", "Where's the lantern, by the harbor?"]

    @given(
        st.lists(st.sampled_from(WORDS + ["Harbor,", "lantern!", "--"]), max_size=12),
        st.lists(st.sampled_from(WORDS + ["Harbor,", "lantern!", "--"]), max_size=12),
    )
    def test_all_metrics_equals_the_three_public_metrics(self, ref, hyp):
        ref_text, hyp_text = " ".join(ref), " ".join(hyp)
        assert all_metrics(ref_text, hyp_text) == {
            "rouge1": rouge1(ref_text, hyp_text).value,
            "rougeL": rougeL(ref_text, hyp_text).value,
            "bleu": bleu(ref_text, hyp_text).value,
        }

    def test_metric_enum_tagging(self):
        assert rouge1("a", "a").metric is Metric.ROUGE1
        assert rougeL("a", "a").metric is Metric.ROUGEL
        assert bleu("a", "a").metric is Metric.BLEU
