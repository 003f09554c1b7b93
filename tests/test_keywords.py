import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptsan.keywords import (
    KeywordHistogram,
    ReleaseMethod,
    build_histogram,
    peel_sequence_distribution,
    tokenize_group,
    tokenize_normalize,
    topk_dp,
    topk_ndp,
)
from promptsan.mechanisms import PrivacyLedger, Stage

from conftest import histogram_of, make_group


def hist(counts: dict[str, int]) -> KeywordHistogram:
    return KeywordHistogram(counts=counts, total_words=sum(counts.values()))


class TestTokenizeNormalize:
    def test_stop_words_and_case(self):
        assert tokenize_normalize("The cat, the CAT!") == ["cat", "cat"]

    def test_empty_input(self):
        assert tokenize_normalize("") == []

    def test_case_folding_merges_tokens(self):
        assert tokenize_normalize("Zurich") == tokenize_normalize("zurich")

    def test_punctuation_only_tokens_dropped(self):
        assert tokenize_normalize("hello -- ... world!") == ["hello", "world"]


class TestBuildHistogram:
    def test_accumulates_across_rewrites(self):
        h = histogram_of(["paris is lovely", "visit paris", "paris again"])
        assert h.counts["paris"] == 3

    def test_disjoint_vocabularies_union(self):
        h = histogram_of(["alpha beta", "gamma delta"])
        assert dict(h.counts) == {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1}

    def test_ten_copies_scale_single_histogram(self):
        sentence = "quiet harbor lantern near quiet water"
        single = histogram_of([sentence])
        tenfold = histogram_of([sentence] * 10)
        assert dict(tenfold.counts) == {w: 10 * c for w, c in single.counts.items()}
        assert tenfold.total_words == 10 * single.total_words

    @given(
        st.lists(
            st.lists(st.sampled_from(["The", "harbor,", "of", "Lantern", "lantern!", "--", "and", "it's", "zq7y"]))
            .map(" ".join),
            min_size=1,
            max_size=6,
        )
    )
    def test_counts_and_key_order_equal_a_per_token_count(self, texts):
        expected: dict[str, int] = {}
        for text in texts:
            for word in tokenize_normalize(text):
                expected[word] = expected.get(word, 0) + 1
        h = histogram_of(texts)
        assert list(h.counts.items()) == list(expected.items())
        assert h.total_words == sum(expected.values())

    def test_source_prompt_not_counted(self):
        group = make_group(["rewrite words only"], source="secret original")
        h = histogram_of(group.texts())
        assert "secret" not in h.counts

    def test_one_pass_keeps_stop_words_and_the_histogram_drops_them(self):
        token_lists, counts = tokenize_group(["The cat, the CAT!", "a cat"])
        assert token_lists == [["the", "cat", "the", "cat"], ["a", "cat"]]
        assert list(counts.items()) == [("the", 2), ("cat", 3), ("a", 1)]
        h = build_histogram(counts)
        assert dict(h.counts) == {"cat": 3} and h.total_words == 3
        assert counts["the"] == 2  # the scorer fits on the same count

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            KeywordHistogram(counts={"cat": 2}, total_words=3)
        with pytest.raises(ValueError):
            KeywordHistogram(counts={"the": 1}, total_words=1)
        with pytest.raises(ValueError):
            KeywordHistogram(counts={"": 1}, total_words=1)


class TestTopkNdp:
    def test_sorted_prefix(self):
        release = topk_ndp(hist({"ant": 5, "bat": 3, "cow": 1}), 2)
        assert release.words == ("ant", "bat")
        assert release.method is ReleaseMethod.NDP
        assert math.isinf(release.epsilon)

    def test_lexicographic_tie_break(self):
        assert topk_ndp(hist({"bat": 2, "ant": 2}), 1).words == ("ant",)

    def test_fewer_than_k_returns_all(self):
        assert topk_ndp(hist({"xray": 1, "yam": 2}), 10).words == ("yam", "xray")

    def test_empty_histogram_warns(self):
        with pytest.warns(UserWarning):
            release = topk_ndp(hist({}), 3)
        assert release.words == ()

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(5)
        counts = {f"w{i:02d}": int(rng.integers(1, 40)) for i in range(50)}
        oracle = [w for w, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))][:10]
        assert list(topk_ndp(hist(counts), 10).words) == oracle

    def test_deterministic_across_runs(self):
        h = hist({"mint": 4, "nut": 4, "oak": 2, "pine": 1})
        first = topk_ndp(h, 3).words
        assert all(topk_ndp(h, 3).words == first for _ in range(100))

    def test_zero_ledger_contribution(self):
        ledger = PrivacyLedger()
        topk_ndp(hist({"ant": 1}), 1, ledger)
        assert ledger.total() == 0.0
        assert ledger.entries[-1].stage is Stage.POST_PROCESS


def two_draw_oracle(counts: dict[str, int], epsilon: float) -> dict[tuple[str, str], float]:
    """Independent closed form for K=2: P(w1) * P(w2 | remaining)."""
    eps_draw = epsilon / 2.0

    def weight(w):
        return math.exp(eps_draw * counts[w] / 2.0)

    words = sorted(counts)
    total = sum(weight(w) for w in words)
    dist = {}
    for w1 in words:
        rest = [w for w in words if w != w1]
        rest_total = sum(weight(w) for w in rest)
        for w2 in rest:
            dist[(w1, w2)] = (weight(w1) / total) * (weight(w2) / rest_total)
    return dist


class TestTopkDp:
    def test_huge_epsilon_selects_argmax(self, rng):
        h = hist({"ant": 100, "bat": 1, "cow": 1})
        for _ in range(100):
            assert topk_dp(h, 1, 1e9, rng).words == ("ant",)

    def test_single_draw_closed_form(self):
        dist = peel_sequence_distribution({"ant": 2, "bat": 1}, 1, 2.0)
        expected = math.exp(2.0) / (math.exp(2.0) + math.exp(1.0))
        assert dist[("ant",)] == pytest.approx(expected, abs=1e-12)
        assert dist[("ant",)] == pytest.approx(0.7311, abs=5e-5)

    def test_two_draw_distribution_matches_oracle(self):
        counts = {"ant": 3, "bat": 2, "cow": 1}
        dist = peel_sequence_distribution(counts, 2, 1.0)
        oracle = two_draw_oracle(counts, 1.0)
        assert set(dist) == set(oracle)
        for seq, p in oracle.items():
            assert dist[seq] == pytest.approx(p, abs=1e-12)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_sampler_agrees_with_distribution(self, rng):
        counts = {"ant": 3, "bat": 2, "cow": 1}
        dist = peel_sequence_distribution(counts, 2, 1.0)
        draws = 20_000
        seen: dict[tuple[str, ...], int] = {}
        for _ in range(draws):
            seq = topk_dp(hist(counts), 2, 1.0, rng).words
            seen[seq] = seen.get(seq, 0) + 1
        tv = 0.5 * sum(abs(seen.get(seq, 0) / draws - p) for seq, p in dist.items())
        assert tv < 0.02

    def test_neighboring_ratio_small_cases(self):
        words = ["ant", "bat", "cow"]
        for counts_tuple in itertools.product(range(0, 4), repeat=3):
            counts = dict(zip(words, counts_tuple))
            for k in (1, 2):
                for epsilon in (0.5, 2.0):
                    base = peel_sequence_distribution(counts, k, epsilon)
                    for w in words:
                        for delta in (-1, 1):
                            neighbor = dict(counts)
                            neighbor[w] += delta
                            if neighbor[w] < 0:
                                continue
                            other = peel_sequence_distribution(neighbor, k, epsilon)
                            for seq, p in base.items():
                                ratio = p / other[seq]
                                assert ratio <= math.exp(epsilon) + 1e-9

    def test_monotone_in_count(self):
        # Raising a word's count never drops its NDP rank or first-draw probability.
        base = {"ant": 2, "bat": 3, "cow": 1}
        raised = {"ant": 3, "bat": 3, "cow": 1}
        rank_base = list(topk_ndp(hist(base), 3).words).index("ant")
        rank_raised = list(topk_ndp(hist(raised), 3).words).index("ant")
        assert rank_raised <= rank_base
        p_base = sum(p for seq, p in peel_sequence_distribution(base, 1, 1.0).items() if seq[0] == "ant")
        p_raised = sum(
            p for seq, p in peel_sequence_distribution(raised, 1, 1.0).items() if seq[0] == "ant"
        )
        assert p_raised >= p_base

    def test_k_exceeding_vocabulary_rejected(self, rng):
        with pytest.raises(ValueError):
            topk_dp(hist({"ant": 1}), 2, 1.0, rng)

    def test_ledger_charged_exactly_epsilon(self, rng):
        ledger = PrivacyLedger()
        topk_dp(hist({"ant": 4, "bat": 1}), 1, 2.5, rng, ledger=ledger)
        assert ledger.total() == 2.5
        assert ledger.entries[-1].stage is Stage.KEYWORD_RELEASE

    def test_released_words_distinct(self, rng):
        release = topk_dp(hist({"ant": 1, "bat": 1, "cow": 1}), 3, 1.0, rng)
        assert sorted(release.words) == ["ant", "bat", "cow"]
