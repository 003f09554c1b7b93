import inspect
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptsan.keywords import (
    KeywordHistogram,
    ReleaseMethod,
    _candidate_scores,
    build_histogram,
    presence_counts,
    tokenize_group,
    tokenize_normalize,
    topk_dp,
    topk_ndp,
)
from promptsan.mechanisms import PrivacyLedger, Stage

from conftest import histogram_of, ledger_rows_around, make_group
from topk_reference import (
    STOP,
    hockey_stick,
    peel_sample,
    plain_peel_distribution,
    release_distribution,
)


def hist(counts: dict[str, int]) -> KeywordHistogram:
    return KeywordHistogram(counts=counts)


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
        assert sum(tenfold.counts.values()) == 10 * sum(single.counts.values())

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
        assert sum(h.counts.values()) == sum(expected.values())

    def test_source_prompt_not_counted(self):
        group = make_group(["rewrite words only"], source="secret original")
        h = histogram_of(group.texts())
        assert "secret" not in h.counts

    def test_one_pass_keeps_stop_words_and_the_histogram_drops_them(self):
        token_lists, counts = tokenize_group(["The cat, the CAT!", "a cat"])
        assert token_lists == [["the", "cat", "the", "cat"], ["a", "cat"]]
        assert list(counts.items()) == [("the", 2), ("cat", 3), ("a", 1)]
        h = build_histogram(counts)
        assert dict(h.counts) == {"cat": 3}
        assert counts["the"] == 2  # the scorer fits on the same count

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            KeywordHistogram(counts={"the": 1})
        with pytest.raises(ValueError):
            KeywordHistogram(counts={"": 1})


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

    def test_zero_ledger_contribution(self, monkeypatch):
        # NDP is post-processing: it takes no ledger and a run's ledger is
        # the same on either side of it.
        assert "ledger" not in inspect.signature(topk_ndp).parameters
        before, after = ledger_rows_around(monkeypatch, "topk_ndp")
        assert before and after == before


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


def gumbel_order_probability(scores: dict, order: tuple) -> float:
    """P(the top len(order) noisy keys come out in this order), by quadrature.

    Each key is score + a standard Gumbel. With h_i(y) the probability that
    the first i candidates of ``order`` lie above y in order, h_i(y) is the
    integral over t > y of the i-th candidate's density times h_{i-1}(t), and
    the answer integrates the last candidate's density times h times every
    other candidate's CDF.
    """
    y = np.linspace(min(scores.values()) - 12.0, max(scores.values()) + 40.0, 400_001)
    dy = y[1] - y[0]

    def cdf(c):
        return np.exp(-np.exp(-(y - scores[c])))

    def pdf(c):
        return np.exp(-(y - scores[c])) * cdf(c)

    def integral_above(values):  # trapezoid from y to the top of the grid
        cum = np.concatenate(([0.0], np.cumsum((values[1:] + values[:-1]) * dy / 2.0)))
        return cum[-1] - cum

    h = np.ones_like(y)
    for c in order[:-1]:
        h = integral_above(pdf(c) * h)
    integrand = pdf(order[-1]) * h
    for c in scores:
        if c not in order:
            integrand = integrand * cdf(c)
    return float(integral_above(integrand)[0])


class TestPresenceCounts:
    def test_each_rewrite_counts_a_word_once(self):
        token_lists, _ = tokenize_group(["paris paris city", "the city", "Paris"])
        assert list(presence_counts(token_lists).items()) == [("paris", 2), ("city", 2), ("the", 1)]

    @given(st.lists(st.lists(st.sampled_from(["ant", "bat", "cow", "the"]), max_size=6), max_size=6))
    def test_replacing_one_rewrite_moves_each_count_by_at_most_one(self, token_lists):
        for i, replacement in itertools.product(range(len(token_lists)), (["cow"] * 5, [])):
            neighbour = token_lists[:i] + [replacement] + token_lists[i + 1 :]
            before, after = presence_counts(token_lists), presence_counts(neighbour)
            assert all(abs(before[w] - after[w]) <= 1 for w in before.keys() | after.keys())


class TestTopkDp:
    def test_huge_epsilon_selects_argmax(self, rng):
        h = hist({"ant": 100, "bat": 1, "cow": 1})
        for _ in range(100):
            assert topk_dp(h, 1, 1e9, 1e-5, rng).words == ("ant",)

    def test_single_draw_closed_form(self):
        dist = plain_peel_distribution({"ant": 2, "bat": 1}, 1, 2.0)
        expected = math.exp(2.0) / (math.exp(2.0) + math.exp(1.0))
        assert dist[("ant",)] == pytest.approx(expected, abs=1e-12)
        assert dist[("ant",)] == pytest.approx(0.7311, abs=5e-5)

    def test_two_draw_distribution_matches_oracle(self):
        counts = {"ant": 3, "bat": 2, "cow": 1}
        dist = plain_peel_distribution(counts, 2, 1.0)
        oracle = two_draw_oracle(counts, 1.0)
        assert set(dist) == set(oracle)
        for seq, p in oracle.items():
            assert dist[seq] == pytest.approx(p, abs=1e-12)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_candidate_scores_follow_the_documented_formula(self):
        counts = {"ant": 9, "bat": 8, "cow": 2, "dog": 2, "eel": 1}
        domain, scores = _candidate_scores(counts, 2, 4.0, 0.2)
        scale = 2 * 2 / 4.0
        assert domain == ["ant", "bat"]
        expected = [9 / scale, 8 / scale, (2 + 2) / scale + math.log(2 / 0.2)]
        assert scores.tolist() == pytest.approx(expected, abs=1e-12)
        _, (only, stop) = _candidate_scores({"ant": 3}, 1, 1.0, 1e-5)
        assert stop == pytest.approx((0 + 2) / 2.0 + math.log(1 / 1e-5), abs=1e-12)

    @pytest.mark.parametrize(
        "counts, k, epsilon, delta",
        [
            ({"ant": 9, "bat": 8, "cow": 2, "dog": 1}, 2, 4.0, 0.2),
            ({"ant": 3, "bat": 3, "cow": 2}, 2, 8.0, 0.5),
            ({"ant": 5, "bat": 1, "cow": 1}, 1, 2.0, 0.1),
        ],
    )
    def test_gumbel_top_k_with_stop_equals_the_peel_with_stop(self, counts, k, epsilon, delta):
        # Every output the peel over the domain plus the stop candidate can
        # emit, against the probability that one Gumbel per candidate orders
        # the keys that way (stop candidate right after the words, or K words).
        domain, scores = _candidate_scores(counts, k, epsilon, delta)
        candidates = dict(zip([*domain, STOP], scores.tolist()))
        dist = release_distribution(counts, k, epsilon, delta)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        for words, p in dist.items():
            order = words if len(words) == k else (*words, STOP)
            assert gumbel_order_probability(candidates, order) == pytest.approx(p, abs=1e-7)

    def test_sampler_agrees_with_distribution(self, rng):
        counts = {"ant": 9, "bat": 8, "cow": 2, "dog": 1}
        dist = release_distribution(counts, 2, 4.0, 0.2)
        draws = 20_000
        seen: dict[tuple[str, ...], int] = {}
        for _ in range(draws):
            seq = topk_dp(hist(counts), 2, 4.0, 0.2, rng).words
            seen[seq] = seen.get(seq, 0) + 1
        assert set(seen) <= set(dist)
        tv = 0.5 * sum(abs(seen.get(seq, 0) / draws - p) for seq, p in dist.items())
        assert tv < 0.02

    def test_sampler_two_sample_against_the_peel(self):
        # Chi-square homogeneity of Gumbel top-K draws against peel draws
        # (one rng.choice per step) over the 5 outputs: df = 4, and 23.51 is
        # the 0.9999 quantile.
        counts = {"ant": 9, "bat": 8, "cow": 2, "dog": 1}
        domain, scores = _candidate_scores(counts, 2, 4.0, 0.2)
        candidates = dict(zip([*domain, STOP], scores.tolist()))
        rng_gumbel, rng_peel = np.random.default_rng(1), np.random.default_rng(2)
        draws = 20_000
        gumbel = Counter(topk_dp(hist(counts), 2, 4.0, 0.2, rng_gumbel).words for _ in range(draws))
        peel = Counter(peel_sample(candidates, 2, rng_peel) for _ in range(draws))
        outputs = gumbel.keys() | peel.keys()
        assert len(outputs) == 5
        chi2 = sum(
            (gumbel[o] - peel[o]) ** 2 / (gumbel[o] + peel[o]) for o in outputs
        )  # equal sample sizes
        assert chi2 < 23.51

    def test_neighboring_ratio_small_cases(self):
        # The two parts of the proof in _candidate_scores: outputs that use no
        # word of D(h) - D(h') move by at most e^eps, and the rest weigh < delta.
        words = ["ant", "bat", "cow"]
        for counts_tuple in itertools.product(range(0, 4), repeat=3):
            counts = {w: c for w, c in zip(words, counts_tuple) if c}
            for k, epsilon, delta in itertools.product((1, 2), (0.5, 2.0), (0.01, 0.2)):
                if len(counts) < k:
                    continue
                base = release_distribution(counts, k, epsilon, delta)
                for step in itertools.product((-1, 0, 1), repeat=3):
                    neighbour = {w: c + s for w, c, s in zip(words, counts_tuple, step) if c + s > 0}
                    if len(neighbour) < k or any(c + s < 0 for c, s in zip(counts_tuple, step)):
                        continue
                    other = release_distribution(neighbour, k, epsilon, delta)
                    lost = set(_candidate_scores(counts, k, epsilon, delta)[0]) - set(
                        _candidate_scores(neighbour, k, epsilon, delta)[0]
                    )
                    bad = math.fsum(p for seq, p in base.items() if lost & set(seq))
                    assert bad < delta
                    for seq, p in base.items():
                        if not lost & set(seq):
                            assert p <= math.exp(epsilon) * other[seq] * (1 + 1e-12)

    def test_roadmap_pair_with_a_word_entering_the_support(self):
        # A rewrite holding only "city" is replaced by "zebra zebra zebra zebra".
        group = ["paris river city", "paris river city", "paris river", "paris river", "city"]
        neighbour = group[:-1] + ["zebra zebra zebra zebra"]
        (lists_a, occ_a), (lists_b, occ_b) = tokenize_group(group), tokenize_group(neighbour)
        assert dict(occ_a) == {"paris": 4, "river": 4, "city": 3}
        assert dict(occ_b) == {"paris": 4, "river": 4, "city": 2, "zebra": 4}
        # The old release, a peel over occurrence counts, breaks e^eps on outputs
        # both groups emit and gives "zebra" mass under one group only.
        old_a, old_b = plain_peel_distribution(occ_a, 3, 1.0), plain_peel_distribution(occ_b, 3, 1.0)
        assert max(old_a[o] / old_b[o] for o in old_a) > math.exp(1.0)
        assert any("zebra" in o for o in old_b)
        pres_a, pres_b = presence_counts(lists_a), presence_counts(lists_b)
        assert dict(pres_a) == {"paris": 4, "river": 4, "city": 3}
        assert dict(pres_b) == {"paris": 4, "river": 4, "city": 2, "zebra": 1}
        for k, epsilon, delta in itertools.product((1, 2, 3), (1.0, 8.0), (1e-5, 0.1)):
            p = release_distribution(pres_a, k, epsilon, delta)
            q = release_distribution(pres_b, k, epsilon, delta)
            assert hockey_stick(p, q, epsilon) <= delta
            assert hockey_stick(q, p, epsilon) <= delta

    def test_monotone_in_count(self):
        # Raising a word's count never drops its NDP rank or first-draw probability.
        base = {"ant": 2, "bat": 3, "cow": 1}
        raised = {"ant": 3, "bat": 3, "cow": 1}
        rank_base = list(topk_ndp(hist(base), 3).words).index("ant")
        rank_raised = list(topk_ndp(hist(raised), 3).words).index("ant")
        assert rank_raised <= rank_base
        for k in (1, 2):
            p_base, p_raised = (
                sum(p for seq, p in release_distribution(c, k, 8.0, 0.1).items() if seq[:1] == ("ant",))
                for c in (base, raised)
            )
            assert p_raised >= p_base

    def test_k_exceeding_vocabulary_rejected(self, rng):
        with pytest.raises(ValueError):
            topk_dp(hist({"ant": 1}), 2, 1.0, 1e-5, rng)

    @pytest.mark.parametrize("epsilon, delta", [(0.0, 1e-5), (math.nan, 1e-5), (math.inf, 1e-5),
                                                (1.0, 0.0), (1.0, 1.0), (1.0, math.nan)])
    def test_bad_budget_rejected(self, rng, epsilon, delta):
        with pytest.raises(ValueError):
            topk_dp(hist({"ant": 1}), 1, epsilon, delta, rng)

    def test_ledger_charged_exactly_epsilon(self, rng):
        ledger = PrivacyLedger()
        topk_dp(hist({"ant": 4, "bat": 1}), 1, 2.5, 1e-5, rng, ledger=ledger)
        assert ledger.total() == 2.5
        assert ledger.entries[-1].stage is Stage.KEYWORD_RELEASE
        assert ledger.entries[-1].note == "keyword release (K=1, δ=1e-05)"
        # A release the stop candidate ends early is charged epsilon all the same.
        release = topk_dp(hist({"ant": 4, "bat": 1}), 1, 0.01, 1e-5, rng, ledger=ledger)
        assert release.words == () and ledger.total() == 2.51
        assert release.to_json_dict() == {"words": [], "method": "DP", "epsilon": 0.01, "delta": 1e-5}

    def test_released_words_distinct(self, rng):
        release = topk_dp(hist({"ant": 9, "bat": 8, "cow": 7}), 3, 1e9, 1e-5, rng)
        assert release.words == ("ant", "bat", "cow")
        for _ in range(200):
            words = topk_dp(hist({"ant": 9, "bat": 8, "cow": 7, "dog": 1}), 3, 6.0, 0.1, rng).words
            assert len(set(words)) == len(words) <= 3
