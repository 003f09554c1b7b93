import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptsan.mechanisms import (
    ClipBounds,
    LedgerEntry,
    LogitVector,
    PrivacyLedger,
    Stage,
    clip_logits,
    em_sample,
    em_sample_many,
    epsilon_per_token,
    schedule_total,
    softmax,
    temperature_for_epsilon,
)

NINE_TEMPERATURES = (0.1, 0.15, 0.2, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)


class TestConversions:
    def test_epsilon_at_published_llama_constant(self):
        # Per-token cost constant 19.4 at T=1 implies a clip width of 9.7.
        bounds = ClipBounds.from_unit_epsilon(19.4)
        assert epsilon_per_token(1.0, bounds) == pytest.approx(19.4, rel=1e-12)
        assert round(epsilon_per_token(0.15, bounds), 1) == 129.3

    def test_epsilon_direct_formula(self):
        assert epsilon_per_token(1.0, ClipBounds(0.0, 2.0)) == 4.0

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            ClipBounds(3.0, 3.0)
        with pytest.raises(ValueError):
            ClipBounds(2.0, 1.0)

    def test_nonpositive_temperature_rejected(self, bounds):
        with pytest.raises(ValueError):
            epsilon_per_token(0.0, bounds)
        with pytest.raises(ValueError):
            epsilon_per_token(-1.0, bounds)

    def test_temperature_for_published_t5_epsilon(self):
        bounds = ClipBounds.from_unit_epsilon(53.42)
        assert temperature_for_epsilon(534.2, bounds) == pytest.approx(0.1, rel=1e-12)
        bounds = ClipBounds.from_unit_epsilon(19.4)
        assert temperature_for_epsilon(19.4, bounds) == pytest.approx(1.0, rel=1e-12)

    def test_temperature_vanishes_for_huge_epsilon(self):
        bounds = ClipBounds.from_unit_epsilon(19.4)
        assert temperature_for_epsilon(1e12, bounds) < 1e-10

    def test_zero_epsilon_rejected(self, bounds):
        with pytest.raises(ValueError):
            temperature_for_epsilon(0.0, bounds)

    @given(
        width=st.floats(min_value=1e-3, max_value=1e3),
        temperature=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_roundtrip_identity(self, width, temperature):
        bounds = ClipBounds(0.0, width)
        eps = epsilon_per_token(temperature, bounds)
        back = temperature_for_epsilon(eps, bounds)
        assert back == pytest.approx(temperature, rel=1e-12)


class TestClipping:
    def test_saturation(self):
        clipped = clip_logits(LogitVector([-5.0, 0.0, 30.0]), ClipBounds(0.0, 10.0))
        assert clipped.values.tolist() == [0.0, 0.0, 10.0]

    def test_identity_within_bounds(self):
        clipped = clip_logits(LogitVector([1.0, 2.0, 3.0]), ClipBounds(0.0, 10.0))
        assert clipped.values.tolist() == [1.0, 2.0, 3.0]

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=12))
    def test_idempotent(self, values):
        bounds = ClipBounds(-7.5, 7.5)
        once = clip_logits(LogitVector(values), bounds)
        twice = clip_logits(once, bounds)
        assert once.values.tolist() == twice.values.tolist()
        assert once.within(bounds)

    def test_too_short_vector_rejected(self):
        with pytest.raises(ValueError):
            LogitVector([1.0])


class TestSampling:
    def test_equal_logits_are_symmetric(self):
        probs = softmax([3.0, 3.0], temperature=2.0)
        assert probs.tolist() == [0.5, 0.5]

    def test_closed_form_softmax(self):
        probs = softmax([0.0, math.log(3.0)], temperature=1.0)
        assert probs[0] == pytest.approx(0.25, abs=1e-12)
        assert probs[1] == pytest.approx(0.75, abs=1e-12)

    def test_empirical_matches_exact_distribution(self):
        u = LogitVector([0.0, 1.0, 2.0])
        exact = softmax(u.values, temperature=0.5)
        draws = em_sample_many(u, 0.5, 1_000_000, np.random.default_rng(0))
        freq = np.bincount(draws, minlength=3) / draws.size
        tv = 0.5 * np.abs(freq - exact).sum()
        assert tv < 0.005

    def test_deterministic_given_seed(self):
        u = LogitVector([0.1, 0.9, 0.5])
        a = em_sample_many(u, 1.0, 1000, np.random.default_rng(42))
        b = em_sample_many(u, 1.0, 1000, np.random.default_rng(42))
        assert np.array_equal(a, b)
        assert em_sample(u, 1.0, np.random.default_rng(7)) == em_sample(
            u, 1.0, np.random.default_rng(7)
        )

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ValueError):
            em_sample(LogitVector([0.0, float("nan")]), 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            em_sample(LogitVector([0.0, float("inf")]), 1.0, np.random.default_rng(0))

    def test_huge_logits_stay_stable(self):
        # Clipped ranges up to ~50 would overflow a naive exponentiation.
        probs = softmax([50.0, 0.0], temperature=0.05)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_probability_ratio_bound_on_coarse_grid(self):
        # Any two clipped vectors in [0, 1]^3: per-index ratio <= exp(2/T).
        grid = np.arange(0.0, 1.0001, 0.25)
        vectors = np.array([[a, b, c] for a in grid for b in grid for c in grid])
        for temperature in (0.1, 1.0):
            probs = np.array([softmax(v, temperature) for v in vectors])
            ratio = (probs.max(axis=0) / probs.min(axis=0)).max()
            assert ratio <= math.exp(2.0 / temperature) + 1e-9


class TestLedger:
    def test_group_rewrite_total(self):
        ledger = PrivacyLedger()
        for _ in range(10):
            ledger.record(Stage.REWRITE, 19.4, 20)
        assert ledger.total() == pytest.approx(3880.0, rel=1e-12)

    def test_keyword_release_adds_epsilon2(self):
        ledger = PrivacyLedger()
        for _ in range(10):
            ledger.record(Stage.REWRITE, 19.4, 20)
        ledger.record(Stage.KEYWORD_RELEASE, 1.0, 1)
        assert ledger.total() == pytest.approx(3881.0, rel=1e-12)

    def test_empty_ledger(self):
        assert PrivacyLedger().total() == 0.0

    def test_post_process_contributes_zero(self):
        ledger = PrivacyLedger()
        ledger.record(Stage.REWRITE, 2.0, 3)
        before = ledger.total()
        ledger.record(Stage.POST_PROCESS, math.inf, 5)
        ledger.record(Stage.POST_PROCESS, 100.0, 5)
        assert ledger.total() == before

    @given(
        st.lists(
            st.tuples(st.floats(0, 50), st.integers(1, 30)), min_size=1, max_size=8
        )
    )
    def test_total_monotone_under_append(self, raw_entries):
        ledger = PrivacyLedger()
        previous = 0.0
        for eps, units in raw_entries:
            ledger.record(Stage.REWRITE, eps, units)
            current = ledger.total()
            assert current >= previous
            previous = current

    @given(
        st.permutations(
            [LedgerEntry(Stage.REWRITE, e, u) for e, u in [(1.5, 2), (0.25, 8), (19.4, 1), (3.0, 5)]]
        )
    )
    def test_total_permutation_invariant(self, entries):
        ledger = PrivacyLedger()
        for entry in entries:
            ledger.append(entry)
        assert ledger.total() == pytest.approx(1.5 * 2 + 0.25 * 8 + 19.4 + 3.0 * 5, rel=1e-12)

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            LedgerEntry(Stage.REWRITE, -1.0, 1)
        with pytest.raises(ValueError):
            LedgerEntry(Stage.REWRITE, 1.0, 0)


class TestScheduleTotal:
    def test_single_entry(self):
        bounds = ClipBounds.from_unit_epsilon(19.4)
        assert schedule_total([1], [1.0], bounds) == pytest.approx(19.4, rel=1e-12)

    def test_eleven_step_schedule_matches_term_sum(self):
        bounds = ClipBounds.from_unit_epsilon(19.4)
        temps = [round(0.5 + 0.1 * i, 10) for i in range(11)]
        counts = [10] * 11
        expected = math.fsum(10 * 19.4 / t for t in temps)
        assert schedule_total(counts, temps, bounds) == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariance(self, bounds):
        counts = [3, 7, 1, 9]
        temps = [0.5, 0.75, 1.0, 1.5]
        forward = schedule_total(counts, temps, bounds)
        backward = schedule_total(counts[::-1], temps[::-1], bounds)
        assert forward == pytest.approx(backward, rel=1e-12)

    def test_length_mismatch_rejected(self, bounds):
        with pytest.raises(ValueError):
            schedule_total([1, 2], [1.0], bounds)
        with pytest.raises(ValueError):
            schedule_total([], [], bounds)
