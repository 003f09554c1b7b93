import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptsan.mechanisms import (
    BLOCK,
    SEARCH_DRAW_ENTRIES,
    ClipBounds,
    LedgerEntry,
    LogitVector,
    PrivacyLedger,
    Stage,
    _block_cdf,
    _certified_draw,
    _exact_draw,
    _weights,
    clip_logits,
    em_sample,
    epsilon_per_token,
    schedule_total,
    temperature_for_epsilon,
)

from em_reference import (
    StubRng,
    em_draws,
    em_sample_distribution,
    reference_cdf,
    reference_em_sample_many,
    reference_probabilities,
)

# The bounded sampler tests clip to the range the unbounded logit shapes lie in.
BOUNDS = ClipBounds(0.0, 8.0)
EITHER_BOUNDS = pytest.mark.parametrize("bounds", [None, BOUNDS], ids=["unbounded", "bounded"])


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

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda value: ClipBounds(value, 8.0), "b_min must be a number"),
            (lambda value: ClipBounds(-8.0, value), "b_max must be a number"),
            (ClipBounds.from_unit_epsilon, "unit_epsilon must be a number"),
        ],
        ids=["b_min", "b_max", "from_unit_epsilon"],
    )
    @pytest.mark.parametrize("value", [True, "4", None])
    def test_a_bound_that_is_no_number_is_refused(self, build, message, value):
        with pytest.raises(ValueError, match=f"{message}, got {value!r}"):
            build(value)

    def test_bounds_are_stored_as_floats(self):
        # A float subclass stays a number; an int past the largest float is refused.
        assert ClipBounds.from_unit_epsilon(np.float64(19.4)) == ClipBounds(0, 9.7)
        bounds = ClipBounds(np.float64(0.5), 8)
        assert bounds == ClipBounds(0.5, 8.0) and {type(bounds.b_min), type(bounds.b_max)} == {float}
        with pytest.raises(ValueError, match="b_max must be a finite number"):
            ClipBounds(0, 10**400)

    def test_nonpositive_temperature_rejected(self, bounds):
        u = LogitVector([1.0, 2.0])
        for temperature in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="temperature must be positive"):
                epsilon_per_token(temperature, bounds)
            with pytest.raises(ValueError, match="temperature must be positive"):
                em_sample(u, temperature, np.random.default_rng(0))
            with pytest.raises(ValueError, match="temperature must be positive"):
                em_sample(u, temperature, np.random.default_rng(0), bounds=bounds)

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
        assert bounds.b_min <= once.values.min() and once.values.max() <= bounds.b_max

    def test_too_short_vector_rejected(self):
        with pytest.raises(ValueError):
            LogitVector([1.0])


def sampled_probabilities(values, temperature: float, bounds: ClipBounds | None = None) -> np.ndarray:
    """The distribution em_sample draws from: its weights, normalised."""
    weights = _weights(LogitVector(values), temperature, bounds)
    return weights / weights.sum()


class TestSampling:
    def test_equal_logits_are_symmetric(self):
        probs = sampled_probabilities([3.0, 3.0], temperature=2.0)
        assert probs.tolist() == [0.5, 0.5]
        assert em_sample_distribution(LogitVector([3.0, 3.0]), 2.0).tolist() == [0.5, 0.5]

    def test_closed_form_softmax(self):
        for probs in (
            sampled_probabilities([0.0, math.log(3.0)], temperature=1.0),
            em_sample_distribution(LogitVector([0.0, math.log(3.0)]), 1.0),
        ):
            assert probs[0] == pytest.approx(0.25, abs=1e-12)
            assert probs[1] == pytest.approx(0.75, abs=1e-12)

    def test_empirical_matches_exact_distribution(self):
        u = LogitVector([0.0, 1.0, 2.0])
        exact = reference_probabilities(u.values, temperature=0.5)
        tv = 0.5 * np.abs(em_sample_distribution(u, 0.5) - exact).sum()
        assert tv < 0.005

    def test_deterministic_given_seed(self):
        u = LogitVector([0.1, 0.9, 0.5])
        a = em_draws(u, 1.0, 1000, np.random.default_rng(42))
        b = em_draws(u, 1.0, 1000, np.random.default_rng(42))
        assert np.array_equal(a, b)
        assert em_sample(u, 1.0, np.random.default_rng(7)) == em_sample(
            u, 1.0, np.random.default_rng(7)
        )

    # With bounds, only NaN is rejected: infinities clip to the bounds.
    @pytest.mark.parametrize(
        ("bad", "bounds"),
        [(math.nan, None), (math.inf, None), (-math.inf, None), (math.nan, BOUNDS)],
        ids=["nan", "inf", "-inf", "nan-bounded"],
    )
    def test_each_nonfinite_kind_is_rejected_anywhere(self, bad, bounds):
        for position in range(3):
            values = [0.0, 20.0, -20.0]
            values[position] = bad
            for temperature in (1.0, 0.5):
                with pytest.raises(ValueError, match="softmax requires finite logits"):
                    em_sample(LogitVector(values), temperature, np.random.default_rng(0), bounds=bounds)

    @EITHER_BOUNDS
    @pytest.mark.parametrize("size", [3, 32_000])
    def test_a_draw_leaves_the_callers_logits_unchanged(self, bounds, size):
        # LogitVector keeps the caller's float64 array, so the sampler works in arrays of its own.
        values = np.random.default_rng(0).normal(4.0, 6.0, size)
        before = values.copy()
        u = LogitVector(values)
        em_sample(u, 0.5, np.random.default_rng(1), bounds=bounds)
        assert u.values is values
        assert np.array_equal(values, before)

    def test_huge_logits_stay_stable(self):
        # Clipped ranges up to ~50 would overflow a naive exponentiation.
        probs = sampled_probabilities([50.0, 0.0], temperature=0.05)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_probability_ratio_bound_on_coarse_grid(self):
        # Any two clipped vectors in [0, 1]^3: per-index ratio <= exp(2/T).
        grid = np.arange(0.0, 1.0001, 0.25)
        vectors = np.array([[a, b, c] for a in grid for b in grid for c in grid])
        bounds = ClipBounds(0.0, 1.0)
        for temperature in (0.1, 1.0):
            probs = np.array([sampled_probabilities(v, temperature, bounds) for v in vectors])
            ratio = (probs.max(axis=0) / probs.min(axis=0)).max()
            assert ratio <= math.exp(2.0 / temperature) + 1e-9


def logit_shapes(size: int, bounds: ClipBounds | None = None) -> dict[str, np.ndarray]:
    """Three logit vectors of ``size`` entries. Without bounds they lie in [0, 8];
    with bounds they lie inside them, far outside them, or outside with infinities."""
    rng = np.random.default_rng(size)
    if bounds is None:
        spike = np.zeros(size)
        spike[-1] = 8.0
        normal = np.clip(rng.normal(4.0, 2.5, size), 0.0, 8.0)
        return {"normal": normal, "ascending": np.linspace(0.0, 8.0, size), "last_spike": spike}
    inside = rng.uniform(bounds.b_min, bounds.b_max, size)
    outside = rng.normal(bounds.b_min + bounds.range() / 2, 3 * bounds.range(), size)
    raw_inf = outside.copy()
    raw_inf[rng.integers(0, size, max(1, size // 5))] = np.inf
    raw_inf[rng.integers(0, size, max(1, size // 5))] = -np.inf
    return {"inside": inside, "outside": outside, "raw_inf": raw_inf}


def clipped_to(u: LogitVector, bounds: ClipBounds | None) -> LogitVector:
    """The logits the reference draws from: ``u`` clipped to ``bounds``, if any."""
    return u if bounds is None else clip_logits(u, bounds)


def certified_draws(weights: np.ndarray, uniforms) -> np.ndarray:
    """_certified_draw for each uniform over one _block_cdf: the reference draw, or -1."""
    ends, edges = _block_cdf(weights)
    return np.array([_certified_draw(weights, ends, edges, x) for x in np.asarray(uniforms).tolist()])


def block_search_matches(values: np.ndarray, temperature: float, uniforms) -> np.ndarray:
    """Run the block search alone on already clipped logits; return its decided mask.

    Asserts that every draw it decides equals the reference draw.
    """
    uniforms = np.asarray(uniforms, dtype=np.float64)
    draws = certified_draws(_weights(LogitVector(values), temperature, None), uniforms)
    want = reference_em_sample_many(LogitVector(values), temperature, uniforms.size, StubRng(uniforms))
    decided = draws >= 0
    assert np.array_equal(draws[decided], want[decided])
    return decided


def exact_path_is_the_reference(u: LogitVector, temperature: float, bounds: ClipBounds | None) -> None:
    """The exact path searches the reference CDF, bit for bit, whatever the uniform.

    _exact_draw leaves the CDF it searched in its work array.
    """
    work = _weights(u, temperature, bounds)
    _exact_draw(work, 0.0)
    assert np.array_equal(work, reference_cdf(clipped_to(u, bounds).values, temperature))


def benchmark_logits(size: int = 32_000) -> np.ndarray:
    """The white-box benchmark's logit shape: N(4, 2.5), a rare end-of-sequence token."""
    values = np.random.default_rng(size).normal(4.0, 2.5, size)
    values[0] = -10.0
    return values


# Vocabularies on each side of BLOCK and of the search cutoff; ones whose last
# block is ragged, full and one entry long for any power-of-two BLOCK up to
# 4096; and the benchmark's.
DRAW_SIZES = (
    2, BLOCK - 1, BLOCK, BLOCK + 1, SEARCH_DRAW_ENTRIES, SEARCH_DRAW_ENTRIES + 1, 4095, 4096, 4097, 32_000
)
DRAW_COUNTS = pytest.mark.parametrize("n", [1, 7, 1000])


def draws_equal_the_reference_sampler(size: int, n: int, bounds: ClipBounds | None) -> None:
    """n draws per shape and temperature equal the reference's and use up as much of the stream.

    Random uniforms all but never land within the search's slack of a
    reference boundary, so more seeds would add little; the every-prefix tests
    and the draw-for-draw property put uniforms there.
    """
    for shape, values in logit_shapes(size, bounds).items():
        u = LogitVector(values)
        for temperature in (0.05, 1.0, 4.0):
            ours, ref = np.random.default_rng(0), np.random.default_rng(0)
            got = em_draws(u, temperature, n, ours, bounds)
            want = reference_em_sample_many(clipped_to(u, bounds), temperature, n, ref)
            assert np.array_equal(got, want), (shape, temperature)
            assert ours.random() == ref.random()


class TestEarlyExitCdf:
    """Unbounded draws equal the reference sampler's."""

    @pytest.mark.parametrize("size", DRAW_SIZES)
    @DRAW_COUNTS
    def test_draws_equal_the_full_cdf_search(self, size, n):
        draws_equal_the_reference_sampler(size, n, None)


class TestBoundedSampling:
    """Draws with ``bounds=`` equal the reference sampler's on clip_logits' output."""

    @pytest.mark.parametrize("size", DRAW_SIZES)
    @DRAW_COUNTS
    def test_draws_equal_clip_then_the_reference_sampler(self, size, n):
        draws_equal_the_reference_sampler(size, n, BOUNDS)


class TestCertifiedBlockSearch:
    """The block search returns the reference draw or leaves the draw to the
    exact path, and ``bounds=`` clips inside the sampler exactly as
    clip_logits clips before it.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.sampled_from(
            [BLOCK - 1, BLOCK, BLOCK + 1, SEARCH_DRAW_ENTRIES + 1, SEARCH_DRAW_ENTRIES + BLOCK + 37, 32_000]
        ),
        bounded=st.booleans(),
        temperature=st.floats(0.05, 4.0),
        zero_blocks=st.lists(st.floats(0.0, 1.0), max_size=3),
        seed=st.integers(0, 2**32 - 1),
        draws=st.one_of(
            st.integers(1, 130),
            st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()), min_size=1, max_size=3),
        ),
    )
    def test_draws_equal_the_reference_draw_for_draw(
        self, size, bounded, temperature, zero_blocks, seed, draws
    ):
        gen = np.random.default_rng(seed)
        values = gen.normal(4.0, 2.5, size)
        for at in zero_blocks:
            start = int(at * (size // BLOCK)) * BLOCK
            values[start:start + BLOCK] = -1e4  # exp underflows to 0
        bounds = None
        if bounded:
            bounds = ClipBounds(-1e4, 8.0)  # keeps the zeroed blocks at weight 0
            values[gen.integers(0, size, 4)] = [np.inf, -np.inf, 20.0, -2e4]
        u = LogitVector(values)
        clipped = clipped_to(u, bounds)
        if isinstance(draws, int):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = em_draws(u, temperature, draws, ours, bounds)
            want = reference_em_sample_many(clipped, temperature, draws, ref)
            assert np.array_equal(got, want)
            assert ours.random() == ref.random()
            block_search_matches(clipped.values, temperature, np.random.default_rng(seed).random(draws))
            return
        # Uniforms on a reference prefix, or one ulp below it.
        cdf = reference_cdf(clipped.values, temperature)[:-1]
        picked = cdf[[int(at * (cdf.size - 1)) for at, _ in draws]]
        uniforms = np.where([below for _, below in draws], np.nextafter(picked, 0.0), picked)
        uniforms = uniforms[uniforms < 1.0]
        if uniforms.size:
            got = em_draws(u, temperature, uniforms.size, StubRng(uniforms), bounds)
            want = reference_em_sample_many(clipped, temperature, uniforms.size, StubRng(uniforms))
            assert np.array_equal(got, want)
            block_search_matches(clipped.values, temperature, uniforms)

    @pytest.mark.parametrize(("bounds", "shape"), [(None, "normal"), (BOUNDS, "raw_inf")], ids=["unbounded", "bounded"])
    def test_every_prefix_equals_the_full_cumulative_sum(self, bounds, shape):
        # Uniforms on each prefix of the reference CDF and on the float just
        # below it tell apart any prefix entry, or clipped logit, that differs
        # from the reference's in the last bit. Each path is checked on all of
        # them; em_sample on every 64th.
        u = LogitVector(logit_shapes(32_000, bounds)[shape])
        clipped = clipped_to(u, bounds)
        cdf = reference_cdf(clipped.values, 1.0)[:-1]
        uniforms = np.concatenate([cdf, np.nextafter(cdf, 0.0)])
        want = reference_em_sample_many(clipped, 1.0, uniforms.size, StubRng(uniforms))
        exact_path_is_the_reference(u, 1.0, bounds)
        block_search_matches(clipped.values, 1.0, uniforms)
        for x, draw in zip(uniforms[::64], want[::64]):
            assert em_sample(u, 1.0, StubRng([x]), bounds=bounds) == draw

    @pytest.mark.parametrize("temperature", [0.5, 1.0, 3.0])
    def test_typical_draws_are_all_decided(self, temperature):
        values = np.clip(benchmark_logits(), 0.0, 8.0)
        uniforms = np.random.default_rng(0).random(5000)
        assert block_search_matches(values, temperature, uniforms).all()

    @pytest.mark.parametrize("size", [SEARCH_DRAW_ENTRIES, SEARCH_DRAW_ENTRIES + 1, 32_000])
    def test_a_call_searches_only_below_the_measured_cutoff(self, size, monkeypatch):
        calls = []

        def spy(weights, ends, edges, x):
            calls.append(x)
            return _certified_draw(weights, ends, edges, x)

        monkeypatch.setattr("promptsan.mechanisms._certified_draw", spy)
        u = LogitVector(benchmark_logits(size))
        uniforms = [np.random.default_rng(n).random() for n in range(1, 20)]
        for n in range(1, 20):
            em_sample(u, 1.0, np.random.default_rng(n))
        assert calls == (uniforms if size > SEARCH_DRAW_ENTRIES else [])

    def test_draws_of_the_first_and_last_index_are_decided(self):
        # Index 0 has no lower neighbour and index V-1 no upper one, so draws
        # close to 0 or to 1 need only the other margin.
        values = np.zeros(32_000)
        values[[0, -1]] = 20.0
        uniforms = np.array([0.0, 1e-12, 0.25, 0.75, 1 - 1e-12, np.nextafter(1.0, 0.0)])
        draws = certified_draws(_weights(LogitVector(values), 1.0, None), uniforms)
        assert draws.tolist() == [0, 0, 0, 31_999, 31_999, 31_999]

    def test_uniforms_on_a_prefix_reach_the_exact_path(self):
        values = np.clip(benchmark_logits(), 0.0, 8.0)
        u = LogitVector(values)
        weights = _weights(u, 1.0, None)
        cdf = reference_cdf(values, 1.0)[:-1]
        for x in cdf[np.linspace(0, cdf.size - 1, 100).astype(int)]:
            assert certified_draws(weights, [x]).tolist() == [-1]
            want = reference_em_sample_many(u, 1.0, 1, StubRng([x])).tolist()
            assert [em_sample(u, 1.0, StubRng([x]))] == want

    def test_cold_draws_reach_the_last_block(self):
        # em_sample's own draws here are a case of TestEarlyExitCdf's draw test.
        u = LogitVector(logit_shapes(32_000)["last_spike"])
        assert np.all(reference_em_sample_many(u, 0.05, 1000, np.random.default_rng(0)) == 31_999)
        assert block_search_matches(u.values, 0.05, np.random.default_rng(0).random(1000)).all()

    def test_uniform_equal_to_a_block_end_prefix_searches_on(self):
        # Blocks one and three share the mass equally and block two has none,
        # so the first block's prefix is exactly 0.5. A draw of exactly 0.5
        # belongs to the first index of block three, never to block two.
        values = np.zeros(3 * BLOCK)
        values[BLOCK:2 * BLOCK] = -1e4
        u = LogitVector(values)
        assert em_sample(u, 1.0, StubRng([0.5])) == 2 * BLOCK
        assert em_draws(u, 1.0, 2, StubRng([0.25, 0.5])).tolist() == [BLOCK // 2, 2 * BLOCK]
        block_search_matches(values, 1.0, [0.25, 0.5])

    def test_single_draws_equal_clip_then_sample(self):
        u = LogitVector(logit_shapes(32_000, BOUNDS)["raw_inf"])
        clipped = clip_logits(u, BOUNDS)
        ours, pre, ref = (np.random.default_rng(5) for _ in range(3))
        for temperature in (0.5, 1.0, 3.0):
            for _ in range(50):
                want = reference_em_sample_many(clipped, temperature, 1, ref)[0]
                assert em_sample(u, temperature, ours, bounds=BOUNDS) == want
                assert em_sample(clipped, temperature, pre) == want
        assert ours.random() == pre.random() == ref.random()

    def test_raw_infinities_clip_to_the_bounds(self):
        # +inf saturates to b_max and -inf to b_min, so the two ends carry
        # the probabilities of logits sitting exactly on the bounds.
        u = LogitVector([np.inf, -np.inf])
        probs = reference_probabilities(clip_logits(u, BOUNDS).values, 1.0)
        uniforms = [probs[0] - 1e-12, probs[0] + 1e-12]
        draws = em_draws(u, 1.0, 2, StubRng(uniforms), bounds=BOUNDS)
        assert draws.tolist() == [0, 1]

    @EITHER_BOUNDS
    def test_one_draw_holds_one_vocabulary_sized_array(self, bounds):
        u = LogitVector(np.random.default_rng(0).normal(4.0, 2.5, 32_000))
        rng = np.random.default_rng(1)
        em_sample(u, 1.0, rng, bounds=bounds)
        tracemalloc.start()
        try:
            em_sample(u, 1.0, rng, bounds=bounds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * u.values.nbytes


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

    @pytest.mark.parametrize("stage", [Stage.REWRITE, Stage.KEYWORD_RELEASE])
    def test_an_infinite_epsilon_makes_the_total_infinite(self, stage):
        eps = epsilon_per_token(0.5, ClipBounds(0.0, 1e308))  # overflows
        assert eps == math.inf
        ledger = PrivacyLedger()
        ledger.record(Stage.REWRITE, 2.0, 3)
        ledger.record(stage, eps, 5)
        assert ledger.total() == math.inf
        assert ledger.rewrite_total() == (math.inf if stage is Stage.REWRITE else 6.0)

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

    def test_pickle_round_trip(self):
        ledger = PrivacyLedger()
        ledger.record(Stage.REWRITE, 19.4, 20, "blackbox T=1 (nominal bounds)")
        ledger.record(Stage.KEYWORD_RELEASE, 1.0, 1)
        ledger.record(Stage.REWRITE, 38.8, 3, "whitebox T=0.5")
        restored = pickle.loads(pickle.dumps(ledger))
        assert restored == ledger
        assert restored.to_rows() == ledger.to_rows()
        assert restored.total() == ledger.total()

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
