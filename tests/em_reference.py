"""The white-box sampler written out plainly, and its exact distribution.

``promptsan.mechanisms.em_sample`` must draw what this reference draws:
softmax, full cumulative sum with its last entry forced to 1.0, and a search
of the uniform. ``em_sample_distribution`` reads the sampler's exact
distribution off its draws at the reference CDF boundaries, so no test needs
to sample it many times.
"""

from __future__ import annotations

import numpy as np

from promptsan.mechanisms import ClipBounds, LogitVector, em_sample


def reference_probabilities(values: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(values / T) with max-subtraction, of already clipped logits."""
    scaled = np.asarray(values, dtype=np.float64) / temperature
    exp = np.exp(scaled - scaled.max())
    return exp / exp.sum()


def reference_cdf(values: np.ndarray, temperature: float) -> np.ndarray:
    """The cumulative sum of reference_probabilities with its last entry set to 1.0."""
    cdf = np.cumsum(reference_probabilities(values, temperature))
    cdf[-1] = 1.0
    return cdf


def reference_em_sample_many(u: LogitVector, temperature: float, n: int, rng) -> np.ndarray:
    """n reference draws: the search of ``rng.random(n)`` in reference_cdf."""
    cdf = reference_cdf(u.values, temperature)
    return np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), u.vocab_size - 1)


class StubRng:
    """Hands out fixed uniforms in order, to hit a CDF prefix exactly.

    ``random()`` answers one draw, as ``Generator.random()`` does, and
    ``random(n)`` the next n.
    """

    def __init__(self, uniforms: list[float] | np.ndarray) -> None:
        self.uniforms = iter(np.asarray(uniforms, dtype=np.float64).tolist())

    def random(self, n: int | None = None) -> float | np.ndarray:
        if n is None:
            return next(self.uniforms)
        return np.array([next(self.uniforms) for _ in range(n)])


def em_draws(u: LogitVector, temperature: float, n: int, rng, bounds: ClipBounds | None = None) -> np.ndarray:
    """n successive em_sample draws from one stream."""
    return np.array([em_sample(u, temperature, rng, bounds=bounds) for _ in range(n)])


def em_sample_distribution(
    u: LogitVector, temperature: float, bounds: ClipBounds | None = None
) -> np.ndarray:
    """em_sample's exact distribution over the uniforms k * 2**-53 a Generator draws.

    For each boundary c_j of the reference CDF, a uniform at c_j must draw
    past j and one at the float below it must not. As a draw never decreases
    with its uniform, em_sample then returns j for exactly the uniforms in
    [c_{j-1}, c_j), whose share of the grid is read off the boundaries.
    """
    values = u.values if bounds is None else np.clip(u.values, bounds.b_min, bounds.b_max)
    edges = reference_cdf(values, temperature)[:-1]
    for j, c in enumerate(edges.tolist()):
        assert em_sample(u, temperature, StubRng([c]), bounds=bounds) > j
        if c > 0.0:  # no uniform lies below 0
            assert em_sample(u, temperature, StubRng([np.nextafter(c, 0.0)]), bounds=bounds) <= j
    steps = np.ceil(edges * 2.0**53) / 2.0**53
    return np.diff(steps, prepend=0.0, append=1.0)
