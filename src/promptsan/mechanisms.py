"""Core local-DP math for temperature-controlled text release.

Token selection by temperature softmax over clipped logits is an exponential
mechanism whose utility function is the logit vector: one draw at temperature
T with logits clipped to [b_min, b_max] costs 2*(b_max - b_min)/T of pure
local-DP budget, and sequential draws compose additively. This module holds
that arithmetic (epsilon <-> temperature conversion, clipping, the sampler)
plus the ledger that accumulates the composed budget across a pipeline run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np


def check_count(name: str, value: object) -> None:
    """Raise ValueError unless ``value`` is an int; type() rather than isinstance, as True is no count."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")


def as_float(name: str, value: object) -> float:
    """``value`` as a float; ValueError unless it is an int or float (a bool is no number) a float holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the largest float
        raise ValueError(f"{name} must be a finite number") from None


@dataclass(frozen=True)
class ClipBounds:
    """Inclusive clipping interval [b_min, b_max] for logits, b_min < b_max, stored as floats."""

    b_min: float
    b_max: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "b_min", as_float("b_min", self.b_min))
        object.__setattr__(self, "b_max", as_float("b_max", self.b_max))
        if not (math.isfinite(self.b_min) and math.isfinite(self.b_max)):
            raise ValueError("clip bounds must be finite")
        if not self.b_min < self.b_max:
            raise ValueError(
                f"clip bounds require b_min < b_max, got [{self.b_min}, {self.b_max}]"
            )

    def range(self) -> float:
        return self.b_max - self.b_min

    @classmethod
    def from_unit_epsilon(cls, epsilon_at_unit_temperature: float) -> "ClipBounds":
        """Bounds [0, epsilon/2] whose per-token cost at temperature 1 is epsilon.

        Useful when only the per-token budget constant c = 2*(b_max - b_min)
        is published for a model; the implied clip width is c/2.
        """
        if not as_float("unit_epsilon", epsilon_at_unit_temperature) > 0:
            raise ValueError("epsilon at unit temperature must be positive")
        return cls(0.0, epsilon_at_unit_temperature / 2.0)


@dataclass(frozen=True)
class LogitVector:
    """Per-step token scores, one entry per vocabulary index."""

    values: np.ndarray

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("logit vector needs at least 2 entries")
        object.__setattr__(self, "values", arr)

    @property
    def vocab_size(self) -> int:
        return int(self.values.size)


class Stage(str, Enum):
    REWRITE = "rewrite"
    KEYWORD_RELEASE = "keyword_release"


@dataclass(frozen=True)
class LedgerEntry:
    stage: Stage
    epsilon_per_unit: float
    units: int
    note: str = ""

    def __post_init__(self) -> None:
        if math.isnan(self.epsilon_per_unit) or self.epsilon_per_unit < 0:
            raise ValueError("epsilon_per_unit must be nonnegative or infinite")
        if self.units < 1:
            raise ValueError("units must be a positive integer")

    def contribution(self) -> float:
        """Budget this entry adds to the composition total."""
        return self.epsilon_per_unit * self.units


@dataclass
class PrivacyLedger:
    """Append-only record of budget-consuming events.

    Post-processing of released material is free and leaves no entry. A
    ledger has one writer: concurrent Stage-1 slots each record into their
    own ledger, which the caller's thread then merges in slot order. Holding
    no lock, a ledger pickles like any dataclass.
    """

    entries: list[LedgerEntry] = field(default_factory=list)

    def append(self, entry: LedgerEntry) -> None:
        self.entries.append(entry)

    def record(self, stage: Stage, epsilon_per_unit: float, units: int, note: str = "") -> LedgerEntry:
        entry = LedgerEntry(stage, epsilon_per_unit, units, note)
        self.append(entry)
        return entry

    def total(self) -> float:
        """Sequential-composition total over all entries."""
        return math.fsum(e.contribution() for e in self.entries)

    def rewrite_total(self) -> float:
        return math.fsum(e.contribution() for e in self.entries if e.stage is Stage.REWRITE)

    def to_rows(self) -> list[dict]:
        return [
            {
                "stage": e.stage.value,
                "epsilon_per_unit": e.epsilon_per_unit,
                "units": e.units,
                "note": e.note,
            }
            for e in self.entries
        ]


def epsilon_per_token(temperature: float, bounds: ClipBounds) -> float:
    """Pure-LDP cost of one exponential-mechanism token draw: 2*(b_max-b_min)/T."""
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    return 2.0 * bounds.range() / temperature


def temperature_for_epsilon(epsilon: float, bounds: ClipBounds) -> float:
    """Temperature realizing a per-token budget; inverse of epsilon_per_token."""
    if epsilon <= 0:
        raise ValueError("per-token epsilon must be positive")
    return 2.0 * bounds.range() / epsilon


def clip_logits(u: LogitVector, bounds: ClipBounds) -> LogitVector:
    """Saturate every logit into [b_min, b_max]; order and length preserved."""
    return LogitVector(np.clip(u.values, bounds.b_min, bounds.b_max))


def _weights(u: LogitVector, temperature: float, bounds: ClipBounds | None) -> np.ndarray:
    """exp(clip(u)/T - max(clip(u)/T)) in one fresh vocabulary-sized array.

    Checks finiteness on the max and the min instead of a separate mask pass:
    NaN propagates through max, +inf shows in max and -inf in min. Logits
    clipped to finite ``bounds`` hold no infinity, so only the max is read;
    an entry that T scales to -inf then weighs exactly 0, as in the reference.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    if bounds is None:
        work = u.values.copy()
    else:
        work = np.clip(u.values, bounds.b_min, bounds.b_max)
    work /= temperature
    top = work.max()
    if not (math.isfinite(top) and (bounds is not None or math.isfinite(work.min()))):
        raise ValueError("softmax requires finite logits")
    work -= top
    np.exp(work, out=work)
    return work


# Entries per block of the approximate CDF the certified search reads.
BLOCK = 256
# One searched draw costs about what the exact path spends on this many
# entries (7-8 us against about 4 ns per entry, measured at V from 512 to
# 64,000), so a draw searches only when SEARCH_DRAW_ENTRIES < V.
SEARCH_DRAW_ENTRIES = 2048


def _block_cdf(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The running sums of ``weights`` at block ends, and all but the last over their total."""
    ends = np.add.reduceat(weights, np.arange(0, weights.size, BLOCK))
    np.add.accumulate(ends, out=ends)
    return ends, ends[:-1] / ends[-1]


def _certified_draw(weights: np.ndarray, ends: np.ndarray, edges: np.ndarray, x: float) -> int:
    """The reference draw for the uniform ``x`` if the block search certifies it, else -1.

    ``ends`` and ``edges`` are _block_cdf(weights). ``weights`` holds the
    unnormalised exp(u/T - max) and is left unchanged.
    """
    size = weights.size
    total = ends[-1]
    b = int(edges.searchsorted(x, side="right"))  # the last block takes every x past the edges
    start = b * BLOCK
    # cdf[k] approximates the reference prefix of index start + k - 1.
    cdf = np.empty(min(BLOCK, size - start) + 1)
    cdf[0] = ends[b - 1] if b else 0.0
    cdf[1:] = weights[start:start + BLOCK]
    np.add.accumulate(cdf, out=cdf)
    cdf /= total
    if not b:
        cdf[0] = -math.inf  # index 0 has no lower neighbour
    if b == edges.size:
        cdf[-1] = math.inf  # the reference forces its last prefix to 1.0
    k = int(cdf.searchsorted(x, side="right"))
    slack = 8 * size * 2.0**-53
    if k < cdf.size and cdf[k - 1] < x - slack and cdf[k] > x + slack:
        return start + k - 1
    return -1


def _exact_draw(work: np.ndarray, x: float) -> int:
    """The reference draw for the uniform ``x``; turns the weights in ``work`` into its CDF."""
    work /= work.sum()
    np.cumsum(work, out=work)
    work[-1] = 1.0
    return min(int(work.searchsorted(x, side="right")), work.size - 1)


def em_sample(
    u: LogitVector,
    temperature: float,
    rng: np.random.Generator,
    *,
    bounds: ClipBounds | None = None,
) -> int:
    """Draw one vocabulary index with probability softmax(clip(u)/T).

    Equivalent to the exponential mechanism with the logits as utility. The
    privacy cost holds only for clipped logits: pass ``bounds`` or pre-clip
    ``u`` with ``clip_logits``. The draw reads one double, ``rng.random()``,
    and equals the reference's: e = exp(clip(u)/T - max), p = e / sum(e),
    C = cumsum(p) with C[V-1] set to 1.0, and the draw for a uniform x is
    searchsorted(C, x, side="right"), the j with C[j-1] <= x < C[j]. The
    logits are clipped into the one working array, which then holds e.

    Most draws never build C. Block sums of e give an approximate CDF Ĉ at
    block ends, and the running sum of the block x falls in, started at the
    block's base, gives Ĉ inside it. j is accepted only when Ĉ[j-1] < x - δ
    and Ĉ[j] > x + δ (index 0 has no lower check, as x >= 0, and index V-1
    no upper one, as C[V-1] = 1.0 > x). If |Ĉ_k - C_k| <= δ for all k, this
    gives C[j-1] < x < C[j], so the reference returns j too.

    The bound on δ, with u = 2**-53: a sum of non-negative terms, each of
    which passes through at most m roundings, is within m·u + O(m²u²) of the
    exact sum, relative to it, in any order (Higham, Accuracy and Stability
    of Numerical Algorithms, §4.2). Let R_k be the exact prefix of e over
    its exact total, so R_k <= 1. The reference's sum, division and cumsum
    give m <= 2V, so |C_k - R_k| <= 2V·u. The block sums, their running sum,
    the in-block running sum, the total and the division give m <= 3·BLOCK
    + 2·ceil(V/BLOCK), at most 4V as the search runs only for V >
    SEARCH_DRAW_ENTRIES > BLOCK. Hence δ = 8·V·u (2.8e-11 at V = 32,000,
    where a typical p_i is 3e-5) exceeds |Ĉ_k - C_k| <= 6V·u, and the spare
    2V·u covers rounding x ± δ and subnormal quotients, whose error is
    absolute.

    The exact path is the reference run in place. It takes every draw the
    search leaves undecided, and every draw with V <= SEARCH_DRAW_ENTRIES,
    where one O(V) pass costs less than a searched draw.
    """
    work = _weights(u, temperature, bounds)
    x = rng.random()
    if SEARCH_DRAW_ENTRIES < work.size:
        draw = _certified_draw(work, *_block_cdf(work), x)
        if draw >= 0:
            return draw
    return _exact_draw(work, x)


def schedule_total(
    token_counts: Sequence[int], temperatures: Sequence[float], bounds: ClipBounds
) -> float:
    """Composed budget of a non-uniform rewriting schedule: sum_i n_i * 2*(b_max-b_min)/T_i."""
    if len(token_counts) == 0:
        raise ValueError("schedule must be nonempty")
    if len(token_counts) != len(temperatures):
        raise ValueError(
            f"schedule length mismatch: {len(token_counts)} counts vs {len(temperatures)} temperatures"
        )
    for c in token_counts:
        if c < 1:
            raise ValueError("token counts must be positive")
    return math.fsum(
        c * epsilon_per_token(t, bounds) for c, t in zip(token_counts, temperatures)
    )
