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
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

INFINITE_EPSILON = math.inf


@dataclass(frozen=True)
class ClipBounds:
    """Inclusive clipping interval [b_min, b_max] for logits, b_min < b_max."""

    b_min: float
    b_max: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.b_min) and math.isfinite(self.b_max)):
            raise ValueError("clip bounds must be finite")
        if not self.b_min < self.b_max:
            raise ValueError(
                f"clip bounds require b_min < b_max, got [{self.b_min}, {self.b_max}]"
            )

    def range(self) -> float:
        return self.b_max - self.b_min

    @classmethod
    def from_unit_epsilon(cls, epsilon_at_unit_temperature: float, b_min: float = 0.0) -> "ClipBounds":
        """Bounds whose per-token cost at temperature 1 equals the given epsilon.

        Useful when only the per-token budget constant c = 2*(b_max - b_min)
        is published for a model; the implied clip width is c/2.
        """
        if epsilon_at_unit_temperature <= 0:
            raise ValueError("epsilon at unit temperature must be positive")
        return cls(b_min, b_min + epsilon_at_unit_temperature / 2.0)


@dataclass(frozen=True)
class LogitVector:
    """Per-step token scores, one entry per vocabulary index."""

    values: np.ndarray

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("logit vector needs at least 2 entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def vocab_size(self) -> int:
        return int(self.values.size)

    def within(self, bounds: ClipBounds) -> bool:
        return bool(np.all(self.values >= bounds.b_min) and np.all(self.values <= bounds.b_max))


class Stage(str, Enum):
    REWRITE = "rewrite"
    KEYWORD_RELEASE = "keyword_release"
    POST_PROCESS = "post_process"


@dataclass(frozen=True)
class LedgerEntry:
    stage: Stage
    epsilon_per_unit: float  # may be INFINITE_EPSILON
    units: int
    note: str = ""

    def __post_init__(self) -> None:
        if math.isnan(self.epsilon_per_unit) or self.epsilon_per_unit < 0:
            raise ValueError("epsilon_per_unit must be nonnegative or infinite")
        if self.units < 1:
            raise ValueError("units must be a positive integer")

    def contribution(self) -> float:
        """Budget this entry adds to the composition total.

        Post-processing consumes nothing, and infinite-epsilon entries are by
        construction post-processing releases, so both contribute zero.
        """
        if self.stage is Stage.POST_PROCESS or not math.isfinite(self.epsilon_per_unit):
            return 0.0
        return self.epsilon_per_unit * self.units


@dataclass
class PrivacyLedger:
    """Append-only record of budget-consuming events.

    Appends must be serialized by the caller when shared across threads; a
    lock is kept here only to make the common single-pipeline case safe.
    """

    entries: list[LedgerEntry] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def append(self, entry: LedgerEntry) -> None:
        with self._lock:
            self.entries.append(entry)

    def record(self, stage: Stage, epsilon_per_unit: float, units: int, note: str = "") -> LedgerEntry:
        entry = LedgerEntry(stage, epsilon_per_unit, units, note)
        self.append(entry)
        return entry

    def total(self) -> float:
        """Sequential-composition total over all finite, non-post-processing entries."""
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
    if temperature <= 0:
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


def softmax(values: Sequence[float] | np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax with max-subtraction for numerical stability."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("softmax requires finite logits")
    scaled = arr / temperature
    scaled = scaled - scaled.max()
    exp = np.exp(scaled)
    return exp / exp.sum()


def em_sample(u_clipped: LogitVector, temperature: float, rng: np.random.Generator) -> int:
    """Draw one vocabulary index with probability softmax(u/T).

    Equivalent to the exponential mechanism with the logits as utility; the
    caller is responsible for having clipped ``u_clipped`` already.
    """
    return int(em_sample_many(u_clipped, temperature, 1, rng)[0])


def em_sample_many(
    u_clipped: LogitVector, temperature: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized em_sample: n independent draws from the same distribution."""
    if n < 1:
        raise ValueError("n must be positive")
    probs = softmax(u_clipped.values, temperature)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0  # guard against cumulative rounding
    draws = np.searchsorted(cdf, rng.random(n), side="right")
    return np.minimum(draws, probs.size - 1)


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


def probability_ratio_bound(temperature: float, bounds: ClipBounds) -> float:
    """Worst-case per-token selection probability ratio exp(2*(b_max-b_min)/T)."""
    return math.exp(epsilon_per_token(temperature, bounds))
