"""Order statistics and host-speed calibration for the benchmark report.

Percentiles use linear interpolation between order statistics (numpy's
default method). A tail percentile is only meaningful when enough samples lie
beyond it, so the report names the highest percentile of a fixed ladder that
keeps at least ``MIN_BEYOND`` samples above it.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, Sequence

import numpy as np

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0-100) of a nonempty sample."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples beyond it.

    None when even the median has fewer than MIN_BEYOND samples above it.
    """
    best = None
    for q in PERCENTILE_LADDER:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            best = q
    return best


class OpRecord(NamedTuple):
    start_ns: int
    end_ns: int
    cpu_ns: int  # CPU time of the calling thread during the operation
    ok: bool
    items: int


# Host-speed reference. On a shared host the same code runs up to ~2x slower
# for seconds or minutes at a time while other tenants load the same cores
# (process CPU time grows with wall time, so this is the core's effective
# speed, not scheduling). The benchmark times a fixed piece of reference work
# between operations and scales each operation's CPU time to a host on which
# that probe takes ``PROBE_REFERENCE_NS``. A probe runs no program code, so no
# change to the program can move it. Interpreter-bound and array-bound code
# slow down differently under contention, so each workload uses the probe
# that resembles its own work.
PROBE_REFERENCE_NS = 300_000
PROBE_EVERY_NS = 20_000_000
_PROBE_WORDS = tuple(("Where would the quiet archive usually store a silver lantern during the harbor parade? " * 6).split())
_PROBE_VECTOR = np.random.default_rng(0).normal(4.0, 2.5, 32_000)


def _text_work() -> None:
    for _ in range(20):
        counts: dict[str, int] = {}
        for word in _PROBE_WORDS:
            token = word.strip(".,?").lower()
            counts[token] = counts.get(token, 0) + 1


def _vector_work() -> None:
    clipped = np.clip(_PROBE_VECTOR, 0.0, 8.0)
    weights = np.exp(clipped - clipped.max())
    np.searchsorted(np.cumsum(weights / weights.sum()), 0.5)


class Probe(NamedTuple):
    name: str
    work: Callable[[], None]

    def run_ns(self) -> int:
        """Wall time of one pass of the reference work."""
        started = time.perf_counter_ns()
        self.work()
        return time.perf_counter_ns() - started


TEXT_PROBE = Probe("text", _text_work)
VECTOR_PROBE = Probe("vector", _vector_work)


def speed_factor(before_ns: int, after_ns: int) -> float:
    """Reference probe time over the mean of the probes around an interval."""
    return PROBE_REFERENCE_NS / ((before_ns + after_ns) / 2.0)


def calibrated_ns(wall_ns: int, cpu_ns: int, factor: float) -> float:
    """Waiting time as measured plus CPU time at the reference host speed."""
    cpu_ns = min(cpu_ns, wall_ns)
    return (wall_ns - cpu_ns) + cpu_ns * factor


def calibrated_ms(ops: Sequence[OpRecord], probes: Sequence[tuple[int, int]]) -> list[float]:
    """Each operation's calibrated time, from the probes just before and after it.

    ``probes`` holds (start, duration) pairs in time order, taken between
    operations, with one before the first operation and one after the last.
    """
    starts = [t for t, _ in probes]
    out = []
    for op in ops:
        before = probes[bisect_right(starts, op.start_ns) - 1][1]
        after = probes[min(bisect_left(starts, op.end_ns), len(probes) - 1)][1]
        factor = speed_factor(before, after)
        out.append(calibrated_ns(op.end_ns - op.start_ns, op.cpu_ns, factor) / 1e6)
    return out
