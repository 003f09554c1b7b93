"""Exact reference distributions for the DP keyword release, by enumeration.

The release in ``promptsan.keywords.topk_dp`` draws one Gumbel per candidate.
These references enumerate the peel it must equal in distribution: draws
without replacement, each an exponential mechanism over the candidates still
in play, where a candidate's log-weight is its score.
"""

from __future__ import annotations

import itertools
import math
from typing import Hashable, Mapping

import numpy as np

from promptsan.keywords import _candidate_scores

STOP = None  # the stop candidate's key among the release's candidates


def _peel_step_probs(scores: Mapping[Hashable, float], remaining: list) -> np.ndarray:
    """Exponential-mechanism probabilities over the remaining candidates.

    Max-subtraction keeps huge scores finite.
    """
    logits = np.array([scores[c] for c in remaining], dtype=np.float64)
    weights = np.exp(logits - logits.max())
    return weights / weights.sum()


def peel_sequence_distribution(
    scores: Mapping[Hashable, float], k: int, stop: Hashable = STOP
) -> dict[tuple, float]:
    """Exact distribution of up to K peeling draws over candidate log-weights.

    A draw of ``stop`` ends the sequence and is not part of the output.
    """
    dist: dict[tuple, float] = {}

    def descend(remaining: list, prefix: tuple, prob: float) -> None:
        if len(prefix) == k:
            dist[prefix] = dist.get(prefix, 0.0) + prob
            return
        probs = _peel_step_probs(scores, remaining)
        for i, candidate in enumerate(remaining):
            p = prob * float(probs[i])
            if candidate == stop:
                dist[prefix] = dist.get(prefix, 0.0) + p
            else:
                descend(remaining[:i] + remaining[i + 1 :], prefix + (candidate,), p)

    descend(sorted(scores, key=repr), (), 1.0)
    return dist


def plain_peel_distribution(counts: Mapping[str, int], k: int, epsilon: float) -> dict[tuple, float]:
    """K draws over every word at epsilon/K each, scores c/2; no stop candidate."""
    return peel_sequence_distribution({w: epsilon / k * c / 2.0 for w, c in counts.items()}, k)


def release_distribution(
    counts: Mapping[str, int], k: int, epsilon: float, delta: float
) -> dict[tuple[str, ...], float]:
    """Exact output distribution of ``topk_dp`` on these counts."""
    domain, scores = _candidate_scores(counts, k, epsilon, delta)
    return peel_sequence_distribution(dict(zip([*domain, STOP], scores.tolist())), k)


def hockey_stick(p: Mapping[tuple, float], q: Mapping[tuple, float], epsilon: float) -> float:
    """sup over output sets S of P(S) - e^epsilon Q(S)."""
    bound = math.exp(epsilon)
    return math.fsum(max(0.0, pr - bound * q.get(o, 0.0)) for o, pr in p.items())


def worst_neighbour_divergence(
    words: tuple[str, ...], m: int, k: int, epsilon: float, delta: float
) -> tuple[float, tuple, tuple]:
    """The largest hockey-stick divergence at e^epsilon over replace-one neighbours.

    Enumerates every presence-count vector over ``words`` with counts in
    0..m (0 = the word is absent, so words enter and leave the support) and
    at least K present words, and every neighbour within 1 in each count,
    the change one replaced rewrite can make. Returns the divergence and
    the pair that reaches it.
    """
    dists = {}
    for counts in itertools.product(range(m + 1), repeat=len(words)):
        present = {w: c for w, c in zip(words, counts) if c > 0}
        if len(present) >= k:
            dists[counts] = release_distribution(present, k, epsilon, delta)
    worst = (0.0, (), ())
    for counts, p in dists.items():
        for step in itertools.product((-1, 0, 1), repeat=len(words)):
            other = tuple(c + s for c, s in zip(counts, step))
            q = dists.get(other)
            if q is not None:
                worst = max(worst, (hockey_stick(p, q, epsilon), counts, other))
    return worst


def peel_sample(scores: Mapping[Hashable, float], k: int, rng: np.random.Generator) -> tuple:
    """One draw of the peel: an exponential mechanism per step, until stop or K words."""
    remaining = sorted(scores, key=repr)
    out: list = []
    while len(out) < k:
        candidate = remaining.pop(int(rng.choice(len(remaining), p=_peel_step_probs(scores, remaining))))
        if candidate == STOP:
            break
        out.append(candidate)
    return tuple(out)
