"""Consensus keyword extraction and release.

Words that keep reappearing across independently rewritten versions of a
prompt are treated as leakage signals: either they carry the meaning or they
are identifiers the rewriting failed to disguise. This module aggregates the
group into a word histogram and releases the top K entries, by pure
post-processing (free under the composition total) or through an epsilon-DP
top-K mechanism that charges its budget to the ledger.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .mechanisms import INFINITE_EPSILON, PrivacyLedger, Stage
from .normalization import tokenize
from .stopwords import STOP_WORDS


class ReleaseMethod(str, Enum):
    NDP = "NDP"  # post-processing release, no added budget
    DP = "DP"  # epsilon-DP top-K mechanism


def tokenize_normalize(text: str) -> list[str]:
    """Whitespace split, punctuation strip, case fold, stop-word removal."""
    return [tok for tok in tokenize(text) if tok not in STOP_WORDS]


@dataclass(frozen=True)
class KeywordHistogram:
    """Word -> occurrence count over a whole paraphrase group."""

    counts: Mapping[str, int]
    total_words: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.total_words:
            raise ValueError("total_words must equal the sum of counts")
        for word, count in self.counts.items():
            if not word:
                raise ValueError("histogram keys must be nonempty")
            if word in STOP_WORDS:
                raise ValueError(f"stop word {word!r} must not appear in the histogram")
            if count < 0:
                raise ValueError("counts must be nonnegative")

    def distinct_words(self) -> int:
        return len(self.counts)

    def to_json_dict(self) -> dict[str, int]:
        return dict(sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0])))


@dataclass(frozen=True)
class ReleasedKeywords:
    words: tuple[str, ...]
    method: ReleaseMethod
    epsilon: float  # INFINITE_EPSILON for NDP

    def __post_init__(self) -> None:
        if len(set(self.words)) != len(self.words):
            raise ValueError("released keywords must be distinct")

    def to_json_dict(self) -> dict:
        return {
            "words": list(self.words),
            "method": self.method.value,
            "epsilon": None if math.isinf(self.epsilon) else self.epsilon,
        }


def tokenize_group(texts: Iterable[str]) -> tuple[list[list[str]], Counter[str]]:
    """Tokenise each text once; return the token lists and their pooled count.

    Stage 2 reads both: the keyword histogram is the count without the stop
    words, and the exemplar scorer fits on the whole count and scores the
    token lists.
    """
    token_lists = [tokenize(text) for text in texts]
    counts: Counter[str] = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    return token_lists, counts


def build_histogram(counts: Mapping[str, int]) -> KeywordHistogram:
    """The keyword histogram of a group's pooled token count.

    Counts accumulate globally across rewrites (every occurrence, not
    per-document presence); the original prompt is never counted. Stop words
    are dropped and the remaining words keep their first-occurrence order.
    """
    kept = {word: count for word, count in counts.items() if word not in STOP_WORDS}
    return KeywordHistogram(counts=kept, total_words=sum(kept.values()))


def _ranked(counts: Mapping[str, int]) -> list[str]:
    # Descending count, ascending word as deterministic tie-break.
    return [w for w, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]


def topk_ndp(
    hist: KeywordHistogram, k: int, ledger: PrivacyLedger | None = None
) -> ReleasedKeywords:
    """Release the K highest-count words by post-processing (zero added budget)."""
    if k < 1:
        raise ValueError("k must be positive")
    if not hist.counts:
        warnings.warn("empty histogram: releasing no keywords", stacklevel=2)
    words = tuple(_ranked(hist.counts)[:k])
    if ledger is not None:
        ledger.record(Stage.POST_PROCESS, INFINITE_EPSILON, 1, "keyword release (NDP)")
    return ReleasedKeywords(words=words, method=ReleaseMethod.NDP, epsilon=INFINITE_EPSILON)


def _peel_step_probs(
    counts: Mapping[str, int], remaining: list[str], epsilon_per_draw: float
) -> np.ndarray:
    """Exponential-mechanism selection probabilities over the remaining words.

    Utility is the raw count with sensitivity 1, so scores are eps*c/2;
    max-subtraction keeps huge epsilons finite.
    """
    scores = np.array([epsilon_per_draw * counts[w] / 2.0 for w in remaining], dtype=np.float64)
    scores -= scores.max()
    weights = np.exp(scores)
    return weights / weights.sum()


def topk_dp(
    hist: KeywordHistogram,
    k: int,
    epsilon: float,
    rng: np.random.Generator,
    ledger: PrivacyLedger | None = None,
) -> ReleasedKeywords:
    """Release K distinct words under an epsilon-DP top-K mechanism.

    K sequential exponential-mechanism draws without replacement ("peeling"),
    each with budget epsilon/K; the composed release is epsilon-DP for count
    sensitivity 1.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    if k > hist.distinct_words():
        raise ValueError(
            f"k={k} exceeds the {hist.distinct_words()} distinct words in the histogram"
        )

    eps_per_draw = epsilon / k
    remaining = sorted(hist.counts)
    chosen: list[str] = []
    for _ in range(k):
        probs = _peel_step_probs(hist.counts, remaining, eps_per_draw)
        idx = int(rng.choice(len(remaining), p=probs))
        chosen.append(remaining.pop(idx))
    if ledger is not None:
        ledger.record(Stage.KEYWORD_RELEASE, epsilon, 1, f"keyword release (peel, K={k})")
    return ReleasedKeywords(words=tuple(chosen), method=ReleaseMethod.DP, epsilon=epsilon)


def peel_sequence_distribution(
    counts: Mapping[str, int], k: int, epsilon: float
) -> dict[tuple[str, ...], float]:
    """Exact output-sequence distribution of the peel mechanism.

    Enumerates every ordered K-tuple the sampler in :func:`topk_dp` can emit,
    using the same per-draw probability rule; intended for audits and for
    verifying the e^epsilon neighboring bound by enumeration.
    """
    if k < 1 or k > len(counts):
        raise ValueError("k must be in [1, distinct words]")
    eps_per_draw = epsilon / k
    dist: dict[tuple[str, ...], float] = {}

    def descend(remaining: list[str], prefix: tuple[str, ...], prob: float) -> None:
        if len(prefix) == k:
            dist[prefix] = prob
            return
        probs = _peel_step_probs(counts, remaining, eps_per_draw)
        for i, word in enumerate(remaining):
            descend(remaining[:i] + remaining[i + 1 :], prefix + (word,), prob * float(probs[i]))

    descend(sorted(counts), (), 1.0)
    return dist
