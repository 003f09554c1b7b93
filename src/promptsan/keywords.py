"""Consensus keyword extraction and release.

Words that keep reappearing across independently rewritten versions of a
prompt are treated as leakage signals: either they carry the meaning or they
are identifiers the rewriting failed to disguise. This module aggregates the
group into a word histogram and releases the top K entries, by pure
post-processing of occurrence counts (free under the composition total) or
through an (epsilon, delta)-DP top-K mechanism over presence counts that
charges its epsilon to the ledger.
"""

from __future__ import annotations

import heapq
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .mechanisms import PrivacyLedger, Stage
from .normalization import tokenize
from .stopwords import STOP_WORDS


class ReleaseMethod(str, Enum):
    NDP = "NDP"  # post-processing release, no added budget
    DP = "DP"  # (epsilon, delta)-DP top-K mechanism


def tokenize_normalize(text: str) -> list[str]:
    """Whitespace split, punctuation strip, case fold, stop-word removal."""
    return [tok for tok in tokenize(text) if tok not in STOP_WORDS]


@dataclass(frozen=True)
class KeywordHistogram:
    """Word -> count over a whole paraphrase group (occurrences or presences)."""

    counts: Mapping[str, int]

    def __post_init__(self) -> None:
        counts = self.counts
        if "" in counts:
            raise ValueError("histogram keys must be nonempty")
        if not counts.keys().isdisjoint(STOP_WORDS):
            word = next(w for w in counts if w in STOP_WORDS)
            raise ValueError(f"stop word {word!r} must not appear in the histogram")
        if counts and min(counts.values()) < 0:
            raise ValueError("counts must be nonnegative")

    def distinct_words(self) -> int:
        return len(self.counts)

    def to_json_dict(self) -> dict[str, int]:
        return dict(sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0])))


@dataclass(frozen=True)
class ReleasedKeywords:
    words: tuple[str, ...]
    method: ReleaseMethod
    epsilon: float  # math.inf for NDP
    delta: float = 0.0  # nonzero only for DP

    def __post_init__(self) -> None:
        if len(set(self.words)) != len(self.words):
            raise ValueError("released keywords must be distinct")

    def to_json_dict(self) -> dict:
        out = {
            "words": list(self.words),
            "method": self.method.value,
            "epsilon": None if math.isinf(self.epsilon) else self.epsilon,
        }
        if self.method is ReleaseMethod.DP:
            out["delta"] = self.delta
        return out


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


def presence_counts(token_lists: Iterable[list[str]]) -> Counter[str]:
    """Each word counted once per token list that holds it, in first-occurrence order.

    Replacing one rewrite moves every presence count by at most 1, which the
    DP release needs; an occurrence count can move by the rewrite's length.
    """
    return Counter(chain.from_iterable(map(dict.fromkeys, token_lists)))


def build_histogram(counts: Mapping[str, int]) -> KeywordHistogram:
    """The keyword histogram of a group's pooled token or presence count.

    The original prompt is never counted. Stop words are dropped and the
    remaining words keep their first-occurrence order.
    """
    kept = {word: count for word, count in counts.items() if word not in STOP_WORDS}
    return KeywordHistogram(counts=kept)


def _ranked(counts: Mapping[str, int], n: int) -> list[str]:
    """The n highest-count words by descending count, then ascending word.

    Only the words at or above the n-th largest count are sorted.
    """
    if n < len(counts):
        floor = heapq.nlargest(n, counts.values())[-1]
        words = sorted(w for w, c in counts.items() if c >= floor)
    else:
        words = sorted(counts)
    words.sort(key=counts.__getitem__, reverse=True)  # stable: ties stay in word order
    return words[:n]


def topk_ndp(hist: KeywordHistogram, k: int) -> ReleasedKeywords:
    """Release the K highest-count words by post-processing (zero added budget)."""
    if k < 1:
        raise ValueError("k must be positive")
    if not hist.counts:
        warnings.warn("empty histogram: releasing no keywords", stacklevel=2)
    words = tuple(_ranked(hist.counts, k))
    return ReleasedKeywords(words=words, method=ReleaseMethod.NDP, epsilon=math.inf)


# Count units between the stop candidate and the (K+1)-th count, before the
# delta term; the proof in _candidate_scores needs 2.
STOP_OFFSET = 2
# The delta of every DP release the pipeline and the CLI make.
DELTA2 = 1e-5


def _candidate_scores(
    counts: Mapping[str, int], k: int, epsilon: float, delta: float
) -> tuple[list[str], np.ndarray]:
    """The release's candidates and their scores in units of the noise scale.

    The domain D is the top K words by (-count, word); the last score is the
    stop candidate's. With b = 2K/epsilon, a word scores c_w/b and the stop
    candidate (c_+ + 2)/b + ln(K/delta), where c_+ is the (K+1)-th count (0
    when there is none). The release adds one standard Gumbel to each score
    and emits words in descending noisy order until the stop candidate comes
    up or K words are out. That is the limited-domain mechanism of Durfee &
    Rogers 2019 ("Practical DP Top-k Selection with Pay-what-you-get
    Composition", arXiv:1905.04273), and it has the distribution of K peeling
    exponential-mechanism draws over D plus the stop candidate, each at
    epsilon/K with scores c/2, that end at the stop candidate.

    Claim: for presence counts h, h' of groups that differ in one rewrite
    (so |h_w - h'_w| <= 1 for every word w), each with at least K distinct
    words, P_h(S) <= e^epsilon P_h'(S) + delta for every output set S.

    Proof. c_+ is the (K+1)-th order statistic, so |c_+(h) - c_+(h')| <= 1,
    and every candidate score moves by at most 1/b. Let B = D(h) - D(h').
    (1) A word v in B satisfies h'_v <= c_+(h'), so h_v <= c_+(h') + 1 <=
    c_+(h) + 2. It is released only if its noisy score beats the stop
    candidate's; the difference of two Gumbels is logistic, so that happens
    with probability 1/(1 + e^x) < e^-x for x = (c_+(h) + 2 - h_v)/b +
    ln(K/delta) >= ln(K/delta), that is below delta/K. As |B| <= K, the
    outputs holding a word of B have total probability below delta under h.
    (2) Any other output o with P_h(o) > 0 uses words of D(h) and D(h') only.
    Its probability is a product, over its draws, of a numerator exp(score)
    and one over the sum of exp(score) over the candidates still in play.
    Each numerator moves by at most e^(1/b). In each denominator the shared
    candidates move by at most e^(1/b); the candidates of h' outside D(h),
    never drawn by o, pair one to one with those of B (both domains hold K
    words), and a word w of D(h') - D(h) has h'_w <= h_w + 1 <= c_+(h) + 1
    <= h_v + 1 for every v in D(h). So every draw moves the probability by
    at most e^(2/b). An output of K words has K draws; one that stops after
    j < K words has j + 1. Either way P_h(o) <= e^(2K/b) P_h'(o) =
    e^epsilon P_h'(o). Summing (1) and (2) over S gives the claim.

    With an offset of 1 instead of 2, (1) fails: h_v can reach c_+(h) + 2.
    """
    domain = _ranked(counts, k + 1)
    c_plus = counts[domain.pop()] if len(domain) > k else 0
    scale = 2 * k / epsilon
    scores = np.array([*map(counts.__getitem__, domain), c_plus + STOP_OFFSET], dtype=np.float64)
    scores /= scale
    scores[-1] += math.log(k / delta)
    return domain, scores


def topk_dp(
    hist: KeywordHistogram,
    k: int,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
    ledger: PrivacyLedger | None = None,
) -> ReleasedKeywords:
    """Release up to K distinct words under an (epsilon, delta)-DP top-K mechanism.

    ``hist`` holds presence counts (:func:`presence_counts`), so one
    replaced rewrite moves each count by at most 1. One Gumbel draw per
    candidate over the limited domain of :func:`_candidate_scores`; the
    release may stop before K words, and is charged epsilon either way. The
    guarantee covers groups with at least K distinct words; smaller ones
    are refused.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be positive")
    if k > hist.distinct_words():
        raise ValueError(
            f"k={k} exceeds the {hist.distinct_words()} distinct words in the histogram"
        )

    domain, scores = _candidate_scores(hist.counts, k, epsilon, delta)
    scores += rng.gumbel(size=scores.size)
    chosen: list[str] = []
    for i in np.argsort(-scores).tolist():
        if i == k:
            break
        chosen.append(domain[i])
    if ledger is not None:
        ledger.record(
            Stage.KEYWORD_RELEASE, epsilon, 1, f"keyword release (K={k}, δ={delta:g})"
        )
    return ReleasedKeywords(words=tuple(chosen), method=ReleaseMethod.DP, epsilon=epsilon, delta=delta)
