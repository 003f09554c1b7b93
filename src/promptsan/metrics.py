"""From-scratch Rouge-1, Rouge-L and sentence BLEU.

Used both for privacy leakage (similarity between the original and the
sanitized question; lower is better) and for open-answer utility. Tokens come
from the shared normalization without stop-word removal, so metric scores and
keyword suppression observe the same token stream.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from math import exp, log

from .normalization import tokenize


class Metric(str, Enum):
    ROUGE1 = "rouge1"
    ROUGEL = "rougeL"
    BLEU = "bleu"


@dataclass(frozen=True)
class MetricScore:
    value: float
    metric: Metric
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"metric value out of [0, 1]: {self.value}")


def _f1(precision: float, recall: float) -> float:
    if precision <= 0.0 or recall <= 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge1(reference: str, hypothesis: str) -> MetricScore:
    """Unigram overlap with clipped counts, reported as F1."""
    return _rouge1(tokenize(reference), tokenize(hypothesis))


def _rouge1(ref_tokens: list[str], hyp_tokens: list[str]) -> MetricScore:
    ref = Counter(ref_tokens)
    hyp = Counter(hyp_tokens)
    overlap = sum((ref & hyp).values())
    precision = overlap / sum(hyp.values()) if hyp else 0.0
    recall = overlap / sum(ref.values()) if ref else 0.0
    return MetricScore(
        value=_f1(precision, recall),
        metric=Metric.ROUGE1,
        details={"precision": precision, "recall": recall, "overlap": overlap},
    )


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Length of a longest common subsequence, by the bit-vector recurrence.

    Allison & Dix (1986), in Hyyrö's (2004) form: bit i of ``row`` stands for
    token i of ``a``, and after each token of ``b`` the zero bits of ``row``
    count the LCS so far. One pass of integer operations per token of ``b``
    replaces a row of the dynamic programme.
    """
    matches: dict[str, int] = {}
    for i, tok in enumerate(a):
        matches[tok] = matches.get(tok, 0) | (1 << i)
    full = (1 << len(a)) - 1
    row = full
    for tok in b:
        hit = row & matches.get(tok, 0)
        row = ((row + hit) | (row - hit)) & full
    return len(a) - row.bit_count()


def rougeL(reference: str, hypothesis: str) -> MetricScore:
    """Longest-common-subsequence overlap, reported as F1."""
    return _rougeL(tokenize(reference), tokenize(hypothesis))


def _rougeL(ref: list[str], hyp: list[str]) -> MetricScore:
    lcs = _lcs_length(ref, hyp)
    precision = lcs / len(hyp) if hyp else 0.0
    recall = lcs / len(ref) if ref else 0.0
    return MetricScore(
        value=_f1(precision, recall),
        metric=Metric.ROUGEL,
        details={"precision": precision, "recall": recall, "lcs": lcs},
    )


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(reference: str, hypothesis: str) -> MetricScore:
    """Sentence BLEU-4 with clipped modified precisions.

    Orders longer than the hypothesis are dropped and the uniform weights
    renormalized over the remaining ones; a zero precision at order n is
    smoothed to 1/(2 * hypothesis n-gram count). Brevity penalty applies only
    when the hypothesis is shorter than the reference.
    """
    return _bleu(tokenize(reference), tokenize(hypothesis))


def _bleu(ref: list[str], hyp: list[str]) -> MetricScore:
    if not hyp or not ref:
        return MetricScore(value=0.0, metric=Metric.BLEU, details={"precisions": []})

    orders = range(1, min(4, len(hyp)) + 1)
    precisions: list[float] = []
    for n in orders:
        hyp_ngrams = _ngrams(hyp, n)
        total = sum(hyp_ngrams.values())
        clipped = sum((hyp_ngrams & _ngrams(ref, n)).values())
        precisions.append(clipped / total if clipped > 0 else 1.0 / (2.0 * total))

    geo_mean = exp(sum(log(p) for p in precisions) / len(precisions))
    brevity = exp(1.0 - len(ref) / len(hyp)) if len(hyp) < len(ref) else 1.0
    value = min(1.0, brevity * geo_mean)
    return MetricScore(
        value=value,
        metric=Metric.BLEU,
        details={"precisions": precisions, "brevity_penalty": brevity},
    )


def all_metrics(reference: str, hypothesis: str) -> dict[str, float]:
    """The three metric values, from one tokenisation of each text."""
    ref, hyp = tokenize(reference), tokenize(hypothesis)
    return {
        "rouge1": _rouge1(ref, hyp).value,
        "rougeL": _rougeL(ref, hyp).value,
        "bleu": _bleu(ref, hyp).value,
    }
