"""From-scratch Rouge-1, Rouge-L and sentence BLEU over token lists.

Used both for privacy leakage (similarity between the original and the
sanitized question; lower is better) and for open-answer utility. Each metric
takes the reference and hypothesis tokens and returns a float in [0, 1].
Tokens come from the shared normalization without stop-word removal, so
metric scores and keyword suppression observe the same token stream.
"""

from __future__ import annotations

from collections import Counter
from math import exp, log

from .normalization import tokenize


def _f1(matched: int, n_ref: int, n_hyp: int) -> float:
    """F1 of ``matched`` tokens out of the hypothesis (precision) and the reference (recall)."""
    precision = matched / n_hyp if n_hyp else 0.0
    recall = matched / n_ref if n_ref else 0.0
    if precision <= 0.0 or recall <= 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge1(ref: list[str], hyp: list[str]) -> float:
    """Unigram overlap with clipped counts, reported as F1."""
    return _f1(sum((Counter(ref) & Counter(hyp)).values()), len(ref), len(hyp))


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


def rougeL(ref: list[str], hyp: list[str]) -> float:
    """Longest-common-subsequence overlap, reported as F1."""
    return _f1(_lcs_length(ref, hyp), len(ref), len(hyp))


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(ref: list[str], hyp: list[str]) -> float:
    """Sentence BLEU-4 with clipped modified precisions.

    Orders longer than the hypothesis are dropped and the uniform weights
    renormalized over the remaining ones; a zero precision at order n is
    smoothed to 1/(2 * hypothesis n-gram count). Brevity penalty applies only
    when the hypothesis is shorter than the reference.
    """
    if not hyp or not ref:
        return 0.0
    precisions: list[float] = []
    for n in range(1, min(4, len(hyp)) + 1):
        hyp_ngrams = _ngrams(hyp, n)
        total = sum(hyp_ngrams.values())
        clipped = sum((hyp_ngrams & _ngrams(ref, n)).values())
        precisions.append(clipped / total if clipped > 0 else 1.0 / (2.0 * total))
    geo_mean = exp(sum(log(p) for p in precisions) / len(precisions))
    brevity = exp(1.0 - len(ref) / len(hyp)) if len(hyp) < len(ref) else 1.0
    return min(1.0, brevity * geo_mean)


def all_metrics(reference: str, hypothesis: str) -> dict[str, float]:
    """The three metric values, from one tokenisation of each text."""
    ref, hyp = tokenize(reference), tokenize(hypothesis)
    return {"rouge1": rouge1(ref, hyp), "rougeL": rougeL(ref, hyp), "bleu": bleu(ref, hyp)}
