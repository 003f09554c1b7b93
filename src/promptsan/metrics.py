"""From-scratch Rouge-1, Rouge-L and sentence BLEU over token lists.

Used both for privacy leakage (similarity between the original and the
sanitized question; lower is better) and for open-answer utility. Each metric
takes the reference and hypothesis tokens and returns a float in [0, 1].
Tokens come from the shared normalization without stop-word removal, so
metric scores and keyword suppression observe the same token stream.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from math import exp, log

from .normalization import tokenize


def _f1(matched: int, n_ref: int, n_hyp: int) -> float:
    """F1 of ``matched`` tokens out of the hypothesis (precision) and the reference (recall)."""
    precision = matched / n_hyp if n_hyp else 0.0
    recall = matched / n_ref if n_ref else 0.0
    if precision <= 0.0 or recall <= 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _clipped_matches(remaining: Counter, grams: Iterable) -> int:
    """Count the items of ``grams`` that find a count left in ``remaining``, using it up.

    With ``remaining`` holding the reference counts this is the clipped
    overlap, the sum over n-grams g of min(hypothesis count of g, reference
    count of g), without a count table for the hypothesis.
    """
    matched = 0
    for gram in grams:
        left = remaining.get(gram)
        if left:
            remaining[gram] = left - 1
            matched += 1
    return matched


def rouge1(ref: list[str], hyp: list[str]) -> float:
    """Unigram overlap with clipped counts, reported as F1."""
    return _f1(_clipped_matches(Counter(ref), hyp), len(ref), len(hyp))


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


def bleu(ref: list[str], hyp: list[str]) -> float:
    """Sentence BLEU-4 with clipped modified precisions.

    Orders longer than the hypothesis are dropped and the uniform weights
    renormalized over the remaining ones. A hypothesis that matches no
    reference token scores 0, as NLTK's ``sentence_bleu`` does. A zero
    precision at a higher order is smoothed by method 3 of Chen & Cherry
    (2014), "A Systematic Comparison of Smoothing Techniques for
    Sentence-Level BLEU" (WMT), NIST geometric smoothing: the k-th order
    with no match scores 1/(2^k * hypothesis n-gram count). Brevity penalty
    applies only when the hypothesis is shorter than the reference.

    Each side is read once per order: the reference n-grams go into one
    count table, unigrams as the tokens themselves and longer n-grams as
    tuples so that orders never share a key, and the hypothesis n-grams use
    those counts up. Order n has len(hyp) - n + 1 hypothesis n-grams.
    """
    if not hyp or not ref:
        return 0.0
    max_n = min(4, len(hyp))
    remaining = Counter(ref)
    clipped = [_clipped_matches(remaining, hyp)]
    if not clipped[0]:
        return 0.0
    for n in range(2, max_n + 1):
        remaining.update(zip(*[ref[i:] for i in range(n)]))
        clipped.append(_clipped_matches(remaining, zip(*[hyp[i:] for i in range(n)])))
    precisions: list[float] = []
    smoothing = 1.0
    for n, matched in enumerate(clipped, start=1):
        total = len(hyp) - n + 1
        if matched:
            precisions.append(matched / total)
        else:
            smoothing *= 2.0
            precisions.append(1.0 / (smoothing * total))
    geo_mean = exp(sum(log(p) for p in precisions) / len(precisions))
    brevity = exp(1.0 - len(ref) / len(hyp)) if len(hyp) < len(ref) else 1.0
    return min(1.0, brevity * geo_mean)


def all_metrics(reference: str, hypothesis: str) -> dict[str, float]:
    """The three metric values, from one tokenisation of each text."""
    ref, hyp = tokenize(reference), tokenize(hypothesis)
    return {"rouge1": rouge1(ref, hyp), "rougeL": rougeL(ref, hyp), "bleu": bleu(ref, hyp)}
