"""Lowest-perplexity exemplar selection from a paraphrase group.

Selecting among already-released rewrites is post-processing, so the choice
costs nothing; the module only needs a total order over texts. The scorer
fits an add-one-smoothed unigram model on the group's pooled token count,
which keeps the toolkit runnable and exactly testable without language-model
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .mechanisms import INFINITE_EPSILON, PrivacyLedger, Stage
from .normalization import tokenize


class ScoringError(ValueError):
    pass


class SelectionError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScoredParaphrase:
    index: int
    text: str
    perplexity: float

    def to_json_dict(self) -> dict:
        return {"index": self.index, "text": self.text, "perplexity": self.perplexity}


class UnigramPerplexityScorer:
    """Perplexity under an add-one-smoothed unigram model fit on the group.

    Fit on the group's pooled token count (``keywords.tokenize_group``).
    p(token) = (count + 1) / (total + |vocab|); perplexity is the exponential
    of the mean negative log-probability, hence always >= 1.
    """

    def __init__(self, counts: Mapping[str, int]) -> None:
        self.counts = counts
        self.total = sum(counts.values())
        denom = self.total + len(counts)
        # One log-probability per distinct word, summed per token when scoring.
        self._log_probs = {tok: math.log((c + 1) / denom) for tok, c in counts.items()}

    def __call__(self, text: str) -> float:
        return self.perplexity(tokenize(text))

    def perplexity(self, tokens: Sequence[str]) -> float:
        if not tokens:
            raise ScoringError("cannot score an empty token stream")
        unseen = math.log(1 / (self.total + len(self.counts)))
        log_probs = self._log_probs
        # A plain left-to-right sum: sum() compensates from Python 3.12 on,
        # which would make scores depend on the interpreter version.
        log_sum = 0.0
        for tok in tokens:
            log_sum += log_probs.get(tok, unseen)
        return math.exp(-log_sum / len(tokens))


def select_exemplar(
    texts: Sequence[str],
    token_lists: Sequence[Sequence[str]],
    scorer: UnigramPerplexityScorer,
    ledger: PrivacyLedger | None = None,
) -> ScoredParaphrase:
    """Return the text with minimal perplexity; ties go to the lowest index.

    ``token_lists[i]`` holds the tokens of ``texts[i]``, and the scorer
    scores those token lists. Texts with no tokens are skipped; if every
    text is empty the selection fails. A zero-cost post-processing entry is
    appended when a ledger is supplied.
    """
    if not texts:
        raise SelectionError("cannot select from an empty group")
    best: ScoredParaphrase | None = None
    for index, (text, tokens) in enumerate(zip(texts, token_lists)):
        if not tokens:
            continue
        ppl = scorer.perplexity(tokens)
        if best is None or ppl < best.perplexity:
            best = ScoredParaphrase(index=index, text=text, perplexity=ppl)
    if best is None:
        raise SelectionError("no rewrite in the group was scorable")
    if ledger is not None:
        ledger.record(Stage.POST_PROCESS, INFINITE_EPSILON, 1, "exemplar selection")
    return best
