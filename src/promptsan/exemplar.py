"""Lowest-perplexity exemplar selection from a paraphrase group.

Selecting among already-released rewrites is post-processing, so the choice
costs nothing; the module only needs a total order over texts. The scorer is
injectable: any callable text -> positive float works. The bundled fallback
fits an add-one-smoothed unigram model on the whole group, which keeps the
toolkit runnable and exactly testable without language-model weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .mechanisms import INFINITE_EPSILON, PrivacyLedger, Stage
from .normalization import tokenize

if TYPE_CHECKING:  # pragma: no cover
    from .rewriting import ParaphraseGroup

PerplexityScorer = Callable[[str], float]


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

    p(token) = (count + 1) / (total + |vocab|); perplexity is the exponential
    of the mean negative log-probability, hence always >= 1.
    """

    def __init__(self, group_texts: Iterable[str]) -> None:
        self._fit(tokenize(text) for text in group_texts)

    @classmethod
    def from_tokens(cls, token_lists: Iterable[Sequence[str]]) -> "UnigramPerplexityScorer":
        """Fit on already-tokenized texts."""
        scorer = cls.__new__(cls)
        scorer._fit(token_lists)
        return scorer

    def _fit(self, token_lists: Iterable[Sequence[str]]) -> None:
        self.counts: dict[str, int] = {}
        self.total = 0
        for tokens in token_lists:
            for tok in tokens:
                self.counts[tok] = self.counts.get(tok, 0) + 1
                self.total += 1

    def __call__(self, text: str) -> float:
        return self.perplexity(tokenize(text))

    def perplexity(self, tokens: Sequence[str]) -> float:
        if not tokens:
            raise ScoringError("cannot score an empty token stream")
        denom = self.total + len(self.counts)
        log_sum = 0.0
        for tok in tokens:
            log_sum += math.log((self.counts.get(tok, 0) + 1) / denom)
        return math.exp(-log_sum / len(tokens))


def select_exemplar(
    group: "ParaphraseGroup",
    scorer: PerplexityScorer | None = None,
    ledger: PrivacyLedger | None = None,
) -> ScoredParaphrase:
    """Return the rewrite with minimal perplexity; ties go to the lowest index.

    Each rewrite is tokenized once. Rewrites with no tokens, and rewrites a
    custom scorer rejects, are skipped; if nothing is scorable the selection
    fails. A zero-cost post-processing entry is appended when a ledger is
    supplied.
    """
    if not group.rewrites:
        raise SelectionError("cannot select from an empty group")
    token_lists = [tokenize(r.text) for r in group.rewrites]
    unigram = UnigramPerplexityScorer.from_tokens(token_lists) if scorer is None else None
    best: ScoredParaphrase | None = None
    for index, (rewrite, tokens) in enumerate(zip(group.rewrites, token_lists)):
        if not tokens:
            continue
        try:
            ppl = float(scorer(rewrite.text)) if unigram is None else unigram.perplexity(tokens)
        except ScoringError:
            continue
        if best is None or ppl < best.perplexity:
            best = ScoredParaphrase(index=index, text=rewrite.text, perplexity=ppl)
    if best is None:
        raise SelectionError("no rewrite in the group was scorable")
    if ledger is not None:
        ledger.record(Stage.POST_PROCESS, INFINITE_EPSILON, 1, "exemplar selection")
    return best
