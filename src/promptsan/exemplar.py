"""Lowest-perplexity exemplar selection from a paraphrase group.

Selecting among already-released rewrites is post-processing, so the choice
costs nothing; the module only needs a total order over texts. The scorer is
injectable: any callable text -> positive float works. The bundled fallback
fits an add-one-smoothed unigram model on the whole group, which keeps the
toolkit runnable and exactly testable without language-model weights.
"""

from __future__ import annotations

import math
from collections import Counter
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
        self.counts: Counter[str] = Counter()
        for tokens in token_lists:
            self.counts.update(tokens)
        self.total = self.counts.total()
        denom = self.total + len(self.counts)
        # One log-probability per distinct word, summed per token when scoring.
        self._log_probs = {tok: math.log((c + 1) / denom) for tok, c in self.counts.items()}

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
    group: "ParaphraseGroup",
    scorer: PerplexityScorer | None = None,
    ledger: PrivacyLedger | None = None,
) -> ScoredParaphrase:
    """Return the rewrite with minimal perplexity; ties go to the lowest index.

    The default scorer fits and scores on the group's shared token lists
    (``ParaphraseGroup.token_lists``). Rewrites with no tokens, and rewrites a
    custom scorer rejects, are skipped; if nothing is scorable the selection
    fails. A zero-cost post-processing entry is appended when a ledger is
    supplied.
    """
    if not group.rewrites:
        raise SelectionError("cannot select from an empty group")
    token_lists = group.token_lists
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
