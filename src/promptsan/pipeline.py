"""Three-stage sanitization pipeline.

Stage-1 rewrites the prompt into a group, Stage-2 extracts consensus keywords
and the lowest-perplexity exemplar, Stage-3 renders the suppression template
and asks the model for the final question. The original prompt is
structurally withheld from Stage-3: the template request is built from the
exemplar and the released keywords only. Stage-1 is a plug-in seam; any
callable with the group-rewrite signature can replace the built-in engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .client import ChatClient
from .exemplar import ScoredParaphrase, UnigramPerplexityScorer, select_exemplar
from .keywords import (
    DELTA2,
    KeywordHistogram,
    ReleasedKeywords,
    ReleaseMethod,
    build_histogram,
    presence_counts,
    tokenize_group,
    topk_dp,
    topk_ndp,
)
from .mechanisms import ClipBounds, PrivacyLedger, Stage
from .prompting import FinalPromptRequest, check_retry_on_leakage, generate_sanitized
from .rewriting import (
    DEFAULT_PARAPHRASE_TEMPLATE,
    ParaphraseGroup,
    RewriteParams,
    RewriteSchedule,
    StepOracle,
    check_temperature,
    rewrite_group,
)

GroupRewriter = Callable[[str, np.random.Generator, PrivacyLedger], ParaphraseGroup]


@dataclass(frozen=True)
class PipelineConfig:
    bounds: ClipBounds
    m: int = 10
    k: int = 10
    schedule: RewriteSchedule | float = 1.0
    release_method: ReleaseMethod = ReleaseMethod.NDP
    epsilon2: float | None = None
    mode: str = "blackbox"
    seed: int = 0
    max_tokens: int = 64
    prompt_template: str = DEFAULT_PARAPHRASE_TEMPLATE
    template_id: str = "default-v1"
    retry_on_leakage: int = 0
    fallback_to_exemplar: bool = False

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 1:
            raise ValueError("m and k must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.release_method is ReleaseMethod.DP and (
            self.epsilon2 is None or not 0 < self.epsilon2 < math.inf  # rejects NaN too
        ):
            raise ValueError("DP keyword release requires a positive finite epsilon2")
        if isinstance(self.schedule, RewriteSchedule):
            if self.schedule.total != self.m:
                raise ValueError("schedule must cover exactly m rewrites")
        else:
            check_temperature(self.schedule)
        check_retry_on_leakage(self.retry_on_leakage)
        self.rewrite_params()  # RewriteParams checks the settings it shares

    def rewrite_schedule(self) -> RewriteSchedule:
        """The m slot temperatures; a single temperature covers every slot."""
        if isinstance(self.schedule, RewriteSchedule):
            return self.schedule
        return RewriteSchedule.uniform(float(self.schedule), self.m)

    def rewrite_params(self) -> RewriteParams:
        """Parameters shared by every slot, at the first slot's temperature.

        rewrite_group gives each slot its own temperature from the schedule.
        """
        return RewriteParams(
            mode=self.mode,
            temperature=float(self.rewrite_schedule().entries[0][0]),
            max_tokens=self.max_tokens,
            prompt_template=self.prompt_template,
            bounds=self.bounds,
        )


@dataclass(frozen=True)
class SanitizedResult:
    original: str
    group: ParaphraseGroup
    histogram: KeywordHistogram  # the counts the release ranked
    released: ReleasedKeywords
    exemplar: ScoredParaphrase
    final_prompt: str
    sanitized: str
    ledger: PrivacyLedger
    leakage_flag: bool

    def to_json_dict(self) -> dict:
        return {
            "original": self.original,
            "group": self.group.to_json_dict(),
            "histogram": self.histogram.to_json_dict(),
            "released": self.released.to_json_dict(),
            "exemplar": self.exemplar.to_json_dict(),
            "final_prompt": self.final_prompt,
            "sanitized": self.sanitized,
            "leakage_flag": self.leakage_flag,
            "ledger_total": self.ledger.total(),
            "ledger": {"entries": self.ledger.to_rows(), "total": self.ledger.total()},
        }


class PipelineStageError(RuntimeError):
    """A stage failed; carries its ledger and what was completed before it.

    ``ledger`` is the run's ledger, holding every charge made before the
    failure. ``completed`` names the artefacts built before it, in order
    (``group``, ``histogram``, ``released``, ``exemplar``); the artefacts
    themselves are dropped because each repeats the prompt.
    """

    def __init__(
        self, stage: str, cause: Exception, ledger: PrivacyLedger, completed: tuple[str, ...] = ()
    ) -> None:
        super().__init__(f"pipeline failed in {stage}: {cause}")
        self.stage = stage
        self.ledger = ledger
        self.completed = completed


def keyword_histogram(
    method: ReleaseMethod, token_lists: Iterable[list[str]], counts: Mapping[str, int]
) -> KeywordHistogram:
    """The counts a release ranks: occurrences for NDP, presence for DP."""
    return build_histogram(presence_counts(token_lists) if method is ReleaseMethod.DP else counts)


def run_pipeline(
    prompt: str,
    config: PipelineConfig,
    client: ChatClient,
    *,
    oracle: StepOracle | None = None,
    stage1_rewriter: GroupRewriter | None = None,
) -> SanitizedResult:
    """Run the full rewrite -> control -> regenerate flow for one prompt.

    Deterministic given the config seed and deterministic services. The
    default Stage-1 engine is the built-in group rewriter; pass
    ``stage1_rewriter`` to plug in any other paraphrasing method behind the
    same contract. The exemplar is chosen by the unigram model fit on the
    rewrites' pooled token count.

    The release ranks ``keyword_histogram``'s counts. The rewrite and release
    streams are the two children ``default_rng(seed).spawn(2)`` would give;
    the release stream is built only for a DP release.
    """
    ledger = PrivacyLedger()
    rewrite_rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))

    completed: list[str] = []
    try:
        if stage1_rewriter is None:
            group = rewrite_group(
                prompt,
                config.rewrite_schedule(),
                config.rewrite_params(),
                rewrite_rng,
                ledger,
                client=client if config.mode == "blackbox" else None,
                oracle=oracle,
            )
        else:
            group = stage1_rewriter(prompt, rewrite_rng, ledger)
    except Exception as exc:
        raise PipelineStageError("stage-1 rewriting", exc, ledger) from exc
    completed.append("group")

    try:
        texts = group.texts()
        token_lists, counts = tokenize_group(texts)
        histogram = keyword_histogram(config.release_method, token_lists, counts)
        completed.append("histogram")
        if config.release_method is ReleaseMethod.NDP:
            released = topk_ndp(histogram, config.k, ledger)
        else:
            assert config.epsilon2 is not None
            release_rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,)))
            released = topk_dp(
                histogram, config.k, config.epsilon2, DELTA2, release_rng, ledger=ledger
            )
        completed.append("released")
        exemplar = select_exemplar(texts, token_lists, UnigramPerplexityScorer(counts), ledger)
    except Exception as exc:
        raise PipelineStageError("stage-2 control", exc, ledger, tuple(completed)) from exc
    completed.append("exemplar")

    try:
        request = FinalPromptRequest(
            exemplar=exemplar.text,
            forbidden=released.words,
            template_id=config.template_id,
        )
        outcome = generate_sanitized(
            request,
            client,
            ledger,
            max_tokens=config.max_tokens,
            retry_on_leakage=config.retry_on_leakage,
            fallback_to_exemplar=config.fallback_to_exemplar,
        )
    except Exception as exc:
        raise PipelineStageError("stage-3 generation", exc, ledger, tuple(completed)) from exc

    return SanitizedResult(
        original=prompt,
        group=group,
        histogram=histogram,
        released=released,
        exemplar=exemplar,
        final_prompt=outcome.final_prompt,
        sanitized=outcome.text,
        ledger=ledger,
        leakage_flag=outcome.leakage_flag,
    )


def _format_eps(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6g}"


def budget_report(result: SanitizedResult) -> str:
    """Human-readable ledger table plus the closed-form total when uniform."""
    lines = [
        f"{'stage':<16} {'mechanism':<34} {'eps/unit':>12} {'units':>7} {'subtotal':>14}"
    ]
    for entry in result.ledger.entries:
        lines.append(
            f"{entry.stage.value:<16} {entry.note:<34} {_format_eps(entry.epsilon_per_unit):>12}"
            f" {entry.units:>7} {entry.contribution():>14.6f}"
        )

    rewrite_entries = [e for e in result.ledger.entries if e.stage is Stage.REWRITE]
    release_eps = math.fsum(
        e.contribution() for e in result.ledger.entries if e.stage is Stage.KEYWORD_RELEASE
    )
    if rewrite_entries:
        eps_values = {e.epsilon_per_unit for e in rewrite_entries}
        if len(eps_values) == 1:
            m = len(rewrite_entries)
            units = [e.units for e in rewrite_entries]
            eps1 = next(iter(eps_values))
            n_part = f"{units[0]}" if len(set(units)) == 1 else f"(n_i: {sum(units)} total)"
            closed = f"m·n·ε₁ = {m}·{n_part}·{_format_eps(eps1)} = {result.ledger.rewrite_total():.6f}"
            if release_eps > 0:
                closed += f" ; + ε₂ = {release_eps:.6f} at δ₂ = {result.released.delta:g}"
            lines.append(closed)
        else:
            lines.append("rewrite subtotals by temperature:")
            subtotals: dict[float, float] = {}
            for e in rewrite_entries:
                subtotals[e.epsilon_per_unit] = subtotals.get(e.epsilon_per_unit, 0.0) + e.contribution()
            for eps1 in sorted(subtotals, reverse=True):
                lines.append(f"  eps/unit {_format_eps(eps1)}: subtotal {subtotals[eps1]:.6f}")
    lines.append(f"total: {result.ledger.total():.6f}")
    return "\n".join(lines)
