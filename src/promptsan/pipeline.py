"""Three-stage sanitization pipeline.

Stage-1 rewrites the prompt into a group, Stage-2 extracts consensus keywords
and the lowest-perplexity exemplar, Stage-3 renders the suppression template
and asks the model for the final question. The original prompt is
structurally withheld from Stage-3: the template request is built from the
exemplar and the released keywords only. Stage-1 is a plug-in seam; any
callable with the group-rewrite signature can replace the built-in engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .client import ChatClient
from .exemplar import PerplexityScorer, ScoredParaphrase, UnigramPerplexityScorer, select_exemplar
from .keywords import (
    KeywordHistogram,
    ReleasedKeywords,
    ReleaseMethod,
    build_histogram,
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
            self.epsilon2 is None or not self.epsilon2 > 0  # rejects NaN too
        ):
            raise ValueError("DP keyword release requires a positive epsilon2")
        if isinstance(self.schedule, RewriteSchedule):
            if self.schedule.total != self.m:
                raise ValueError("schedule must cover exactly m rewrites")
        elif not self.schedule > 0:
            raise ValueError(f"rewrite temperature must be positive, got {self.schedule!r}")
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
    histogram: KeywordHistogram
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
    """A stage failed; carries the artifacts completed before the failure.

    ``partial["ledger"]`` is the run's ledger, holding every charge made
    before the failure.
    """

    def __init__(self, stage: str, cause: Exception, partial: dict) -> None:
        super().__init__(f"pipeline failed in {stage}: {cause}")
        self.stage = stage
        self.partial = partial


def run_pipeline(
    prompt: str,
    config: PipelineConfig,
    client: ChatClient,
    *,
    oracle: StepOracle | None = None,
    stage1_rewriter: GroupRewriter | None = None,
    scorer: PerplexityScorer | None = None,
    ledger: PrivacyLedger | None = None,
    audit_path: str | None = None,
) -> SanitizedResult:
    """Run the full rewrite -> control -> regenerate flow for one prompt.

    Deterministic given the config seed and deterministic services. The
    default Stage-1 engine is the built-in group rewriter; pass
    ``stage1_rewriter`` to plug in any other paraphrasing method behind the
    same contract. Without a ``scorer``, the exemplar is chosen by the unigram
    model fit on the rewrites' pooled token count.
    """
    if ledger is None:
        ledger = PrivacyLedger()
    root = np.random.default_rng(config.seed)
    rewrite_rng, release_rng = root.spawn(2)

    partial: dict = {"original": prompt, "ledger": ledger}
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
        partial["group"] = group
    except Exception as exc:
        raise PipelineStageError("stage-1 rewriting", exc, partial) from exc

    try:
        texts = group.texts()
        token_lists, counts = tokenize_group(texts)
        histogram = build_histogram(counts)
        partial["histogram"] = histogram
        if config.release_method is ReleaseMethod.NDP:
            released = topk_ndp(histogram, config.k, ledger)
        else:
            assert config.epsilon2 is not None
            released = topk_dp(histogram, config.k, config.epsilon2, release_rng, ledger=ledger)
        partial["released"] = released
        if scorer is None:
            scorer = UnigramPerplexityScorer(counts)
        exemplar = select_exemplar(texts, token_lists, scorer, ledger)
        partial["exemplar"] = exemplar
    except Exception as exc:
        raise PipelineStageError("stage-2 control", exc, partial) from exc

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
        raise PipelineStageError("stage-3 generation", exc, partial) from exc

    result = SanitizedResult(
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
    if audit_path is not None:
        with open(audit_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result.to_json_dict(), ensure_ascii=False) + "\n")
    return result


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
                closed += f" ; + ε₂ = {release_eps:.6f}"
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
