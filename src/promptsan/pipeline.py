"""Three-stage sanitization pipeline.

Stage-1 rewrites the prompt into a group, Stage-2 extracts consensus keywords
and the lowest-perplexity exemplar, Stage-3 renders the suppression template
and asks the model for the final question. The original prompt is
structurally withheld from Stage-3: the template request is built from the
exemplar and the released keywords only. ``run_pipeline`` is Stage-1 followed
by ``finish``, which runs Stages 2-3 on any group. Stage-1 is a plug-in seam:
build a group by another paraphrasing method, charge its ledger, call ``finish``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

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
from .mechanisms import ClipBounds, PrivacyLedger, Stage, as_float, check_count
from .prompting import DEFAULT_TEMPLATE_ID, FinalPromptRequest, check_retry_on_leakage
from .prompting import check_template_id, generate_sanitized
from .rewriting import (
    DEFAULT_PARAPHRASE_TEMPLATE,
    ParaphraseGroup,
    RewriteParams,
    StepOracle,
    check_ex_ante_budget,
    check_slot_count,
    check_temperature,
    rewrite_group,
)

@dataclass(frozen=True)
class PipelineConfig:
    bounds: ClipBounds
    m: int = 10
    k: int = 10
    schedule: tuple[float, ...] | float = 1.0  # one temperature for every slot, or one per slot
    release_method: ReleaseMethod = ReleaseMethod.NDP
    epsilon2: float | None = None
    mode: str = "blackbox"
    seed: int = 0
    max_tokens: int = 64
    prompt_template: str = DEFAULT_PARAPHRASE_TEMPLATE
    template_id: str = DEFAULT_TEMPLATE_ID
    retry_on_leakage: int = 0
    fallback_to_exemplar: bool = False
    # Each slot's checked parameters, in slot order; slots of one temperature share one object.
    slots: tuple[RewriteParams, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("m", "k", "seed"):
            check_count(name, getattr(self, name))
        if self.m < 1 or self.k < 1:
            raise ValueError("m and k must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not isinstance(self.release_method, ReleaseMethod):
            raise ValueError(f"release_method must be a ReleaseMethod, got {self.release_method!r}")
        if self.epsilon2 is not None:
            object.__setattr__(self, "epsilon2", as_float("epsilon2", self.epsilon2))
        if self.release_method is ReleaseMethod.DP and (
            self.epsilon2 is None or not 0 < self.epsilon2 < math.inf  # rejects NaN too
        ):
            raise ValueError("DP keyword release requires a positive finite epsilon2")
        if type(self.fallback_to_exemplar) is not bool:
            raise ValueError(f"fallback_to_exemplar must be a bool, got {self.fallback_to_exemplar!r}")
        per_slot = isinstance(self.schedule, tuple)
        if per_slot and len(self.schedule) != self.m:
            raise ValueError("schedule must cover exactly m rewrites")
        check_slot_count(self.m)  # before building an m-long tuple
        if per_slot:
            schedule = temperatures = tuple(map(check_temperature, self.schedule))
        else:
            schedule = check_temperature(self.schedule)
            temperatures = (schedule,) * self.m
        object.__setattr__(self, "schedule", schedule)
        check_retry_on_leakage(self.retry_on_leakage)
        check_template_id(self.template_id)
        params_at = {  # RewriteParams checks each slot's settings
            t: RewriteParams(
                mode=self.mode, temperature=t, max_tokens=self.max_tokens,
                prompt_template=self.prompt_template, bounds=self.bounds,
            )
            for t in dict.fromkeys(temperatures)
        }
        object.__setattr__(self, "slots", tuple(params_at[t] for t in temperatures))
        check_ex_ante_budget(
            [self.max_tokens] * self.m, temperatures, self.bounds,
            self.epsilon2 if self.release_method is ReleaseMethod.DP else 0.0,
        )


@dataclass(frozen=True)
class SanitizedResult:
    group: ParaphraseGroup
    histogram: KeywordHistogram  # the counts the release ranked
    released: ReleasedKeywords
    exemplar: ScoredParaphrase
    final_prompt: str
    sanitized: str
    ledger: PrivacyLedger
    leakage_flag: bool
    exemplar_fallback: bool = False  # the exemplar stands in for a failed final generation

    def to_json_dict(self) -> dict:
        return {
            "original": self.group.source,
            "group": self.group.to_json_dict(),
            "histogram": self.histogram.to_json_dict(),
            "released": self.released.to_json_dict(),
            "exemplar": self.exemplar.to_json_dict(),
            "final_prompt": self.final_prompt,
            "sanitized": self.sanitized,
            "leakage_flag": self.leakage_flag,
            "exemplar_fallback": self.exemplar_fallback,
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


def release_keywords(
    histogram: KeywordHistogram,
    method: ReleaseMethod,
    k: int,
    epsilon2: float | None,
    seed: int,
    ledger: PrivacyLedger | None = None,
) -> ReleasedKeywords:
    """Release the top ``k`` of ``histogram`` for ``finish`` and ``keywords`` alike.

    NDP is post-processing. DP releases at ``epsilon2`` and ``DELTA2``, drawing
    from the second child ``default_rng(seed).spawn(2)`` would give; that
    stream is built only for a DP release. So a stored group and its run's
    seed re-derive the run's release.
    """
    if method is ReleaseMethod.NDP:
        return topk_ndp(histogram, k)
    release_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    return topk_dp(histogram, k, epsilon2, DELTA2, release_rng, ledger=ledger)


def run_pipeline(
    prompt: str,
    config: PipelineConfig,
    client: ChatClient,
    *,
    oracle: StepOracle | None = None,
) -> SanitizedResult:
    """Run the full rewrite -> control -> regenerate flow for one prompt.

    Deterministic given the config seed and deterministic services. Stage 1
    is ``rewrite_group`` on the first child ``default_rng(seed).spawn(2)``
    would give, charging a new ledger; ``finish`` runs Stages 2-3 on its group.
    """
    ledger = PrivacyLedger()
    rewrite_rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    try:
        group = rewrite_group(prompt, config.slots, rewrite_rng, ledger, client=client, oracle=oracle)
    except Exception as exc:
        raise PipelineStageError("stage-1 rewriting", exc, ledger) from exc
    return finish(group, ledger, config, client)


def finish(
    group: ParaphraseGroup, ledger: PrivacyLedger, config: PipelineConfig, client: ChatClient
) -> SanitizedResult:
    """Run Stages 2-3 on ``group``, whose Stage-1 charges ``ledger`` already holds.

    Reads only the rewrite texts. The release ranks ``keyword_histogram``'s
    counts and records a DP release into ``ledger``, which the result carries;
    the exemplar is chosen by the unigram model fit on the rewrites' pooled
    token count.
    """
    completed = ["group"]
    stage = "stage-2 control"
    try:
        texts = group.texts()
        token_lists, counts = tokenize_group(texts)
        histogram = keyword_histogram(config.release_method, token_lists, counts)
        completed.append("histogram")
        released = release_keywords(
            histogram, config.release_method, config.k, config.epsilon2, config.seed, ledger
        )
        completed.append("released")
        exemplar = select_exemplar(texts, token_lists, UnigramPerplexityScorer(counts))
        completed.append("exemplar")

        stage = "stage-3 generation"
        request = FinalPromptRequest(
            exemplar=exemplar.text,
            forbidden=released.words,
            template_id=config.template_id,
        )
        outcome = generate_sanitized(
            request,
            client,
            max_tokens=config.max_tokens,
            retry_on_leakage=config.retry_on_leakage,
            fallback_to_exemplar=config.fallback_to_exemplar,
        )
    except Exception as exc:
        raise PipelineStageError(stage, exc, ledger, tuple(completed)) from exc

    return SanitizedResult(
        group=group,
        histogram=histogram,
        released=released,
        exemplar=exemplar,
        final_prompt=outcome.final_prompt,
        sanitized=outcome.text,
        ledger=ledger,
        leakage_flag=outcome.leakage_flag,
        exemplar_fallback=outcome.exemplar_fallback,
    )


def budget_report(result: SanitizedResult) -> str:
    """Human-readable ledger table plus the closed-form total when uniform."""
    lines = [
        f"{'stage':<16} {'mechanism':<34} {'eps/unit':>12} {'units':>7} {'subtotal':>14}"
    ]
    for entry in result.ledger.entries:
        lines.append(
            f"{entry.stage.value:<16} {entry.note:<34} {entry.epsilon_per_unit:>12.6g}"
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
            lines.append(f"m·n·ε₁ = {m}·{n_part}·{eps1:.6g} = {result.ledger.rewrite_total():.6f}")
        else:
            lines.append("rewrite subtotals by temperature:")
            subtotals: dict[float, float] = {}
            for e in rewrite_entries:
                subtotals[e.epsilon_per_unit] = subtotals.get(e.epsilon_per_unit, 0.0) + e.contribution()
            for eps1 in sorted(subtotals, reverse=True):
                lines.append(f"  eps/unit {eps1:.6g}: subtotal {subtotals[eps1]:.6f}")
    if release_eps > 0:
        lines.append(f"+ ε₂ = {release_eps:.6f} at δ₂ = {result.released.delta:g}")
    lines.append(f"total: {result.ledger.total():.6f}")
    return "\n".join(lines)
