"""Stage-1 group text rewriting.

Produces m independent paraphrases of one prompt, each conditioned only on
the original. Two engines share the contract: a white-box decoder that clips
logits and samples through the exponential mechanism step by step, and a
black-box completion service aligned by temperature, whose per-token cost is
accounted against operator-configured nominal clip bounds. Every rewrite
charges tokens_generated * epsilon_per_token to the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Protocol, Sequence

import numpy as np

from .client import ChatClient, ChatRequest, ClientError, TransportError
from .mechanisms import (
    ClipBounds,
    LogitVector,
    PrivacyLedger,
    Stage,
    clip_logits,
    em_sample,
    epsilon_per_token,
)

DEFAULT_PARAPHRASE_TEMPLATE = (
    "Paraphrase the following question. Output only the paraphrase:\n{prompt}"
)


class RewriteError(RuntimeError):
    """A single rewrite failed; budget already spent stays recorded."""

    def __init__(self, message: str, tokens_generated: int = 0) -> None:
        super().__init__(message)
        self.tokens_generated = tokens_generated


class GroupRewriteError(RuntimeError):
    """Every rewrite slot in the group failed."""


@dataclass(frozen=True)
class RewriteParams:
    mode: str  # "whitebox" | "blackbox"
    temperature: float
    max_tokens: int
    prompt_template: str = DEFAULT_PARAPHRASE_TEMPLATE
    bounds: ClipBounds | None = None
    epsilon_per_token: float | None = None
    model: str = "mock"

    def __post_init__(self) -> None:
        if self.mode not in ("whitebox", "blackbox"):
            raise ValueError(f"unknown rewrite mode: {self.mode!r}")
        if self.temperature <= 0:
            raise ValueError("rewrite temperature must be positive")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        if self.mode == "whitebox" and self.bounds is None:
            raise ValueError("whitebox rewriting requires clip bounds")
        if self.epsilon_per_token is not None and self.bounds is not None:
            implied = epsilon_per_token(self.temperature, self.bounds)
            if not math.isclose(self.epsilon_per_token, implied, rel_tol=1e-9):
                raise ValueError(
                    f"epsilon_per_token {self.epsilon_per_token} inconsistent with "
                    f"temperature {self.temperature} and bounds (implies {implied})"
                )

    def render_prompt(self, prompt: str) -> str:
        return self.prompt_template.replace("{prompt}", prompt)


@dataclass(frozen=True)
class Rewrite:
    text: str
    params: RewriteParams
    tokens_generated: int
    retries: int = 0


@dataclass(frozen=True)
class ParaphraseGroup:
    source: str
    rewrites: tuple[Rewrite, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.rewrites) < 1:
            raise ValueError("a paraphrase group needs at least one rewrite")
        for r in self.rewrites:
            if r.tokens_generated > r.params.max_tokens:
                raise ValueError("rewrite exceeded its max_tokens budget")

    @property
    def size(self) -> int:
        return len(self.rewrites)

    def texts(self) -> list[str]:
        return [r.text for r in self.rewrites]

    def to_json_dict(self) -> dict:
        doc = {
            "source": self.source,
            "rewrites": [
                {
                    "text": r.text,
                    "temperature": r.params.temperature,
                    "epsilon_per_token": (
                        epsilon_per_token(r.params.temperature, r.params.bounds)
                        if r.params.bounds is not None
                        else None
                    ),
                    "tokens": r.tokens_generated,
                }
                for r in self.rewrites
            ],
        }
        if self.warnings:
            doc["warnings"] = list(self.warnings)
        return doc


def paraphrase_group_from_json(doc: dict, max_tokens: int = 512) -> ParaphraseGroup:
    """Rebuild a group from its audit JSON (enough structure for re-analysis)."""
    rewrites = tuple(
        Rewrite(
            text=r["text"],
            params=RewriteParams(
                mode="blackbox",
                temperature=r.get("temperature", 1.0),
                max_tokens=max(max_tokens, int(r.get("tokens", 0))),
            ),
            tokens_generated=int(r.get("tokens", len(r["text"].split()))),
        )
        for r in doc["rewrites"]
    )
    return ParaphraseGroup(source=doc.get("source", ""), rewrites=rewrites)


@dataclass(frozen=True)
class RewriteSchedule:
    """Temperatures for the m rewrite slots, e.g. 0.5..1.5 in 0.1 steps."""

    entries: tuple[tuple[float, int], ...]  # (temperature, count)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("schedule must be nonempty")
        for temperature, count in self.entries:
            if temperature <= 0:
                raise ValueError("schedule temperatures must be positive")
            if count < 1:
                raise ValueError("schedule counts must be positive")

    @property
    def total(self) -> int:
        return sum(count for _, count in self.entries)

    def expand(self) -> list[float]:
        return [t for t, count in self.entries for _ in range(count)]

    @classmethod
    def uniform(cls, temperature: float, m: int) -> "RewriteSchedule":
        return cls(entries=((temperature, m),))

    @classmethod
    def from_range(cls, low: float, high: float, step: float, count_each: int = 1) -> "RewriteSchedule":
        if step <= 0 or high < low:
            raise ValueError("invalid schedule range")
        temps = []
        t = low
        while t <= high + 1e-9:
            temps.append(round(t, 10))
            t += step
        return cls(entries=tuple((t, count_each) for t in temps))


class StepOracle(Protocol):
    """White-box decoding interface: per-step logits over a fixed vocabulary."""

    vocab: Sequence[str]
    eos_index: int | None

    def step_logits(self, context: Sequence[str]) -> LogitVector: ...


@dataclass
class ConstantStepOracle:
    """Toy oracle emitting the same logits at every step; handy for tests."""

    vocab: tuple[str, ...]
    logits: tuple[float, ...]
    eos_index: int | None = None

    def step_logits(self, context: Sequence[str]) -> LogitVector:
        return LogitVector(self.logits)


def paraphrase_whitebox(
    prompt: str,
    params: RewriteParams,
    oracle: StepOracle,
    rng: np.random.Generator,
    ledger: PrivacyLedger,
) -> Rewrite:
    """Decode one paraphrase token by token: clip, sample, append.

    Stops at an end-of-sequence index or at max_tokens. The end-of-sequence
    draw is still an exponential-mechanism invocation, so it counts toward
    the charged tokens.
    """
    if params.mode != "whitebox":
        raise ValueError("paraphrase_whitebox requires whitebox params")
    assert params.bounds is not None
    eps = epsilon_per_token(params.temperature, params.bounds)

    context = params.render_prompt(prompt).split()
    output: list[str] = []
    tokens_generated = 0
    try:
        for _ in range(params.max_tokens):
            u = oracle.step_logits(context)
            u_clipped = clip_logits(u, params.bounds)
            idx = em_sample(u_clipped, params.temperature, rng)
            tokens_generated += 1
            if oracle.eos_index is not None and idx == oracle.eos_index:
                break
            token = oracle.vocab[idx]
            output.append(token)
            context.append(token)
    except Exception as exc:
        if tokens_generated:
            ledger.record(
                Stage.REWRITE, eps, tokens_generated,
                f"whitebox T={params.temperature:g} (aborted)",
            )
        raise RewriteError(
            f"step oracle failed after {tokens_generated} tokens: {exc}",
            tokens_generated=tokens_generated,
        ) from exc

    if tokens_generated:
        ledger.record(Stage.REWRITE, eps, tokens_generated, f"whitebox T={params.temperature:g}")
    return Rewrite(text=" ".join(output), params=params, tokens_generated=tokens_generated)


def paraphrase_blackbox(
    prompt: str,
    params: RewriteParams,
    client: ChatClient,
    ledger: PrivacyLedger,
    seed: int | None = None,
) -> Rewrite:
    """Request one paraphrase from a completion service at the given temperature.

    The remote service cannot enforce clipping, so the per-token epsilon is
    nominal, derived from the configured bounds; the ledger entry is flagged
    accordingly. Units are the tokens the service reports (max_tokens when
    usage is missing).
    """
    if params.mode != "blackbox":
        raise ValueError("paraphrase_blackbox requires blackbox params")
    if params.bounds is None:
        raise ValueError("blackbox accounting requires nominal clip bounds")
    eps = epsilon_per_token(params.temperature, params.bounds)

    req = ChatRequest.single(
        params.render_prompt(prompt),
        model=params.model,
        temperature=params.temperature,
        max_tokens=params.max_tokens,
        seed=seed,
    )
    try:
        resp = client.complete(req)
    except (ClientError, TransportError) as exc:
        raise RewriteError(f"completion service failed: {exc}") from exc

    units = resp.tokens_generated if resp.tokens_generated > 0 else params.max_tokens
    ledger.record(
        Stage.REWRITE, eps, units, f"blackbox T={params.temperature:g} (nominal bounds)"
    )
    return Rewrite(
        text=resp.text,
        params=params,
        tokens_generated=min(units, params.max_tokens),
        retries=resp.attempts - 1,
    )


def rewrite_group(
    prompt: str,
    m: int,
    schedule: RewriteSchedule | float,
    params: RewriteParams,
    rng: np.random.Generator,
    ledger: PrivacyLedger,
    *,
    client: ChatClient | None = None,
    oracle: StepOracle | None = None,
) -> ParaphraseGroup:
    """Produce the m-rewrite group, one independent rewrite per schedule slot.

    Each slot draws from its own child random stream, so rewrites never see
    one another's output and slot order does not perturb the samples. Failed
    slots are dropped with a warning; only an all-failed group is an error.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if isinstance(schedule, (int, float)):
        schedule = RewriteSchedule.uniform(float(schedule), m)
    if schedule.total != m:
        raise ValueError(f"schedule covers {schedule.total} rewrites, expected {m}")
    if params.mode == "blackbox" and client is None:
        raise ValueError("blackbox rewriting needs a chat client")
    if params.mode == "whitebox" and oracle is None:
        raise ValueError("whitebox rewriting needs a step oracle")

    temperatures = schedule.expand()
    # One child stream per slot, derived by index from the root stream, so a
    # slot's draws depend on its position but never on its temperature.
    child_rngs = rng.spawn(m)

    rewrites: list[Rewrite] = []
    issues: list[str] = []
    for slot, temperature in enumerate(temperatures):
        slot_params = replace(params, temperature=temperature, epsilon_per_token=None)
        try:
            if params.mode == "whitebox":
                assert oracle is not None
                rewrites.append(
                    paraphrase_whitebox(prompt, slot_params, oracle, child_rngs[slot], ledger)
                )
            else:
                assert client is not None
                slot_seed = int(child_rngs[slot].integers(0, 2**63))
                rewrites.append(
                    paraphrase_blackbox(prompt, slot_params, client, ledger, seed=slot_seed)
                )
        except RewriteError as exc:
            issues.append(f"slot {slot} (T={temperature:g}) failed: {exc}")

    if not rewrites:
        raise GroupRewriteError(
            f"all {m} rewrites failed: " + "; ".join(issues[:3])
        )
    return ParaphraseGroup(source=prompt, rewrites=tuple(rewrites), warnings=tuple(issues))


@dataclass(frozen=True)
class CalibrationStats:
    mean: float
    std: float
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if self.std < 0:
            raise ValueError("std must be nonnegative")

    def to_bounds(self) -> ClipBounds:
        return ClipBounds(self.mean, self.mean + 4.0 * self.std)


class DegenerateBoundsError(ValueError):
    pass


def calibration_stats(samples: Sequence[float]) -> CalibrationStats:
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size < 2:
        raise ValueError("calibration needs at least 2 samples")
    # Population standard deviation: fixed variant so results are exact.
    return CalibrationStats(mean=float(arr.mean()), std=float(arr.std()), sample_count=int(arr.size))


def calibrate_bounds(samples: Sequence[float]) -> ClipBounds:
    """Clip bounds (mu, mu + 4*sigma) from observed logit samples."""
    stats = calibration_stats(samples)
    if stats.std == 0.0:
        raise DegenerateBoundsError("zero variance in logit samples: bounds would be degenerate")
    return stats.to_bounds()
