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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Protocol, Sequence

import numpy as np

from .client import ChatClient, ChatRequest, ClientError, TransportError
from .mechanisms import (
    ClipBounds,
    LogitVector,
    PrivacyLedger,
    Stage,
    clip_logits,  # noqa: F401  -- unused here; perfbench/layers.py wraps this binding
    em_sample,
    epsilon_per_token,
)

DEFAULT_PARAPHRASE_TEMPLATE = (
    "Paraphrase the following question. Output only the paraphrase:\n{prompt}"
)

# The most rewrite slots a schedule may hold: 100 times the paper's m = 10,
# and each slot is one service call or one white-box decode.
MAX_SLOTS = 1000


def check_temperature(temperature: float) -> None:
    """Raise ValueError unless a rewrite temperature is positive and finite."""
    if not 0 < temperature < math.inf:  # rejects NaN too
        raise ValueError(f"rewrite temperature must be positive and finite, got {temperature!r}")


class RewriteError(RuntimeError):
    """A single rewrite failed; budget already spent stays recorded."""


class GroupRewriteError(RuntimeError):
    """Every rewrite slot in the group failed."""


@dataclass(frozen=True)
class RewriteParams:
    mode: str  # "whitebox" | "blackbox"
    temperature: float
    max_tokens: int
    bounds: ClipBounds
    prompt_template: str = DEFAULT_PARAPHRASE_TEMPLATE

    def __post_init__(self) -> None:
        if self.mode not in ("whitebox", "blackbox"):
            raise ValueError(f"unknown rewrite mode: {self.mode!r}")
        check_temperature(self.temperature)
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        if "{prompt}" not in self.prompt_template:
            raise ValueError("prompt_template must contain {prompt}")

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
                    "epsilon_per_token": epsilon_per_token(r.params.temperature, r.params.bounds),
                    "tokens": r.tokens_generated,
                }
                for r in self.rewrites
            ],
        }
        if self.warnings:
            doc["warnings"] = list(self.warnings)
        return doc


@dataclass(frozen=True)
class RewriteSchedule:
    """Temperatures for the m rewrite slots, e.g. 0.5..1.5 in 0.1 steps."""

    entries: tuple[tuple[float, int], ...]  # (temperature, count)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("schedule must be nonempty")
        for temperature, count in self.entries:
            check_temperature(temperature)
            if count < 1:
                raise ValueError("schedule counts must be positive")
        if self.total > MAX_SLOTS:
            raise ValueError(f"a schedule may hold at most {MAX_SLOTS} rewrite slots, got {self.total}")

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
        if not all(map(math.isfinite, (low, high, step))):
            raise ValueError("schedule range must be finite")
        if step <= 0 or high < low:
            raise ValueError("invalid schedule range")
        temps = []
        t = low
        while t <= high + 1e-9:
            # Also ends a loop whose step is too small to move t.
            if len(temps) == MAX_SLOTS:
                raise ValueError(f"schedule range gives more than {MAX_SLOTS} rewrite slots")
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
    """Decode one paraphrase token by token: sample from the clipped logits, append.

    Stops at an end-of-sequence index or at max_tokens. The end-of-sequence
    draw is still an exponential-mechanism invocation, so it counts toward
    the charged tokens.
    """
    if params.mode != "whitebox":
        raise ValueError("paraphrase_whitebox requires whitebox params")
    eps = epsilon_per_token(params.temperature, params.bounds)

    context = params.render_prompt(prompt).split()
    output: list[str] = []
    tokens_generated = 0
    try:
        for _ in range(params.max_tokens):
            u = oracle.step_logits(context)
            idx = em_sample(u, params.temperature, rng, bounds=params.bounds)
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
        raise RewriteError(f"step oracle failed after {tokens_generated} tokens: {exc}") from exc

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
    accordingly. Units are the tokens the service reports; when it reports
    none (or zero), or the client only estimated the count, the ledger
    charges max_tokens.
    """
    if params.mode != "blackbox":
        raise ValueError("paraphrase_blackbox requires blackbox params")
    eps = epsilon_per_token(params.temperature, params.bounds)

    req = ChatRequest.single(
        params.render_prompt(prompt),
        temperature=params.temperature,
        max_tokens=params.max_tokens,
        seed=seed,
    )
    try:
        resp = client.complete(req)
    except (ClientError, TransportError) as exc:
        raise RewriteError(f"completion service failed: {exc}") from exc

    reported = resp.tokens_reported and resp.tokens_generated > 0
    units = resp.tokens_generated if reported else params.max_tokens
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
    schedule: RewriteSchedule,
    params: RewriteParams,
    rng: np.random.Generator,
    ledger: PrivacyLedger,
    *,
    client: ChatClient | None = None,
    oracle: StepOracle | None = None,
) -> ParaphraseGroup:
    """Produce the group, one independent rewrite per schedule slot.

    A white-box slot decodes from its own child random stream, spawned from
    ``rng``; a black-box slot sends a request seed, and the m seeds come from
    one draw on ``rng``. Either way slot i's randomness depends on its
    position only, never on its temperature or on m, so rewrites never see
    one another's output and slot order does not perturb the samples. Failed
    slots are dropped with a warning; only an all-failed group is an error.

    Each slot records into its own ledger, and the slot ledgers are appended
    to ``ledger`` in slot order once the slots are done, also when one
    raised, because slots that ran have spent their budget. A client with a
    ``max_inflight`` attribute has up to that many slots in flight at once;
    rewrites, warnings and ledger entries still come out in slot order,
    exactly as from an inline run. A slot that raises anything but
    ``RewriteError`` stops an inline run at that slot; in flight, every slot
    finishes before the first such error in slot order is re-raised.
    """
    if params.mode == "blackbox" and client is None:
        raise ValueError("blackbox rewriting needs a chat client")
    if params.mode == "whitebox" and oracle is None:
        raise ValueError("whitebox rewriting needs a step oracle")

    temperatures = schedule.expand()
    m = len(temperatures)
    # A white-box slot needs a stream of up to max_tokens uniforms, so each
    # gets a child stream; a black-box slot needs one integer, its request
    # seed. Element i of either depends on i alone.
    if params.mode == "whitebox":
        child_rngs = rng.spawn(m)
    else:
        slot_seeds = rng.integers(0, 2**63, size=m).tolist()
    slot_ledgers = [PrivacyLedger() for _ in range(m)]

    def run_slot(slot: int) -> Rewrite | RewriteError:
        slot_params = replace(params, temperature=temperatures[slot])
        try:
            if params.mode == "whitebox":
                assert oracle is not None
                return paraphrase_whitebox(
                    prompt, slot_params, oracle, child_rngs[slot], slot_ledgers[slot]
                )
            assert client is not None
            return paraphrase_blackbox(
                prompt, slot_params, client, slot_ledgers[slot], seed=slot_seeds[slot]
            )
        except RewriteError as exc:
            return exc

    # Only a client that declares how many calls it may have in flight (the
    # HTTP client) gets worker threads; in-process clients and oracles would
    # pay for the threads and gain nothing.
    workers = min(m, getattr(client, "max_inflight", 1)) if params.mode == "blackbox" else 1
    try:
        if workers > 1:
            # Not pool.map: it cancels pending slots once a result raises.
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run_slot, slot) for slot in range(m)]
            outcomes = [future.result() for future in futures]
        else:
            outcomes = [run_slot(slot) for slot in range(m)]
    finally:
        for slot_ledger in slot_ledgers:
            for entry in slot_ledger.entries:
                ledger.append(entry)

    rewrites: list[Rewrite] = []
    issues: list[str] = []
    for slot, outcome in enumerate(outcomes):
        if isinstance(outcome, RewriteError):
            issues.append(f"slot {slot} (T={temperatures[slot]:g}) failed: {outcome}")
        else:
            rewrites.append(outcome)

    if not rewrites:
        raise GroupRewriteError(
            f"all {m} rewrites failed: " + "; ".join(issues[:3])
        )
    return ParaphraseGroup(source=prompt, rewrites=tuple(rewrites), warnings=tuple(issues))


class DegenerateBoundsError(ValueError):
    pass


def calibrate_bounds(samples: Sequence[float]) -> ClipBounds:
    """Clip bounds (mu, mu + 4*sigma) from observed logit samples."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size < 2:
        raise ValueError("calibration needs at least 2 samples")
    # Population standard deviation: fixed variant so results are exact.
    mean, std = float(arr.mean()), float(arr.std())
    if std == 0.0:
        raise DegenerateBoundsError("zero variance in logit samples: bounds would be degenerate")
    return ClipBounds(mean, mean + 4.0 * std)
