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
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .client import MAX_SLOTS, ChatClient, ChatRequest, ClientError, TransportError
from .mechanisms import (
    ClipBounds,
    LogitVector,
    PrivacyLedger,
    Stage,
    as_float,
    check_count,
    clip_logits,  # noqa: F401  -- unused here; perfbench/layers.py wraps this binding
    em_sample,
    epsilon_per_token,
    schedule_total,
)

DEFAULT_PARAPHRASE_TEMPLATE = (
    "Paraphrase the following question. Output only the paraphrase:\n{prompt}"
)

def check_temperature(temperature: object) -> float:
    """``temperature`` as a float; ValueError unless it is a positive finite number."""
    value = as_float("rewrite temperature", temperature)
    if not 0 < value < math.inf:  # rejects NaN too
        raise ValueError(f"rewrite temperature must be positive and finite, got {temperature!r}")
    return value


def check_slot_count(m: int) -> None:
    """Raise ValueError unless a run has 1 to MAX_SLOTS rewrite slots."""
    if not 1 <= m <= MAX_SLOTS:
        raise ValueError(f"a run needs at least one slot and at most {MAX_SLOTS} rewrite slots, got {m}")


def schedule_range(low: float, high: float, step: float) -> tuple[float, ...]:
    """The temperatures low, low + step, ... up to high, e.g. 0.5..1.5 in 0.1 steps; stored as floats."""
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
    return tuple(map(check_temperature, temps))


def check_ex_ante_budget(
    token_counts: Sequence[int], temperatures: Sequence[float], bounds: ClipBounds, epsilon2: float = 0.0
) -> None:
    """Raise ValueError unless the most a run may charge, schedule_total + epsilon2, is finite."""
    try:
        budget = schedule_total(token_counts, temperatures, bounds) + epsilon2
    except OverflowError:  # math.fsum overflowing on finite terms
        budget = math.inf
    if not math.isfinite(budget):
        raise ValueError("the ex-ante budget m·max_tokens·ε₁ (+ε₂) is not a finite number")


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
        check_count("max_tokens", self.max_tokens)
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        if not isinstance(self.bounds, ClipBounds):
            raise ValueError(f"bounds must be a ClipBounds, got {self.bounds!r}")
        if not isinstance(self.prompt_template, str):
            raise ValueError(f"prompt_template must be a string, got {self.prompt_template!r}")
        if "{prompt}" not in self.prompt_template:
            raise ValueError("prompt_template must contain {prompt}")
        check_ex_ante_budget([self.max_tokens], [self.temperature], self.bounds)

    def render_prompt(self, prompt: str) -> str:
        return self.prompt_template.replace("{prompt}", prompt)


@dataclass(frozen=True)
class Rewrite:
    text: str
    params: RewriteParams
    tokens_generated: int


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


class StepOracle(Protocol):
    """White-box decoding interface: per-step logits over a fixed vocabulary."""

    vocab: Sequence[str]
    eos_index: int | None

    def step_logits(self, context: Sequence[str]) -> LogitVector: ...


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
    accordingly. The rewrite's tokens, and its charge, are the tokens the
    service reports, or max_tokens when it reports none (or zero). A reply
    that reports more than max_tokens is dropped and charged max_tokens.
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

    units = resp.tokens_generated or params.max_tokens
    note = f"blackbox T={params.temperature:g} (nominal bounds)"
    if units > params.max_tokens:
        # The error leaves out the count, which depends on the whole over-long reply.
        ledger.record(Stage.REWRITE, eps, params.max_tokens, note)
        raise RewriteError(f"the reply broke the cap of max_tokens = {params.max_tokens}")
    ledger.record(Stage.REWRITE, eps, units, note)
    return Rewrite(text=resp.text, params=params, tokens_generated=units)


def rewrite_group(
    prompt: str,
    slots: Sequence[RewriteParams],
    rng: np.random.Generator,
    ledger: PrivacyLedger,
    *,
    client: ChatClient | None = None,
    oracle: StepOracle | None = None,
) -> ParaphraseGroup:
    """Produce the group, one independent rewrite per slot, each with its own params.

    ``PipelineConfig.slots`` gives one run's slots. The engine follows the
    slots' mode; slots of two modes fail with ``ValueError`` before any
    call, as do no slots or more than MAX_SLOTS. A white-box slot decodes
    from its own child random stream, spawned from ``rng``; a black-box slot
    sends a request seed, and the m seeds come from one draw on ``rng``.
    Either way slot i's randomness depends on its position only, never on
    its temperature or on m, so rewrites never see one another's output and
    slot order does not perturb the samples. Failed slots are dropped with a
    warning; only an all-failed group is an error.

    Each slot records into its own ledger. Every slot runs, whatever another
    raises; then the slot ledgers are appended to ``ledger`` in slot order,
    since every slot has spent its budget, and the first error in slot order
    that is not a ``RewriteError`` is re-raised. Black-box slots run
    through the client's ``map`` if it has one: the HTTP client's runs them
    on its own worker threads, up to its endpoint's ``max_inflight`` at once, so at its
    default all m slots go out in one wave. Otherwise the slots run inline.
    What a run returns, records or raises does not depend on how they run.
    """
    check_slot_count(len(slots))
    mode = slots[0].mode
    if any(slot.mode != mode for slot in slots):
        raise ValueError(f"every slot of a group needs one mode, got {sorted({s.mode for s in slots})}")
    if mode == "blackbox" and client is None:
        raise ValueError("blackbox rewriting needs a chat client")
    if mode == "whitebox" and oracle is None:
        raise ValueError("whitebox rewriting needs a step oracle")

    m = len(slots)
    # A white-box slot needs a stream of up to max_tokens uniforms, so each
    # gets a child stream; a black-box slot needs one integer, its request
    # seed. Element i of either depends on i alone.
    if mode == "whitebox":
        child_rngs = rng.spawn(m)
    else:
        slot_seeds = rng.integers(0, 2**63, size=m).tolist()
    slot_ledgers = [PrivacyLedger() for _ in range(m)]

    def run_slot(slot: int) -> Rewrite | Exception:
        try:
            if mode == "whitebox":
                assert oracle is not None
                return paraphrase_whitebox(prompt, slots[slot], oracle, child_rngs[slot], slot_ledgers[slot])
            assert client is not None
            return paraphrase_blackbox(prompt, slots[slot], client, slot_ledgers[slot], seed=slot_seeds[slot])
        except Exception as exc:  # sorted out in slot order once every slot has run
            return exc

    # Only the HTTP client has a map: in-process clients and oracles would gain nothing from threads.
    run_all = getattr(client, "map", map) if mode == "blackbox" else map
    outcomes = list(run_all(run_slot, range(m)))
    for slot_ledger in slot_ledgers:
        for entry in slot_ledger.entries:
            ledger.append(entry)

    rewrites: list[Rewrite] = []
    issues: list[str] = []
    for slot, outcome in enumerate(outcomes):
        if isinstance(outcome, RewriteError):
            issues.append(f"slot {slot} (T={slots[slot].temperature:g}) failed: {outcome}")
        elif isinstance(outcome, Exception):
            raise outcome
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
