"""A white-box privacy audit of Stage 1, by enumeration.

For a step oracle over a vocabulary of at most 4 tokens and at most 3 draws,
every output a rewrite, or a group of rewrites, can give is enumerated.
Each is decoded for real: ``rewrite_group`` runs with stub streams whose
uniforms pick that output's tokens, and the ledger's total is that run's
charge. The output's exact probability under each prompt is the product of
its steps' ``reference_probabilities`` over the clipped logits. Stage 1 is
local DP, so any two prompts are neighbours, and the privacy loss of an
output between prompts p and q is log P_p(output) - log P_q(output). Pure DP
holds for the charge recorded only if no output loses more than it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from em_reference import StubRng, reference_cdf, reference_probabilities
from promptsan.mechanisms import ClipBounds, LogitVector, PrivacyLedger
from promptsan.rewriting import RewriteParams, rewrite_group

# Renders a one-word prompt as the oracle's whole context before any output.
AUDIT_TEMPLATE = "{prompt}"


@dataclass(frozen=True)
class TableOracle:
    """A step oracle whose step t under prompt p emits ``rows[p][t]``, clipped or not.

    Rendered with AUDIT_TEMPLATE, a context is the prompt's one word followed
    by the tokens decoded so far.
    """

    vocab: tuple[str, ...]
    rows: Mapping[str, Sequence[Sequence[float]]]
    eos_index: int | None = None

    def step_logits(self, context: Sequence[str]) -> LogitVector:
        prompt, *decoded = context
        return LogitVector(self.rows[prompt][len(decoded)])


def extreme_rows(vocab_size: int, steps: int, bounds: ClipBounds, top: bool) -> list[list[float]]:
    """The extreme prompt pair's rows: at step t, index -t mod V at b_max and the rest at b_min, or the reverse.

    The index moves so that an output drawing each step's top index compounds
    the loss, EOS (index V - 1) at step 1 included. Each value lies one past
    its bound, so the pair also checks that clipping happens.
    """
    high, low = bounds.b_max + 1.0, bounds.b_min - 1.0
    if not top:
        high, low = low, high
    return [[high if i == -t % vocab_size else low for i in range(vocab_size)] for t in range(steps)]


def outputs(vocab_size: int, eos_index: int | None, max_tokens: int) -> Iterator[tuple[int, ...]]:
    """Every sequence of draws a rewrite can make: up to max_tokens, ending at the first EOS."""
    for length in range(1, max_tokens + 1):
        for draws in itertools.product(range(vocab_size), repeat=length):
            early = [i for i, d in enumerate(draws) if d == eos_index]
            if (early[0] == length - 1) if early else length == max_tokens:
                yield draws


def step_rows(oracle: TableOracle, prompt: str, output: tuple[int, ...], bounds: ClipBounds) -> list[np.ndarray]:
    """The clipped logits each draw of ``output`` saw under ``prompt``."""
    context = [prompt]
    rows = []
    for draw in output:
        rows.append(np.clip(oracle.step_logits(context).values, bounds.b_min, bounds.b_max))
        context.append(oracle.vocab[draw])
    return rows


def log_probability(oracle: TableOracle, prompt: str, output: tuple[int, ...], temperature: float,
                    bounds: ClipBounds) -> float:
    """The exact log-probability that a rewrite of ``prompt`` draws ``output``."""
    return math.fsum(
        math.log(reference_probabilities(row, temperature)[draw])
        for row, draw in zip(step_rows(oracle, prompt, output, bounds), output)
    )


def picking_uniforms(oracle: TableOracle, prompt: str, output: tuple[int, ...], temperature: float,
                     bounds: ClipBounds) -> list[float]:
    """One uniform per draw, at the middle of its token's interval of the reference CDF."""
    uniforms = []
    for row, draw in zip(step_rows(oracle, prompt, output, bounds), output):
        cdf = reference_cdf(row, temperature)
        uniforms.append(((cdf[draw - 1] if draw else 0.0) + cdf[draw]) / 2)
    return uniforms


def text_of(oracle: TableOracle, output: tuple[int, ...]) -> str:
    return " ".join(oracle.vocab[d] for d in output if d != oracle.eos_index)


@dataclass(frozen=True)
class Loss:
    """The privacy loss of one group output between a prompt and its neighbour, and the charge of its run.

    ``output`` holds one draw sequence per slot.
    """

    prompt: str
    neighbour: str
    output: tuple[tuple[int, ...], ...]
    loss: float
    charge: float

    @property
    def draws(self) -> int:
        return sum(map(len, self.output))

    def within_charge(self) -> bool:
        return self.loss <= self.charge * (1 + 1e-12) + 1e-12  # the log-ratio's rounding


class SpawningStubRng:
    """A parent stream whose ``spawn(m)`` hands out one StubRng per slot, as ``rewrite_group`` asks."""

    def __init__(self, uniforms: list[list[float]]) -> None:
        self.uniforms = uniforms

    def spawn(self, m: int) -> list[StubRng]:
        assert m == len(self.uniforms)
        return [StubRng(u) for u in self.uniforms]


def audit(oracle: TableOracle, slots: Sequence[RewriteParams]) -> list[Loss]:
    """Every group output's loss between every ordered pair of ``oracle``'s prompts, beside its charge.

    A group output is one draw sequence per slot; its charge is the ledger
    total of the ``rewrite_group`` run that draws it, in which each slot's
    ``paraphrase_whitebox`` reads the uniforms that pick its sequence. One
    slot audits one rewrite.
    """
    per_slot = [list(outputs(len(oracle.vocab), oracle.eos_index, s.max_tokens)) for s in slots]
    found = []
    for output in itertools.product(*per_slot):
        log_probs, charges = {}, {}
        for p in oracle.rows:
            log_probs[p] = math.fsum(
                log_probability(oracle, p, o, s.temperature, s.bounds) for o, s in zip(output, slots)
            )
            rng = SpawningStubRng(
                [picking_uniforms(oracle, p, o, s.temperature, s.bounds) for o, s in zip(output, slots)]
            )
            ledger = PrivacyLedger()
            group = rewrite_group(p, slots, rng, ledger, oracle=oracle)
            assert group.texts() == [text_of(oracle, o) for o in output], "the stub picked another output"
            charges[p] = ledger.total()
        found.extend(
            Loss(p, q, output, log_probs[p] - log_probs[q], charges[p])
            for p, q in itertools.permutations(oracle.rows, 2)
        )
    return found
