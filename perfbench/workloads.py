"""The four benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned, as for a user who waits for the sanitized
question before sending it on. Inputs come only from ``--seed``; the program
receives the generated inputs and nothing else.

- ``sanitize-mock``: the offline regime, where Python text processing is the
  whole cost. Prompt length and temperature set the group's vocabulary size.
- ``sanitize-live``: the live regime, m+1 sequential round trips to a loopback
  service with a fixed delay; Stage-1 fan-out and client overhead show here.
- ``eval-grid``: the evaluation harness in the criterion-10 shape, the only
  workload that reaches ``metrics`` and ``evaluation``.
- ``whitebox-decode``: the white-box decoder over a 32,000-token vocabulary,
  the only path into the clipped exponential-mechanism sampler.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import requests

from promptsan import evaluation, pipeline
from promptsan.client import EndpointConfig, HttpChatClient, MockChatModel
from promptsan.evaluation import QARecord, synthetic_qa_records
from promptsan.keywords import ReleaseMethod
from promptsan.mechanisms import ClipBounds, LogitVector, Stage, schedule_total
from promptsan.pipeline import PipelineConfig, SanitizedResult
from promptsan.prompting import FinalPromptRequest, render_template

import layers
import stats
from stub import SERVICE_HEADER, StubService
from tracing import TracedClient, Tracer

GRID = (0.1, 0.15, 0.2, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
BOUNDS = ClipBounds(0.0, 8.0)
M = 10
K = 10
EPSILON2 = 1.0
QUESTION_POOL = 1024
MAX_QUESTIONS = 4
# topk_dp refuses to release more keywords than the group has distinct words.
# One question rewritten at T=0.1 has fewer than K, so DP prompts join two or more.
DP_MIN_QUESTIONS = 2
GRID_METHODS = ("group-ndp", "paraphrase")
GRID_ITEMS = 1
GRID_REPEATS = 2
VOCAB_SIZE = 32_000
LOGIT_TABLES = 16
WHITEBOX_MAX_TOKENS = 32


class CheckFailed(Exception):
    """An operation returned output that fails one of the benchmark's checks."""


@dataclass(frozen=True)
class PromptOp:
    prompt: str
    temperature: float
    release: ReleaseMethod
    seed: int

    def config(self, **overrides) -> PipelineConfig:
        dp = self.release is ReleaseMethod.DP
        return PipelineConfig(
            bounds=BOUNDS,
            m=M,
            k=K,
            schedule=self.temperature,
            release_method=self.release,
            epsilon2=EPSILON2 if dp else None,
            seed=self.seed,
            **overrides,
        )


@dataclass(frozen=True)
class GridOp:
    records: tuple[QARecord, ...]
    seed: int


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def question_pool(seed: int) -> list[str]:
    pool_seed = int(_rng(seed, 1).integers(2**32))
    return [r.question for r in synthetic_qa_records(QUESTION_POOL, seed=pool_seed)]


def prompt_ops(
    seed: int, temperatures: tuple[float, ...], dp_share: float
) -> Iterator[PromptOp]:
    """Endless seeded stream of prompts of 1-4 joined synthetic questions (2-4 for DP)."""
    pool = question_pool(seed)
    rng = _rng(seed, 2)
    while True:
        dp = bool(rng.random() < dp_share)
        count = int(rng.integers(DP_MIN_QUESTIONS if dp else 1, MAX_QUESTIONS + 1))
        picks = rng.choice(len(pool), size=count, replace=False)
        temperature = temperatures[int(rng.integers(len(temperatures)))]
        yield PromptOp(
            prompt=" ".join(pool[int(i)] for i in picks),
            temperature=temperature,
            release=ReleaseMethod.DP if dp else ReleaseMethod.NDP,
            seed=int(rng.integers(2**63)),
        )


def grid_ops(seed: int) -> Iterator[GridOp]:
    """Endless seeded stream of small criterion-10 grids over synthetic CSQA items."""
    pool_seed = int(_rng(seed, 1).integers(2**32))
    pool = synthetic_qa_records(QUESTION_POOL, seed=pool_seed)
    rng = _rng(seed, 3)
    while True:
        picks = rng.choice(len(pool), size=GRID_ITEMS, replace=False)
        yield GridOp(records=tuple(pool[int(i)] for i in picks), seed=int(rng.integers(2**63)))


def check_sanitized(config: PipelineConfig, result: SanitizedResult) -> None:
    """Budget, release and template checks every sanitized result must pass."""
    rewrites = result.group.rewrites
    expected_rewrite = schedule_total(
        [r.tokens_generated for r in rewrites], [r.params.temperature for r in rewrites], config.bounds
    )
    if result.ledger.rewrite_total() != expected_rewrite:
        raise CheckFailed("ledger rewrite total differs from schedule_total")
    release = math.fsum(
        e.contribution() for e in result.ledger.entries if e.stage is Stage.KEYWORD_RELEASE
    )
    epsilon2 = config.epsilon2 if config.release_method is ReleaseMethod.DP else 0.0
    if release != epsilon2:
        raise CheckFailed("keyword release charge differs from epsilon2")
    if not math.isclose(result.ledger.total(), expected_rewrite + epsilon2, rel_tol=1e-12, abs_tol=0.0):
        raise CheckFailed("ledger total differs from schedule_total + epsilon2")
    words = result.released.words
    if len(set(words)) != len(words) or len(words) > config.k:
        raise CheckFailed("released keywords are not distinct or exceed K")
    rendered = render_template(
        FinalPromptRequest(exemplar=result.exemplar.text, forbidden=words, template_id=config.template_id)
    )
    if result.final_prompt != rendered:
        raise CheckFailed("final prompt differs from the rendered template")


class Workload:
    """One workload: ``prepare`` builds inputs and services, ``run`` one operation."""

    name = ""
    warmup_ops = 1
    # Reference work whose speed tracks this workload's own under contention.
    probe = stats.TEXT_PROBE
    # True when the per-layer unit is an evaluation row rather than the operation.
    rows_are_units = False

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def bind(self, tracer: Tracer | None) -> None:
        """Select plain clients, or clients that record spans into ``tracer``."""
        raise NotImplementedError

    def next_op(self):
        return next(self.ops)

    def prompt_of(self, op) -> str | None:
        """The prompt an operation sanitizes; None when it covers several."""
        return op.prompt

    def prompts(self, op) -> list[str]:
        return [op.prompt]

    def items(self, op) -> int:
        return 1

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> None:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over the whole run; returns the names of those that failed."""
        return []

    def close(self) -> None:
        pass


class SanitizeMock(Workload):
    name = "sanitize-mock"
    warmup_ops = 50

    def prepare(self, seed: int) -> None:
        self.mock = MockChatModel(seed=0)
        self.ops = prompt_ops(seed, GRID, dp_share=0.5)

    def bind(self, tracer: Tracer | None) -> None:
        self.client = self.mock if tracer is None else TracedClient(self.mock, tracer, layers.CLIENT_SPAN)

    def run(self, op: PromptOp):
        return pipeline.run_pipeline(op.prompt, op.config(), self.client)

    def check(self, op: PromptOp, out: SanitizedResult) -> None:
        check_sanitized(op.config(), out)


class SanitizeLive(Workload):
    name = "sanitize-live"
    warmup_ops = 1

    def prepare(self, seed: int) -> None:
        self.mock = MockChatModel(seed=0)
        self.stub = StubService()
        self.session = requests.Session()
        self.http = HttpChatClient(
            EndpointConfig(base_url=self.stub.base_url, model="mock", timeout_s=10.0),
            session=self.session,
        )
        self.ops = prompt_ops(seed, (1.0,), dp_share=0.0)

    def bind(self, tracer: Tracer | None) -> None:
        if tracer is None:
            self.session.hooks["response"] = []
            self.client = self.http
        else:
            self.client = TracedClient(
                self.http, tracer, layers.CLIENT_SPAN, session=self.session, service_header=SERVICE_HEADER
            )

    def run(self, op: PromptOp):
        return pipeline.run_pipeline(op.prompt, op.config(), self.client)

    def check(self, op: PromptOp, out: SanitizedResult) -> None:
        config = op.config()
        check_sanitized(config, out)
        local = pipeline.run_pipeline(op.prompt, config, self.mock)
        if _result_json(out) != _result_json(local):
            raise CheckFailed("service result differs from the in-process mock result")

    def close(self) -> None:
        self.session.close()
        self.stub.close()


def _result_json(result: SanitizedResult) -> str:
    return json.dumps(result.to_json_dict(), ensure_ascii=False)


class EvalGrid(Workload):
    name = "eval-grid"
    warmup_ops = 2
    rows_are_units = True

    def prepare(self, seed: int) -> None:
        self.mock = MockChatModel(seed=0)
        self.config = PipelineConfig(bounds=BOUNDS, m=M, k=K, seed=0)
        self.ops = grid_ops(seed)
        self.rouge1 = {t: [0.0, 0] for t in GRID}

    def bind(self, tracer: Tracer | None) -> None:
        if tracer is None:
            self.client = self.answerer = self.mock
        else:
            self.client = TracedClient(self.mock, tracer, layers.CLIENT_SPAN)
            self.answerer = TracedClient(self.mock, tracer, layers.ANSWERER_SPAN)

    def prompt_of(self, op: GridOp) -> None:
        return None

    def prompts(self, op: GridOp) -> list[str]:
        return [r.question for r in op.records]

    def items(self, op: GridOp) -> int:
        return len(GRID_METHODS) * len(GRID) * GRID_REPEATS * len(op.records)

    def run(self, op: GridOp):
        return evaluation.run_experiment(
            op.records,
            self.config,
            self.client,
            methods=GRID_METHODS,
            temperatures=GRID,
            repeats=GRID_REPEATS,
            answerer=self.answerer,
            seed=op.seed,
        )

    def check(self, op: GridOp, rows) -> None:
        cells = {(r.method, r.temperature, r.repeat_index, r.item_id) for r in rows}
        expected = {
            (m, t, rep, rec.id)
            for m in GRID_METHODS
            for t in GRID
            for rep in range(GRID_REPEATS)
            for rec in op.records
        }
        if len(rows) != self.items(op) or cells != expected:
            raise CheckFailed("grid rows do not cover every method, temperature, repeat and item once")
        if any(r.failed for r in rows):
            raise CheckFailed("grid produced failed rows")
        for r in rows:
            if r.method == "group-ndp":
                acc = self.rouge1[r.temperature]
                acc[0] += r.rouge1
                acc[1] += 1

    def finish(self) -> list[str]:
        means = [s / n for s, n in (self.rouge1[t] for t in GRID) if n]
        if any(means[i] < means[i + 1] - 1e-12 for i in range(len(means) - 1)):
            return ["group-ndp rouge1 mean increases with temperature"]
        return []


class TableOracle:
    """White-box step oracle over precomputed logit vectors: an O(1) lookup per step."""

    def __init__(self, vocab: tuple[str, ...], tables: tuple[LogitVector, ...], eos_index: int) -> None:
        self.vocab = vocab
        self.eos_index = eos_index
        self._tables = tables

    def step_logits(self, context) -> LogitVector:
        return self._tables[len(context) % len(self._tables)]


def logit_tables(seed: int) -> tuple[LogitVector, ...]:
    """Logits around the middle of the clip range, some outside it; end-of-sequence is rare."""
    values = _rng(seed, 4).normal(4.0, 2.5, size=(LOGIT_TABLES, VOCAB_SIZE))
    values[:, 0] = -10.0
    return tuple(LogitVector(row) for row in values)


class WhiteboxDecode(Workload):
    name = "whitebox-decode"
    warmup_ops = 2
    probe = stats.VECTOR_PROBE

    def prepare(self, seed: int) -> None:
        self.mock = MockChatModel(seed=0)
        vocab = ("</s>",) + tuple(f"w{i:05d}" for i in range(1, VOCAB_SIZE))
        self.oracle = TableOracle(vocab, logit_tables(seed), eos_index=0)
        self.ops = prompt_ops(seed, (1.0,), dp_share=0.0)

    def bind(self, tracer: Tracer | None) -> None:
        self.client = self.mock if tracer is None else TracedClient(self.mock, tracer, layers.CLIENT_SPAN)

    def _config(self, op: PromptOp) -> PipelineConfig:
        return op.config(mode="whitebox", max_tokens=WHITEBOX_MAX_TOKENS)

    def run(self, op: PromptOp):
        return pipeline.run_pipeline(op.prompt, self._config(op), self.client, oracle=self.oracle)

    def check(self, op: PromptOp, out: SanitizedResult) -> None:
        check_sanitized(self._config(op), out)
        if any(r.params.mode != "whitebox" for r in out.group.rewrites):
            raise CheckFailed("a rewrite did not come from the white-box decoder")


WORKLOADS = {w.name: w for w in (SanitizeMock, SanitizeLive, EvalGrid, WhiteboxDecode)}
