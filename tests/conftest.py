"""Shared fixtures and stub services for the test suite."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import pytest

from promptsan.client import ChatRequest, ChatResponse, MockChatModel, TransportError
from promptsan.exemplar import ScoredParaphrase, UnigramPerplexityScorer, select_exemplar
from promptsan.keywords import KeywordHistogram, build_histogram, tokenize_group
from promptsan.mechanisms import ClipBounds, LogitVector
from promptsan.rewriting import ParaphraseGroup, Rewrite, RewriteParams, rewrite_group


@dataclass
class EchoClient:
    """Returns the text being paraphrased (the part after the instruction line)."""

    transform: str = "identity"  # "identity" | "upper"
    calls: int = 0

    def complete(self, req: ChatRequest) -> ChatResponse:
        self.calls += 1
        last = req.messages[-1].content
        text = last.split("\n", 1)[1] if "\n" in last else last
        if self.transform == "upper":
            text = text.upper()
        return ChatResponse(text=text, tokens_generated=len(text.split()))


@dataclass
class FixedClient:
    """Always returns the same canned text."""

    text: str
    attempts: int = 1

    def complete(self, req: ChatRequest) -> ChatResponse:
        return ChatResponse(
            text=self.text, tokens_generated=len(self.text.split()), attempts=self.attempts
        )


@dataclass
class FailingClient:
    """Raises TransportError for the first ``failures`` calls, then echoes."""

    failures: int
    calls: int = 0
    inner: EchoClient = field(default_factory=EchoClient)

    def complete(self, req: ChatRequest) -> ChatResponse:
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("stub outage", attempts=3)
        return self.inner.complete(req)


@dataclass
class ReportingClient:
    """Records its requests and answers as the mock, but call i reports ``reported[i]`` tokens.

    Calls past the list report the mock's own count. It declares no
    ``max_inflight``, so Stage-1 calls arrive in slot order.
    """

    reported: Sequence[int | None]
    requests: list[ChatRequest] = field(default_factory=list)
    inner: MockChatModel = field(default_factory=MockChatModel)

    def complete(self, req: ChatRequest) -> ChatResponse:
        resp = self.inner.complete(req)
        call = len(self.requests)
        self.requests.append(req)
        return replace(resp, tokens_generated=self.reported[call]) if call < len(self.reported) else resp


@dataclass
class ConstantStepOracle:
    """Toy white-box oracle emitting the same logits at every step."""

    vocab: tuple[str, ...]
    logits: tuple[float, ...]
    eos_index: int | None = None

    def step_logits(self, context: Sequence[str]) -> LogitVector:
        return LogitVector(self.logits)


def make_group(texts: list[str], temperature: float = 1.0, source: str = "src") -> ParaphraseGroup:
    params = RewriteParams(
        mode="blackbox", temperature=temperature, max_tokens=512, bounds=ClipBounds(0.0, 8.0)
    )
    rewrites = tuple(
        Rewrite(text=t, params=params, tokens_generated=len(t.split())) for t in texts
    )
    return ParaphraseGroup(source=source, rewrites=rewrites)


def histogram_of(texts: list[str]) -> KeywordHistogram:
    """The keyword histogram of a group with these rewrite texts."""
    return build_histogram(tokenize_group(texts)[1])


def unigram_of(texts: list[str]) -> UnigramPerplexityScorer:
    """The unigram scorer fit on a group with these rewrite texts."""
    return UnigramPerplexityScorer(tokenize_group(texts)[1])


def select_from(texts: list[str], scorer: UnigramPerplexityScorer) -> ScoredParaphrase:
    """select_exemplar over these texts, tokenised as run_pipeline does."""
    return select_exemplar(texts, tokenize_group(texts)[0], scorer)


def argmin_under(texts: list[str], score) -> int:
    """The index of the lowest ``score(text)`` over texts with tokens; ties to the lowest."""
    scorable = [i for i, tokens in enumerate(tokenize_group(texts)[0]) if tokens]
    return min(scorable, key=lambda i: (score(texts[i]), i))


def ledger_rows_around(monkeypatch: pytest.MonkeyPatch, name: str) -> tuple[list, list]:
    """The run's ledger rows just before and just after ``promptsan.pipeline.<name>``.

    Runs a seeded NDP pipeline on the mock client; raises if the wrapped
    stage was never reached.
    """
    from promptsan import pipeline

    ledgers = []
    around = []

    def capturing_rewriter(prompt, rng, ledger):
        ledgers.append(ledger)
        return rewrite_group(
            prompt, config.rewrite_schedule(), config.rewrite_params(), rng, ledger,
            client=client,
        )

    original = getattr(pipeline, name)

    def wrapped(*args, **kwargs):
        before = ledgers[0].to_rows()
        out = original(*args, **kwargs)
        around.append((before, ledgers[0].to_rows()))
        return out

    monkeypatch.setattr(pipeline, name, wrapped)
    config = pipeline.PipelineConfig(bounds=ClipBounds(0.0, 8.0), m=4, k=5, schedule=1.0, seed=7)
    client = MockChatModel(seed=0)
    pipeline.run_pipeline(
        "Where is the silver archive?", config, client, stage1_rewriter=capturing_rewriter
    )
    assert len(around) == 1, f"{name} ran {len(around)} times"
    return around[0]


@pytest.fixture
def mock_client() -> MockChatModel:
    return MockChatModel(seed=0)


@pytest.fixture
def bounds() -> ClipBounds:
    return ClipBounds(0.0, 8.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
