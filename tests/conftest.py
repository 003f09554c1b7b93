"""Shared fixtures, stub services and the loopback HTTP harness for the test suite."""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, Sequence

import numpy as np
import pytest

from promptsan.client import ChatRequest, ChatResponse, MockChatModel, TransportError
from promptsan.exemplar import ScoredParaphrase, UnigramPerplexityScorer, select_exemplar
from promptsan.keywords import KeywordHistogram, build_histogram, tokenize_group
from promptsan.mechanisms import ClipBounds, LogitVector, PrivacyLedger
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
            raise TransportError("stub outage")
        return self.inner.complete(req)


@dataclass
class ReportingClient:
    """Records its requests and answers as the mock, but call i reports ``reported[i]`` tokens.

    Calls past the list report the mock's own count. It has no ``map``, so
    Stage-1 calls arrive in slot order.
    """

    reported: Sequence[int | None]
    requests: list[ChatRequest] = field(default_factory=list)
    inner: MockChatModel = field(default_factory=MockChatModel)

    def complete(self, req: ChatRequest) -> ChatResponse:
        resp = self.inner.complete(req)
        call = len(self.requests)
        self.requests.append(req)
        return replace(resp, tokens_generated=self.reported[call]) if call < len(self.reported) else resp


class QuietHandler(BaseHTTPRequestHandler):
    """A request handler that logs nothing and writes each reply whole."""

    # On a kept-alive connection the header and body writes would otherwise
    # meet delayed ACK: a stall of about 40 ms per reply.
    disable_nagle_algorithm = True

    def read_body(self) -> bytes:
        return self.rfile.read(int(self.headers.get("Content-Length", 0)))

    def read_json(self) -> dict:
        raw = self.read_body()
        return json.loads(raw) if raw else {}

    def reply(self, status: int, body: object, content_type: str = "application/json") -> None:
        """Send ``body``: bytes as they are, anything else as JSON."""
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class LoopbackServer(ThreadingHTTPServer):
    # At socketserver's default backlog of 5, a wave of ten Stage-1 calls on
    # new connections overflows the accept queue, and a connection turned
    # away there retries only after a 1 s SYN timeout.
    request_queue_size = 128


@contextmanager
def loopback(handler: type[BaseHTTPRequestHandler]) -> Iterator[tuple[LoopbackServer, str]]:
    """Serve ``handler`` on a loopback port for the block; yields the server and its base URL."""
    server = LoopbackServer(("127.0.0.1", 0), handler)
    # At the default 0.5 s poll interval, shutdown() would wait up to half a second.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        yield server, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def completion_payload(text: str, tokens: int | None = None) -> dict:
    """A chat-completions reply body carrying ``text``, and ``tokens`` as its usage if given."""
    payload = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if tokens is not None:
        payload["usage"] = {"completion_tokens": tokens}
    return payload


@dataclass
class ConstantStepOracle:
    """Toy white-box oracle emitting the same logits at every step."""

    vocab: tuple[str, ...]
    logits: tuple[float, ...]
    eos_index: int | None = None

    def step_logits(self, context: Sequence[str]) -> LogitVector:
        return LogitVector(self.logits)


def slots_of(temperatures: tuple[float, ...], params: RewriteParams) -> tuple[RewriteParams, ...]:
    """``params`` at each of ``temperatures``, in slot order: the slots rewrite_group takes."""
    return tuple(replace(params, temperature=t) for t in temperatures)


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
    """The ledger's rows just before and just after ``promptsan.pipeline.<name>``.

    Runs ``finish`` on the mock client over a seeded group whose Stage-1
    charges the ledger holds; raises if the wrapped stage was never reached.
    """
    from promptsan import pipeline

    config = pipeline.PipelineConfig(bounds=ClipBounds(0.0, 8.0), m=4, k=5, schedule=1.0, seed=7)
    client = MockChatModel(seed=0)
    ledger = PrivacyLedger()
    group = rewrite_group(
        "Where is the silver archive?", config.slots, np.random.default_rng(config.seed), ledger,
        client=client,
    )
    around = []
    original = getattr(pipeline, name)

    def wrapped(*args, **kwargs):
        before = ledger.to_rows()
        out = original(*args, **kwargs)
        around.append((before, ledger.to_rows()))
        return out

    monkeypatch.setattr(pipeline, name, wrapped)
    pipeline.finish(group, ledger, config, client)
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
