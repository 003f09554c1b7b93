import hashlib
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
import requests

import promptsan
from promptsan.client import (
    ChatRequest,
    ClientError,
    EndpointConfig,
    HttpChatClient,
    Message,
    MockChatModel,
    TransportError,
)
from promptsan.mechanisms import ClipBounds, PrivacyLedger, epsilon_per_token
from promptsan.metrics import rouge1
from promptsan.rewriting import RewriteParams, RewriteSchedule, paraphrase_blackbox, rewrite_group


class ScriptedHandler(BaseHTTPRequestHandler):
    """Replays a scripted list of (status, payload) responses."""

    script: list = []
    requests_seen: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        type(self).requests_seen.append(body)
        status, payload = self.script.pop(0) if self.script else (500, {"error": "script empty"})
        # A str payload is sent as it is, as a misbehaving service might.
        raw = isinstance(payload, str)
        data = payload.encode() if raw else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/html" if raw else "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    ScriptedHandler.script = []
    ScriptedHandler.requests_seen = []
    server.clients = []
    yield server
    for client in server.clients:
        client.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


def endpoint_for(server) -> EndpointConfig:
    host, port = server.server_address
    return EndpointConfig(base_url=f"http://{host}:{port}/v1", model="test-model", timeout_s=5)


def completion_payload(text: str, tokens: int | None = None) -> dict:
    payload = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if tokens is not None:
        payload["usage"] = {"completion_tokens": tokens}
    return payload


def fast_client(server) -> HttpChatClient:
    """A client without retry delays, closed when the ``stub_server`` fixture ends."""
    client = HttpChatClient(endpoint_for(server), sleeper=lambda _: None)
    server.clients.append(client)
    return client


REQ = ChatRequest.single("hello there", temperature=0.3, max_tokens=32)


class TestHttpClient:
    def test_parses_fixture_response(self, stub_server):
        ScriptedHandler.script = [(200, completion_payload("fixed reply", tokens=9))]
        resp = fast_client(stub_server).complete(REQ)
        assert resp.text == "fixed reply"
        assert resp.tokens_generated == 9
        assert resp.attempts == 1

    def test_retries_on_429_then_succeeds(self, stub_server):
        ScriptedHandler.script = [
            (429, {"error": "slow down"}),
            (429, {"error": "slow down"}),
            (200, completion_payload("eventually")),
        ]
        resp = fast_client(stub_server).complete(REQ)
        assert resp.text == "eventually"
        assert resp.attempts == 3

    def test_missing_usage_falls_back_to_token_estimate(self, stub_server):
        ScriptedHandler.script = [(200, completion_payload("one two three"))]
        resp = fast_client(stub_server).complete(REQ)
        assert resp.tokens_generated == 3

    def test_non_retryable_4xx_is_terminal(self, stub_server):
        ScriptedHandler.script = [(400, {"error": "bad request"})]
        with pytest.raises(ClientError) as exc_info:
            fast_client(stub_server).complete(REQ)
        assert exc_info.value.status == 400
        body = json.dumps({"error": "bad request"}).encode()
        digest = hashlib.blake2b(body, digest_size=8).hexdigest()
        assert str(exc_info.value) == f"HTTP 400: {len(body)}-byte body, blake2b {digest}"

    def test_exhausted_retries_raise_transport_error(self, stub_server):
        ScriptedHandler.script = [(503, {}), (503, {}), (503, {})]
        with pytest.raises(TransportError) as exc_info:
            fast_client(stub_server).complete(REQ)
        assert exc_info.value.attempts == 3

    def test_retry_delays_double_from_one_second_with_jitter(self, stub_server):
        ScriptedHandler.script = [(503, {}), (503, {}), (503, {})]
        delays: list[float] = []
        client = HttpChatClient(endpoint_for(stub_server), sleeper=delays.append)
        stub_server.clients.append(client)
        with pytest.raises(TransportError):
            client.complete(REQ)
        assert len(delays) == 2
        assert 1.0 <= delays[0] <= 1.25
        assert 2.0 <= delays[1] <= 2.5

    def test_request_body_shape(self, stub_server):
        ScriptedHandler.script = [(200, completion_payload("x"))]
        fast_client(stub_server).complete(REQ)
        body = ScriptedHandler.requests_seen[0]
        assert body["model"] == "test-model"
        assert body["messages"] == [{"role": "user", "content": "hello there"}]
        assert body["temperature"] == 0.3
        assert body["max_tokens"] == 32

    def test_non_json_reply_is_a_client_error(self, stub_server):
        ScriptedHandler.script = [(200, "<html>oops")]
        with pytest.raises(ClientError, match="malformed completion payload"):
            fast_client(stub_server).complete(REQ)
        assert len(ScriptedHandler.requests_seen) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": 7}}], "usage": {"completion_tokens": 1}},
        ],
    )
    def test_non_string_content_is_a_client_error(self, stub_server, payload):
        ScriptedHandler.script = [(200, payload)]
        with pytest.raises(ClientError, match="malformed completion payload"):
            fast_client(stub_server).complete(REQ)

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_token_count_is_not_reported(self, stub_server, flag):
        ScriptedHandler.script = [(200, {**completion_payload("one two"), "usage": {"completion_tokens": flag}})]
        resp = fast_client(stub_server).complete(REQ)
        assert resp.tokens_reported is False
        assert resp.tokens_generated == 2

    def test_usage_that_is_not_an_object_falls_back_to_estimate(self, stub_server):
        ScriptedHandler.script = [(200, {**completion_payload("one two"), "usage": 5})]
        assert fast_client(stub_server).complete(REQ).tokens_generated == 2

    def test_non_json_reply_drops_only_its_slot(self, stub_server):
        # Four slots in flight at once; whichever request arrives first gets the bad body.
        ScriptedHandler.script = [(200, "<html>oops")] + [
            (200, completion_payload("fine words", tokens=2)) for _ in range(3)
        ]
        client = fast_client(stub_server)
        assert client.max_inflight == 4
        params = RewriteParams(
            mode="blackbox", temperature=1.0, max_tokens=16, bounds=ClipBounds(0.0, 8.0)
        )
        ledger = PrivacyLedger()
        group = rewrite_group(
            "p q", RewriteSchedule.uniform(1.0, 4), params, np.random.default_rng(0), ledger, client=client
        )
        assert group.texts() == ["fine words"] * 3
        assert len(group.warnings) == 1
        assert "malformed completion payload" in group.warnings[0]
        assert len(ledger.entries) == 3

    def test_missing_usage_charges_max_tokens_in_the_ledger(self, stub_server):
        ScriptedHandler.script = [
            (200, completion_payload("one two three")),
            (200, completion_payload("one two three", tokens=3)),
        ]
        client = fast_client(stub_server)
        bounds = ClipBounds(0.0, 8.0)
        params = RewriteParams(mode="blackbox", temperature=1.0, max_tokens=16, bounds=bounds)
        ledger = PrivacyLedger()
        estimated = paraphrase_blackbox("p q", params, client, ledger)
        reported = paraphrase_blackbox("p q", params, client, ledger)
        assert estimated.text == reported.text == "one two three"
        assert [e.units for e in ledger.entries] == [16, 3]
        assert ledger.total() == 19 * epsilon_per_token(1.0, bounds)

    def test_boolean_token_count_charges_max_tokens_in_the_ledger(self, stub_server):
        ScriptedHandler.script = [(200, {**completion_payload("one two three"), "usage": {"completion_tokens": True}})]
        bounds = ClipBounds(0.0, 8.0)
        params = RewriteParams(mode="blackbox", temperature=1.0, max_tokens=64, bounds=bounds)
        ledger = PrivacyLedger()
        paraphrase_blackbox("p q", params, fast_client(stub_server), ledger)
        assert [row["units"] for row in ledger.to_rows()] == [64]
        assert ledger.total() == 1024.0

    def test_close_releases_only_a_session_it_built(self, stub_server):
        ScriptedHandler.script = [(200, completion_payload("x", tokens=1)) for _ in range(2)]
        endpoint = endpoint_for(stub_server)
        borrowed = requests.Session()
        owner = HttpChatClient(endpoint)
        borrower = HttpChatClient(endpoint, session=borrowed)
        pools = []
        for client in (owner, borrower):
            client.complete(REQ)
            pools.append(client._session.get_adapter(endpoint.base_url).poolmanager.pools)
        assert [len(p) for p in pools] == [1, 1]
        owner.close()
        borrower.close()
        assert [len(p) for p in pools] == [0, 1]
        borrowed.close()
        assert len(pools[1]) == 0

    def test_api_key_header_from_environment(self, stub_server, monkeypatch):
        monkeypatch.setenv("PROMPTSAN_API_KEY", "sk-test")
        client = fast_client(stub_server)
        assert client._headers()["Authorization"] == "Bearer sk-test"
        monkeypatch.delenv("PROMPTSAN_API_KEY")
        assert "Authorization" not in client._headers()


class KeepAliveBarrierHandler(BaseHTTPRequestHandler):
    """Keeps connections open and answers only once ``barrier`` calls are waiting."""

    protocol_version = "HTTP/1.1"
    barrier: threading.Barrier
    peers: set = set()

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        type(self).peers.add(self.client_address)
        type(self).barrier.wait()
        data = json.dumps(completion_payload("fine words", tokens=2)).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_connections_are_reused_above_the_default_pool_size():
    m = 12
    KeepAliveBarrierHandler.barrier = threading.Barrier(m, timeout=5)
    KeepAliveBarrierHandler.peers = set()
    server = ThreadingHTTPServer(("127.0.0.1", 0), KeepAliveBarrierHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    client = HttpChatClient(
        EndpointConfig(base_url=f"http://{host}:{port}", model="m", max_inflight=m),
        sleeper=lambda _: None,
    )
    params = RewriteParams(mode="blackbox", temperature=1.0, max_tokens=16, bounds=ClipBounds(0.0, 8.0))
    try:
        for seed in (0, 1):
            group = rewrite_group(
                "p q", RewriteSchedule.uniform(1.0, m), params, np.random.default_rng(seed),
                PrivacyLedger(), client=client,
            )
            assert group.size == m
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    # The second group of m concurrent calls opens no connection of its own.
    assert len(KeepAliveBarrierHandler.peers) == m


class TestEndpointConfig:
    @pytest.mark.parametrize("max_inflight", [0, -1])
    def test_max_inflight_below_one_rejected(self, max_inflight):
        with pytest.raises(ValueError, match="max_inflight"):
            EndpointConfig(base_url="http://x", model="m", max_inflight=max_inflight)

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0])
    def test_nonpositive_timeout_rejected(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s"):
            EndpointConfig(base_url="http://x", model="m", timeout_s=timeout_s)

    @pytest.mark.parametrize("api_key_env", ["", 5, None])
    def test_api_key_env_must_name_a_variable(self, api_key_env):
        with pytest.raises(ValueError, match="api_key_env"):
            EndpointConfig(base_url="http://x", model="m", api_key_env=api_key_env)

    @pytest.mark.parametrize("model", ["", None, 5])
    def test_model_must_be_a_non_empty_string(self, model):
        with pytest.raises(ValueError, match="model must be a non-empty string"):
            EndpointConfig(base_url="http://x", model=model)

    def test_client_exposes_max_inflight(self):
        endpoint = EndpointConfig(base_url="http://x", model="m", max_inflight=7)
        assert HttpChatClient(endpoint).max_inflight == 7
        assert EndpointConfig(base_url="http://x", model="m").max_inflight == 4


class TestRequestValidation:
    def test_needs_user_message(self):
        with pytest.raises(ValueError):
            ChatRequest(model="m", messages=(Message("system", "s"),), temperature=0, max_tokens=4)

    def test_temperature_nonnegative(self):
        with pytest.raises(ValueError):
            ChatRequest.single("x", temperature=-0.1)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            Message("assistant", "x")


PROMPT = "Paraphrase the following question. Output only the paraphrase:\n{q}"


def paraphrase_request(question: str, temperature: float, seed: int = 0) -> ChatRequest:
    return ChatRequest.single(
        PROMPT.format(q=question), temperature=temperature, max_tokens=128, seed=seed
    )


class TestMockModel:
    def test_identical_requests_identical_responses(self):
        req = paraphrase_request("where does the silver heron nest", 0.8)
        assert MockChatModel().complete(req) == MockChatModel().complete(req)

    def test_temperature_zero_is_identity_up_to_forced_table(self):
        mock = MockChatModel()
        req = paraphrase_request("where does the silver heron nest", 0.0)
        assert mock.complete(req).text == "where does the silver heron nest"
        req = paraphrase_request("buy a movie ticket", 0.0)
        assert mock.complete(req).text == "purchase a film ticket"

    def test_seed_changes_output(self):
        question = "where does the silver heron usually nest in spring"
        low = MockChatModel().complete(paraphrase_request(question, 1.0, seed=1))
        high = MockChatModel().complete(paraphrase_request(question, 1.0, seed=2))
        assert low.text != high.text

    def test_edit_intensity_monotone_over_fixture(self, rng):
        nouns = ["heron", "lantern", "meadow", "kettle", "canal", "archive", "quarry", "harbor"]
        mock = MockChatModel()
        for i in range(50):
            picks = rng.choice(len(nouns), size=6, replace=False)
            question = (
                f"where would the {nouns[picks[0]]} {nouns[picks[1]]} usually "
                f"{nouns[picks[2]]} the {nouns[picks[3]]} {nouns[picks[4]]} near the {nouns[picks[5]]}"
            )
            cold = mock.complete(paraphrase_request(question, 0.1, seed=i)).text
            hot = mock.complete(paraphrase_request(question, 1.5, seed=i)).text
            assert rouge1(question, hot).value < rouge1(question, cold).value

    def test_max_tokens_truncates(self):
        req = ChatRequest.single(
            PROMPT.format(q="one two three four five six"), temperature=0.0, max_tokens=3
        )
        resp = MockChatModel().complete(req)
        assert resp.tokens_generated == 3
        assert len(resp.text.split()) == 3

    def test_template_frame_removes_forbidden_tokens(self):
        content = (
            "Refer to the following question to generate a new question:\n"
            "Where is the hidden harbor lantern?\n"
            "Avoid using the following tokens:\n"
            "harbor, lantern"
        )
        resp = MockChatModel().complete(ChatRequest.single(content, temperature=0.0))
        assert resp.text == "Where is the hidden"

    def test_choice_frame_returns_plausible_label(self):
        content = "\n".join(
            [
                "Answer the following multiple-choice question. Respond with only the letter of the correct choice.",
                "Question: where would you store a kettle",
                "Choices:",
                "A. meadow",
                "B. kettle cupboard",
                "C. canal",
                "D. quarry",
                "E. harbor",
                "Answer:",
            ]
        )
        resp = MockChatModel().complete(ChatRequest.single(content, temperature=0.0))
        assert resp.text == "B"

    def test_document_frame_answers_from_tokens(self):
        content = "\n".join(
            [
                "Use the document tokens to answer the question. Respond with a short answer.",
                "Document tokens: ledger observatory pier kiosk",
                "Question: what is listed",
                "Answer:",
            ]
        )
        resp = MockChatModel().complete(ChatRequest.single(content, temperature=0.0))
        assert set(resp.text.split()) <= {"ledger", "observatory", "pier", "kiosk"}
        assert len(resp.text.split()) == 3


def test_importing_the_package_leaves_requests_unloaded():
    # requests is imported when an HTTP client is built, not with the package.
    src = os.path.dirname(os.path.dirname(promptsan.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, promptsan, promptsan.client\n"
        "assert 'requests' not in sys.modules, 'import promptsan loaded requests'\n"
        "from promptsan.client import EndpointConfig, HttpChatClient\n"
        "HttpChatClient(EndpointConfig('http://127.0.0.1:9', 'm')).close()\n"
        "assert 'requests' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})
