import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from promptsan.client import (
    ChatRequest,
    ClientError,
    EndpointConfig,
    HttpChatClient,
    Message,
    MockChatModel,
    TransportError,
)
from promptsan.metrics import rouge1


class ScriptedHandler(BaseHTTPRequestHandler):
    """Replays a scripted list of (status, payload) responses."""

    script: list = []
    requests_seen: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        type(self).requests_seen.append(body)
        status, payload = self.script.pop(0) if self.script else (500, {"error": "script empty"})
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
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
    yield server
    server.shutdown()
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
    return HttpChatClient(endpoint_for(server), base_delay_s=0.001, sleeper=lambda _: None)


REQ = ChatRequest.single("hello there", model="test-model", temperature=0.3, max_tokens=32)


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
        assert "bad request" in str(exc_info.value)

    def test_exhausted_retries_raise_transport_error(self, stub_server):
        ScriptedHandler.script = [(503, {}), (503, {}), (503, {})]
        with pytest.raises(TransportError) as exc_info:
            fast_client(stub_server).complete(REQ)
        assert exc_info.value.attempts == 3

    def test_request_body_shape(self, stub_server):
        ScriptedHandler.script = [(200, completion_payload("x"))]
        fast_client(stub_server).complete(REQ)
        body = ScriptedHandler.requests_seen[0]
        assert body["model"] == "test-model"
        assert body["messages"] == [{"role": "user", "content": "hello there"}]
        assert body["temperature"] == 0.3
        assert body["max_tokens"] == 32

    def test_api_key_header_from_environment(self, stub_server, monkeypatch):
        monkeypatch.setenv("PROMPTSAN_API_KEY", "sk-test")
        client = fast_client(stub_server)
        assert client._headers()["Authorization"] == "Bearer sk-test"
        monkeypatch.delenv("PROMPTSAN_API_KEY")
        assert "Authorization" not in client._headers()


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
