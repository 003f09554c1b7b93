import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import requests

import promptsan
from promptsan import rewriting
from promptsan.client import (
    MAX_ATTEMPTS,
    MAX_SLOTS,
    SHUFFLE_CAP,
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
from promptsan.normalization import tokenize
from promptsan.rewriting import RewriteParams, paraphrase_blackbox, rewrite_group

from conftest import QuietHandler, completion_payload, loopback, slots_of


class ScriptedHandler(QuietHandler):
    """Replays a scripted list of (status, payload) responses."""

    script: list = []
    requests_seen: list = []
    paths_seen: list = []

    def do_POST(self):
        type(self).requests_seen.append(self.read_json())
        type(self).paths_seen.append(self.path)
        status, payload = self.script.pop(0) if self.script else (500, {"error": "script empty"})
        # A str payload is sent as it is, as a misbehaving service might.
        if isinstance(payload, str):
            self.reply(status, payload.encode(), "text/html")
        else:
            self.reply(status, payload)


@pytest.fixture
def stub_server():
    ScriptedHandler.script = []
    ScriptedHandler.requests_seen = []
    ScriptedHandler.paths_seen = []
    with loopback(ScriptedHandler) as (server, _):
        server.clients = []
        yield server
        for client in server.clients:
            client.close()


def endpoint_for(server) -> EndpointConfig:
    host, port = server.server_address
    return EndpointConfig(base_url=f"http://{host}:{port}/v1", model="test-model", timeout_s=5)


def fast_client(server) -> HttpChatClient:
    """A client without retry delays, closed when the ``stub_server`` fixture ends."""
    client = HttpChatClient(endpoint_for(server), sleeper=lambda _: None)
    server.clients.append(client)
    return client


REQ = ChatRequest.single("hello there", temperature=0.3, max_tokens=32)


def count_and_charge(server, payload: dict) -> tuple[int | None, list[int]]:
    """The token count the client reads from ``payload``, and the units a rewrite charges for it."""
    ScriptedHandler.script = [(200, payload), (200, payload)]
    client = fast_client(server)
    tokens = client.complete(REQ).tokens_generated
    params = RewriteParams(mode="blackbox", temperature=1.0, max_tokens=64, bounds=ClipBounds(0.0, 8.0))
    ledger = PrivacyLedger()
    paraphrase_blackbox("p q", params, client, ledger)
    return tokens, [e.units for e in ledger.entries]


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

    def test_missing_usage_is_no_token_count(self, stub_server):
        assert count_and_charge(stub_server, completion_payload("one two three")) == (None, [64])

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
        with pytest.raises(TransportError, match=r"^request failed after 3 attempts: HTTP 503: "):
            fast_client(stub_server).complete(REQ)
        assert len(ScriptedHandler.requests_seen) == MAX_ATTEMPTS == 3

    def test_refused_connections_are_retried_then_raise_transport_error(self, monkeypatch):
        # A port that was bound and then closed: every connection is refused.
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            host, port = sock.getsockname()
        delays: list[float] = []
        # A credential in the query must not reach the message.
        endpoint = EndpointConfig(base_url=f"http://{host}:{port}/v1?key=SECRET123", model="m")
        client = HttpChatClient(endpoint, sleeper=delays.append)
        sends = []
        send = client._session.send
        monkeypatch.setattr(client._session, "send", lambda *a, **kw: sends.append(a) or send(*a, **kw))
        try:
            with pytest.raises(TransportError, match=r"^request failed after 3 attempts: transport error: ConnectionError$"):
                client.complete(REQ)
        finally:
            client.close()
        assert len(sends) == MAX_ATTEMPTS
        assert len(delays) == 2
        assert 1.0 <= delays[0] <= 1.25
        assert 2.0 <= delays[1] <= 2.5

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
        payload = {**completion_payload("one two"), "usage": {"completion_tokens": flag}}
        assert count_and_charge(stub_server, payload) == (None, [64])

    def test_usage_that_is_not_an_object_is_no_token_count(self, stub_server):
        assert count_and_charge(stub_server, {**completion_payload("one two"), "usage": 5}) == (None, [64])

    def test_non_json_reply_drops_only_its_slot(self, stub_server):
        # Four slots in flight at once; whichever request arrives first gets the bad body.
        ScriptedHandler.script = [(200, "<html>oops")] + [
            (200, completion_payload("fine words", tokens=2)) for _ in range(3)
        ]
        client = fast_client(stub_server)
        assert client.endpoint.max_inflight == MAX_SLOTS
        params = RewriteParams(
            mode="blackbox", temperature=1.0, max_tokens=16, bounds=ClipBounds(0.0, 8.0)
        )
        ledger = PrivacyLedger()
        group = rewrite_group(
            "p q", slots_of((1.0,) * 4, params), np.random.default_rng(0), ledger,
            client=client,
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
        unreported = paraphrase_blackbox("p q", params, client, ledger)
        reported = paraphrase_blackbox("p q", params, client, ledger)
        assert unreported.text == reported.text == "one two three"
        assert [unreported.tokens_generated, reported.tokens_generated] == [16, 3]
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

    def test_a_closed_client_stops_its_threads_and_still_completes(self, stub_server):
        ScriptedHandler.script = [(200, completion_payload("again", tokens=1)) for _ in range(2)]
        client = fast_client(stub_server)
        assert [r.text for r in client.map(client.complete, [REQ])] == ["again"]
        ident = client.map(lambda _: threading.get_ident(), [0])[0]
        client.close()
        client.close()
        assert ident not in {t.ident for t in threading.enumerate()}
        # Like the session's connections, the threads are made again as calls need them.
        assert [r.text for r in client.map(client.complete, [REQ])] == ["again"]

    def test_environment_proxies_are_honoured(self, stub_server, monkeypatch):
        ScriptedHandler.script = [(200, completion_payload("proxied", tokens=1))]
        host, port = stub_server.server_address
        for name in ("NO_PROXY", "no_proxy", "http_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", f"http://{host}:{port}")
        client = HttpChatClient(EndpointConfig(base_url="http://service.invalid/v1", model="m"))
        stub_server.clients.append(client)
        assert client.complete(REQ).text == "proxied"
        # A proxy is sent the absolute form of the target.
        assert ScriptedHandler.paths_seen == ["http://service.invalid/v1/chat/completions"]

    def test_environment_is_read_once_per_client(self, stub_server, monkeypatch):
        ScriptedHandler.script = [(200, completion_payload("x", tokens=1)) for _ in range(3)]
        session = requests.Session()
        merges = []
        merge = session.merge_environment_settings
        monkeypatch.setattr(session, "merge_environment_settings", lambda *a: merges.append(a) or merge(*a))
        client = HttpChatClient(endpoint_for(stub_server), session=session)
        try:
            for _ in range(3):
                client.complete(REQ)
        finally:
            client.close()
            session.close()
        assert len(merges) == 1

    @pytest.mark.parametrize(
        "base_path, path_seen",
        [
            ("/v1?api-version=1", "/v1/chat/completions?api-version=1"),
            ("/v1/?api-version=1&b=2", "/v1/chat/completions?api-version=1&b=2"),
            ("/v1/", "/v1/chat/completions"),
            ("", "/chat/completions"),
        ],
    )
    def test_path_joins_onto_base_url_path_and_keeps_its_query(self, stub_server, base_path, path_seen):
        ScriptedHandler.script = [(200, completion_payload("x", tokens=1))]
        host, port = stub_server.server_address
        client = HttpChatClient(EndpointConfig(base_url=f"http://{host}:{port}{base_path}", model="m"))
        stub_server.clients.append(client)
        client.complete(REQ)
        assert ScriptedHandler.paths_seen == [path_seen]

    def test_api_key_header_from_environment(self, stub_server, monkeypatch):
        monkeypatch.setenv("PROMPTSAN_API_KEY", "sk-test")
        client = fast_client(stub_server)
        assert client._headers()["Authorization"] == "Bearer sk-test"
        monkeypatch.delenv("PROMPTSAN_API_KEY")
        assert "Authorization" not in client._headers()

    @pytest.mark.parametrize("key", ["sk-secret-123\r", "sk-secret-123\n", "sk secret-123", "sk-sécret-123"])
    def test_a_key_outside_visible_ascii_is_refused_before_any_request(self, stub_server, monkeypatch, key):
        monkeypatch.setenv("PROMPTSAN_API_KEY", key)
        with pytest.raises(ValueError, match="API key in PROMPTSAN_API_KEY must hold only visible ASCII") as exc_info:
            fast_client(stub_server).complete(REQ)
        assert "secret" not in str(exc_info.value)
        assert ScriptedHandler.requests_seen == []


class KeepAliveBarrierHandler(QuietHandler):
    """Keeps connections open and answers only once ``barrier`` calls are waiting."""

    protocol_version = "HTTP/1.1"
    barrier: threading.Barrier
    peers: set = set()

    def do_POST(self):
        self.read_body()
        type(self).peers.add(self.client_address)
        type(self).barrier.wait()
        self.reply(200, completion_payload("fine words", tokens=2))


def rewrite_over_http(endpoint: EndpointConfig, m: int, seeds=(0,)) -> None:
    """One group of m black-box rewrites per seed through an HttpChatClient, every slot kept."""
    client = HttpChatClient(endpoint, sleeper=lambda _: None)
    params = RewriteParams(mode="blackbox", temperature=1.0, max_tokens=16, bounds=ClipBounds(0.0, 8.0))
    try:
        for seed in seeds:
            group = rewrite_group(
                "p q", slots_of((1.0,) * m, params), np.random.default_rng(seed),
                PrivacyLedger(), client=client,
            )
            assert len(group.rewrites) == m
    finally:
        client.close()


def test_connections_are_reused_above_the_default_pool_size():
    m = 12
    KeepAliveBarrierHandler.barrier = threading.Barrier(m, timeout=5)
    KeepAliveBarrierHandler.peers = set()
    with loopback(KeepAliveBarrierHandler) as (_, base_url):
        rewrite_over_http(EndpointConfig(base_url=base_url, model="m", max_inflight=m), m, seeds=(0, 1))
    # The second group of m concurrent calls opens no connection of its own.
    assert len(KeepAliveBarrierHandler.peers) == m


class PeakInflightHandler(QuietHandler):
    """Records the most requests held at once.

    Each request is held until ``target`` requests have been held together
    (or 5 s pass), then for another 20 ms, so calls sent beyond the client's
    bound would overlap the held ones and raise ``peak`` past it.
    """

    protocol_version = "HTTP/1.1"
    target = 1
    held = 0
    peak = 0
    cond = threading.Condition()

    def do_POST(self):
        self.read_body()
        cls = type(self)
        with cls.cond:
            cls.held += 1
            cls.peak = max(cls.peak, cls.held)
            cls.cond.notify_all()
            cls.cond.wait_for(lambda: cls.peak >= cls.target, timeout=5)
        time.sleep(0.02)
        with cls.cond:
            cls.held -= 1
        self.reply(200, completion_payload("fine words", tokens=2))


@pytest.mark.parametrize(
    "max_inflight, peak", [(None, 10), (3, 3), (1, 1)], ids=["default", "inflight3", "inflight1"]
)
def test_stage_one_calls_in_flight_never_exceed_max_inflight(max_inflight, peak):
    m = 10
    PeakInflightHandler.target, PeakInflightHandler.held, PeakInflightHandler.peak = peak, 0, 0
    limit = {} if max_inflight is None else {"max_inflight": max_inflight}
    with loopback(PeakInflightHandler) as (_, base_url):
        rewrite_over_http(EndpointConfig(base_url=base_url, model="m", **limit), m)
    # At the default, all m slots of the prompt are in flight together: one wave.
    assert PeakInflightHandler.peak == peak


@pytest.mark.parametrize("max_inflight, threads", [(None, 10), (3, 3)], ids=["default", "inflight3"])
def test_stage_one_threads_belong_to_the_client(monkeypatch, max_inflight, threads):
    m = 10
    # At the default all ten calls of a group are held together, so the first
    # group needs ten threads at once and the second needs them again.
    KeepAliveBarrierHandler.barrier = threading.Barrier(m if max_inflight is None else 1, timeout=5)
    # Thread objects, not idents: a new thread may take the ident of one that ended.
    workers = []
    complete = HttpChatClient.complete

    def recording_complete(self, req):
        workers.append(threading.current_thread())
        return complete(self, req)

    monkeypatch.setattr(HttpChatClient, "complete", recording_complete)
    limit = {} if max_inflight is None else {"max_inflight": max_inflight}
    with loopback(KeepAliveBarrierHandler) as (_, base_url):
        rewrite_over_http(EndpointConfig(base_url=base_url, model="m", **limit), m, seeds=(0, 1))
    assert len(workers) == 2 * m
    first, second = set(workers[:m]), set(workers[m:])
    assert len(first | second) <= threads
    if max_inflight is None:
        assert second <= first


class TestEndpointConfig:
    @pytest.mark.parametrize("max_inflight", [0, -1])
    def test_max_inflight_below_one_rejected(self, max_inflight):
        with pytest.raises(ValueError, match="max_inflight"):
            EndpointConfig(base_url="http://x", model="m", max_inflight=max_inflight)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("base_url", True, "base_url must be an http:// or https:// URL with a host"),
            ("base_url", "x", "base_url must be an http:// or https:// URL with a host"),
            *[("model", value, "model must be a non-empty string") for value in (True, "", None, 5)],
            ("timeout_s", True, "timeout_s must be a number, got True"),
            ("timeout_s", "30", "timeout_s must be a number, got '30'"),
            ("timeout_s", 10**400, "timeout_s must be a finite number"),
            *[
                ("max_inflight", value, f"max_inflight must be an integer, got {value!r}")
                for value in (True, "4", 2.5, 12.5, 3.0)
            ],
            *[("api_key_env", value, "api_key_env must be a non-empty string") for value in (True, "", None, 5)],
        ],
    )
    def test_a_wrong_value_is_refused(self, name, value, message):
        settings = {"base_url": "http://x", "model": "m", name: value}
        with pytest.raises(ValueError, match=message):
            EndpointConfig(**settings)

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("inf"), float("nan")])
    def test_nonpositive_timeout_rejected(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s must be positive and finite"):
            EndpointConfig(base_url="http://x", model="m", timeout_s=timeout_s)

    @pytest.mark.parametrize(
        "base_url",
        ["localhost:9/v1", "user:secret@localhost:9/v1", "ftp://x/v1", "http://", "http:///v1",
         "https://user:secret@/v1", "http://[::1/v1", "", 5, None],
    )
    def test_base_url_must_be_an_http_url_with_a_host(self, base_url):
        message = "base_url must be an http:// or https:// URL with a host"
        with pytest.raises(ValueError, match=message) as exc_info:
            EndpointConfig(base_url=base_url, model="m")
        assert "secret" not in str(exc_info.value)

    @pytest.mark.parametrize(
        "base_url", ["http://x", "HTTPS://api.example.com/v1", "http://127.0.0.1:9", "http://[::1]:8"]
    )
    def test_an_http_url_with_a_host_is_accepted(self, base_url):
        assert EndpointConfig(base_url=base_url, model="m").base_url == base_url

    @pytest.mark.parametrize("base_url", ["http://x/v1#frag", "https://user:secret@x/v1?a=1#frag"])
    def test_base_url_with_a_fragment_is_rejected(self, base_url):
        with pytest.raises(ValueError, match="base_url must not carry a #fragment") as exc_info:
            EndpointConfig(base_url=base_url, model="m")
        assert "secret" not in str(exc_info.value)

    def test_max_inflight_above_max_slots_rejected(self):
        assert rewriting.MAX_SLOTS == MAX_SLOTS == 1000
        assert EndpointConfig(base_url="http://x", model="m").max_inflight == MAX_SLOTS
        assert EndpointConfig(base_url="http://x", model="m", max_inflight=MAX_SLOTS).max_inflight == 1000
        with pytest.raises(ValueError, match="max_inflight must be at least 1 and at most 1000, got 1001"):
            EndpointConfig(base_url="http://x", model="m", max_inflight=MAX_SLOTS + 1)


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
    @pytest.mark.parametrize("seed", [True, "3", 2.5, None])
    def test_a_seed_that_is_no_integer_is_refused(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            MockChatModel(seed=seed)

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
            assert rouge1(tokenize(question), tokenize(hot)) < rouge1(tokenize(question), tokenize(cold))

    def test_replies_without_a_numpy_generator(self, monkeypatch):
        # The draws come from a hash digest, so numpy's Generator streams,
        # which NumPy does not promise to keep across releases, never enter.
        def refuse(*args, **kwargs):
            raise AssertionError("the mock built a numpy Generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        question = "where does the silver heron usually nest in spring"
        for temperature in (0.1, 1.0, 2.0):
            resp = MockChatModel(seed=3).complete(paraphrase_request(question, temperature, seed=5))
            assert resp.tokens_generated == len(resp.text.split()) > 0

    def test_draws_do_not_depend_on_how_many_swaps_are_read(self):
        mock = MockChatModel(seed=2)
        few = mock._draws("harbor lantern", 9, 5, 12, 3)
        every = mock._draws("harbor lantern", 9, 5, 12, SHUFFLE_CAP)
        assert few[:3] == every[:3] and few[3] == every[3][:3]
        assert len(every[1]) == 5 and len(every[2]) == 13
        assert all(0.0 <= u < 1.0 for u in every[3])

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
