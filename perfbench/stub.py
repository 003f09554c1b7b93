"""Loopback chat-completions stub serving the deterministic mock model.

The stub runs in one separate process started with the ``spawn`` context and
listens on 127.0.0.1 only. Each POST to ``/chat/completions`` is answered with
the reply ``MockChatModel(seed=0)`` gives for the same request, the
``usage.completion_tokens`` count, and a fixed ``DELAY_S`` service delay. The
``X-Stub-Service-Ms`` header reports the stub's own time for the request, delay
included, so the client's share of a call's wall time can be separated out.
Replies go out with Nagle's algorithm disabled: the header and body writes
would otherwise meet delayed ACK and add a stall of tens of milliseconds to
every call.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from promptsan.client import ChatRequest, Message, MockChatModel

DELAY_S = 0.020
SERVICE_HEADER = "X-Stub-Service-Ms"
START_TIMEOUT_S = 60.0


def chat_reply(body: dict, model: MockChatModel) -> dict:
    """The chat-completions reply the mock gives for a request body."""
    req = ChatRequest(
        model=str(body.get("model", "")),
        messages=tuple(Message(m["role"], m["content"]) for m in body["messages"]),
        temperature=float(body["temperature"]),
        max_tokens=int(body["max_tokens"]),
        seed=body.get("seed"),
    )
    resp = model.complete(req)
    return {
        "object": "chat.completion",
        "choices": [
            {
                "index": 0,
                "message": {"role": "assistant", "content": resp.text},
                "finish_reason": "stop",
            }
        ],
        "usage": {"completion_tokens": resp.tokens_generated},
    }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        started = time.perf_counter()
        if self.path.rstrip("/") != "/chat/completions":
            self._send(404, {"error": "not found"}, started)
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            reply = chat_reply(json.loads(self.rfile.read(length)), self.server.model)
        except (ValueError, KeyError, TypeError) as exc:
            self._send(400, {"error": type(exc).__name__}, started)
            return
        time.sleep(DELAY_S)
        self._send(200, reply, started)

    def _send(self, status: int, doc: dict, started: float) -> None:
        payload = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.send_header(SERVICE_HEADER, f"{(time.perf_counter() - started) * 1000.0:.6f}")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass


def serve(conn) -> None:
    """Process entry point: serve until the parent sends a stop message or exits."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.model = MockChatModel(seed=0)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        conn.send(server.server_address[1])
        conn.recv()
    except EOFError:
        pass
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        conn.close()


class StubService:
    """Owns the stub process; ``close`` stops it and waits for it to end."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(target=serve, args=(child_conn,), daemon=True)
        self._proc.start()
        child_conn.close()
        try:
            if not self._conn.poll(START_TIMEOUT_S):
                raise RuntimeError("stub service did not start in time")
            port = self._conn.recv()
        except BaseException:
            self.close()
            raise
        self.base_url = f"http://127.0.0.1:{port}"

    def close(self) -> None:
        if self._proc is None:
            return
        try:
            self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(10.0)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(10.0)
        self._conn.close()
        self._proc = None

    def __enter__(self) -> "StubService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def stop_resource_tracker() -> None:
    """Stop and reap the helper process the spawn context starts on first use."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
