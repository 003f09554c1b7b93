"""In-memory span tracing from outside the program.

The traced run replaces the module-level names the pipeline and the harness
call through (see ``layers.TARGETS``) with wrappers that record a span per
call, and wraps the chat clients the benchmark passes in. Nothing inside the
program changes, and every replaced name is put back when the run ends.

A span holds its name, start, end, parent span and operation id; all spans of
one prompt (one evaluation row on ``eval-grid``) share an operation id. Spans
are kept in flat integer arrays and written out once, at the end of the run.
Operations carry a blake2b hash of their prompt, never its text, and no span
holds free text: errors are recorded by exception type name only.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import json
import re
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

NO_PARENT = -1
HASH_BYTES = 16


def prompt_hash(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=HASH_BYTES).hexdigest()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.errors: dict[int, str] = {}
        self.attrs: dict[int, dict] = {}
        self.gauges: dict[str, float] = {}
        self.op_hashes: list[str] = []
        self.op_status: dict[int, str] = {}
        self.unit_ops = 0
        self.missing: list[str] = []
        self.paused_depth = 0
        self._op_id = NO_PARENT
        self._op_stack: list[int] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording --

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int) -> int:
        stack = self._stack()
        # A span opened on a worker thread belongs to the span the operation's
        # own thread is inside, which is the call that fanned the work out.
        if stack:
            parent = stack[-1]
        elif self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = NO_PARENT
        with self._lock:
            idx = len(self.start)
            self.parent.append(parent)
            self.op.append(self._op_id)
            self.name.append(name_id)
            self.start.append(0)
            self.end.append(0)
        stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def close(self, idx: int, error: str | None = None, attrs: dict | None = None) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack().pop()
        if error is not None:
            self.errors[idx] = error
        if attrs:
            self.attrs[idx] = attrs

    def begin_op(self, prompt: str | None, unit: bool) -> int:
        """Start an operation; returns the enclosing one for ``end_op``."""
        previous = self._op_id
        self._op_id = len(self.op_hashes)
        self.op_hashes.append(prompt_hash(prompt) if prompt is not None else "")
        if unit:
            self.unit_ops += 1
        self._op_stack = self._stack()
        return previous

    def end_op(self, previous: int, status: str | None = None) -> None:
        if status is not None:
            self.op_status[self._op_id] = status
        self._op_id = previous

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made inside run untraced (the benchmark's own output checks)."""
        self.paused_depth += 1
        try:
            yield
        finally:
            self.paused_depth -= 1

    def traced(
        self,
        fn: Callable,
        span: str,
        annotate: Callable | None = None,
        row_prompt: Callable | None = None,
    ) -> Callable:
        name_id = self.name_id(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused_depth:
                return fn(*args, **kwargs)
            previous = self.begin_op(row_prompt(args), unit=True) if row_prompt else None
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, error=type(exc).__name__)
                if row_prompt:
                    self.end_op(previous, "raised")
                raise
            self.close(idx, attrs=annotate(result) if annotate else None)
            if row_prompt:
                self.end_op(previous, "ok")
            return result

        return wrapper

    # -- installing wrappers --

    @contextmanager
    def installed(self, targets, builder_targets=()) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore it.

        A target whose module or attribute no longer exists is listed in
        ``missing`` and left alone.
        """
        restore: list[tuple[object, str, object]] = []
        restore_dicts: list[tuple[dict, dict]] = []
        try:
            for target in targets:
                owner, attr, original = _resolve(target.module, target.path)
                if not callable(original):
                    self.missing.append(f"{target.module}.{target.path}")
                    continue
                setattr(owner, attr, self.traced(original, target.span, target.annotate, target.row_prompt))
                restore.append((owner, attr, original))
            for target in builder_targets:
                _, _, builders = _resolve(target.module, target.path)
                if not isinstance(builders, dict):
                    self.missing.append(f"{target.module}.{target.path}")
                    continue
                saved = dict(builders)
                restore_dicts.append((builders, saved))
                for key, builder in saved.items():
                    builders[key] = self._traced_builder(builder, target.span)
            yield self
        finally:
            for builders, saved in restore_dicts:
                builders.clear()
                builders.update(saved)
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _traced_builder(self, builder: Callable, span: str) -> Callable:
        @functools.wraps(builder)
        def build(*args, **kwargs):
            return TracedSanitizer(builder(*args, **kwargs), self, span)

        return build

    # -- output --

    def write(self, path: str, header: dict) -> None:
        """Write the run header, one line per operation and one per span (gzip JSONL).

        Operation and span lines have the fixed layouts ``check_trace`` verifies.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"kind": "run", **header}) + "\n")
            for op, digest in enumerate(self.op_hashes):
                status = self.op_status.get(op)
                fh.write(
                    '{"kind":"op","op":%d,"prompt_blake2b":%s,"status":%s}\n'
                    % (op, f'"{digest}"' if digest else "null", f'"{status}"' if status else "null")
                )
            names, errors, attrs = self.names, self.errors, self.attrs
            for i in range(len(self.start)):
                extra = ""
                if i in errors:
                    extra += ',"error":"%s"' % errors[i]
                if i in attrs:
                    extra += ',"attrs":' + json.dumps(attrs[i], separators=(",", ":"))
                fh.write(
                    '{"kind":"span","id":%d,"parent":%d,"op":%d,"name":"%s","start_ns":%d,"end_ns":%d%s}\n'
                    % (i, self.parent[i], self.op[i], names[self.name[i]], self.start[i], self.end[i], extra)
                )


_OP_LINE = re.compile(r'\{"kind":"op","op":\d+,"prompt_blake2b":(?:null|"[0-9a-f]{32}"),"status":(?:null|"[a-z_]+")\}')
_SPAN_LINE = re.compile(
    r'\{"kind":"span","id":\d+,"parent":-?\d+,"op":-?\d+,"name":"([A-Za-z0-9_.]+)","start_ns":\d+,"end_ns":\d+'
    r'(?:,"error":"[A-Za-z_][A-Za-z0-9_]*")?(?:,"attrs":\{"[a-z_]+":-?[0-9.eE+-]+(?:,"[a-z_]+":-?[0-9.eE+-]+)*\})?\}'
)


def check_trace(path: str, span_names: set[str], prompts: list[str]) -> list[str]:
    """Problems found in a written trace: free text outside the run header, or prompt text."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        text = fh.read()
    problems = []
    lines = text.splitlines()
    if not lines or not lines[0].startswith('{"kind": "run"'):
        problems.append("trace has no run header")
    for line in lines[1:]:
        if line.startswith('{"kind":"op"'):
            if not _OP_LINE.fullmatch(line):
                problems.append("op line carries free text")
                break
            continue
        match = _SPAN_LINE.fullmatch(line)
        if match is None or match.group(1) not in span_names:
            problems.append("span line carries free text")
            break
    if any(p in text for p in prompts):
        problems.append("trace contains prompt text")
    return problems


def _resolve(module_name: str, path: str) -> tuple[object, str, object]:
    """(owner, attribute, current value) for ``module.path``; value None if absent."""
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None, path, None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr, None
    if isinstance(owner, type):
        return owner, attr, vars(owner).get(attr)
    return owner, attr, getattr(owner, attr, None)


class TracedClient:
    """A ChatClient that records a span per ``complete`` call.

    Tracks how many calls are in flight at once. When given the
    ``requests.Session`` the wrapped HTTP client uses, it also reads the
    service's own handling time from each reply's ``service_header``.
    """

    def __init__(self, inner, tracer: Tracer, span: str, session=None, service_header: str = "") -> None:
        self._inner = inner
        self._tracer = tracer
        self._name_id = tracer.name_id(span)
        self._span = span
        self._inflight = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._service_header = service_header
        tracer.gauges.setdefault(f"{span}.inflight_max", 0)
        if session is not None:
            session.hooks["response"] = [self._on_response]

    def _on_response(self, resp, *args, **kwargs):
        idx = getattr(self._local, "span", None)
        value = resp.headers.get(self._service_header)
        if idx is not None and value is not None:
            attrs = self._local.attrs
            attrs["service_ms"] = attrs.get("service_ms", 0.0) + float(value)
        return resp

    def complete(self, req):
        tracer = self._tracer
        if tracer.paused_depth:
            return self._inner.complete(req)
        key = f"{self._span}.inflight_max"
        with self._lock:
            self._inflight += 1
            if self._inflight > tracer.gauges[key]:
                tracer.gauges[key] = self._inflight
        attrs: dict = {}
        idx = tracer.open(self._name_id)
        self._local.span, self._local.attrs = idx, attrs
        try:
            resp = self._inner.complete(req)
        except BaseException as exc:
            tracer.close(idx, error=type(exc).__name__, attrs=attrs)
            raise
        finally:
            self._local.span = None
            with self._lock:
                self._inflight -= 1
        attrs["attempts"] = resp.attempts
        tracer.close(idx, attrs=attrs)
        return resp


class TracedSanitizer:
    """Sanitizer proxy that records a span per call and keeps name and temperature."""

    def __init__(self, inner, tracer: Tracer, span: str) -> None:
        self.name = inner.name
        self.temperature = inner.temperature
        self._call = tracer.traced(inner.__call__, span)

    def __call__(self, question: str):
        return self._call(question)
