"""Chat-completion clients: a real HTTP client and a deterministic mock.

The HTTP client speaks the de-facto chat-completions JSON shape so hosted
GPT-style services and local servers are interchangeable. The mock is a pure
function of (message contents, temperature bucket, seed) and produces
word-level perturbations whose intensity grows with temperature, which lets
the whole pipeline and the evaluation harness run deterministically offline.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Protocol
from urllib.parse import urlsplit, urlunsplit

from .mechanisms import as_float, check_count
from .normalization import STRIP_CHARS, tokenize
from .stopwords import STOP_WORDS

if TYPE_CHECKING:  # pragma: no cover
    import requests


@dataclass(frozen=True)
class Message:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user"):
            raise ValueError(f"unsupported role: {self.role!r}")


@dataclass(frozen=True)
class ChatRequest:
    model: str  # "" means the client's own model
    messages: tuple[Message, ...]
    temperature: float
    max_tokens: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if not any(m.role == "user" for m in self.messages):
            raise ValueError("request needs at least one user message")
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")

    @classmethod
    def single(
        cls,
        content: str,
        *,
        temperature: float = 0.0,
        max_tokens: int = 256,
        seed: int | None = None,
    ) -> "ChatRequest":
        return cls("", (Message("user", content),), temperature, max_tokens, seed)


@dataclass(frozen=True)
class ChatResponse:
    text: str
    # The service's usage.completion_tokens; None when it gave no usable count.
    tokens_generated: int | None
    attempts: int = 1


class ChatClient(Protocol):
    def complete(self, req: ChatRequest) -> ChatResponse: ...


class ClientError(RuntimeError):
    """Terminal service error (non-retryable 4xx)."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class TransportError(RuntimeError):
    """Transport or retryable service failure that exhausted its retries."""


# The most rewrite slots a schedule may hold (100 times the paper's m = 10),
# and so the most Stage-1 calls a client may have in flight at once.
MAX_SLOTS = 1000


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    timeout_s: float = 30.0
    # Every slot of a schedule, so the m Stage-1 calls of a prompt go out at once.
    max_inflight: int = MAX_SLOTS
    api_key_env: str = "PROMPTSAN_API_KEY"

    def __post_init__(self) -> None:
        try:
            url = urlsplit(self.base_url) if isinstance(self.base_url, str) else None
        except ValueError:  # an unclosed IPv6 bracket, for one
            url = None
        # The messages leave the value out: a URL may carry credentials.
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("base_url must be an http:// or https:// URL with a host")
        if url.fragment:
            # A fragment is never sent, so a URL carrying one would not mean what it says.
            raise ValueError("base_url must not carry a #fragment")
        if not (isinstance(self.model, str) and self.model):
            raise ValueError(f"model must be a non-empty string, got {self.model!r}")
        check_count("max_inflight", self.max_inflight)
        if not 1 <= self.max_inflight <= MAX_SLOTS:
            raise ValueError(
                f"max_inflight must be at least 1 and at most {MAX_SLOTS}, got {self.max_inflight!r}"
            )
        object.__setattr__(self, "timeout_s", as_float("timeout_s", self.timeout_s))
        if not 0 < self.timeout_s < math.inf:  # rejects NaN too
            raise ValueError(f"timeout_s must be positive and finite, got {self.timeout_s!r}")
        if not (isinstance(self.api_key_env, str) and self.api_key_env):
            raise ValueError(f"api_key_env must be a non-empty string, got {self.api_key_env!r}")

    def api_key(self) -> str | None:
        """The key in the ``api_key_env`` variable, None if it is unset or empty.

        Raises ValueError, without the value, if the key holds any character
        outside visible ASCII (0x21-0x7E): an HTTP library would reject the
        header with an error quoting it.
        """
        key = os.environ.get(self.api_key_env, "")
        if not all("!" <= ch <= "~" for ch in key):
            raise ValueError(f"the API key in {self.api_key_env} must hold only visible ASCII characters")
        return key or None


_RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
# Retry schedule: up to MAX_ATTEMPTS tries, the n-th retry after about
# BASE_DELAY_S * BACKOFF_FACTOR**(n-1) seconds plus up to 25% jitter.
MAX_ATTEMPTS = 3
BASE_DELAY_S = 1.0
BACKOFF_FACTOR = 2.0


def _describe_error_reply(resp: requests.Response) -> str:
    """Status, body length and body hash of an error reply, never the body.

    A service may echo the request in its error body, and the request holds
    the prompt.
    """
    body = resp.content
    digest = hashlib.blake2b(body, digest_size=8).hexdigest()
    return f"HTTP {resp.status_code}: {len(body)}-byte body, blake2b {digest}"


class HttpChatClient:
    """POSTs chat-completions requests with bounded exponential-backoff retries."""

    def __init__(
        self,
        endpoint: EndpointConfig,
        *,
        sleeper: Callable[[float], None] = time.sleep,
        session: requests.Session | None = None,
    ) -> None:
        # requests is imported here, not at module level, so that importing
        # promptsan does not pay for it until an HTTP client is built.
        import requests

        self.endpoint = endpoint
        # Joined onto the path, so a query the service needs (an api-version, say) stays one.
        base = urlsplit(endpoint.base_url)
        self._url = urlunsplit(base._replace(path=base.path.rstrip("/") + "/chat/completions"))
        self._sleep = sleeper
        self._owns_session = session is None
        if session is None:
            # Pool a connection for every call that may be in flight, so the
            # next prompt's Stage-1 calls reuse this one's connections.
            session = requests.Session()
            adapter = requests.adapters.HTTPAdapter(
                pool_maxsize=max(endpoint.max_inflight, requests.adapters.DEFAULT_POOLSIZE)
            )
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self._session = session
        # The proxy and CA variables, merged with the session's proxies and its
        # verify, cert and stream settings: read once, not rescanned per call.
        self._send_settings = session.merge_environment_settings(self._url, {}, None, None, None)
        self._pool = ThreadPoolExecutor(max_workers=endpoint.max_inflight)

    def close(self) -> None:
        """Stop the worker threads, and close the session this client built.

        A caller-supplied session stays open. A closed client still works: its
        next ``map`` starts new threads, as its session opens new connections.
        """
        self._pool.shutdown()
        self._pool = ThreadPoolExecutor(max_workers=self.endpoint.max_inflight)
        if self._owns_session:
            self._session.close()

    def map(self, fn: Callable, items: Iterable) -> list:
        """``fn`` over ``items``, in input order, with up to ``endpoint.max_inflight`` calls at once.

        The worker threads belong to the client: made as calls need them and
        kept for later calls, so the cap holds across concurrent callers too.
        """
        return list(self._pool.map(fn, items))

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = self.endpoint.api_key()
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete(self, req: ChatRequest) -> ChatResponse:
        import requests

        body: dict = {
            "model": req.model or self.endpoint.model,
            "messages": [{"role": m.role, "content": m.content} for m in req.messages],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        if req.seed is not None:
            body["seed"] = req.seed

        headers = self._headers()
        last_failure = ""
        for attempt in range(1, MAX_ATTEMPTS + 1):
            try:
                # prepare_request still applies the session's hooks, cookies and auth.
                request = self._session.prepare_request(
                    requests.Request("POST", self._url, json=body, headers=headers)
                )
                resp = self._session.send(request, timeout=self.endpoint.timeout_s, **self._send_settings)
            except requests.RequestException as exc:
                # The type only: requests' message quotes the URL, query included.
                last_failure = f"transport error: {type(exc).__name__}"
            else:
                if resp.status_code == 200:
                    try:
                        data = resp.json()
                    except ValueError as exc:
                        raise ClientError(f"malformed completion payload: {exc}") from exc
                    return self._parse(data, attempt)
                failure = _describe_error_reply(resp)
                if resp.status_code in _RETRYABLE_STATUSES:
                    last_failure = failure
                else:
                    raise ClientError(failure, status=resp.status_code)
            if attempt < MAX_ATTEMPTS:
                delay = BASE_DELAY_S * BACKOFF_FACTOR ** (attempt - 1)
                self._sleep(delay * (1.0 + 0.25 * random.random()))
        raise TransportError(f"request failed after {MAX_ATTEMPTS} attempts: {last_failure}")

    @staticmethod
    def _parse(data: dict, attempts: int) -> ChatResponse:
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ClientError(f"malformed completion payload: {exc}") from exc
        if not isinstance(text, str):
            raise ClientError("malformed completion payload: content is not a string")
        usage = data.get("usage")
        tokens = usage.get("completion_tokens") if isinstance(usage, dict) else None
        # type() rather than isinstance: true/false is no token count.
        if type(tokens) is not int or tokens < 0:
            tokens = None
        return ChatResponse(text=text, tokens_generated=tokens, attempts=attempts)


# --- deterministic mock -----------------------------------------------------

# Substitutions the mock applies at every temperature, including 0.
FORCED_SYNONYMS = {
    "movie": "film",
    "buy": "purchase",
    "big": "large",
    "quick": "fast",
    "begin": "start",
    "speak": "talk",
}

REWRITE_HEADER = "Refer to the following question to generate a new question:"
AVOID_HEADER = "Avoid using the following tokens:"
CHOICES_HEADER = "Choices:"
DOC_TOKENS_PREFIX = "Document tokens:"
QUESTION_PREFIX = "Question:"

_B36 = "0123456789abcdefghijklmnopqrstuvwxyz"

# Edit rates per unit of temperature bucket, and their caps: the share of
# content words substituted, filler words appended (per word), and adjacent
# swaps (per word, at most SHUFFLE_CAP).
SUB_SLOPE, SUB_CAP = 0.55, 0.75
FILL_SLOPE, FILL_CAP = 0.5, 0.75
SHUFFLE_SLOPE, SHUFFLE_CAP = 0.25, 64


def _tag(value: int) -> str:
    return _B36[(value // 36) % 36] + _B36[value % 36]


@dataclass
class MockChatModel:
    """Seeded stand-in for a chat service.

    Output is a pure function of (hash of the concatenated message contents,
    temperature bucket, seed). Temperature only scales the number of edits;
    the random draws themselves depend on content and seed alone, so raising
    the temperature strictly extends the edit set instead of resampling it.
    """

    seed: int = 0

    def __post_init__(self) -> None:
        check_count("seed", self.seed)

    def complete(self, req: ChatRequest) -> ChatResponse:
        content = "\n".join(m.content for m in req.messages)
        last = req.messages[-1].content
        lines = last.splitlines()

        if REWRITE_HEADER in lines:
            text = self._regenerate(lines)
        elif any(line.strip() == CHOICES_HEADER for line in lines):
            text = self._answer_choice(lines)
        elif any(line.startswith(DOC_TOKENS_PREFIX) for line in lines):
            text = self._answer_document(lines)
        else:
            text = self._paraphrase(last, content, req)

        words = text.split()[: req.max_tokens]
        text = " ".join(words)
        return ChatResponse(text=text, tokens_generated=len(words))

    # -- frame handlers --

    def _regenerate(self, lines: list[str]) -> str:
        """Produce a fresh question from the exemplar, dropping forbidden tokens."""
        exemplar = ""
        forbidden: set[str] = set()
        for i, line in enumerate(lines):
            if line == REWRITE_HEADER and i + 1 < len(lines):
                exemplar = lines[i + 1]
            if line == AVOID_HEADER and i + 1 < len(lines):
                forbidden = {w.strip() for w in lines[i + 1].split(",") if w.strip()}
        kept = [w for w in exemplar.split() if w.strip(STRIP_CHARS).lower() not in forbidden]
        return " ".join(kept)

    def _answer_choice(self, lines: list[str]) -> str:
        question_tokens: set[str] = set()
        for line in lines:
            if line.startswith(QUESTION_PREFIX):
                question_tokens = set(tokenize(line[len(QUESTION_PREFIX) :]))
        best_label, best_overlap = "", -1
        for line in lines:
            stripped = line.strip()
            if len(stripped) > 2 and stripped[1] == "." and stripped[0].isalpha():
                label = stripped[0].upper()
                overlap = len(set(tokenize(stripped[2:])) & question_tokens)
                if overlap > best_overlap:
                    best_label, best_overlap = label, overlap
        return best_label or "A"

    def _answer_document(self, lines: list[str]) -> str:
        doc_tokens: list[str] = []
        for line in lines:
            if line.startswith(DOC_TOKENS_PREFIX):
                doc_tokens = line[len(DOC_TOKENS_PREFIX) :].split()
        ranked = sorted(set(doc_tokens), key=lambda t: (-len(t), t))
        return " ".join(ranked[:3])

    # -- paraphrasing --

    def _draws(
        self, content: str, seed: int | None, n_content: int, n_words: int, n_shuffle: int
    ) -> tuple[int, list[int], list[int], list[float]]:
        """The offset, variant tags, fill tags and first n_shuffle swap uniforms of a reply.

        All are read from one shake_256 stream over (content, request seed,
        mock seed) as little-endian words: 1 + max(n_content, 1) + n_words + 1
        uint32 words, reduced mod their bound for the offset and the tags,
        then up to SHUFFLE_CAP uint64 words x, each read as (x >> 11) * 2**-53.
        The stream's prefix does not depend on its length, so every draw sits
        at a place fixed by the word counts alone, whatever n_shuffle is.
        """
        material = f"{content}\x1f{seed if seed is not None else ''}\x1f{self.seed}"
        n_variants = max(n_content, 1)
        n_tags = n_variants + n_words + 1
        size = 4 * (1 + n_tags) + 8 * n_shuffle
        digest = hashlib.shake_256(material.encode("utf-8")).digest(size)
        words = struct.unpack(f"<{1 + n_tags}I{n_shuffle}Q", digest)
        tags = [w % 1296 for w in words[1 : 1 + n_tags]]
        shuffle_draws = [(w >> 11) * 2.0**-53 for w in words[1 + n_tags :]]
        return words[0] % n_variants, tags[:n_variants], tags[n_variants:], shuffle_draws

    @staticmethod
    def _bucket(temperature: float) -> float:
        return round(temperature * 20.0) / 20.0

    def _paraphrase(self, last: str, content: str, req: ChatRequest) -> str:
        target = last.split("\n", 1)[1] if "\n" in last else last
        words = target.split()
        if not words:
            return ""
        cores = [w.strip(STRIP_CHARS) for w in words]
        lowered = [core.lower() for core in cores]
        content_positions = [
            i for i, core in enumerate(cores) if core and lowered[i] not in STOP_WORDS
        ]
        n_content = len(content_positions)

        bucket = self._bucket(req.temperature)
        sub_rate = min(SUB_CAP, SUB_SLOPE * bucket)
        fill_rate = min(FILL_CAP, FILL_SLOPE * bucket)
        n_sub = int(sub_rate * n_content)
        n_fill = int(fill_rate * len(words))
        n_shuffle = min(int(SHUFFLE_SLOPE * bucket * len(words)), SHUFFLE_CAP)

        # The draws do not depend on temperature, so a hotter request reuses
        # the same edits and only adds more of them.
        offset, variant_tags, fill_tags, shuffle_draws = self._draws(
            content, req.seed, n_content, len(words), n_shuffle
        )

        out = list(words)
        for i, pos in enumerate(content_positions):
            forced = FORCED_SYNONYMS.get(lowered[pos])
            # The substitution window is the n_sub content words from offset
            # on, cyclically: growing n_sub extends it.
            if forced is None and (i - offset) % n_content >= n_sub:
                continue
            word, core = words[pos], cores[pos]
            start = len(word) - len(word.lstrip(STRIP_CHARS))
            new_core = forced if forced is not None else core + _tag(variant_tags[i])
            out[pos] = word[:start] + new_core + word[start + len(core) :]

        if len(out) > 1:
            for k in range(n_shuffle):
                pos = int(shuffle_draws[k] * (len(out) - 1))
                out[pos], out[pos + 1] = out[pos + 1], out[pos]

        out.extend("zq" + _tag(fill_tags[j]) for j in range(n_fill))
        return " ".join(out)
