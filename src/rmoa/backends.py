"""Chat and embedding backend protocols plus the HTTP wire clients.

Both wire clients speak the widespread JSON chat-completions and embeddings
shapes: POST ``{base}/chat/completions`` with ``{"model", "messages",
"temperature", "max_tokens"}`` and POST ``{base}/embeddings`` with
``{"model", "input"}``. Transient failures (connection errors, timeouts,
HTTP 429/5xx) are retried with exponential backoff, and each failed attempt
is logged as a warning on the ``rmoa.backends`` logger; anything else is a
protocol error and fails immediately. That includes a reply holding the
non-standard literals ``NaN``, ``Infinity`` or ``-Infinity``, which the
clients never send either.

Each client holds one urllib3 pool of up to 10 keep-alive connections,
built with the client. The proxy for the base URL is read from the
environment (``HTTP_PROXY``, ``HTTPS_PROXY``, ``ALL_PROXY``, ``NO_PROXY``)
at that point, not on every call. HTTPS certificates are verified against
certifi's bundle. Redirects are not followed: a 3xx reply is a protocol
error. ``REQUESTS_CA_BUNDLE``, ``CURL_CA_BUNDLE`` and ``~/.netrc`` are not
read.
"""

from __future__ import annotations

import json
import logging
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable
from urllib.parse import unquote, urlsplit

import certifi
import urllib3

from .accounting import TokenUsage
from .errors import BackendUnavailableError, ConfigError, ProtocolError

logger = logging.getLogger(__name__)

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
# Idle keep-alive connections each client's pool holds for reuse.
_POOL_MAXSIZE = 10


@dataclass(frozen=True)
class ChatResult:
    """One completion plus the usage the backend reported for it."""

    text: str
    usage: TokenUsage
    model: str


@dataclass(frozen=True)
class EmbeddingBatch:
    """Raw embedding rows for a batch of texts, in input order."""

    vectors: tuple[tuple[float, ...], ...]
    usage: TokenUsage
    model: str


@runtime_checkable
class ChatBackend(Protocol):
    model: str

    def chat(
        self, messages: list[dict[str, str]], *, temperature: float, max_tokens: int
    ) -> ChatResult: ...


@runtime_checkable
class EmbeddingBackend(Protocol):
    model: str
    max_input_chars: int | None

    def embed(self, texts: Sequence[str]) -> EmbeddingBatch: ...


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff: base, 2x base, 4x base, ..."""

    max_attempts: int = 3
    base_delay_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1 or self.base_delay_s < 0:
            raise ValueError("max_attempts must be at least 1 and base_delay_s nonnegative")

    def delay(self, attempt: int) -> float:
        return self.base_delay_s * (2**attempt)


@dataclass
class _HttpClient:
    """Endpoint, credentials, connection pool and retrying POST shared by the wire clients."""

    base_url: str
    model: str
    api_key: str | None = None
    timeout_s: float = 60.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not self.timeout_s > 0:
            raise ValueError("timeout_s must be positive")
        self._timeout = urllib3.Timeout(connect=self.timeout_s, read=self.timeout_s)
        self._pool = _pool_for(self.base_url)

    def close(self) -> None:
        """Close the pool's idle connections; a later call opens new ones."""
        self._pool.clear()

    def _post(self, path: str, payload: dict) -> dict:
        """POST ``payload`` to ``path`` under the base URL, retrying transient failures."""
        url = self.base_url.rstrip("/") + path
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        attempts = self.retry.max_attempts
        last_error: Exception | None = None
        for attempt in range(attempts):
            try:
                response = self._pool.urlopen(
                    "POST",
                    url,
                    body=body,
                    headers=headers,
                    retries=False,
                    redirect=False,
                    timeout=self._timeout,
                )
            except urllib3.exceptions.HTTPError as exc:
                last_error = exc
                failure = type(exc).__name__
            else:
                if response.status == 200:
                    try:
                        return json.loads(response.data, parse_constant=_refuse_constant)
                    except ValueError as exc:
                        raise ProtocolError(f"{url} returned invalid JSON: {exc}") from exc
                if response.status not in _RETRYABLE_STATUS:
                    text = response.data[:200].decode("utf-8", "replace")
                    raise ProtocolError(f"{url} returned HTTP {response.status}: {text}")
                failure = f"HTTP {response.status}"
                last_error = ProtocolError(f"{url} returned {failure}")
            delay = self.retry.delay(attempt) if attempt + 1 < attempts else None
            logger.warning(
                "POST %s attempt %d/%d failed (%s); %s",
                url,
                attempt + 1,
                attempts,
                failure,
                "giving up" if delay is None else f"retrying in {delay:g} s",
            )
            if delay is not None:
                time.sleep(delay)
        raise BackendUnavailableError(
            f"{url} unreachable after {attempts} attempts: {last_error}"
        )


def _refuse_constant(name: str) -> float:
    raise ValueError(f"non-standard literal {name}")


def _pool_for(base_url: str) -> urllib3.PoolManager:
    """A keep-alive pool for ``base_url``, through the proxy the environment names for it."""
    parts = urlsplit(base_url)
    proxies = urllib.request.getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    settings = {"maxsize": _POOL_MAXSIZE, "ca_certs": certifi.where()}
    if not proxy or urllib.request.proxy_bypass(parts.hostname or ""):
        return urllib3.PoolManager(**settings)
    if "://" not in proxy:
        proxy = "http://" + proxy
    auth = urllib3.util.parse_url(proxy).auth
    if auth:
        settings["proxy_headers"] = urllib3.make_headers(proxy_basic_auth=unquote(auth))
    try:
        return urllib3.ProxyManager(proxy, **settings)
    except urllib3.exceptions.ProxySchemeUnknown as exc:
        raise ConfigError(f"proxy for {base_url}: {exc}") from exc


@dataclass
class HttpChatBackend(_HttpClient):
    """Chat-completions client for any endpoint speaking the standard shape."""

    def chat(
        self, messages: list[dict[str, str]], *, temperature: float, max_tokens: int
    ) -> ChatResult:
        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        data = self._post("/chat/completions", payload)
        try:
            text = data["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"content is {type(text).__name__}, not a string")
            usage = data["usage"]
            result = ChatResult(
                text=text,
                usage=TokenUsage(
                    int(usage["prompt_tokens"]), int(usage["completion_tokens"])
                ),
                model=self.model,
            )
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"malformed chat completion payload: {exc}") from exc
        return result


@dataclass
class HttpEmbeddingBackend(_HttpClient):
    """Embeddings client for any endpoint speaking the standard shape."""

    max_input_chars: int | None = None

    def embed(self, texts: Sequence[str]) -> EmbeddingBatch:
        data = self._post("/embeddings", {"model": self.model, "input": list(texts)})
        try:
            rows = sorted(data["data"], key=lambda row: int(row["index"]))
            indices = [int(row["index"]) for row in rows]
            if indices != list(range(len(rows))):
                raise ValueError(f"row indices {indices} are not 0..{len(rows) - 1}")
            vectors = tuple(tuple(map(float, row["embedding"])) for row in rows)
            # A null usage counts as missing; any other non-object is malformed.
            usage = data.get("usage")
            if usage is not None and not isinstance(usage, dict):
                raise TypeError(f"usage is {type(usage).__name__}, not an object")
            prompt_tokens = int((usage or {}).get("prompt_tokens", 0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"malformed embeddings payload: {exc}") from exc
        return EmbeddingBatch(
            vectors=vectors,
            usage=TokenUsage(prompt_tokens, 0),
            model=self.model,
        )


@dataclass(frozen=True)
class Backends:
    """The pair of handles a pipeline run needs."""

    chat: ChatBackend
    embedding: EmbeddingBackend | None = None
