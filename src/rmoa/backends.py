"""Chat and embedding backend protocols plus the HTTP wire clients.

Both wire clients speak the widespread JSON chat-completions and embeddings
shapes: POST ``{base}/chat/completions`` with ``{"model", "messages",
"temperature", "max_tokens"}`` and POST ``{base}/embeddings`` with
``{"model", "input"}``. Transient failures (connection errors, timeouts,
HTTP 429/5xx) are retried with exponential backoff; anything else is a
protocol error and fails immediately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import requests

from .accounting import TokenUsage
from .errors import BackendUnavailableError, ProtocolError

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


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
    """Endpoint, credentials and retrying POST shared by the wire clients."""

    base_url: str
    model: str
    api_key: str | None = None
    timeout_s: float = 60.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not self.timeout_s > 0:
            raise ValueError("timeout_s must be positive")
        self._session = requests.Session()

    def _post(self, path: str, payload: dict) -> dict:
        """POST ``payload`` to ``path`` under the base URL, retrying transient failures."""
        url = self.base_url.rstrip("/") + path
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.retry.max_attempts):
            try:
                response = self._session.post(
                    url, json=payload, headers=headers, timeout=self.timeout_s
                )
            except requests.RequestException as exc:
                last_error = exc
            else:
                if response.status_code == 200:
                    try:
                        return response.json()
                    except ValueError as exc:
                        raise ProtocolError(f"{url} returned invalid JSON: {exc}") from exc
                if response.status_code not in _RETRYABLE_STATUS:
                    raise ProtocolError(
                        f"{url} returned HTTP {response.status_code}: {response.text[:200]}"
                    )
                last_error = ProtocolError(f"{url} returned HTTP {response.status_code}")
            if attempt + 1 < self.retry.max_attempts:
                time.sleep(self.retry.delay(attempt))
        raise BackendUnavailableError(
            f"{url} unreachable after {self.retry.max_attempts} attempts: {last_error}"
        )


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
            usage = data["usage"]
            result = ChatResult(
                text=str(text),
                usage=TokenUsage(
                    int(usage["prompt_tokens"]), int(usage["completion_tokens"])
                ),
                model=self.model,
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
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
            vectors = tuple(
                tuple(float(x) for x in row["embedding"]) for row in rows
            )
            usage = data.get("usage", {})
            prompt_tokens = int(usage.get("prompt_tokens", 0))
        except (KeyError, TypeError, ValueError) as exc:
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
