"""Chat and embedding backend protocols plus the HTTP wire clients.

Both wire clients speak the widespread JSON chat-completions and embeddings
shapes: POST ``{base}/chat/completions`` with ``{"model", "messages",
"temperature", "max_tokens"}`` and POST ``{base}/embeddings`` with
``{"model", "input"}``. Transient failures (connection errors, timeouts,
HTTP 429/5xx) are retried with exponential backoff, and each failed attempt
is logged as a warning on the ``rmoa.backends`` logger; anything else is a
protocol error and fails immediately. That includes a reply that is not
strict UTF-8 JSON: one holding the non-standard literals ``NaN``,
``Infinity`` or ``-Infinity``, which the clients never send either, or a
number that overflows a double, such as ``1e400``, in a token count or an
embedding row. So is an embedding component that is not a JSON number,
such as the string ``"NaN"``. Replies are decoded with orjson, imported
when the first reply arrives, so a run that decodes none never loads it.

Each client is one object per endpoint: it builds its request line and
header fields once, and keeps up to 10 idle keep-alive connections for
reuse. A call finding none idle opens another, which is closed after use if
10 are already idle. A pooled connection the server has closed is dropped
before it is used. ``http.client`` only opens connections (``TCP_NODELAY``,
TLS, CONNECT tunnel). The client sends each request in one write and reads
the reply itself (RFC 9112): a body framed by ``Content-Length``, chunked or
delimited by the connection's close; interim ``1xx`` replies are skipped. A
folded header line continues the field before it, joined with one space. A
malformed reply raises ``http.client``'s own exception types, retried like
a lost connection: among them a field line with whitespace before its colon
or with no colon, an invalid ``Content-Length`` and a 204 or 304 reply with
a ``Transfer-Encoding``. A body is read in pieces of at most 1 MiB, so a
length the connection never delivers is never allocated and is retried
like a cut body; a body over 1 GiB (a declared length, the chunks' sum or
the bytes before the close) is a protocol error. Requests carry
``User-Agent: rmoa/<version>`` and ``Accept-Encoding: identity``. A bearer
token holding a control character or a character outside Latin-1, and a
base URL whose path holds a space, a control or a non-ASCII character, are
refused when the client is built.

The proxy for the base URL is read from the environment (``HTTP_PROXY``,
``HTTPS_PROXY``, ``ALL_PROXY``, ``NO_PROXY``) when the client is built, not
on every call: an ``http://`` target is sent to the proxy with its absolute
URL, an ``https://`` target through a CONNECT tunnel. An ``https://`` proxy
serves only ``http://`` targets, because TLS cannot run inside its TLS
here. HTTPS certificates are verified against certifi's bundle, in a TLS
context built once per client when it first connects over HTTPS. Redirects
are not followed: a 3xx reply is a protocol error. ``REQUESTS_CA_BUNDLE``,
``CURL_CA_BUNDLE`` and ``~/.netrc`` are not read.
"""

from __future__ import annotations

import base64
import http.client
import json
import logging
import math
import re
import select
import socket
import ssl
import threading
import time
import urllib.request
import weakref
from dataclasses import dataclass, field
from typing import BinaryIO, Protocol, Sequence
from urllib.parse import SplitResult, unquote, urlsplit

import certifi

from . import __version__
from .accounting import TokenUsage
from .errors import BackendUnavailableError, ConfigError, ProtocolError

logger = logging.getLogger(__name__)

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
# Idle keep-alive connections each client's pool holds for reuse.
_POOL_MAXSIZE = 10
_USER_AGENT = f"rmoa/{__version__}"
# Reply limits, as http.client sets them: bytes per line, header fields per reply.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# The largest reply body read; a longer one is a protocol error. Bodies are
# read in pieces of at most _READ_PIECE bytes, so a length the connection
# never delivers is never allocated.
_MAX_BODY = 1 << 30
_READ_PIECE = 1 << 20
# A field line (name, colon, value) and a continuation of the one before it,
# each with its line end.
_FIELD_LINE = re.compile(rb"([!-9;-~]+):([^\r\n]*)\r?\n?")
_FOLDED_LINE = re.compile(rb"[ \t]+([^\r\n]*)\r?\n?")


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


class ChatBackend(Protocol):
    model: str

    def chat(
        self, messages: list[dict[str, str]], *, temperature: float, max_tokens: int
    ) -> ChatResult: ...


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
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0 <= self.base_delay_s < math.inf:
            raise ValueError("base_delay_s must be finite and nonnegative")

    def delay(self, attempt: int) -> float:
        # ldexp, not 2**attempt: from attempt 1024 on that int has no float
        return math.ldexp(self.base_delay_s, attempt)


def check_token(token: str) -> None:
    """Raise ``ValueError`` unless ``token`` fits in one ``Authorization`` field:
    no control character and nothing outside Latin-1. The message never
    quotes the token."""
    if any(c < " " or "\x7f" <= c < "\xa0" or c > "\xff" for c in token):
        raise ValueError("the bearer token holds a control character or one outside Latin-1")


@dataclass
class _HttpClient:
    """One endpoint, shared by the wire clients: its request head, its idle
    keep-alive connections (most recently returned first) and a retrying POST.

    Each subclass names its endpoint ``_path`` under the base URL. ``_send``
    takes an idle connection or opens one, sends the request in one write,
    reads the whole reply and keeps the connection unless the reply closes
    it or ``_POOL_MAXSIZE`` are already idle. ``http.client`` only opens
    connections. ``close``, or collecting the client, closes the idle ones.
    """

    base_url: str
    model: str
    api_key: str | None = None
    timeout_s: float = 60.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not 0 < self.timeout_s < math.inf:
            raise ValueError("timeout_s must be finite and positive")
        if self.api_key:
            check_token(self.api_key)
        self._url = self.base_url.rstrip("/") + self._path
        # the head is the request line and every fixed header field, each ending in CRLF
        self._host, self._port, self._tls, self._head, self._tunnel = _route(
            self.base_url, self._path, self.api_key
        )
        self._context: ssl.SSLContext | None = None
        self._idle: list[_Connection] = []
        self._lock = threading.Lock()
        # holds the list, not the client, so the client can still be collected
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Close the idle connections; a later call opens new ones."""
        with self._lock:
            _close_all(self._idle)

    def _post(self, payload: dict) -> dict:
        """POST ``payload`` to the endpoint, retrying transient failures."""
        url = self._url
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        request = b"%bContent-Length: %d\r\n\r\n%b" % (self._head, len(body), body)
        attempts = self.retry.max_attempts
        last_error: Exception | None = None
        for attempt in range(attempts):
            try:
                status, data = self._send(request)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                failure = type(exc).__name__
            except ProtocolError as exc:
                raise ProtocolError(f"{url} returned {exc}") from None
            else:
                if status == 200:
                    # imported on first use: a run that decodes no reply never loads it
                    import orjson

                    try:
                        return orjson.loads(data)
                    except ValueError as exc:
                        raise ProtocolError(f"{url} returned invalid JSON: {exc}") from exc
                if status not in _RETRYABLE_STATUS:
                    text = data[:200].decode("utf-8", "replace")
                    raise ProtocolError(f"{url} returned HTTP {status}: {text}")
                failure = f"HTTP {status}"
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

    def _send(self, request: bytes) -> tuple[int, bytes]:
        """Send one request; return the reply's status and body."""
        conn = self._take()
        try:
            conn.sock.sendall(request)
            try:
                status, data, will_close = _read_reply(conn.reader)
            except TimeoutError as exc:
                raise TimeoutError(f"Read timed out after {self.timeout_s:g} s") from exc
        except BaseException:
            conn.close()
            raise
        if not will_close:
            with self._lock:
                if len(self._idle) < _POOL_MAXSIZE:
                    self._idle.append(conn)
                    return status, data
        conn.close()
        return status, data

    def _take(self) -> _Connection:
        with self._lock:
            while self._idle:
                conn = self._idle.pop()
                if not _closed_by_server(conn):
                    return conn
                conn.close()
            if self._tls and self._context is None:
                # built on first use: an http:// client never pays for loading the CA bundle
                self._context = ssl.create_default_context(cafile=certifi.where())
        # http.client sets TCP_NODELAY when it connects
        if not self._tls:
            opener = http.client.HTTPConnection(self._host, self._port, timeout=self.timeout_s)
        else:
            opener = http.client.HTTPSConnection(
                self._host, self._port, timeout=self.timeout_s, context=self._context
            )
        if self._tunnel:
            opener.set_tunnel(*self._tunnel)
        try:
            opener.connect()
        except BaseException:
            opener.close()
            raise
        return _Connection(opener.sock)


class _Connection:
    """An open socket and the one buffered reader its replies are read through."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket) -> None:
        self.sock: socket.socket | None = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = None


def _close_all(idle: list[_Connection]) -> None:
    """Close and remove every connection in ``idle``, in place."""
    while idle:
        idle.pop().close()


def _closed_by_server(conn: _Connection) -> bool:
    """Whether an idle connection's socket is readable, meaning its server closed it.

    ``poll`` where the platform has one, as all but Windows do: ``select``
    fails there on descriptors of 1024 and up.
    """
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(conn.sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([conn.sock], [], [], 0)[0])


def _read_reply(reader: BinaryIO) -> tuple[int, bytes, bool]:
    """Read one reply (RFC 9112 framing); return its status, its body and
    whether the server closes the connection after it.

    Interim ``1xx`` replies are skipped. A fault raises the ``http.client``
    exception that ``getresponse`` and ``read`` raise for it, a framing
    ``http.client`` lets through (a malformed field line, an invalid
    ``Content-Length``) an ``HTTPException``, and a body over ``_MAX_BODY``
    a ``ProtocolError``. ``tests/test_wire.py`` holds it to ``http.client``.
    """
    status = 100
    while 100 <= status < 200:
        line = _read_line(reader, "status line")
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        # split as http.client splits it, at any whitespace Latin-1 knows
        words = line.decode("iso-8859-1").split(None, 2)
        try:
            if len(words) < 2 or not words[0].startswith("HTTP/"):
                raise ValueError
            status = int(words[1])
            if not 100 <= status <= 999:
                raise ValueError
        except ValueError:
            raise http.client.BadStatusLine(line.decode("iso-8859-1")) from None
        fields = _read_fields(reader)
    version = words[0]
    if version in ("HTTP/1.0", "HTTP/0.9"):
        # HTTP/1.0 closes unless the reply asks to keep the connection
        will_close = not (
            fields.get(b"keep-alive")
            or b"keep-alive" in fields.get(b"connection", b"").lower()
            or b"keep-alive" in fields.get(b"proxy-connection", b"").lower()
        )
    elif version.startswith("HTTP/1."):
        will_close = b"close" in fields.get(b"connection", b"").lower()
    else:
        raise http.client.UnknownProtocol(version)
    if status in (204, 304):
        # no body follows (RFC 9112 §6.3), so a coded one would be left unread
        if b"transfer-encoding" in fields:
            raise http.client.HTTPException(f"a {status} reply with a Transfer-Encoding")
        return status, b"", will_close
    if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        chunks, total = [], 0
        while size := _chunk_size(reader):
            total += size
            _check_body_size(total)
            chunks.append(_read_exactly(reader, size))
            _read_exactly(reader, 2)  # the CRLF after the chunk
        while _read_line(reader, "trailer line") not in (b"\r\n", b"\n", b""):
            pass
        return status, b"".join(chunks), will_close
    if (length := fields.get(b"content-length")) is None:
        # delimited by the end of the connection
        data = _read_at_most(reader, _MAX_BODY + 1)
        _check_body_size(len(data))
        return status, data, True
    try:
        if not length.isdigit():
            raise ValueError
        length = int(length)
    except ValueError:
        # RFC 9112 §6.3: an invalid length leaves the framing unknown
        raise http.client.HTTPException(f"invalid Content-Length {length[:40]!r}") from None
    _check_body_size(length)
    return status, _read_exactly(reader, length), will_close


def _check_body_size(size: int) -> None:
    if size > _MAX_BODY:
        # a chunk size of thousands of hex digits is more than str() converts
        size = min(size, 1 << 64)
        raise ProtocolError(f"a body of {size} bytes or more, over the {_MAX_BODY}-byte cap")


def _read_line(reader: BinaryIO, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _read_fields(reader: BinaryIO) -> dict[bytes, bytes]:
    """A header section's fields by lower-case name; the first of a repeated
    name wins.

    A line that begins with SP or HTAB continues the field line before it,
    joined with one SP (obs-fold, RFC 9112 §5.2). Any other line that is not
    ``name:value``, with a name of visible ASCII and a value holding no CR,
    is a framing error (RFC 9112 §5.1): a space before the colon, say, or no
    colon at all.
    """
    lines: list[list[bytes]] = []
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            fields: dict[bytes, bytes] = {}
            for name, value in lines:
                fields.setdefault(name.lower(), value.strip(b" \t"))
            return fields
        if lines and (folded := _FOLDED_LINE.fullmatch(line)):
            lines[-1][1] += b" " + folded[1]
        elif field := _FIELD_LINE.fullmatch(line):
            lines.append([field[1], field[2]])
        else:
            raise http.client.HTTPException(f"malformed header line {line[:40]!r}")
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def _chunk_size(reader: BinaryIO) -> int:
    line = _read_line(reader, "chunk size")
    try:
        size = int(line.split(b";", 1)[0], 16)
        if size < 0:
            raise ValueError
    except ValueError:
        raise http.client.IncompleteRead(b"") from None
    return size


def _read_exactly(reader: BinaryIO, size: int) -> bytes:
    data = _read_at_most(reader, size)
    if len(data) < size:
        raise http.client.IncompleteRead(data, size - len(data))
    return data


def _read_at_most(reader: BinaryIO, size: int) -> bytes:
    """Up to ``size`` bytes, fewer only at the end of the stream, read in pieces."""
    pieces = []
    while size and (piece := reader.read(min(size, _READ_PIECE))):
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def _route(base_url: str, path: str, token: str | None) -> tuple:
    """``(host, port, tls, head, tunnel)`` for POSTs to ``path`` under ``base_url``
    with ``token`` as their bearer token, through the proxy the environment
    names for it: where to connect, whether over TLS, the request head and
    the CONNECT tunnel's ``set_tunnel`` arguments, if any."""
    parts = urlsplit(base_url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"base URL {base_url!r} is not an http:// or https:// URL")
    host, port, tls = parts.hostname, parts.port, parts.scheme == "https"
    prefix, headers, tunnel = parts.path.rstrip("/"), {}, None
    proxies = urllib.request.getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    if proxy and not urllib.request.proxy_bypass(host):
        via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
        if via.scheme not in ("http", "https") or not via.hostname:
            raise ConfigError(f"proxy for {base_url}: {via.scheme}:// is not an http(s):// proxy")
        auth = via.netloc.rpartition("@")[0]
        if auth:
            basic = base64.b64encode(unquote(auth).encode()).decode()
            headers = {"Proxy-Authorization": "Basic " + basic}
        if not tls:
            # the proxy forwards the request, whose request line names the absolute URL
            prefix, tls = base_url.rstrip("/"), via.scheme == "https"
        elif via.scheme == "https":
            raise ConfigError(
                f"proxy for {base_url}: an https:// proxy cannot tunnel to an https:// URL"
            )
        else:
            # the CONNECT request alone carries the credentials
            tunnel, headers = (host, port, headers), {}
        host, port = via.hostname, via.port
    if not prefix.isascii() or any(c <= " " or c == "\x7f" for c in prefix):
        raise ConfigError(
            f"base URL {base_url!r} holds a space, a control or a non-ASCII character"
        )
    fields = {
        "Host": _host_field(parts),
        # without it a server may compress the reply
        "Accept-Encoding": "identity",
        **headers,
        "Content-Type": "application/json",
        "User-Agent": _USER_AGENT,
    }
    if token:
        fields["Authorization"] = f"Bearer {token}"
    lines = "".join(f"{name}: {value}\r\n" for name, value in fields.items())
    # the request line names the base URL's path, or the whole base URL when
    # a proxy forwards the request
    head = f"POST {prefix}{path} HTTP/1.1\r\n{lines}".encode("latin-1")
    return host, port, tls, head, tunnel


def _host_field(target: SplitResult) -> str:
    """The ``Host`` field for ``target``, as ``http.client`` writes it: the
    IDNA name or bracketed IPv6 address, and the port unless it is the
    scheme's default."""
    host = target.hostname
    if not host.isascii():
        host = host.encode("idna").decode("ascii")
    if ":" in host:
        host = f"[{host.partition('%')[0]}]"
    default = 443 if target.scheme == "https" else 80
    return host if target.port in (None, default) else f"{host}:{target.port}"


@dataclass
class HttpChatBackend(_HttpClient):
    """Chat-completions client for any endpoint speaking the standard shape."""

    _path = "/chat/completions"

    def chat(
        self, messages: list[dict[str, str]], *, temperature: float, max_tokens: int
    ) -> ChatResult:
        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        data = self._post(payload)
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
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed chat completion payload: {exc}") from exc
        return result


@dataclass
class HttpEmbeddingBackend(_HttpClient):
    """Embeddings client for any endpoint speaking the standard shape."""

    _path = "/embeddings"
    max_input_chars: int | None = None

    def __post_init__(self) -> None:
        limit = self.max_input_chars
        if limit is not None and limit < 1:
            raise ValueError(f"max_input_chars must be at least 1, got {limit}")
        super().__post_init__()

    def embed(self, texts: Sequence[str]) -> EmbeddingBatch:
        data = self._post({"model": self.model, "input": list(texts)})
        try:
            rows = sorted(data["data"], key=lambda row: int(row["index"]))
            indices = [int(row["index"]) for row in rows]
            if indices != list(range(len(rows))):
                raise ValueError(f"row indices {indices} are not 0..{len(rows) - 1}")
            vectors = tuple(tuple(row["embedding"]) for row in rows)
            for row in vectors:
                # a TypeError on a component that is not a JSON number;
                # EmbeddingVector converts the numbers
                math.hypot(*row)
            # A null usage counts as missing; any other non-object is malformed.
            usage = data.get("usage")
            if usage is not None and not isinstance(usage, dict):
                raise TypeError(f"usage is {type(usage).__name__}, not an object")
            prompt_tokens = int((usage or {}).get("prompt_tokens", 0))
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
