"""Shared fixtures: mock backend bundles, configs, and a local HTTP stub."""

from __future__ import annotations

import hashlib
import json
import math
import re
import select
import socket
import ssl
import struct
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from socketserver import StreamRequestHandler
from pathlib import Path

import pytest

from rmoa.backends import Backends
from rmoa.embedding import SimilarityMatrix
from rmoa.mockbackend import MockChatBackend, MockEmbeddingBackend, MockRule
from rmoa.pipeline import RunConfig
from rmoa.termination import TerminationConfig

from oracles import exact_matrix

@pytest.fixture(autouse=True)
def no_leaked_rmoa_threads():
    """Fail a test that leaves a pool thread of the package running.

    ``run_benchmark`` names its pools ``rmoa-item`` and ``rmoa-call``, and
    closing a pool joins its threads, so none may outlive the test.
    """
    yield
    leaked = [t.name for t in threading.enumerate() if t.name.startswith("rmoa-")]
    if leaked:
        pytest.fail(f"threads left running: {sorted(leaked)}")


# Unit vectors at 0, 10, 90 and 100 degrees, written down as their exact
# pairwise cosines so the 0/3 row-mean tie is exact in floats.
_C10 = math.cos(math.radians(10))
_C80 = math.cos(math.radians(80))
_C90 = math.cos(math.radians(90))
_C100 = math.cos(math.radians(100))

ANGLE_FIXTURE_ENTRIES = (
    (1.0, _C10, _C90, _C100),
    (_C10, 1.0, _C80, _C90),
    (_C90, _C80, 1.0, _C10),
    (_C100, _C90, _C10, 1.0),
)


@pytest.fixture
def angle_matrix() -> SimilarityMatrix:
    return exact_matrix(ANGLE_FIXTURE_ENTRIES)


def make_mock_bundle(
    behavior: str = "echo",
    script: tuple[bool, ...] = (),
    answers: dict[str, str] | None = None,
    embed_seed: int = 7,
    embed_dim: int = 64,
) -> Backends:
    rule = MockRule(behavior=behavior, answers=answers or {}, script=script)
    return Backends(
        chat=MockChatBackend(rule),
        embedding=MockEmbeddingBackend(seed=embed_seed, dim=embed_dim),
    )


class ThreadRecordingChat:
    """Mock chat that notes the thread of every proposer call (the calls
    with a system persona)."""

    def __init__(self):
        self.inner = MockChatBackend(MockRule())
        self.model = self.inner.model
        # Thread objects, not idents: an exited thread's ident can be reused.
        self.threads: list[threading.Thread] = []
        self._lock = threading.Lock()

    def chat(self, messages, *, temperature, max_tokens):
        if messages[0]["role"] == "system":
            with self._lock:
                self.threads.append(threading.current_thread())
        return self.inner.chat(messages, temperature=temperature, max_tokens=max_tokens)


def make_config(
    layers: int = 4,
    proposers: int = 6,
    k: int = 3,
    mode: str = "rmoa",
    policy: str = "none",
    m: int = 1,
    **extra,
) -> RunConfig:
    return RunConfig(
        layers=layers,
        proposers_per_layer=proposers,
        select_k=k,
        termination=TerminationConfig(policy=policy, m=m),
        mode=mode,
        **extra,
    )


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        server = self.server
        with server.lock:
            server.requests.append(
                {
                    "path": self.path,
                    "body": body,
                    "authorization": self.headers.get("Authorization"),
                    "proxy_authorization": self.headers.get("Proxy-Authorization"),
                    "user_agent": self.headers.get("User-Agent"),
                    "host": self.headers.get("Host"),
                    "client": self.client_address,
                }
            )
            status, payload, *extra = (
                server.script.pop(0) if server.script else (500, {"error": "empty script"})
            )
        options = extra[0] if extra else {}
        time.sleep(options.get("delay_s", 0.0))
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in options.get("headers", {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            # the client gave up on this reply (a read timeout) and closed
            self.close_connection = True
            return
        if options.get("drop"):
            # close without a Connection: close header, as a server whose
            # keep-alive timer ran out does
            self.connection.shutdown(socket.SHUT_RDWR)
            self.close_connection = True
            server.dropped.set()

    def log_message(self, *args) -> None:
        pass


class _KeepAliveStubHandler(_StubHandler):
    protocol_version = "HTTP/1.1"


class _RawReplyHandler(StreamRequestHandler):
    """Answers each request with a script entry ``(reply, close)``: the
    reply's bytes as they are, for framings ``http.server`` cannot send, and
    whether to close the connection after them. Records each request's
    header block and body."""

    def handle(self) -> None:
        while True:
            head = []
            while (line := self.rfile.readline()) not in (b"\r\n", b""):
                head.append(line)
            if not head:
                return
            length = next(
                (int(line[15:]) for line in head if line.lower().startswith(b"content-length:")),
                0,
            )
            body = self.rfile.read(length)
            if not self.reply({"head": b"".join(head), "body": body, "client": self.client_address}):
                return

    def reply(self, request: dict) -> bool:
        """Record ``request`` and send its reply; return whether to keep the connection."""
        server = self.server
        with server.lock:
            server.requests.append(request)
            reply, close = (
                server.script.pop(0) if server.script else (b"HTTP/1.1 500 empty\r\n\r\n", True)
            )
        self.wfile.write(reply)
        return not close


class _FaultPlanHandler(_RawReplyHandler):
    """Answers as a chat or an embeddings endpoint, unless the server's
    ``plan(digest, attempt)`` names one of ``WIRE_FAULTS`` for the request:
    ``digest`` is the SHA-256 of the request body, ``attempt`` how many times
    that body came before. The plan never sees arrival order.

    A plan may also name ``"reset-first"``, a reset before any byte of the
    reply, or ``"drop"``, the reply followed by a close the reply did not
    announce (which sets ``dropped``), or give the reply's bytes, after
    which the connection is closed.

    A chat reply names the ``item-NN`` tag of its prompt and the prompt's
    digest; an embedding row is drawn from its text's digest.
    """

    def reply(self, request: dict) -> bool:
        server = self.server
        digest = hashlib.sha256(request["body"]).hexdigest()
        with server.lock:
            server.requests.append(request)
            attempt = server.attempts.get(digest, 0)
            server.attempts[digest] = attempt + 1
        fault = server.plan(digest, attempt)
        payload = json.loads(request["body"])
        if "input" in payload:
            rows = [
                {"index": i, "embedding": _digest_row(text)} for i, text in enumerate(payload["input"])
            ]
            data = {"data": rows, "usage": {"prompt_tokens": len(payload["input"])}}
        else:
            [tag] = set(re.findall(rb"item-\d\d", request["body"]))
            text = f"The answer for {tag.decode()} is {digest[:12]}."
            data = {
                "choices": [{"message": {"content": text}}],
                "usage": {"prompt_tokens": len(request["body"]) // 4, "completion_tokens": 9},
            }
        body = json.dumps(data).encode()
        if fault == "nan":
            body = body.replace(b'"usage": {', b'"usage": {"cost": NaN, ', 1)
        head = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body)
        try:
            if fault == "slow":
                time.sleep(server.slow_s)
            if isinstance(fault, bytes):
                self.wfile.write(fault)
            elif fault == "reset-first":
                self.connection.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                self.connection.close()
            elif fault == "drop":
                self.wfile.write(head + body)
                self.connection.shutdown(socket.SHUT_RDWR)
                server.dropped.set()
            elif fault == "503":
                self.wfile.write(b"HTTP/1.1 503 Busy\r\nRetry-After: 0\r\nContent-Length: 0\r\n\r\n")
            elif fault == "huge":
                self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % 2**63)
            elif fault == "torn":
                self.wfile.write(head + body[: len(body) // 2])
            elif fault == "reset":
                self.wfile.write(head)
                # a zero linger time makes close() send RST instead of FIN
                self.connection.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                self.connection.close()
            else:
                self.wfile.write(head + body)
        except OSError:
            # the client gave up on a slow reply and closed the connection
            return False
        return fault in (None, "503")


# Faults the fault-plan stub injects, by whether the client retries them.
def read_blocking(reading):
    """What a reading generator of ``rmoa.backends`` returns over a socket
    that blocks, where it never waits."""
    try:
        wait = next(reading)
    except StopIteration as done:
        return done.value
    raise AssertionError(f"a read of a blocking socket waited on {wait}")


WIRE_FAULTS = {"503": True, "reset": True, "torn": True, "slow": True, "huge": False, "nan": False}


def _digest_row(text: str) -> list[float]:
    """An 8-dimensional row drawn from the digest of ``text``."""
    digest = hashlib.sha256(text.encode()).digest()
    return [(byte - 127.5) / 128 for byte in digest[:8]]


class _SlowHandshakeHandler(_KeepAliveStubHandler):
    """``_KeepAliveStubHandler`` over TLS with ``TLS_CERT``, each connection
    on its own thread waiting ``HANDSHAKE_DELAY_S`` before its handshake."""

    def setup(self) -> None:
        time.sleep(HANDSHAKE_DELAY_S)
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS_CERT, TLS_KEY)
        self.request = context.wrap_socket(self.request, server_side=True)
        super().setup()

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.request.close()  # the server closes only the socket it accepted


HANDSHAKE_DELAY_S = 0.2


class _TunnelHandler(BaseHTTPRequestHandler):
    """A CONNECT proxy: records each CONNECT, then relays bytes both ways."""

    def do_CONNECT(self) -> None:  # noqa: N802 (http.server API)
        with self.server.lock:
            self.server.requests.append(
                {
                    "path": self.path,
                    "proxy_authorization": self.headers.get("Proxy-Authorization"),
                    "client": self.client_address,
                }
            )
        host, _, port = self.path.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=5) as upstream:
            self.send_response(200)
            self.end_headers()
            ends = [self.connection, upstream]
            while True:
                readable, _, _ = select.select(ends, [], [], 5)
                chunks = [(end, end.recv(65536)) for end in readable]
                if not readable or not all(chunk for _, chunk in chunks):
                    break
                for end, chunk in chunks:
                    (upstream if end is self.connection else self.connection).sendall(chunk)
        self.close_connection = True

    def log_message(self, *args) -> None:
        pass


# A self-signed certificate for the IP address 127.0.0.1, valid 2000-2100.
TLS_CERT = Path(__file__).with_name("tls_cert.pem")
TLS_KEY = Path(__file__).with_name("tls_key.pem")


class _StubServer(ThreadingHTTPServer):
    # a fan-out opens its connections at once: with the default backlog of 5
    # the kernel drops the rest of the SYNs, to be sent again a second later
    request_queue_size = 64


class HttpStub:
    """Scripted local HTTP endpoint: pop one (status, payload) per request.

    A ``bytes`` payload is sent as the body unchanged; anything else as JSON.
    An optional third element, ``{"delay_s": ..., "headers": {...}}``, delays
    the reply or adds headers to it; with ``"drop": True`` the stub closes
    the connection after the reply without saying so, and sets ``dropped``.
    The default handler speaks HTTP/1.0 and closes each connection after
    one reply; ``_KeepAliveStubHandler`` speaks HTTP/1.1 and keeps
    connections open; ``_RawReplyHandler`` sends raw scripted bytes, and
    ``_FaultPlanHandler`` answers as an endpoint with planned faults.
    ``tls=True`` serves HTTPS with ``TLS_CERT``. Each recorded request names
    the client address it came from.
    """

    def __init__(self, handler: type = _StubHandler, tls: bool = False) -> None:
        self.server = _StubServer(("127.0.0.1", 0), handler)
        self.scheme = "https" if tls else "http"
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TLS_CERT, TLS_KEY)
            self.server.socket = context.wrap_socket(self.server.socket, server_side=True)
        self.server.script = []
        self.server.requests = []
        self.server.lock = threading.Lock()
        self.server.dropped = threading.Event()
        # a short poll interval, so that shutdown() need not wait out the 0.5 s default
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address
        return f"{self.scheme}://{host}:{port}/v1"

    @property
    def dropped(self) -> threading.Event:
        return self.server.dropped

    @property
    def script(self) -> list:
        return self.server.script

    @property
    def requests(self) -> list:
        return self.server.requests

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def http_stub():
    stub = HttpStub()
    yield stub
    stub.close()


@pytest.fixture
def keep_alive_stub():
    stub = HttpStub(_KeepAliveStubHandler)
    yield stub
    stub.close()


@pytest.fixture
def raw_stub():
    """An endpoint whose script entries are ``(reply bytes, close after)``."""
    stub = HttpStub(_RawReplyHandler)
    yield stub
    stub.close()


@pytest.fixture
def fault_plan_stub():
    """A chat and embeddings endpoint that injects the faults its
    ``server.plan`` names; ``server.attempts`` counts each body's requests."""
    stub = HttpStub(_FaultPlanHandler)
    stub.server.attempts = {}
    yield stub
    stub.close()


@pytest.fixture
def tls_stub():
    stub = HttpStub(_KeepAliveStubHandler, tls=True)
    yield stub
    stub.close()


@pytest.fixture
def slow_handshake_stub():
    """An HTTPS keep-alive stub whose every TLS handshake starts after
    ``HANDSHAKE_DELAY_S``, one connection's wait beside another's."""
    stub = HttpStub(_SlowHandshakeHandler)
    stub.scheme = "https"
    yield stub
    stub.close()


@pytest.fixture
def tunnel_proxy():
    """A CONNECT proxy; its ``requests`` are the CONNECT requests it served."""
    proxy = HttpStub(_TunnelHandler)
    yield proxy
    proxy.close()
