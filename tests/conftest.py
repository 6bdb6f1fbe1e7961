"""Shared fixtures: mock backend bundles, configs, and a local HTTP stub."""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from rmoa.backends import Backends, EmbeddingBatch
from rmoa.embedding import SimilarityMatrix
from rmoa.errors import BackendUnavailableError
from rmoa.mockbackend import MockChatBackend, MockEmbeddingBackend, MockRule
from rmoa.pipeline import RunConfig
from rmoa.termination import TerminationConfig

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
    return SimilarityMatrix(ANGLE_FIXTURE_ENTRIES)


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


class FaultyEmbedding:
    """Mock embeddings, one call per layer, that go wrong from call ``from_call`` on.

    ``fault`` is ``"unavailable"`` (the call raises ``BackendUnavailableError``),
    ``"short"`` (one row too few), ``"dimension"`` (rows switch from 16 to
    32 components), ``"overflow"`` (rows alternate ``(1e200, 1e200)`` and
    ``(1e200, -1e200)``, finite rows whose norms overflow) or
    ``"sum-overflow"`` (every row is ``(1e154, 1e154)``: each square is
    finite, their sum is not). Each run gets a fresh call count through
    ``fork_for_run``.
    """

    def __init__(self, fault: str, from_call: int = 2) -> None:
        self.fault = fault
        self.from_call = from_call
        self.model = "faulty-embed"
        self.max_input_chars = None
        self.calls = 0

    def embed(self, texts) -> EmbeddingBatch:
        self.calls += 1
        faulty = self.calls >= self.from_call
        if faulty and self.fault == "unavailable":
            raise BackendUnavailableError(f"scripted embedding failure on call {self.calls}")
        dim = 32 if faulty and self.fault == "dimension" else 16
        batch = MockEmbeddingBackend(dim=dim, model=self.model).embed(texts)
        if faulty and self.fault == "short":
            return EmbeddingBatch(batch.vectors[:-1], batch.usage, batch.model)
        if faulty and self.fault == "overflow":
            rows = tuple(((1e200, 1e200), (1e200, -1e200))[i % 2] for i in range(len(texts)))
            return EmbeddingBatch(rows, batch.usage, batch.model)
        if faulty and self.fault == "sum-overflow":
            return EmbeddingBatch(((1e154, 1e154),) * len(texts), batch.usage, batch.model)
        return batch

    def fork_for_run(self) -> "FaultyEmbedding":
        return FaultyEmbedding(self.fault, self.from_call)


class ThreadRecordingChat:
    """Mock chat that notes the thread of every proposer call (the calls
    with a system persona), and raises ``RuntimeError`` on proposer call
    ``bug_at``, a caller bug rather than a failed call."""

    def __init__(self, bug_at: int | None = None):
        self.inner = MockChatBackend(MockRule())
        self.model = self.inner.model
        self.bug_at = bug_at
        # Thread objects, not idents: an exited thread's ident can be reused.
        self.threads: list[threading.Thread] = []
        self._lock = threading.Lock()

    def chat(self, messages, *, temperature, max_tokens):
        if messages[0]["role"] == "system":
            with self._lock:
                self.threads.append(threading.current_thread())
                calls = len(self.threads)
            if calls == self.bug_at:
                raise RuntimeError("caller bug")
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
                    "client": self.client_address,
                }
            )
            status, payload, *extra = (
                server.script.pop(0) if server.script else (500, {"error": "empty script"})
            )
        options = extra[0] if extra else {}
        time.sleep(options.get("delay_s", 0.0))
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in options.get("headers", {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


class _KeepAliveStubHandler(_StubHandler):
    protocol_version = "HTTP/1.1"


class HttpStub:
    """Scripted local HTTP endpoint: pop one (status, payload) per request.

    A ``bytes`` payload is sent as the body unchanged; anything else as JSON.
    An optional third element, ``{"delay_s": ..., "headers": {...}}``, delays
    the reply or adds headers to it. The default stub speaks HTTP/1.0 and
    closes each connection after one reply; ``keep_alive=True`` speaks
    HTTP/1.1 and keeps connections open. Each recorded request names the
    client address it came from.
    """

    def __init__(self, keep_alive: bool = False) -> None:
        handler = _KeepAliveStubHandler if keep_alive else _StubHandler
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.server.script = []
        self.server.requests = []
        self.server.lock = threading.Lock()
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1"

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
    stub = HttpStub(keep_alive=True)
    yield stub
    stub.close()
