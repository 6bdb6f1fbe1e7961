"""One layer's proposer calls multiplexed on the calling thread.

``HttpChatBackend.chat_many`` keeps a fan-out's requests in flight from one
``selectors`` loop. Each slot must end as ``chat`` ends for the same replies:
the same result or exception, the same warnings, the same attempts. The
pipeline must send the same bytes as over the call pool, and a benchmark run
over HTTP must start no call thread.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from collections import Counter

import certifi
import pytest

from rmoa.backends import Backends, HttpChatBackend, HttpEmbeddingBackend, RetryPolicy
from rmoa.errors import BackendUnavailableError, ProtocolError
from rmoa.harness import BenchmarkItem, run_benchmark
from rmoa.mockbackend import MockChatBackend, MockRule
from rmoa.pipeline import run_pipeline

from conftest import HANDSHAKE_DELAY_S, TLS_CERT, make_config, make_mock_bundle
from faults import FaultPlan

SLOTS = 6
TIMEOUT_S = 0.3
RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.001)


def conversation(i: int) -> list[dict[str, str]]:
    return [
        {"role": "system", "content": f"persona {i}"},
        {"role": "user", "content": f"What does item-{i:02d} hold?"},
    ]


def client(stub, timeout_s: float = TIMEOUT_S) -> HttpChatBackend:
    return HttpChatBackend(base_url=stub.base_url, model="chat", timeout_s=timeout_s, retry=RETRY)


def digest(backend: HttpChatBackend, messages) -> str:
    """The SHA-256 of the body the client sends for ``messages``."""
    request = backend._chat_request(messages, 0.0, 8)
    return hashlib.sha256(request.partition(b"\r\n\r\n")[2]).hexdigest()


def answer(backend: HttpChatBackend, messages) -> str:
    """The fault-plan stub's reply text for ``messages``."""
    tag = messages[-1]["content"].split()[-2]
    return f"The answer for {tag} is {digest(backend, messages)[:12]}."


def outcome(call):
    """What ``call()`` returned, or the type and text of what it raised."""
    try:
        return call()
    except (ProtocolError, BackendUnavailableError) as exc:
        return exc


def same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


REPLY_302 = b"HTTP/1.1 302 Found\r\nLocation: /elsewhere\r\nContent-Length: 5\r\n\r\nmoved"
REPLY_BAD_JSON = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{not json"

# Each fault by the attempts it hits, how ``chat`` ends for it, and the
# attempts ``chat`` makes.
FAULTS = {
    "reset-before-the-reply": (["reset-first"], "retried", 2),
    "503-then-200": (["503"], "retried", 2),
    "slower-than-the-timeout": (["slow"], "retried", 2),
    "302": ([REPLY_302], ProtocolError, 1),
    "invalid-json": ([REPLY_BAD_JSON], ProtocolError, 1),
    "torn-body": (["torn"] * RETRY.max_attempts, BackendUnavailableError, RETRY.max_attempts),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("faulty", [0, 3])
def test_faulty_slot_ends_as_chat_ends(fault_plan_stub, caplog, fault, faulty):
    server = fault_plan_stub.server
    server.slow_s = 2 * TIMEOUT_S
    faults, ends, attempts = FAULTS[fault]
    reference, backend = client(fault_plan_stub), client(fault_plan_stub)
    conversations = [conversation(i) for i in range(SLOTS)]
    faulty_digest = digest(backend, conversations[faulty])
    server.plan = lambda body, attempt: (
        faults[attempt] if body == faulty_digest and attempt < len(faults) else None
    )
    caplog.set_level(logging.WARNING, logger="rmoa.backends")
    try:
        alone = outcome(
            lambda: reference.chat(conversations[faulty], temperature=0.0, max_tokens=8)
        )
        alone_warnings = [record.getMessage() for record in caplog.records]
        alone_attempts = server.attempts.pop(faulty_digest)
        caplog.clear()
        results = backend.chat_many(conversations, temperature=0.0, max_tokens=8, in_flight=SLOTS)
        many_warnings = [record.getMessage() for record in caplog.records]
        assert len(backend._idle) <= 10
    finally:
        reference.close()
        backend.close()
    if ends == "retried":
        assert alone.text == answer(backend, conversations[faulty])
    else:
        assert type(alone) is ends
    assert same(results[faulty], alone)
    assert many_warnings == alone_warnings
    assert server.attempts[faulty_digest] == alone_attempts == attempts
    for i, result in enumerate(results):
        if i != faulty:
            assert result.text == answer(backend, conversations[i])
            assert server.attempts[digest(backend, conversations[i])] == 1


def test_slots_left_to_retry_share_one_backoff(fault_plan_stub, caplog):
    backoff_s = 0.3
    backend = HttpChatBackend(
        base_url=fault_plan_stub.base_url, model="chat", timeout_s=5.0,
        retry=RetryPolicy(max_attempts=3, base_delay_s=backoff_s),
    )
    conversations = [conversation(i) for i in range(SLOTS)]
    faulty = {digest(backend, conversations[i]) for i in (1, 2, 4)}
    fault_plan_stub.server.plan = lambda body, attempt: (
        "503" if body in faulty and attempt == 0 else None
    )
    caplog.set_level(logging.WARNING, logger="rmoa.backends")
    try:
        started = time.perf_counter()
        results = backend.chat_many(conversations, temperature=0.0, max_tokens=8, in_flight=SLOTS)
        elapsed = time.perf_counter() - started
    finally:
        backend.close()
    assert [r.text for r in results] == [answer(backend, c) for c in conversations]
    assert [fault_plan_stub.server.attempts[digest(backend, c)] for c in conversations] == [
        1, 2, 2, 1, 2, 1
    ]
    warning = f"POST {backend._url} attempt 1/3 failed (HTTP 503); retrying in 0.3 s"
    assert [record.getMessage() for record in caplog.records] == [warning] * 3
    # one backoff for the three, where one after another would take three
    assert elapsed < 2 * backoff_s


def test_pooled_connection_the_server_closed_is_dropped(fault_plan_stub, caplog):
    server = fault_plan_stub.server
    backend = client(fault_plan_stub)
    warm_up = conversation(SLOTS)
    warm_digest = digest(backend, warm_up)
    server.plan = lambda body, attempt: "drop" if body == warm_digest else None
    conversations = [conversation(i) for i in range(SLOTS)]
    try:
        backend.chat(warm_up, temperature=0.0, max_tokens=8)
        assert fault_plan_stub.dropped.wait(5)
        [closed] = backend._idle
        with caplog.at_level(logging.WARNING, logger="rmoa.backends"):
            results = backend.chat_many(
                conversations, temperature=0.0, max_tokens=8, in_flight=SLOTS
            )
        assert caplog.records == []
        assert closed.sock is None
        assert [r.text for r in results] == [answer(backend, c) for c in conversations]
        assert all(count == 1 for count in server.attempts.values())
        assert len(backend._idle) == SLOTS
    finally:
        backend.close()


def test_wider_fan_out_keeps_at_most_the_pool_size_idle(fault_plan_stub):
    fault_plan_stub.server.plan = lambda body, attempt: None
    backend = client(fault_plan_stub)
    conversations = [conversation(i) for i in range(16)]
    try:
        results = backend.chat_many(conversations, temperature=0.0, max_tokens=8, in_flight=16)
        assert [r.text for r in results] == [answer(backend, c) for c in conversations]
        assert len({request["client"] for request in fault_plan_stub.requests}) == 16
        assert len(backend._idle) == 10
    finally:
        backend.close()


def test_in_flight_bounds_the_open_connections(fault_plan_stub):
    fault_plan_stub.server.plan = lambda body, attempt: None
    backend = client(fault_plan_stub)
    try:
        backend.chat_many(
            [conversation(i) for i in range(SLOTS)], temperature=0.0, max_tokens=8, in_flight=2
        )
        assert len({request["client"] for request in fault_plan_stub.requests}) == 2
        with pytest.raises(ValueError, match="in_flight"):
            backend.chat_many([conversation(0)], temperature=0.0, max_tokens=8, in_flight=0)
    finally:
        backend.close()


def test_new_tls_connections_open_side_by_side(slow_handshake_stub, monkeypatch):
    monkeypatch.setattr(certifi, "where", lambda: str(TLS_CERT))
    slow_handshake_stub.script.extend(
        [(200, {"choices": [{"message": {"content": "secure"}}],
                "usage": {"prompt_tokens": 1, "completion_tokens": 1}})] * SLOTS
    )
    backend = client(slow_handshake_stub, timeout_s=5.0)
    try:
        started = time.perf_counter()
        results = backend.chat_many(
            [conversation(i) for i in range(SLOTS)], temperature=0.0, max_tokens=8, in_flight=SLOTS
        )
        elapsed = time.perf_counter() - started
    finally:
        backend.close()
    assert [r.text for r in results] == ["secure"] * SLOTS
    assert len({request["client"] for request in slow_handshake_stub.requests}) == SLOTS
    # one after another, the handshakes alone would take SLOTS times the delay
    assert elapsed < 2 * HANDSHAKE_DELAY_S


def test_tls_replies_are_awaited_side_by_side(tls_stub, monkeypatch):
    # a TLS 1.3 server's session tickets make the socket readable before
    # the reply; a slot reading them must not hold up the others
    monkeypatch.setattr(certifi, "where", lambda: str(TLS_CERT))
    delay_s = 0.3
    tls_stub.script.extend(
        [(200, {"choices": [{"message": {"content": "late"}}],
                "usage": {"prompt_tokens": 1, "completion_tokens": 1}}, {"delay_s": delay_s})]
        * SLOTS
    )
    backend = client(tls_stub, timeout_s=5.0)
    try:
        started = time.perf_counter()
        results = backend.chat_many(
            [conversation(i) for i in range(SLOTS)], temperature=0.0, max_tokens=8, in_flight=SLOTS
        )
        elapsed = time.perf_counter() - started
    finally:
        backend.close()
    assert [r.text for r in results] == ["late"] * SLOTS
    assert len(tls_stub.requests) == SLOTS
    assert elapsed < 2 * delay_s


class PooledChat:
    """An HTTP chat client without ``chat_many``, as the call pool drives it."""

    def __init__(self, inner: HttpChatBackend) -> None:
        self.inner = inner
        self.model = inner.model

    def chat(self, messages, *, temperature, max_tokens):
        return self.inner.chat(messages, temperature=temperature, max_tokens=max_tokens)


def test_fan_out_sends_the_pool_s_bytes_and_starts_no_call_thread(
    fault_plan_stub, monkeypatch, tmp_path
):
    fault_plan_stub.server.plan = lambda body, attempt: None
    started = []
    start = threading.Thread.start

    def noted(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", noted)
    items = [BenchmarkItem(f"item-{i:02d}", f"What does item-{i:02d} hold?", "", "none")
             for i in range(3)]
    config = make_config(layers=6, proposers=6, k=3, policy="llm")
    runs = {}
    for name, wrap in (("fan-out", lambda chat: chat), ("pool", PooledChat)):
        chat = HttpChatBackend(base_url=fault_plan_stub.base_url, model="chat")
        embedding = HttpEmbeddingBackend(base_url=fault_plan_stub.base_url, model="embed")
        del fault_plan_stub.requests[:], started[:]
        try:
            report = run_benchmark(items, config, Backends(wrap(chat), embedding),
                                   out_dir=tmp_path / name, item_parallelism=2)
        finally:
            chat.close()
            embedding.close()
        bodies = Counter(hashlib.sha256(r["body"]).hexdigest() for r in fault_plan_stub.requests)
        calls = [name for name in started if name.startswith("rmoa-call")]
        runs[name] = bodies, calls, report.to_json_dict()
    assert runs["fan-out"][0] == runs["pool"][0]
    assert runs["fan-out"][1] == []
    assert runs["pool"][1] != []  # the check sees call threads where they start
    assert runs["fan-out"][2]["items"] == runs["pool"][2]["items"]


class ManyChat:
    """A chat backend with a ``chat_many`` that makes each call in turn and
    notes each fan-out's size and bound."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.model = inner.model
        self.fan_outs: list[tuple[int, int]] = []

    def chat(self, messages, *, temperature, max_tokens):
        return self.inner.chat(messages, temperature=temperature, max_tokens=max_tokens)

    def chat_many(self, conversations, *, temperature, max_tokens, in_flight):
        self.fan_outs.append((len(conversations), in_flight))
        return [
            outcome(lambda m=m: self.chat(m, temperature=temperature, max_tokens=max_tokens))
            for m in conversations
        ]


def test_pipeline_fans_out_only_above_one_call_in_flight():
    config = make_config(layers=3, proposers=4, k=2)
    bundle = make_mock_bundle()
    chat = ManyChat(bundle.chat)
    backends = Backends(chat, bundle.embedding)
    plain = run_pipeline("Fan out?", config, bundle)
    assert run_pipeline("Fan out?", config, backends).to_json_bytes() == plain.to_json_bytes()
    assert chat.fan_outs == []
    fanned = run_pipeline("Fan out?", config, backends, in_flight=3)
    assert fanned.to_json_bytes() == plain.to_json_bytes()
    assert chat.fan_outs == [(4, 3)] * 3


@pytest.mark.parametrize("fault", ["unavailable", "protocol", "empty"])
def test_failed_slots_are_recorded_as_the_pool_records_them(fault):
    config = make_config(layers=3, proposers=4, k=2)
    faults = {("proposer", 2, 1): fault, ("proposer", 2, 3): fault}
    pooled = run_pipeline("Faults?", config, FaultPlan(make_mock_bundle(), faults))
    plan = FaultPlan(make_mock_bundle(), faults)
    chat = ManyChat(plan.chat)
    fanned = run_pipeline("Faults?", config, Backends(chat, plan.embedding), in_flight=4)
    assert [e["kind"] for e in fanned.events] == ["proposer_failed"] * 2
    assert fanned.to_json_bytes() == pooled.to_json_bytes()
    assert chat.fan_outs == [(4, 4)] * 3


def test_share_of_one_makes_no_fan_out():
    config = make_config(layers=2, proposers=3, k=1)
    chat = ManyChat(MockChatBackend(MockRule()))
    bundle = Backends(chat, make_mock_bundle().embedding)
    items = [BenchmarkItem("a", "Marker a?", "", "none")]
    run_benchmark(items, config, bundle, proposer_parallelism=1)
    assert chat.fan_outs == []
    run_benchmark(items, config, bundle, proposer_parallelism=2)
    assert chat.fan_outs == [(3, 2)] * 2
