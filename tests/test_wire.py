"""The reply reader held to ``http.client``, and a run through wire faults.

The differential fuzz (McKeeman, "Differential Testing for Software",
1998) mutates valid replies and feeds each to ``_read_reply`` and to
``http.client.HTTPResponse``, over a socket pair. ``_read_reply`` may only
return or raise an ``HTTPException``, an ``OSError`` or a ``ProtocolError``.
Where both accept a reply they agree on its status, its body and whether
the connection closes after it, except for three deliberate differences:

- an interim ``1xx`` reply other than ``100`` (such as ``103``) is
  skipped, where ``http.client`` returns it as the reply;
- exactly 100 header fields are read, where ``http.client`` allows 99;
- a ``Transfer-Encoding`` of ``chunked`` with whitespace around it (RFC
  9110 §5.5 trims it) is decoded, where ``http.client`` returns the chunk
  framing as the body.

Malformed field lines, which ``http.client`` reads as the start of the body
(a space before the colon, no colon at all), are framing errors here, so
the two never both accept them.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import re
import socket

import pytest

from rmoa.backends import (
    Backends,
    HttpChatBackend,
    HttpEmbeddingBackend,
    RetryPolicy,
    _Connection,
    _read_reply,
)
from rmoa.check import check_transcript
from rmoa.errors import ProtocolError
from rmoa.harness import BenchmarkItem, run_benchmark

from conftest import WIRE_FAULTS, make_config, read_blocking

BODY = b'{"choices": [{"message": {"content": "framed"}}]}'
CHUNKED_BODY = b"".join(
    b"%x;ext=1\r\n%b\r\n" % (len(part), part) for part in (BODY[:10], BODY[10:11], BODY[11:])
)

# Valid replies, each framed another way.
VALID = {
    "length": b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%b" % (len(BODY), BODY),
    "chunked": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"%b0\r\nX-Trailer: t\r\n\r\n" % CHUNKED_BODY,
    "close": b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" + BODY,
    "interim": b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n"
    b"Content-Length: %d\r\n\r\n%b" % (len(BODY), BODY),
    "http-1.0-keep-alive": b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\n"
    b"Keep-Alive: timeout=5\r\nContent-Length: %d\r\n\r\n%b" % (len(BODY), BODY),
    "http-1.0": b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%b" % (len(BODY), BODY),
}

# Framing tokens, and NEL: whitespace to str.split(), not to bytes.split().
TOKENS = [
    *(b"\r\n", b":", b" ", b"\t", b"0\r\n\r\n", b"Transfer-Encoding: chunked\r\n", b"\r\n "),
    b"\x85",
]
# Numbers: the status code, a Content-Length and each chunk size.
NUMBER = re.compile(rb"(?<= )\d{3}(?= )|(?<=[ \n])[0-9A-Fa-f]+(?=[\r;])")


def swapped_numbers(n: int) -> list[bytes]:
    """``n`` and its neighbours written every way ``int()`` might read them:
    signed, underscored, hex and ``0x``; then sizes of at least 10^18."""
    small = [b"%d" % v for v in (n, n + 1, max(n - 1, 0))]
    small += [b"+%d" % n, b"-%d" % n, b"-0", b"%d_%d" % divmod(n, 10) if n > 9 else b"1_0"]
    small += [b"0x%x" % n, b"%X" % n, b"0%x" % n, b" %d " % n]
    huge = [b"%d" % 10**18, b"%d" % 2**63, b"%x" % 2**64, b"9" * 5000, b"f" * 20]
    return small + huge


def mutants(name: str):
    """``(case id, reply)`` for the valid reply ``name`` and each of its
    mutants: seeded byte flips, a cut at each offset, each framing token
    spliced in at each offset, and each number swapped."""
    valid = VALID[name]
    yield "valid", valid
    rng = random.Random(f"17:{name}")
    for _ in range(1000):
        at = rng.randrange(len(valid))
        flipped = bytes([valid[at] ^ rng.randrange(1, 256)])
        yield f"flip@{at}={flipped!r}", valid[:at] + flipped + valid[at + 1 :]
    for at in range(len(valid)):
        yield f"cut@{at}", valid[:at]
    for token in TOKENS:
        for at in range(len(valid) + 1):
            yield f"splice@{at}={token!r}", valid[:at] + token + valid[at:]
    for number in NUMBER.finditer(valid):
        value = int(number[0], 16 if b"\n" + number[0] in valid else 10)
        for swap in swapped_numbers(value):
            reply = valid[: number.start()] + swap + valid[number.end() :]
            yield f"swap@{number.start()}={swap[:24]!r}", reply


def fed(reply: bytes) -> socket.socket:
    """The read end of a socket pair whose other end wrote ``reply`` and shut down."""
    write, read = socket.socketpair()
    with write:
        write.sendall(reply)
        write.shutdown(socket.SHUT_WR)
    read.settimeout(5)
    return read


def read_ours(reply: bytes):
    """``(status, body, will_close)``, or the allowed exception raised."""
    with fed(reply) as sock:
        try:
            return read_blocking(_read_reply(_Connection(sock)))
        except (http.client.HTTPException, OSError, ProtocolError) as exc:
            return exc


def read_theirs(reply: bytes):
    """The ``http.client`` response read to its end, or ``None`` if it failed."""
    with fed(reply) as sock:
        response = http.client.HTTPResponse(sock, method="POST")
        try:
            response.begin()
            response.body = response.read()
        except Exception:
            return None
        finally:
            response.close()
    return response


def sizes_fit(reply: bytes) -> bool:
    """Whether every number in ``reply`` is one ``http.client`` may safely
    allocate: below 1 MiB read as hex, so as decimal too."""
    return all(int(run, 16) < 1 << 20 for run in re.findall(rb"[0-9A-Fa-f]+", reply))


def differences(reply: bytes) -> str | None:
    """Why ``_read_reply`` and ``http.client`` disagree on ``reply``, or ``None``."""
    ours = read_ours(reply)
    if isinstance(ours, Exception) or not sizes_fit(reply):
        return None
    theirs = read_theirs(reply)
    if theirs is None:
        return None
    if 100 < theirs.status < 200:
        return None  # deliberate: an interim reply is skipped
    encoding = theirs.msg.get("transfer-encoding", "")
    if not theirs.chunked and encoding.strip(" \t\r\n").lower() == "chunked":
        return None  # deliberate: whitespace around the coding is trimmed
    expected = (theirs.status, theirs.body, theirs.will_close)
    return None if ours == expected else f"ours {ours!r}, http.client {expected!r}"


@pytest.mark.parametrize("name", VALID)
def test_every_mutant_is_read_as_http_client_reads_it(name):
    found = {case: why for case, reply in mutants(name) if (why := differences(reply))}
    assert found == {}


# Replies each parser once read its own way, and what ``_read_reply`` makes of them.
NAMED = {
    # http.client closes on the folded "close"; the field's first line alone
    # would keep the connection
    "obs-fold": (
        b"HTTP/1.1 200 OK\r\nConnection: keep-alive,\r\n close\r\nContent-Length: 2\r\n\r\nok",
        (200, b"ok", True),
    ),
    # http.client splits the status line at NEL, so it reads HTTP/1.0 and closes
    "nel-after-the-version": (
        b"HTTP/1.0\x85 200 OK\r\nContent-Length: 2\r\n\r\nok",
        (200, b"ok", True),
    ),
    # http.client takes a malformed field line for the start of the body
    "space-before-colon": (
        b"HTTP/1.1 200 OK\r\nContent-Length : 2\r\n\r\nok",
        http.client.HTTPException,
    ),
    "tab-before-colon": (
        b"HTTP/1.1 200 OK\r\nContent-Length\t: 2\r\n\r\nok",
        http.client.HTTPException,
    ),
    "no-colon": (
        b"HTTP/1.1 200 OK\r\nX-No-Colon\r\nContent-Length: 2\r\n\r\nok",
        http.client.HTTPException,
    ),
    # http.client's int() trims a non-ASCII space; a length is digits alone
    "length-with-a-no-break-space": (
        b"HTTP/1.1 200 OK\r\nContent-Length:\xa02\r\n\r\nok",
        http.client.HTTPException,
    ),
    # a 204 has no body, so a coded one would stay unread on the connection
    "204-with-a-coding": (
        b"HTTP/1.1 204 No Content\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
        http.client.HTTPException,
    ),
    # a chunk size longer than str() converts, for the message of the cap
    "long-chunk-size": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%b\r\n" % (b"f" * 5000),
        ProtocolError,
    ),
    # a length longer than int() converts is over the cap, not invalid, so
    # it is not retried
    "long-length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: %b\r\n\r\nok" % (b"9" * 5000),
        ProtocolError,
    ),
    # deliberate: the coding's surrounding whitespace is trimmed
    "trimmed-coding": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding:  chunked \r\n\r\n2\r\nok\r\n0\r\n\r\n",
        (200, b"ok", False),
    ),
}


@pytest.mark.parametrize(("reply", "expected"), NAMED.values(), ids=NAMED)
def test_named_reply(reply, expected):
    ours = read_ours(reply)
    if isinstance(expected, tuple):
        assert ours == expected
    else:
        assert type(ours) is expected
    assert differences(reply) is None


ITEMS = 16
MAX_ATTEMPTS = 2
TIMEOUT_S = 0.4


def plan(digest: str, attempt: int) -> str | None:
    """The fault for a body's ``attempt``: one in five attempts gets one."""
    rng = random.Random(f"17:{digest}:{attempt}")
    return rng.choice(sorted(WIRE_FAULTS)) if rng.random() < 0.2 else None


def doomed(digest: str) -> bool:
    """Whether the plan fails every attempt of the body, or its first with a
    fault the client does not retry."""
    first = plan(digest, 0)
    return first is not None and (not WIRE_FAULTS[first] or plan(digest, 1) is not None)


def test_wire_faults_cost_exactly_the_items_the_plan_dooms(fault_plan_stub, tmp_path):
    fault_plan_stub.server.plan = plan
    fault_plan_stub.server.slow_s = 2 * TIMEOUT_S
    retry = RetryPolicy(max_attempts=MAX_ATTEMPTS, base_delay_s=0.001)
    client = {"base_url": fault_plan_stub.base_url, "timeout_s": TIMEOUT_S, "retry": retry}
    backends = Backends(
        HttpChatBackend(model="chat", **client), HttpEmbeddingBackend(model="embed", **client)
    )
    items = [
        BenchmarkItem(f"item-{i:02d}", f"What does item-{i:02d} hold?", "", "none")
        for i in range(ITEMS)
    ]
    config = make_config(layers=2, proposers=2, k=1)
    try:
        report = run_benchmark(items, config, backends, out_dir=tmp_path, item_parallelism=2)
    finally:
        backends.chat.close()
        backends.embedding.close()
    assert (tmp_path / "report.json").is_file()
    attempts = fault_plan_stub.server.attempts
    assert max(attempts.values()) <= MAX_ATTEMPTS
    injected = {plan(digest, i) for digest, count in attempts.items() for i in range(count)}
    assert injected == {None, *WIRE_FAULTS}
    # An item ends at its first doomed call, except that a layer goes on
    # while one of its proposers (the calls with a system persona) answers.
    expected, proposers = set(), {}
    for body in {request["body"] for request in fault_plan_stub.requests}:
        [tag] = {tag.decode() for tag in re.findall(rb"item-\d\d", body)}
        fails = doomed(hashlib.sha256(body).hexdigest())
        messages = json.loads(body).get("messages", [{"role": "user"}])
        if messages[0]["role"] == "system":
            proposers.setdefault((tag, messages[-1]["content"]), []).append(fails)
        elif fails:
            expected.add(tag)
    expected.update(tag for (tag, _), fails in proposers.items() if all(fails))
    aborted = {item.item_id for item in report.items if item.stop_reason == "backend_abort"}
    assert aborted == expected
    assert 0 < len(aborted) < ITEMS
    for item in items:
        if item.id not in aborted:
            transcript = json.loads((tmp_path / item.id / "transcript.json").read_bytes())
            assert check_transcript(transcript) == []
