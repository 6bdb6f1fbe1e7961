"""HTTP wire clients against a scripted local server."""

from __future__ import annotations

import base64
import decimal
import gc
import http.client
import json
import logging
import math
import os
import random
import selectors
import socket
import ssl
import struct
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import certifi
import orjson
import pytest

import rmoa
from rmoa.backends import (
    HttpChatBackend,
    HttpEmbeddingBackend,
    RetryPolicy,
    _Connection,
    _read_exactly,
)
from rmoa.check import check_transcript
from rmoa.embedding import embed_batch
from rmoa.errors import BackendUnavailableError, ConfigError, ProtocolError
from rmoa.harness import BenchmarkItem, run_benchmark

from conftest import TLS_CERT, make_config, read_blocking

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.001)


def chat_payload(text="hello", prompt_tokens=7, completion_tokens=3):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


def chat_backend(stub, **kwargs):
    return HttpChatBackend(
        base_url=stub.base_url, model="remote-chat", retry=FAST_RETRY, **kwargs
    )


def ask(backend):
    return backend.chat([{"role": "user", "content": "q"}], temperature=0.0, max_tokens=8)


def embedding_backend(stub, **kwargs):
    return HttpEmbeddingBackend(
        base_url=stub.base_url, model="remote-embed", retry=FAST_RETRY, **kwargs
    )


class TestHttpChatBackend:
    def test_round_trip(self, http_stub):
        http_stub.script.append((200, chat_payload("the answer")))
        result = chat_backend(http_stub).chat(
            [{"role": "user", "content": "q"}], temperature=0.7, max_tokens=64
        )
        assert result.text == "the answer"
        assert (result.usage.prompt_tokens, result.usage.completion_tokens) == (7, 3)
        request = http_stub.requests[0]
        assert request["path"] == "/v1/chat/completions"
        assert request["body"]["model"] == "remote-chat"
        assert request["body"]["temperature"] == 0.7
        assert request["body"]["max_tokens"] == 64
        assert request["body"]["messages"] == [{"role": "user", "content": "q"}]

    def test_auth_header_sent(self, http_stub):
        http_stub.script.append((200, chat_payload()))
        chat_backend(http_stub, api_key="sekrit").chat(
            [{"role": "user", "content": "q"}], temperature=0.0, max_tokens=8
        )
        assert http_stub.requests[0]["authorization"] == "Bearer sekrit"

    @pytest.mark.parametrize("token", ["sekrit\n", "sek\r\nX-Injected: 1", "sekrit\x00", "sekrit\u20ac"])
    def test_token_that_cannot_be_a_header_field_is_refused_when_built(self, token):
        with pytest.raises(ValueError, match="bearer token") as caught:
            HttpChatBackend(base_url="http://127.0.0.1:9/v1", model="m", api_key=token)
        assert "sek" not in str(caught.value)

    @pytest.mark.parametrize("path", ["/v 1", "/v1\x00", "/v1\x7f", "/v\u00e9"])
    def test_base_url_that_cannot_be_a_request_line_is_a_config_error(self, path):
        with pytest.raises(ConfigError, match="base URL"):
            HttpChatBackend(base_url="http://127.0.0.1:9" + path, model="m")

    def test_retries_transient_errors_then_succeeds(self, http_stub):
        http_stub.script.extend(
            [(503, {"error": "busy"}), (429, {"error": "slow down"}), (200, chat_payload("ok"))]
        )
        result = chat_backend(http_stub).chat(
            [{"role": "user", "content": "q"}], temperature=0.0, max_tokens=8
        )
        assert result.text == "ok"
        assert len(http_stub.requests) == 3

    def test_each_failed_attempt_logs_a_warning(self, http_stub, caplog):
        http_stub.script.extend(
            [(503, {"error": "busy"}), (429, {"error": "slow down"}), (200, chat_payload("ok"))]
        )
        with caplog.at_level(logging.WARNING, logger="rmoa.backends"):
            assert ask(chat_backend(http_stub)).text == "ok"
        url = http_stub.base_url + "/chat/completions"
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            (
                "rmoa.backends",
                logging.WARNING,
                f"POST {url} attempt 1/3 failed (HTTP 503); retrying in 0.001 s",
            ),
            (
                "rmoa.backends",
                logging.WARNING,
                f"POST {url} attempt 2/3 failed (HTTP 429); retrying in 0.002 s",
            ),
        ]

    def test_gives_up_after_bounded_attempts(self, http_stub, caplog):
        http_stub.script.extend([(503, {}), (503, {}), (503, {})])
        with pytest.raises(BackendUnavailableError):
            chat_backend(http_stub).chat(
                [{"role": "user", "content": "q"}], temperature=0.0, max_tokens=8
            )
        assert len(http_stub.requests) == 3
        assert len(caplog.records) == 3
        assert caplog.records[-1].getMessage().endswith("attempt 3/3 failed (HTTP 503); giving up")

    def test_client_error_is_protocol_error(self, http_stub):
        http_stub.script.append((400, {"error": "bad request"}))
        with pytest.raises(ProtocolError):
            chat_backend(http_stub).chat(
                [{"role": "user", "content": "q"}], temperature=0.0, max_tokens=8
            )
        assert len(http_stub.requests) == 1

    def test_client_error_message_carries_the_body(self, http_stub):
        http_stub.script.append((400, "bad temperature \u00e9".encode() + b"x" * 300))
        with pytest.raises(ProtocolError) as error:
            ask(chat_backend(http_stub))
        # 200 bytes of body: the text, then the x's the cut leaves
        assert str(error.value).endswith("returned HTTP 400: bad temperature \u00e9" + "x" * 182)

    def test_redirect_is_not_followed(self, http_stub):
        http_stub.script.extend(
            [
                (307, {}, {"headers": {"Location": http_stub.base_url + "/chat/completions"}}),
                (200, chat_payload()),
            ]
        )
        with pytest.raises(ProtocolError, match="returned HTTP 307"):
            ask(chat_backend(http_stub))
        assert len(http_stub.requests) == 1

    def test_read_timeout_is_retried_then_unavailable(self, http_stub):
        http_stub.script.extend([(200, chat_payload(), {"delay_s": 0.3})] * 3)
        with pytest.raises(BackendUnavailableError, match="Read timed out"):
            ask(chat_backend(http_stub, timeout_s=0.05))
        assert len(http_stub.requests) == 3

    def test_malformed_payload_is_protocol_error(self, http_stub):
        http_stub.script.append((200, {"choices": []}))
        with pytest.raises(ProtocolError):
            chat_backend(http_stub).chat(
                [{"role": "user", "content": "q"}], temperature=0.0, max_tokens=8
            )

    @pytest.mark.parametrize("content", [None, 7, ["hello"]], ids=["null", "number", "list"])
    def test_content_that_is_not_a_string_is_protocol_error(self, http_stub, content):
        http_stub.script.append((200, chat_payload(content)))
        with pytest.raises(ProtocolError, match="not a string"):
            ask(chat_backend(http_stub))

    def test_non_json_body_is_protocol_error_without_retry(self, http_stub):
        http_stub.script.extend([(200, b"<html>gateway</html>"), (200, chat_payload())])
        with pytest.raises(ProtocolError, match="invalid JSON"):
            chat_backend(http_stub).chat(
                [{"role": "user", "content": "q"}], temperature=0.0, max_tokens=8
            )
        assert len(http_stub.requests) == 1

    def test_unreachable_host(self):
        backend = HttpChatBackend(
            base_url="http://127.0.0.1:9/v1",
            model="m",
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.001),
            timeout_s=0.2,
        )
        with pytest.raises(BackendUnavailableError):
            backend.chat([{"role": "user", "content": "q"}], temperature=0.0, max_tokens=8)

    def test_attempts_past_a_float_backoff_end_the_item_not_the_run(self, tmp_path):
        # from attempt 1024 on, 2**attempt is an int no float holds
        with socket.socket() as refusing:
            # bound but never listening: every connection is refused
            refusing.bind(("127.0.0.1", 0))
            host, port = refusing.getsockname()
            backend = HttpChatBackend(
                base_url=f"http://{host}:{port}/v1",
                model="m",
                retry=RetryPolicy(max_attempts=1100, base_delay_s=0.0),
            )
            items = [BenchmarkItem("a", "Question a?", "", "none")]
            config = make_config(layers=1, proposers=1, k=1, mode="moa")
            report = run_benchmark(
                items, config, rmoa.Backends(backend), out_dir=tmp_path, item_parallelism=1
            )
        assert [item.stop_reason for item in report.items] == ["backend_abort"]
        assert (tmp_path / "report.json").is_file()


class TestHttpEmbeddingBackend:
    def test_round_trip_restores_index_order(self, http_stub):
        http_stub.script.append(
            (
                200,
                {
                    "data": [
                        {"index": 1, "embedding": [0.0, 1.0]},
                        {"index": 0, "embedding": [1.0, 0.0]},
                    ],
                    "usage": {"prompt_tokens": 5, "total_tokens": 5},
                },
            )
        )
        batch = embedding_backend(http_stub).embed(["a", "b"])
        assert batch.vectors == ((1.0, 0.0), (0.0, 1.0))
        assert batch.usage.prompt_tokens == 5
        assert http_stub.requests[0]["path"] == "/v1/embeddings"
        assert http_stub.requests[0]["body"] == {
            "model": "remote-embed",
            "input": ["a", "b"],
        }

    @pytest.mark.parametrize("usage", [{}, {"usage": None}], ids=["missing", "null"])
    def test_usage_optional(self, http_stub, usage):
        http_stub.script.append(
            (200, {"data": [{"index": 0, "embedding": [1.0, 0.0]}], **usage})
        )
        batch = embedding_backend(http_stub).embed(["a"])
        assert batch.usage.prompt_tokens == 0

    @pytest.mark.parametrize("usage", [[], "5", 5], ids=["list", "string", "number"])
    def test_usage_that_is_not_an_object_is_protocol_error(self, http_stub, usage):
        http_stub.script.append(
            (200, {"data": [{"index": 0, "embedding": [1.0, 0.0]}], "usage": usage})
        )
        with pytest.raises(ProtocolError, match="usage"):
            embedding_backend(http_stub).embed(["a"])

    @pytest.mark.parametrize("indices", [(0, 0), (5, 7), (1, 2)])
    def test_row_indices_other_than_0_to_n_are_protocol_error(self, http_stub, indices):
        rows = [{"index": i, "embedding": [1.0, float(i)]} for i in indices]
        http_stub.script.append((200, {"data": rows}))
        with pytest.raises(ProtocolError, match="indices"):
            embedding_backend(http_stub).embed(["a", "b"])

    def test_embed_batch_flags_dimension_disagreement(self, http_stub):
        http_stub.script.append(
            (
                200,
                {
                    "data": [
                        {"index": 0, "embedding": [1.0, 0.0]},
                        {"index": 1, "embedding": [1.0, 0.0, 0.0]},
                    ]
                },
            )
        )
        with pytest.raises(ProtocolError, match="dimension"):
            embed_batch(["a", "b"], embedding_backend(http_stub), on_event=pytest.fail)

    def test_embed_batch_truncates_to_declared_limit(self, http_stub):
        http_stub.script.append(
            (200, {"data": [{"index": 0, "embedding": [1.0, 0.0]}]})
        )
        events: list[str] = []
        embed_batch(
            ["z" * 100],
            embedding_backend(http_stub, max_input_chars=10),
            on_event=events.append,
        )
        assert http_stub.requests[0]["body"]["input"] == ["z" * 10]
        assert events and "truncated" in events[0]

    def test_malformed_payload(self, http_stub):
        http_stub.script.append((200, {"data": [{"index": 0}]}))
        with pytest.raises(ProtocolError):
            embedding_backend(http_stub).embed(["a"])

    def test_rows_are_the_doubles_the_standard_parser_reads(self, http_stub):
        # Selection, fsum results and so tokens and transcripts rest on the
        # client reading each component as the same double, bit for bit.
        rng = random.Random(20251020)
        literals = [
            "0.0",
            "-0.0",
            "5e-324",
            "2.4703282292062328e-324",  # halfway between 0 and 5e-324
            "2.2250738585072014e-308",
            "1.7976931348623157e308",
            "-1.7976931348623157e308",
        ]
        exact = decimal.Context(prec=800)  # enough for any double's sum with its neighbour
        while len(literals) < 1024:
            value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            above = math.nextafter(value, math.inf)
            if not math.isfinite(above):
                continue
            # the exact midpoint to the next double, which rounds to the even one
            midpoint = exact.divide(exact.add(decimal.Decimal(value), decimal.Decimal(above)), 2)
            literals += [repr(value), f"{value:.17g}", str(midpoint), f"{rng.uniform(-1, 1):.17g}"]
        rows = [literals[start : start + 256] for start in range(0, len(literals), 256)]
        body = '{"data": [%s]}' % ", ".join(
            '{"index": %d, "embedding": [%s]}' % (i, ", ".join(row)) for i, row in enumerate(rows)
        )
        http_stub.script.append((200, body.encode()))
        batch = embedding_backend(http_stub).embed(["a"] * len(rows))
        expected = [row["embedding"] for row in json.loads(body)["data"]]

        def bits(values):
            return [struct.pack("<d", float(value)) for value in values]

        assert [bits(row) for row in batch.vectors] == [bits(row) for row in expected]


# What the client makes of a reply: the error's message and its cause.
INVALID_JSON = ("returned invalid JSON: ", orjson.JSONDecodeError)
NOT_A_NUMBER = ("vector 0: ", TypeError)
# Replies that only a lenient JSON parser reads, whose numbers overflow a
# double, or whose non-finite values are JSON strings: (call kind, body,
# what the client, or embed_batch for a string in a row, makes of it).
NON_FINITE_REPLIES = {
    "chat-usage-overflow": (
        "chat",
        b'{"choices": [{"message": {"content": "x"}}],'
        b' "usage": {"prompt_tokens": 1e400, "completion_tokens": 3}}',
        INVALID_JSON,
    ),
    "chat-usage-infinity": (
        "chat",
        b'{"choices": [{"message": {"content": "x"}}],'
        b' "usage": {"prompt_tokens": Infinity, "completion_tokens": 3}}',
        INVALID_JSON,
    ),
    "embedding-row-nan": (
        "embedding",
        b'{"data": [{"index": 0, "embedding": [NaN, 1.0]}]}',
        INVALID_JSON,
    ),
    "embedding-row-minus-infinity": (
        "embedding",
        b'{"data": [{"index": 0, "embedding": [1.0, -Infinity]}]}',
        INVALID_JSON,
    ),
    "embedding-row-overflow": (
        "embedding",
        b'{"data": [{"index": 0, "embedding": [1e400, 1.0]}]}',
        INVALID_JSON,
    ),
    "embedding-row-string": (
        "embedding",
        b'{"data": [{"index": 0, "embedding": ["1e400", "NaN"]}]}',
        NOT_A_NUMBER,
    ),
}
GOOD_REPLIES = {
    "chat": chat_payload("fine"),
    "embedding": {"data": [{"index": 0, "embedding": [1.0, 0.0]}]},
}


class TestNonFiniteReplies:
    @pytest.mark.parametrize(
        ("kind", "body", "error"), NON_FINITE_REPLIES.values(), ids=NON_FINITE_REPLIES
    )
    def test_reply_is_one_request_and_a_protocol_error(self, http_stub, kind, body, error):
        message, cause = error
        http_stub.script.extend([(200, body), (200, GOOD_REPLIES[kind])])
        with pytest.raises(ProtocolError, match=message) as caught:
            if kind == "chat":
                ask(chat_backend(http_stub))
            else:
                embed_batch(["a"], embedding_backend(http_stub), on_event=pytest.fail)
        assert isinstance(caught.value.__cause__, cause)
        assert len(http_stub.requests) == 1

    @pytest.mark.parametrize(
        ("kind", "body", "error"), NON_FINITE_REPLIES.values(), ids=NON_FINITE_REPLIES
    )
    def test_reply_aborts_its_item_and_the_report_is_written(
        self, http_stub, tmp_path, kind, body, error
    ):
        # One proposer, no pools: item a makes a proposer, an embedding and
        # an aggregator call, in that order; item b's first call of ``kind``
        # gets the reply.
        items = [BenchmarkItem(item_id, f"Question {item_id}?", "", "none") for item_id in "ab"]
        good = [GOOD_REPLIES["chat"], GOOD_REPLIES["embedding"], GOOD_REPLIES["chat"]]
        bad = [GOOD_REPLIES["chat"], body] if kind == "embedding" else [body]
        http_stub.script.extend((200, reply) for reply in good + bad)
        backends = rmoa.Backends(chat_backend(http_stub), embedding_backend(http_stub))
        config = make_config(layers=1, proposers=1, k=1)
        report = run_benchmark(items, config, backends, out_dir=tmp_path, item_parallelism=1)
        assert [item.stop_reason for item in report.items] == ["max_layers", "backend_abort"]
        assert len(http_stub.requests) == len(good + bad)
        assert (tmp_path / "report.json").is_file()


class TestTransport:
    def test_sequential_calls_reuse_one_connection(self, keep_alive_stub):
        keep_alive_stub.script.extend([(200, chat_payload())] * 5)
        backend = chat_backend(keep_alive_stub)
        try:
            for _ in range(5):
                ask(backend)
        finally:
            backend.close()
        clients = {request["client"] for request in keep_alive_stub.requests}
        assert len(keep_alive_stub.requests) == 5
        assert len(clients) == 1

    def test_collected_client_closes_its_idle_connections(self, keep_alive_stub):
        keep_alive_stub.script.append((200, chat_payload()))
        backend = chat_backend(keep_alive_stub)
        ask(backend)
        [conn] = backend._idle
        del backend
        gc.collect()
        assert conn.sock is None

    def test_proxy_from_environment_gets_the_absolute_url(self, keep_alive_stub, proxy_env):
        proxy = keep_alive_stub.base_url.removesuffix("/v1").replace("//", "//us%40r:pw@")
        proxy_env.setenv("HTTP_PROXY", proxy)
        keep_alive_stub.script.append((200, chat_payload("via proxy")))
        backend = HttpChatBackend(base_url="http://backend.invalid/v1", model="m", retry=FAST_RETRY)
        try:
            assert ask(backend).text == "via proxy"
        finally:
            backend.close()
        [request] = keep_alive_stub.requests
        assert request["path"] == "http://backend.invalid/v1/chat/completions"
        assert request["host"] == "backend.invalid"
        assert request["proxy_authorization"] == "Basic " + base64.b64encode(b"us@r:pw").decode()

    def test_no_proxy_host_is_reached_directly(self, keep_alive_stub, proxy_env):
        proxy_env.setenv("HTTP_PROXY", "http://127.0.0.1:9")
        proxy_env.setenv("NO_PROXY", "127.0.0.1")
        keep_alive_stub.script.append((200, chat_payload("direct")))
        backend = chat_backend(keep_alive_stub)
        try:
            assert ask(backend).text == "direct"
        finally:
            backend.close()
        assert keep_alive_stub.requests[0]["path"] == "/v1/chat/completions"

    def test_https_target_tunnels_through_the_proxy(
        self, tls_stub, tunnel_proxy, proxy_env, trust_test_cert
    ):
        proxy = tunnel_proxy.base_url.removesuffix("/v1").replace("//", "//us%40r:pw@")
        proxy_env.setenv("HTTPS_PROXY", proxy)
        tls_stub.script.extend([(200, chat_payload("tunneled"))] * 2)
        backend = chat_backend(tls_stub)
        try:
            assert [ask(backend).text for _ in range(2)] == ["tunneled"] * 2
        finally:
            backend.close()
        [connect] = tunnel_proxy.requests
        host, port = tls_stub.server.server_address
        assert connect["path"] == f"{host}:{port}"
        assert connect["proxy_authorization"] == "Basic " + base64.b64encode(b"us@r:pw").decode()
        assert [r["path"] for r in tls_stub.requests] == ["/v1/chat/completions"] * 2
        assert [r["proxy_authorization"] for r in tls_stub.requests] == [None, None]
        assert [r["host"] for r in tls_stub.requests] == [f"{host}:{port}"] * 2

    def test_portless_https_target_is_tunneled_to_port_443(self, tunnel_proxy, proxy_env):
        proxy_env.setenv("HTTPS_PROXY", tunnel_proxy.base_url.removesuffix("/v1"))
        backend = HttpChatBackend(
            base_url="https://backend.invalid/v1", model="m", retry=RetryPolicy(1, 0.0)
        )
        try:
            # the proxy cannot resolve the name, so no tunnel opens
            with pytest.raises(BackendUnavailableError):
                ask(backend)
        finally:
            backend.close()
        assert [connect["path"] for connect in tunnel_proxy.requests] == ["backend.invalid:443"]

    @pytest.mark.parametrize(
        "base_url, target",
        [
            ("https://[::1]:8443/v1", "[::1]:8443"),
            ("https://bücher.invalid/v1", "xn--bcher-kva.invalid:443"),
        ],
        ids=["ipv6", "idn"],
    )
    def test_connect_names_the_target_as_host_and_port(
        self, tunnel_proxy, proxy_env, base_url, target
    ):
        # RFC 9110 §9.3.6 and RFC 3986 §3.2.2: host:port, an IPv6 address in brackets
        proxy_env.setenv("HTTPS_PROXY", tunnel_proxy.base_url.removesuffix("/v1"))
        backend = HttpChatBackend(base_url=base_url, model="m", retry=RetryPolicy(1, 0.0))
        try:
            # the proxy cannot resolve the target, so no tunnel opens
            with pytest.raises(BackendUnavailableError):
                ask(backend)
        finally:
            backend.close()
        assert [connect["path"] for connect in tunnel_proxy.requests] == [target]

    def test_portless_http_proxy_is_dialled_on_port_80(self, proxy_env, lookups):
        proxy_env.setenv("HTTPS_PROXY", "http://proxy.invalid")
        backend = HttpChatBackend(
            base_url="https://backend.invalid/v1", model="m", retry=RetryPolicy(1, 0.0)
        )
        with pytest.raises(BackendUnavailableError, match="proxy.invalid"):
            ask(backend)
        assert lookups == [("proxy.invalid", 80)]

    def test_refused_tunnel_is_unavailable(self, refusing_tunnel_proxy, proxy_env):
        proxy_env.setenv("HTTPS_PROXY", refusing_tunnel_proxy.base_url.removesuffix("/v1"))
        backend = HttpChatBackend(
            base_url="https://backend.invalid/v1", model="m", retry=RetryPolicy(1, 0.0)
        )
        try:
            with pytest.raises(BackendUnavailableError) as caught:
                ask(backend)
        finally:
            backend.close()
        assert str(caught.value) == (
            "https://backend.invalid/v1/chat/completions unreachable after 1 attempts: "
            "Tunnel connection failed: 407 Proxy Authentication Required"
        )

    def test_proxy_that_never_answers_connect_times_out(self, proxy_env):
        # the kernel accepts the connection into the backlog; nothing ever reads it
        silent = socket.create_server(("127.0.0.1", 0))
        host, port = silent.getsockname()
        proxy_env.setenv("HTTPS_PROXY", f"http://{host}:{port}")
        backend = HttpChatBackend(
            base_url="https://backend.invalid/v1",
            model="m",
            timeout_s=0.3,
            retry=RetryPolicy(1, 0.0),
        )
        try:
            with pytest.raises(BackendUnavailableError) as caught:
                ask(backend)
        finally:
            backend.close()
            silent.close()
        assert str(caught.value) == (
            "https://backend.invalid/v1/chat/completions unreachable after 1 attempts: timed out"
        )

    def test_https_proxy_forwards_an_http_target(self, tls_stub, proxy_env, trust_test_cert):
        proxy_env.setenv("HTTP_PROXY", tls_stub.base_url.removesuffix("/v1"))
        tls_stub.script.append((200, chat_payload("via https proxy")))
        backend = HttpChatBackend(base_url="http://backend.invalid/v1", model="m", retry=FAST_RETRY)
        try:
            assert ask(backend).text == "via https proxy"
        finally:
            backend.close()
        assert tls_stub.requests[0]["path"] == "http://backend.invalid/v1/chat/completions"

    def test_https_proxy_for_an_https_target_is_a_config_error(self, proxy_env):
        proxy_env.setenv("HTTPS_PROXY", "https://127.0.0.1:9")
        with pytest.raises(ConfigError, match="https:// proxy"):
            HttpChatBackend(base_url="https://backend.invalid/v1", model="m")

    def test_unsupported_proxy_scheme_is_a_config_error(self, proxy_env):
        proxy_env.setenv("HTTP_PROXY", "socks5://127.0.0.1:9")
        with pytest.raises(ConfigError, match="socks5"):
            HttpChatBackend(base_url="http://backend.invalid/v1", model="m")

    def test_importing_rmoa_leaves_requests_out(self):
        src = str(Path(rmoa.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, rmoa; sys.exit('requests' in sys.modules or 'urllib3' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    def test_runs_that_decode_no_reply_leave_orjson_unloaded(self):
        # the decoder is imported with the first reply, so building a client,
        # mock runs and the law check do not pay for loading it
        src = str(Path(rmoa.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, rmoa.cli\n"
            "rmoa.HttpChatBackend(base_url='http://127.0.0.1:9/v1', model='m')\n"
            "assert rmoa.cli.main(['selftest']) == 0\n"
            "sys.exit('orjson' in sys.modules)"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, timeout=60, stdout=subprocess.DEVNULL
        )
        assert run.returncode == 0

    def test_requests_name_rmoa_as_user_agent(self, http_stub):
        http_stub.script.append((200, chat_payload()))
        ask(chat_backend(http_stub))
        assert http_stub.requests[0]["user_agent"] == f"rmoa/{rmoa.__version__}"

    def test_host_names_the_target_and_its_port(self, http_stub):
        http_stub.script.append((200, chat_payload()))
        ask(chat_backend(http_stub))
        host, port = http_stub.server.server_address
        assert http_stub.requests[0]["host"] == f"{host}:{port}"

    def test_each_post_is_one_write(self, keep_alive_stub, monkeypatch):
        client = threading.current_thread()
        writes = []
        send = socket.socket.send

        def counted(sock, data, *args):
            if threading.current_thread() is client:
                writes.append(bytes(data))
            return send(sock, data, *args)

        monkeypatch.setattr(socket.socket, "send", counted)
        keep_alive_stub.script.extend([(200, chat_payload())] * 3)
        backend = chat_backend(keep_alive_stub, api_key="sekrit")
        try:
            for _ in range(3):
                ask(backend)
        finally:
            backend.close()
        assert len(writes) == 3
        for write, request in zip(writes, keep_alive_stub.requests):
            head, _, body = write.partition(b"\r\n\r\n")
            assert head.startswith(b"POST /v1/chat/completions HTTP/1.1\r\n")
            assert b"\r\nAuthorization: Bearer sekrit\r\n" in head + b"\r\n"
            assert json.loads(body) == request["body"]

    @pytest.mark.parametrize("check", ["poll", "select"])
    def test_connection_the_server_dropped_is_not_reused(
        self, keep_alive_stub, caplog, monkeypatch, check
    ):
        if check == "select":
            # the selector of a platform without poll(), such as Windows
            monkeypatch.setattr("rmoa.backends._Selector", selectors.SelectSelector)
        keep_alive_stub.script.extend(
            [(200, chat_payload("first"), {"drop": True}), (200, chat_payload("second"))]
        )
        backend = chat_backend(keep_alive_stub)
        try:
            assert ask(backend).text == "first"
            assert keep_alive_stub.dropped.wait(5)
            with caplog.at_level(logging.WARNING, logger="rmoa.backends"):
                assert ask(backend).text == "second"
        finally:
            backend.close()
        assert caplog.records == []
        first, second = keep_alive_stub.requests
        assert first["client"] != second["client"]

    def test_address_that_never_answers_falls_back_to_the_next(
        self, keep_alive_stub, monkeypatch, caplog
    ):
        # a listener whose one-place accept queue is full drops each new SYN
        silent = socket.create_server(("127.0.0.1", 0), backlog=0)
        filler = socket.create_connection(silent.getsockname())
        host, port = keep_alive_stub.server.server_address
        addresses = [
            (socket.AF_INET, socket.SOCK_STREAM, 6, "", silent.getsockname()),
            (socket.AF_INET, socket.SOCK_STREAM, 6, "", (host, port)),
        ]
        monkeypatch.setattr(socket, "getaddrinfo", lambda *args, **kwargs: addresses)
        keep_alive_stub.script.append((200, chat_payload("second address")))
        backend = chat_backend(keep_alive_stub, timeout_s=0.3)
        try:
            with caplog.at_level(logging.WARNING, logger="rmoa.backends"):
                # each address has its own timeout_s, as create_connection gives it
                assert ask(backend).text == "second address"
        finally:
            backend.close()
            filler.close()
            silent.close()
        assert caplog.records == []
        assert len(keep_alive_stub.requests) == 1

    def test_reply_with_connection_close_is_not_pooled(self, keep_alive_stub):
        keep_alive_stub.script.append((200, chat_payload(), {"headers": {"Connection": "close"}}))
        backend = chat_backend(keep_alive_stub)
        ask(backend)
        assert idle_connections(backend) == []

    def test_burst_keeps_at_most_the_pool_size_idle(self, keep_alive_stub):
        keep_alive_stub.script.extend([(200, chat_payload(), {"delay_s": 0.2})] * 16)
        backend = chat_backend(keep_alive_stub)
        try:
            with ThreadPoolExecutor(16) as calls:
                replies = list(calls.map(lambda _: ask(backend).text, range(16)))
            assert replies == ["hello"] * 16
            idle = idle_connections(backend)
            assert len(idle) == 10
            assert all(
                conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) for conn in idle
            )
            burst = {request["client"] for request in keep_alive_stub.requests}
            keep_alive_stub.script.append((200, chat_payload()))
            ask(backend)
        finally:
            backend.close()
        assert len(burst) == 16
        assert keep_alive_stub.requests[-1]["client"] in burst


CHAT_BODY = json.dumps(chat_payload("framed")).encode()


def reply(*fields, body=CHAT_BODY, version=b"HTTP/1.1", status=b"200 OK"):
    """A reply's bytes: status line, ``fields`` and ``body`` as given."""
    return b"%b %b\r\n%b\r\n%b" % (version, status, b"".join(f + b"\r\n" for f in fields), body)


def content_length(body=CHAT_BODY):
    return b"Content-Length: %d" % len(body)


class TestReplyFraming:
    """Replies framed every way RFC 9112 allows, sent byte for byte."""

    def test_chunked_reply_with_a_trailer_is_read_and_pooled(self, raw_stub):
        chunks = b"".join(
            b"%x;ext=1\r\n%b\r\n" % (len(part), part)
            for part in (CHAT_BODY[:10], CHAT_BODY[10:11], CHAT_BODY[11:])
        )
        chunked = reply(b"Transfer-Encoding: chunked", body=chunks + b"0\r\nX-Trailer: t\r\n\r\n")
        raw_stub.script.extend([(chunked, False), (reply(content_length()), False)])
        backend = chat_backend(raw_stub)
        try:
            assert [ask(backend).text for _ in range(2)] == ["framed"] * 2
        finally:
            backend.close()
        first, second = raw_stub.requests
        assert first["client"] == second["client"]

    def test_http_1_0_reply_without_a_length_is_read_to_the_close(self, raw_stub):
        raw_stub.script.append((reply(version=b"HTTP/1.0"), True))
        backend = chat_backend(raw_stub)
        assert ask(backend).text == "framed"
        assert idle_connections(backend) == []

    def test_http_1_0_keep_alive_reply_is_pooled(self, raw_stub):
        keep = reply(b"Connection: keep-alive", content_length(), version=b"HTTP/1.0")
        raw_stub.script.extend([(keep, False), (keep, False)])
        backend = chat_backend(raw_stub)
        try:
            assert [ask(backend).text for _ in range(2)] == ["framed"] * 2
        finally:
            backend.close()
        first, second = raw_stub.requests
        assert first["client"] == second["client"]

    def test_interim_replies_are_skipped(self, raw_stub):
        interim = reply(status=b"100 Continue", body=b"") + reply(
            b"Link: </x>", status=b"103 Early Hints", body=b""
        )
        raw_stub.script.append((interim + reply(content_length()), False))
        backend = chat_backend(raw_stub)
        try:
            assert ask(backend).text == "framed"
        finally:
            backend.close()

    def test_body_cut_short_is_retried_on_a_new_connection(self, raw_stub, caplog):
        cut = reply(content_length(), body=CHAT_BODY[:-5])
        raw_stub.script.extend([(cut, True), (reply(content_length()), False)])
        backend = chat_backend(raw_stub)
        try:
            with caplog.at_level(logging.WARNING, logger="rmoa.backends"):
                assert ask(backend).text == "framed"
        finally:
            backend.close()
        [warning] = caplog.records
        assert "attempt 1/3 failed (IncompleteRead)" in warning.getMessage()
        first, second = raw_stub.requests
        assert first["client"] != second["client"]

    @pytest.mark.parametrize(
        ("garbage", "failure"),
        [
            (b"SSH-2.0-OpenSSH_9.6\r\n", "BadStatusLine"),
            (reply(*[b"X-Field-%d: x" % i for i in range(101)], content_length()), "HTTPException"),
            (reply(b"X-Long: " + b"x" * 65536, content_length()), "LineTooLong"),
            (b"", "RemoteDisconnected"),
        ],
        ids=["status-line", "101-fields", "long-line", "no-reply"],
    )
    def test_malformed_reply_is_retried_as_http_client_raises_it(
        self, raw_stub, caplog, garbage, failure
    ):
        raw_stub.script.extend([(garbage, True)] * 3)
        with pytest.raises(BackendUnavailableError):
            ask(chat_backend(raw_stub))
        assert [r.getMessage().split("(")[1].split(")")[0] for r in caplog.records] == [failure] * 3

    def test_reply_of_100_fields_is_read(self, raw_stub):
        fields = [b"X-Field-%d: x" % i for i in range(99)]
        raw_stub.script.append((reply(*fields, content_length()), True))
        assert ask(chat_backend(raw_stub)).text == "framed"


# Sizes of at least 10**18: no machine holds them, so a reader without the
# body cap fails on them at once instead of allocating them.
HUGE_REPLIES = {
    "length-2^63": reply(b"Content-Length: %d" % 2**63),
    "length-10^18": reply(b"Content-Length: %d" % 10**18),
    "chunk-10^18": reply(b"Transfer-Encoding: chunked", body=b"%x\r\n" % 10**18),
}


class TestBodyCap:
    """No reply body over ``_MAX_BODY`` is read, however it is framed."""

    @pytest.mark.parametrize("huge", HUGE_REPLIES.values(), ids=HUGE_REPLIES)
    def test_huge_body_is_one_request_and_a_protocol_error(self, raw_stub, huge):
        raw_stub.script.extend([(huge, True), (reply(content_length()), True)])
        with pytest.raises(ProtocolError, match=r"/chat/completions returned a body of \d+"):
            ask(chat_backend(raw_stub))
        assert len(raw_stub.requests) == 1

    @pytest.mark.parametrize("over", [False, True], ids=["at-cap", "over-cap"])
    @pytest.mark.parametrize("framing", ["length", "chunks", "close"])
    def test_cap_holds_for_every_framing(self, raw_stub, monkeypatch, framing, over):
        monkeypatch.setattr("rmoa.backends._MAX_BODY", len(CHAT_BODY) - over)
        halves = CHAT_BODY[:10], CHAT_BODY[10:]
        chunks = b"".join(b"%x\r\n%b\r\n" % (len(half), half) for half in halves)
        raw_stub.script.append({
            "length": (reply(content_length()), True),
            "chunks": (reply(b"Transfer-Encoding: chunked", body=chunks + b"0\r\n\r\n"), True),
            "close": (reply(version=b"HTTP/1.0"), True),
        }[framing])
        if over:
            with pytest.raises(ProtocolError, match="cap"):
                ask(chat_backend(raw_stub))
        else:
            assert ask(chat_backend(raw_stub)).text == "framed"

    def test_length_the_stream_never_delivers_is_an_incomplete_read(self):
        write, read = socket.socketpair()
        with write:
            write.sendall(CHAT_BODY)
            write.shutdown(socket.SHUT_WR)
        with read, pytest.raises(http.client.IncompleteRead) as cut:
            read_blocking(_read_exactly(_Connection(read), 10**18))
        assert cut.value.partial == CHAT_BODY
        assert cut.value.expected == 10**18 - len(CHAT_BODY)

    def test_huge_reply_aborts_its_item_and_the_report_is_written(self, raw_stub, tmp_path):
        # moa, one layer, one proposer, no pools: each item makes a proposer
        # and then an aggregator call; item a's aggregator gets the reply.
        items = [BenchmarkItem(item_id, f"Question {item_id}?", "", "none") for item_id in "ab"]
        good = (reply(content_length()), False)
        raw_stub.script.extend([good, (HUGE_REPLIES["length-2^63"], True), good, good])
        config = make_config(layers=1, proposers=1, k=1, mode="moa")
        backends = rmoa.Backends(chat_backend(raw_stub))
        report = run_benchmark(items, config, backends, out_dir=tmp_path, item_parallelism=1)
        assert [item.stop_reason for item in report.items] == ["backend_abort", "max_layers"]
        assert len(raw_stub.requests) == 4
        assert (tmp_path / "report.json").is_file()
        transcript = json.loads((tmp_path / "b" / "transcript.json").read_bytes())
        assert check_transcript(transcript) == []


def idle_connections(backend):
    """The idle connections the client's pool holds for reuse."""
    return backend._idle


@pytest.fixture
def trust_test_cert(monkeypatch):
    """certifi's bundle is the tests' self-signed certificate."""
    monkeypatch.setattr(certifi, "where", lambda: str(TLS_CERT))


class TestTls:
    def test_calls_share_one_verified_connection(self, tls_stub, trust_test_cert):
        tls_stub.script.extend([(200, chat_payload("secure"))] * 2)
        backend = chat_backend(tls_stub)
        try:
            assert [ask(backend).text for _ in range(2)] == ["secure"] * 2
        finally:
            backend.close()
        assert len({request["client"] for request in tls_stub.requests}) == 1

    def test_untrusted_certificate_is_unavailable(self, tls_stub):
        with pytest.raises(BackendUnavailableError, match="certificate verify failed"):
            ask(chat_backend(tls_stub))
        assert tls_stub.requests == []

    def test_http_client_builds_no_tls_context(self, http_stub, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an http:// client built a TLS context")

        monkeypatch.setattr(ssl, "create_default_context", refuse)
        http_stub.script.append((200, chat_payload()))
        assert ask(chat_backend(http_stub)).text == "hello"
