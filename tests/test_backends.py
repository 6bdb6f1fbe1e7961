"""HTTP wire clients against a scripted local server."""

from __future__ import annotations

import base64
import logging
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import rmoa
from rmoa.backends import HttpChatBackend, HttpEmbeddingBackend, RetryPolicy
from rmoa.embedding import embed_batch
from rmoa.errors import BackendUnavailableError, ConfigError, ProtocolError

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

    def test_usage_optional(self, http_stub):
        http_stub.script.append(
            (200, {"data": [{"index": 0, "embedding": [1.0, 0.0]}]})
        )
        batch = embedding_backend(http_stub).embed(["a"])
        assert batch.usage.prompt_tokens == 0

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
            embed_batch(["a", "b"], embedding_backend(http_stub))

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

    @pytest.fixture
    def proxy_env(self, monkeypatch):
        """No proxy settings, and no name resolution: a request sent straight to
        ``backend.invalid`` fails here instead of leaving the host."""
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        resolve = socket.getaddrinfo

        def loopback_only(host, *args, **kwargs):
            if host != "127.0.0.1":
                raise socket.gaierror(f"name resolution is off in this test: {host}")
            return resolve(host, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", loopback_only)
        return monkeypatch

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

    def test_unsupported_proxy_scheme_is_a_config_error(self, proxy_env):
        proxy_env.setenv("HTTP_PROXY", "socks5://127.0.0.1:9")
        with pytest.raises(ConfigError, match="socks5"):
            HttpChatBackend(base_url="http://backend.invalid/v1", model="m")

    def test_importing_rmoa_leaves_requests_out(self):
        src = str(Path(rmoa.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, rmoa; sys.exit('requests' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
