"""HTTP wire clients against a scripted local server."""

from __future__ import annotations

import pytest

from rmoa.backends import HttpChatBackend, HttpEmbeddingBackend, RetryPolicy
from rmoa.embedding import embed_batch
from rmoa.errors import BackendUnavailableError, ProtocolError

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

    def test_gives_up_after_bounded_attempts(self, http_stub):
        http_stub.script.extend([(503, {}), (503, {}), (503, {})])
        with pytest.raises(BackendUnavailableError):
            chat_backend(http_stub).chat(
                [{"role": "user", "content": "q"}], temperature=0.0, max_tokens=8
            )
        assert len(http_stub.requests) == 3

    def test_client_error_is_protocol_error(self, http_stub):
        http_stub.script.append((400, {"error": "bad request"}))
        with pytest.raises(ProtocolError):
            chat_backend(http_stub).chat(
                [{"role": "user", "content": "q"}], temperature=0.0, max_tokens=8
            )
        assert len(http_stub.requests) == 1

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
