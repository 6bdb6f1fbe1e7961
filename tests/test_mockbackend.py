"""Determinism and token accounting of the in-process mock backends."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

from rmoa.errors import ScriptExhaustedError
from rmoa.mockbackend import (
    MockChatBackend,
    MockEmbeddingBackend,
    MockRule,
    mock_chat,
    mock_embed,
    mock_token_count,
)


class TestMockChat:
    def test_echo_usage_on_tiny_prompt(self):
        text, usage = mock_chat("hi", MockRule())
        assert "hi" in text
        assert (usage.prompt_tokens, usage.completion_tokens) == (1, 1)

    def test_echo_is_pure(self):
        rule = MockRule()
        assert mock_chat("same prompt", rule) == mock_chat("same prompt", rule)

    def test_echo_respects_max_tokens(self):
        text, usage = mock_chat("x" * 100, MockRule(), max_tokens=5)
        assert len(text) == 20
        assert usage.completion_tokens == 5

    def test_template_answer_matches_key(self):
        rule = MockRule(
            behavior="template_answer", answers={"capital of France": "Paris"}
        )
        text, _ = mock_chat("What is the capital of France?", rule)
        assert text == "Paris"

    def test_template_answer_falls_back_to_echo(self):
        rule = MockRule(behavior="template_answer", answers={"unrelated": "nope"})
        text, _ = mock_chat("something else", rule)
        assert text == "something else"

    def test_residual_script_sequencing(self):
        rule = MockRule(behavior="residual_script", script=(True, False))
        first, _ = mock_chat("p", rule, script_index=0)
        second, _ = mock_chat("p", rule, script_index=1)
        assert first.startswith("Residuals Detected: Yes")
        assert second == "Residuals Detected: No"

    def test_script_exhaustion_raises(self):
        rule = MockRule(behavior="residual_script", script=(False,))
        with pytest.raises(ScriptExhaustedError):
            mock_chat("p", rule, script_index=1)

    def test_backend_logs_calls(self):
        backend = MockChatBackend(MockRule())
        backend.chat(
            [{"role": "system", "content": "sys"},
             {"role": "user", "content": "user"}],
            temperature=0.7,
            max_tokens=100,
        )
        assert len(backend.call_log) == 1
        assert backend.call_log[0]["prompt"] == "sys\nuser"

    def test_fork_resets_script_cursor_and_log(self):
        backend = MockChatBackend(
            MockRule(behavior="residual_script", script=(False,))
        )
        fork = backend.fork_for_run()
        assert fork is not backend
        assert fork.rule is backend.rule
        assert fork.call_log == []

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError):
            MockRule(behavior="chaos")


class TestMockEmbed:
    def test_pure_function(self):
        assert mock_embed("text", 3, 16) == mock_embed("text", 3, 16)

    def test_unit_norm(self):
        for text in ("a", "b", "a much longer piece of text" * 10):
            components = mock_embed(text, 7, 64)
            assert math.hypot(*components) == pytest.approx(1.0, abs=1e-9)

    def test_distinct_texts_do_not_collide(self):
        seen = set()
        for i in range(1000):
            components = mock_embed(f"corpus item {i}", 7, 32)
            assert components not in seen
            seen.add(components)

    def test_seed_changes_vectors(self):
        assert mock_embed("t", 1, 16) != mock_embed("t", 2, 16)

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            mock_embed("t", 1, 1)

    def test_stable_across_processes(self):
        code = (
            "import json; from rmoa.mockbackend import mock_embed; "
            "print(json.dumps(mock_embed('stability probe', 7, 16)))"
        )
        output = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=os.environ.copy(),
        ).stdout
        assert tuple(json.loads(output)) == mock_embed("stability probe", 7, 16)


class TestMockEmbeddingBackend:
    def test_batch_usage_counts_characters(self):
        backend = MockEmbeddingBackend(seed=1, dim=8)
        batch = backend.embed(["abcd", "e"])
        assert batch.usage.prompt_tokens == mock_token_count("abcd") + mock_token_count("e")
        assert len(batch.vectors) == 2
        assert all(len(v) == 8 for v in batch.vectors)

    def test_token_count_model(self):
        assert mock_token_count("") == 0
        assert mock_token_count("abcd") == 1
        assert mock_token_count("abcde") == 2
        assert mock_token_count("x" * 4096) == 1024
        assert mock_token_count("abc") == math.ceil(3 / 4)
