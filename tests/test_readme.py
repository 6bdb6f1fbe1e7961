"""The README's configuration example and library snippet stay runnable."""

from __future__ import annotations

import re
from decimal import Decimal
from pathlib import Path

from rmoa.backends import HttpChatBackend, HttpEmbeddingBackend
from rmoa.config import build_backends, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", body, re.DOTALL)
    assert match, f"no {language} block under {section!r}"
    return match.group(1)


def test_quick_start_config_parses(tmp_path, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(readme_block("Quick start", "json"), encoding="utf-8")
    monkeypatch.setenv("CHAT_API_TOKEN", "chat-token")
    monkeypatch.setenv("EMBED_API_TOKEN", "embed-token")

    config = load_config(config_path)
    backends = build_backends(config)

    run = config.run
    assert (run.layers, run.proposers_per_layer, run.select_k) == (6, 6, 3)
    assert (run.mode, run.benchmark) == ("rmoa", "math")
    assert (run.sampling.temperature, run.sampling.max_tokens) == (0.7, 1024)
    assert (run.termination.policy, run.termination.m) == ("llm", 1)
    assert config.price_per_million_tokens == Decimal("0.30")
    assert config.params_per_model == {"my-chat-model": 7_000_000_000}
    assert config.prompt_dir is None
    assert (config.item_parallelism, config.proposer_parallelism) == (4, None)

    assert isinstance(backends.chat, HttpChatBackend)
    assert (backends.chat.base_url, backends.chat.model) == (
        "http://localhost:8000/v1", "my-chat-model"
    )
    assert backends.chat.api_key == "chat-token"
    assert isinstance(backends.embedding, HttpEmbeddingBackend)
    assert (backends.embedding.base_url, backends.embedding.model) == (
        "http://localhost:8001/v1", "my-embedding-model"
    )
    assert backends.embedding.api_key == "embed-token"


def test_library_snippet_runs(capsys):
    exec(compile(readme_block("Library use", "python"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines, "the snippet printed nothing"
    assert "'total_tokens'" in lines[-1]

