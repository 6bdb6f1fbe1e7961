"""Deterministic in-process chat and embedding backends.

Every behavior is a pure function of its inputs (plus, for scripted
residual verdicts, the extractor-call ordinal), so whole pipeline runs are
bit-reproducible and cheap enough for property tests. Token counts follow
a fixed chars/4 model; real-tokenizer fidelity is out of scope.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .accounting import TokenUsage
from .backends import ChatResult, EmbeddingBatch
from .embedding import EmbeddingVector
from .errors import ScriptExhaustedError

MOCK_BEHAVIORS = ("echo", "template_answer", "residual_script")

# Distinctive phrase from the residual-extraction template; scripted mocks
# use it to recognize extractor calls among mixed traffic.
EXTRACTION_MARKER = "Residuals Simulation"

_CHARS_PER_TOKEN = 4


def mock_token_count(text: str) -> int:
    return math.ceil(len(text) / _CHARS_PER_TOKEN)


@dataclass(frozen=True)
class MockRule:
    """How a mock chat backend answers.

    echo            completion is the prompt itself, capped at the token limit
    template_answer completion is the mapped answer whose key occurs in the
                    prompt (keys tried in sorted order); echo otherwise
    residual_script extractor calls walk the yes/no script; other calls echo
    """

    behavior: str = "echo"
    answers: Mapping[str, str] = field(default_factory=dict)
    script: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if self.behavior not in MOCK_BEHAVIORS:
            raise ValueError(f"unknown mock behavior {self.behavior!r}")
        object.__setattr__(self, "answers", dict(self.answers))
        object.__setattr__(self, "script", tuple(bool(x) for x in self.script))


def mock_chat(
    prompt: str,
    rule: MockRule,
    *,
    max_tokens: int = 1024,
    script_index: int | None = None,
) -> tuple[str, TokenUsage]:
    """One mock completion for ``prompt``; pure given its arguments.

    ``script_index`` selects the scripted verdict for residual_script rules
    and is ignored otherwise.
    """
    text: str | None = None
    if rule.behavior == "residual_script" and script_index is not None:
        if script_index >= len(rule.script):
            raise ScriptExhaustedError(
                f"residual script has {len(rule.script)} entries; "
                f"call {script_index + 1} requested"
            )
        if rule.script[script_index]:
            text = "Residuals Detected: Yes\nResidual Details:\n1. Scripted difference."
        else:
            text = "Residuals Detected: No"
    elif rule.behavior == "template_answer":
        for key in sorted(rule.answers):
            if key in prompt:
                text = rule.answers[key]
                break
    if text is None:
        text = prompt
    text = text[: max_tokens * _CHARS_PER_TOKEN]
    usage = TokenUsage(mock_token_count(prompt), mock_token_count(text))
    return text, usage


def mock_embed(text: str, seed: int, dim: int) -> EmbeddingVector:
    """Expand a seeded hash of ``text`` into a unit vector.

    Uses SHA-256 rather than ``hash()`` so vectors are identical across
    process runs and platforms.
    """
    if dim < 2:
        raise ValueError("embedding dimension must be at least 2")
    root = hashlib.sha256(f"{seed}|{text}".encode("utf-8")).digest()
    components: list[float] = []
    counter = 0
    while len(components) < dim:
        block = hashlib.sha256(root + counter.to_bytes(4, "big")).digest()
        for offset in range(0, len(block), 8):
            value = int.from_bytes(block[offset : offset + 8], "big")
            components.append(value / 2**63 - 1.0)
        counter += 1
    components = components[:dim]
    norm = math.sqrt(math.fsum(c * c for c in components))
    if norm == 0.0:  # all-zero expansion is astronomically unlikely; keep nonzero anyway
        components[0] = 1.0
        norm = 1.0
    return EmbeddingVector(tuple(c / norm for c in components))


class MockChatBackend:
    """Chat backend over a :class:`MockRule` with a call log.

    The scripted-verdict cursor advances once per extractor call; use
    :meth:`fork_for_run` to give each run its own cursor and log.
    """

    def __init__(self, rule: MockRule, model: str = "mock-chat") -> None:
        self.rule = rule
        self.model = model
        self.call_log: list[dict] = []
        self._script_position = 0
        self._lock = threading.Lock()

    def chat(
        self, messages: list[dict[str, str]], *, temperature: float, max_tokens: int
    ) -> ChatResult:
        prompt = "\n".join(m["content"] for m in messages)
        script_index: int | None = None
        with self._lock:
            if (
                self.rule.behavior == "residual_script"
                and EXTRACTION_MARKER in prompt
            ):
                script_index = self._script_position
                self._script_position += 1
            self.call_log.append(
                {
                    "prompt": prompt,
                    "temperature": temperature,
                    "max_tokens": max_tokens,
                }
            )
        text, usage = mock_chat(
            prompt, self.rule, max_tokens=max_tokens, script_index=script_index
        )
        return ChatResult(text=text, usage=usage, model=self.model)

    def fork_for_run(self) -> "MockChatBackend":
        return MockChatBackend(self.rule, self.model)


class MockEmbeddingBackend:
    """Embedding backend built on :func:`mock_embed`."""

    def __init__(
        self,
        seed: int = 7,
        dim: int = 64,
        model: str = "mock-embed",
        max_input_chars: int | None = None,
    ) -> None:
        if dim < 2:
            raise ValueError("embedding dimension must be at least 2")
        self.seed = seed
        self.dim = dim
        self.model = model
        self.max_input_chars = max_input_chars

    def embed(self, texts: Sequence[str]) -> EmbeddingBatch:
        vectors = tuple(
            mock_embed(text, self.seed, self.dim).components for text in texts
        )
        prompt_tokens = sum(mock_token_count(text) for text in texts)
        return EmbeddingBatch(
            vectors=vectors,
            usage=TokenUsage(prompt_tokens, 0),
            model=self.model,
        )

    def fork_for_run(self) -> "MockEmbeddingBackend":
        return self
