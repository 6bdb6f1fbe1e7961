"""The three agent roles over a chat backend: propose, extract, aggregate.

A proposer call carries its persona in the system message and the task
(plus any reference block) in the user message. Extractor and aggregator
calls are single user messages built entirely from their templates.

None of them records usage: the caller reads it from the ``Response`` a
call returns, or from the extractor's raw ``ChatResult``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from .accounting import TokenUsage
from .backends import ChatBackend, ChatResult
from .errors import EmptyResponseError
from .prompts import PromptTemplate

# Rendered in place of residual text when no residual was found, so the
# aggregation template always receives a nonempty block.
EMPTY_RESIDUAL_MARKER = "(none)"

_FLAG = re.compile(r"residuals\s+detected\s*:", re.IGNORECASE)
_VERDICT = re.compile(r"\s*(yes|no)\b", re.IGNORECASE)
_NO_CHANGE = {"no change", "no update"}


@dataclass(frozen=True)
class Response:
    """One agent's text output with its provenance and token usage."""

    text: str
    layer: int
    agent_index: int
    role_name: str
    usage: TokenUsage

    def __post_init__(self) -> None:
        if self.layer < 0 or self.agent_index < 0:
            raise ValueError("layer and agent_index must be nonnegative")


@dataclass(frozen=True)
class Residual:
    """The extractor's differential output: either findings or a no-change signal."""

    kind: str
    text: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("has_residual", "no_residual"):
            raise ValueError(f"unknown residual kind {self.kind!r}")
        if self.kind == "no_residual" and self.text:
            raise ValueError("a no-residual result cannot carry text")

    @property
    def detected(self) -> bool:
        return self.kind == "has_residual"

    @property
    def prompt_text(self) -> str:
        """What a prompt shows for this residual: its findings, or the empty marker."""
        return self.text if self.detected and self.text else EMPTY_RESIDUAL_MARKER

    @classmethod
    def found(cls, text: str) -> "Residual":
        return cls("has_residual", text)

    @classmethod
    def none(cls) -> "Residual":
        return cls("no_residual")


NO_RESIDUAL = Residual.none()


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 0.7
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and nonnegative")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be at least 1")


def render_numbered_responses(responses: Sequence[Response]) -> str:
    """Join responses as numbered blocks, in the order given."""
    blocks = [
        f"Response {i + 1}:\n{response.text}" for i, response in enumerate(responses)
    ]
    return "\n\n".join(blocks)


def parse_residual_flag(completion: str) -> Residual:
    """Classify an extractor completion; never raises.

    The first line containing a "Residuals Detected:" marker decides; a
    whole-completion "no change"/"no update" also counts as no residual.
    Anything unreadable is treated as a residual carrying the raw
    completion, so an over-chatty extractor can only cost compute.
    """
    lines = completion.splitlines()
    for lineno, line in enumerate(lines):
        match = _FLAG.search(line)
        if match is None:
            continue
        verdict = _VERDICT.match(line[match.end():])
        if verdict is None:
            return Residual.found(completion)
        if verdict.group(1).lower() == "no":
            return NO_RESIDUAL
        remainder_on_line = line[match.end() + verdict.end():]
        remainder = "\n".join([remainder_on_line, *lines[lineno + 1:]]).strip()
        return Residual.found(remainder if remainder else completion)
    if completion.strip().rstrip(".!").strip().lower() in _NO_CHANGE:
        return NO_RESIDUAL
    return Residual.found(completion)


def propose(
    query: str,
    references: str | None,
    role: PromptTemplate,
    backend: ChatBackend,
    params: SamplingParams,
    *,
    layer: int = 1,
    agent_index: int = 0,
    refinement_template: PromptTemplate | None = None,
) -> Response:
    """Generate one candidate response.

    ``query`` is the task text sent to the model (the user query, possibly
    already wrapped in a benchmark prompt). With references present, the
    user message wraps them and the task in the refinement template;
    without references the task is sent bare, which is the first-layer
    contract.
    """
    if not query:
        raise ValueError("query must be nonempty")
    if references is not None:
        if refinement_template is None:
            raise ValueError("references given but no refinement template")
        user_content = refinement_template.render(references=references, task=query)
    else:
        user_content = query
    messages = [
        {"role": "system", "content": role.render()},
        {"role": "user", "content": user_content},
    ]
    result = backend.chat(
        messages, temperature=params.temperature, max_tokens=params.max_tokens
    )
    if not result.text.strip():
        raise EmptyResponseError(f"proposer {agent_index} returned an empty completion")
    return Response(
        text=result.text,
        layer=layer,
        agent_index=agent_index,
        role_name=role.name,
        usage=result.usage,
    )


def extract_residual(
    current_selected: Sequence[Response],
    previous_selected: Sequence[Response],
    backend: ChatBackend,
    *,
    template: PromptTemplate,
    params: SamplingParams,
) -> ChatResult:
    """Ask the extractor what changed between two nonempty rounds of selections.

    Returns the raw reply; ``parse_residual_flag`` reads its verdict.
    """
    if not current_selected or not previous_selected:
        raise ValueError("current_selected and previous_selected must be nonempty")
    prompt = template.render(
        current_responses=render_numbered_responses(current_selected),
        previous_responses=render_numbered_responses(previous_selected),
    )
    return backend.chat(
        [{"role": "user", "content": prompt}],
        temperature=params.temperature,
        max_tokens=params.max_tokens,
    )


def aggregate(
    previous_selected: Sequence[Response],
    residual: Residual,
    backend: ChatBackend,
    *,
    query: str,
    template: PromptTemplate,
    params: SamplingParams,
    layer: int = 0,
) -> Response:
    """Fuse reference responses (and any residual) into a final answer."""
    if not previous_selected:
        raise ValueError("previous_selected must be nonempty")
    prompt = template.render(
        query=query,
        references=render_numbered_responses(previous_selected),
        residual=residual.prompt_text,
    )
    result = backend.chat(
        [{"role": "user", "content": prompt}],
        temperature=params.temperature,
        max_tokens=params.max_tokens,
    )
    if not result.text.strip():
        raise EmptyResponseError("aggregator returned an empty completion")
    return Response(
        text=result.text,
        layer=layer,
        agent_index=0,
        role_name="aggregator",
        usage=result.usage,
    )
