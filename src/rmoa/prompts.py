"""Prompt templates, role personas, and per-benchmark prompt sets.

Templates are plain-text assets using ``<<name>>`` placeholders. The marker
was chosen so template bodies can contain curly braces and dollar signs
freely (LaTeX-heavy math prompts would break ``str.format``-style markers).
Substitution is single-pass: markers that arrive inside bound values are
left untouched, never re-expanded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError

_PLACEHOLDER = re.compile(r"<<([a-z_]+)>>")
_ROLE_SEPARATOR = re.compile(r"^---\s*$", re.MULTILINE)


@dataclass(frozen=True)
class PromptTemplate:
    """A named template body plus the placeholders it requires."""

    name: str
    body: str
    required_placeholders: frozenset[str]

    @classmethod
    def from_body(cls, name: str, body: str) -> "PromptTemplate":
        return cls(name, body, frozenset(_PLACEHOLDER.findall(body)))

    def render(self, **bindings: str) -> str:
        """Substitute every placeholder; unknown bindings are ignored."""
        missing = self.required_placeholders - bindings.keys()
        if missing:
            raise ValueError(
                f"template {self.name!r} is missing bindings: {sorted(missing)}"
            )
        return _PLACEHOLDER.sub(lambda m: bindings[m.group(1)], self.body)


@dataclass(frozen=True)
class PromptProfile:
    """Which role set and task wrapper a benchmark uses."""

    roles: str
    task: str | None


PROFILES: dict[str, PromptProfile] = {
    "generic": PromptProfile("default", None),
    "alpacaeval": PromptProfile("alpacaeval", None),
    "math": PromptProfile("math", "tasks/math_fewshot"),
    "crux": PromptProfile("crux", "tasks/crux_output_cot"),
    "crux_input": PromptProfile("crux", "tasks/crux_input_cot"),
    "mmlu_redux": PromptProfile("mmlu_redux", "tasks/cot"),
}


def _read_asset(stem: str, directory: Path | None) -> str:
    if directory is not None:
        path = Path(directory) / f"{stem}.txt"
        if not path.is_file():
            raise ConfigError(f"prompt asset not found: {path}")
        return path.read_text(encoding="utf-8")
    resource = resources.files("rmoa").joinpath("assets", "prompts", f"{stem}.txt")
    if not resource.is_file():
        raise ConfigError(f"prompt asset not found: {stem}.txt")
    return resource.read_text(encoding="utf-8")


def load_template(stem: str, directory: Path | None = None) -> PromptTemplate:
    return PromptTemplate.from_body(stem, _read_asset(stem, directory).strip("\n"))


def load_roles(benchmark: str, directory: Path | None = None) -> tuple[PromptTemplate, ...]:
    """Load a role-persona set; blocks are separated by ``---`` lines."""
    profile = _profile(benchmark)
    text = _read_asset(f"roles/{profile.roles}", directory)
    blocks = [block.strip() for block in _ROLE_SEPARATOR.split(text) if block.strip()]
    if not blocks:
        raise ConfigError(f"role file for {benchmark!r} contains no personas")
    return tuple(
        PromptTemplate.from_body(f"{profile.roles}/role{i + 1}", block)
        for i, block in enumerate(blocks)
    )


def _profile(benchmark: str) -> PromptProfile:
    try:
        return PROFILES[benchmark]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ConfigError(f"unknown benchmark {benchmark!r} (known: {known})") from None


@dataclass(frozen=True)
class PromptSet:
    """Everything the pipeline needs to phrase its agent calls."""

    extraction: PromptTemplate
    aggregation: PromptTemplate
    baseline_aggregation: PromptTemplate
    refinement: PromptTemplate
    roles: tuple[PromptTemplate, ...]
    task: PromptTemplate | None

    def render_task(self, query: str) -> str:
        """Wrap the raw query in the benchmark's task prompt, if any."""
        if self.task is None:
            return query
        return self.task.render(query=query)


def load_prompt_set(
    benchmark: str = "generic", directory: Path | None = None
) -> PromptSet:
    profile = _profile(benchmark)
    task = load_template(profile.task, directory) if profile.task else None
    return PromptSet(
        extraction=load_template("residual_extraction", directory),
        aggregation=load_template("residual_aggregation", directory),
        baseline_aggregation=load_template("baseline_aggregation", directory),
        refinement=load_template("proposer_refinement", directory),
        roles=load_roles(benchmark, directory),
        task=task,
    )
