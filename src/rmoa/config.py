"""JSON run-configuration loading.

One document covers the run shape, backend endpoints, pricing, model
parameter counts, and the prompt asset directory. Secrets never live in
the file: HTTP backends name the environment variable holding their token.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .accounting import DEFAULT_PRICE_PER_MILLION
from .agents import SamplingParams
from .backends import Backends, HttpChatBackend, HttpEmbeddingBackend, RetryPolicy
from .errors import ConfigError
from .mockbackend import MockChatBackend, MockEmbeddingBackend, MockRule
from .pipeline import RunConfig
from .termination import TerminationConfig


@dataclass
class AppConfig:
    """Everything a CLI invocation needs, parsed and validated."""

    run: RunConfig
    chat_spec: dict
    embedding_spec: dict
    price_per_million_tokens: Decimal = DEFAULT_PRICE_PER_MILLION
    params_per_model: dict[str, int] = field(default_factory=dict)
    prompt_dir: Path | None = None
    item_parallelism: int = 4
    proposer_parallelism: int | None = None


def _expect_mapping(value, name: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    return value


def parse_run_config(raw: dict) -> RunConfig:
    sampling_raw = _expect_mapping(raw.get("sampling"), "run.sampling")
    termination_raw = _expect_mapping(raw.get("termination"), "run.termination")
    sampling = SamplingParams(
        temperature=float(sampling_raw.get("temperature", 0.7)),
        max_tokens=int(sampling_raw.get("max_tokens", 1024)),
    )
    termination = TerminationConfig(
        policy=str(termination_raw.get("policy", "llm")),
        m=int(termination_raw.get("m", 1)),
        theta=float(termination_raw.get("theta", 0.9)),
        sigma2=float(termination_raw.get("sigma2", 1e-3)),
    )
    try:
        return RunConfig(
            layers=int(raw.get("layers", 6)),
            proposers_per_layer=int(raw.get("proposers_per_layer", 6)),
            select_k=int(raw.get("select_k", 3)),
            termination=termination,
            sampling=sampling,
            mode=str(raw.get("mode", "rmoa")),
            benchmark=str(raw.get("benchmark", "generic")),
            capture_layer_answers=bool(raw.get("capture_layer_answers", False)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid run configuration: {exc}") from exc


def load_config(path: str | Path) -> AppConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must contain a JSON object")

    run = parse_run_config(_expect_mapping(raw.get("run"), "run"))
    backends_raw = _expect_mapping(raw.get("backends"), "backends")
    pricing_raw = _expect_mapping(raw.get("pricing"), "pricing")
    prompts_raw = _expect_mapping(raw.get("prompts"), "prompts")
    execution_raw = _expect_mapping(raw.get("execution"), "execution")

    try:
        price = Decimal(
            str(pricing_raw.get("price_per_million_tokens", DEFAULT_PRICE_PER_MILLION))
        )
    except InvalidOperation as exc:
        raise ConfigError(f"invalid price_per_million_tokens: {exc}") from exc

    params_raw = _expect_mapping(raw.get("params_per_model"), "params_per_model")
    params = {str(model): int(count) for model, count in params_raw.items()}

    prompt_dir_raw = prompts_raw.get("directory")
    prompt_dir = Path(prompt_dir_raw) if prompt_dir_raw else None

    proposer_parallelism = execution_raw.get("proposer_parallelism")
    return AppConfig(
        run=run,
        chat_spec=_expect_mapping(backends_raw.get("chat"), "backends.chat"),
        embedding_spec=_expect_mapping(backends_raw.get("embedding"), "backends.embedding"),
        price_per_million_tokens=price,
        params_per_model=params,
        prompt_dir=prompt_dir,
        item_parallelism=int(execution_raw.get("item_parallelism", 4)),
        proposer_parallelism=(
            int(proposer_parallelism) if proposer_parallelism is not None else None
        ),
    )


def _build_retry(spec: dict) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=int(spec.get("max_attempts", 3)),
        base_delay_s=float(spec.get("base_delay_s", 0.5)),
    )


def _api_key_from_env(spec: dict, name: str) -> str | None:
    env_var = spec.get("auth_token_env")
    if not env_var:
        return None
    value = os.environ.get(str(env_var))
    if value is None:
        raise ConfigError(
            f"{name} names auth_token_env={env_var!r} but it is not set"
        )
    return value


def build_chat_backend(spec: dict):
    kind = str(spec.get("kind", "mock"))
    if kind == "mock":
        rule = MockRule(
            behavior=str(spec.get("behavior", "echo")),
            answers={str(k): str(v) for k, v in _expect_mapping(
                spec.get("answers"), "backends.chat.answers").items()},
            script=tuple(
                _parse_script_entry(entry) for entry in spec.get("script", [])
            ),
        )
        return MockChatBackend(rule, model=str(spec.get("model", "mock-chat")))
    if kind == "http":
        if "base_url" not in spec or "model" not in spec:
            raise ConfigError("http chat backend needs base_url and model")
        return HttpChatBackend(
            base_url=str(spec["base_url"]),
            model=str(spec["model"]),
            api_key=_api_key_from_env(spec, "backends.chat"),
            timeout_s=float(spec.get("timeout_s", 60.0)),
            retry=_build_retry(spec),
        )
    raise ConfigError(f"unknown chat backend kind {kind!r}")


def build_embedding_backend(spec: dict):
    kind = str(spec.get("kind", "mock"))
    if kind == "mock":
        max_chars = spec.get("max_input_chars")
        return MockEmbeddingBackend(
            seed=int(spec.get("seed", 7)),
            dim=int(spec.get("dim", 64)),
            model=str(spec.get("model", "mock-embed")),
            max_input_chars=int(max_chars) if max_chars is not None else None,
        )
    if kind == "http":
        if "base_url" not in spec or "model" not in spec:
            raise ConfigError("http embedding backend needs base_url and model")
        max_chars = spec.get("max_input_chars")
        return HttpEmbeddingBackend(
            base_url=str(spec["base_url"]),
            model=str(spec["model"]),
            api_key=_api_key_from_env(spec, "backends.embedding"),
            timeout_s=float(spec.get("timeout_s", 60.0)),
            retry=_build_retry(spec),
            max_input_chars=int(max_chars) if max_chars is not None else None,
        )
    raise ConfigError(f"unknown embedding backend kind {kind!r}")


def _parse_script_entry(entry) -> bool:
    if isinstance(entry, bool):
        return entry
    text = str(entry).strip().lower()
    if text in ("yes", "true", "1"):
        return True
    if text in ("no", "false", "0"):
        return False
    raise ConfigError(f"script entries must be yes/no, got {entry!r}")


def build_backends(config: AppConfig) -> Backends:
    chat = build_chat_backend(config.chat_spec)
    embedding = build_embedding_backend(config.embedding_spec)
    return Backends(chat=chat, embedding=embedding)
