"""JSON run-configuration loading.

One document covers the run shape, backend endpoints, pricing, model
parameter counts, and the prompt asset directory. Secrets never live in
the file: HTTP backends name the environment variable holding their token.
Each setting's type and default are declared only on the dataclass or
constructor it feeds; an omitted key keeps that default.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass
from decimal import Decimal
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .accounting import DEFAULT_PRICE_PER_MILLION
from .backends import Backends, HttpChatBackend, HttpEmbeddingBackend, RetryPolicy
from .errors import ConfigError
from .harness import DEFAULT_ITEM_PARALLELISM
from .mockbackend import MockChatBackend, MockEmbeddingBackend, MockRule
from .pipeline import RunConfig


@dataclass
class AppConfig:
    """Everything a CLI invocation needs, parsed and validated."""

    run: RunConfig
    chat_spec: dict
    embedding_spec: dict
    price_per_million_tokens: Decimal = DEFAULT_PRICE_PER_MILLION
    params_per_model: dict[str, int] = field(default_factory=dict)
    prompt_dir: Path | None = None
    item_parallelism: int = DEFAULT_ITEM_PARALLELISM
    proposer_parallelism: int | None = None


def _expect_mapping(value, name: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    return value


def _hints(target) -> dict:
    """Parameter name to declared type for the constructor of ``target``."""
    hints = get_type_hints(target.__init__)
    hints.pop("return", None)
    return hints


def _convert(value, kind, path: str):
    """``value`` from the file as ``kind``; ``path`` names its key in errors.

    Dataclass-typed values are nested sections; ``null`` means unset only
    for optional types and for object-valued keys.
    """
    if is_dataclass(kind):
        return _read_section(kind, _expect_mapping(value, path), path)
    if get_origin(kind) in (dict, Mapping):
        key_kind, value_kind = get_args(kind)
        return {
            _convert(key, key_kind, path): _convert(item, value_kind, f"{path}.{key}")
            for key, item in _expect_mapping(value, path).items()
        }
    if type(None) in get_args(kind):
        if value is None:
            return None
        (kind,) = (arg for arg in get_args(kind) if arg is not type(None))
    if value is None:
        raise ConfigError(f"{path}: must not be null")
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{path}: must be true or false, got {value!r}")
    try:
        # Decimal goes through str so 0.1 means 0.1, not the nearest double.
        return kind(str(value)) if kind is Decimal else kind(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}") from exc


def _settings(hints: dict, raw: dict, path: str, names) -> dict:
    """Each of ``names`` that ``raw`` sets, converted to its type in ``hints``.

    Names ``raw`` omits are left out, so the constructor's defaults apply.
    """
    return {
        name: _convert(raw[name], hints[name], f"{path}.{name}") for name in names if name in raw
    }


def _read(target, raw: dict, path: str, **given):
    """Call ``target`` with ``given`` plus every other parameter ``raw`` sets."""
    hints = _hints(target)
    names = [name for name in hints if name not in given]
    try:
        return target(**_settings(hints, raw, path, names), **given)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_section(cls, raw: dict, path: str):
    """``cls`` from a section in which every key must name one of its fields."""
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{', '.join(f'{path}.{key}' for key in unknown)}: unknown key")
    return _read(cls, raw, path)


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

    hints = _hints(AppConfig)
    backends = _expect_mapping(raw.get("backends"), "backends")
    pricing = _expect_mapping(raw.get("pricing"), "pricing")
    execution = _expect_mapping(raw.get("execution"), "execution")
    directory = _expect_mapping(raw.get("prompts"), "prompts").get("directory")
    params = raw.get("params_per_model")
    return AppConfig(
        run=_read_section(RunConfig, _expect_mapping(raw.get("run"), "run"), "run"),
        chat_spec=_expect_mapping(backends.get("chat"), "backends.chat"),
        embedding_spec=_expect_mapping(backends.get("embedding"), "backends.embedding"),
        params_per_model=_convert(params, hints["params_per_model"], "params_per_model"),
        # An empty directory string means unset, like null.
        prompt_dir=_convert(directory or None, hints["prompt_dir"], "prompts.directory"),
        **_settings(hints, pricing, "pricing", ["price_per_million_tokens"]),
        **_settings(hints, execution, "execution", ["item_parallelism", "proposer_parallelism"]),
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


def _http_backend(cls, spec: dict, name: str):
    """An HTTP client from the keys ``spec`` sets; its token comes from the environment."""
    path = f"backends.{name}"
    if "base_url" not in spec or "model" not in spec:
        raise ConfigError(f"http {name} backend needs base_url and model")
    retry = _read(RetryPolicy, spec, path)
    return _read(cls, spec, path, api_key=_api_key_from_env(spec, path), retry=retry)


def build_chat_backend(spec: dict):
    kind = str(spec.get("kind", "mock"))
    if kind == "mock":
        given = {"script": _parse_script(spec["script"])} if "script" in spec else {}
        rule = _read(MockRule, spec, "backends.chat", **given)
        return _read(MockChatBackend, spec, "backends.chat", rule=rule)
    if kind == "http":
        return _http_backend(HttpChatBackend, spec, "chat")
    raise ConfigError(f"unknown chat backend kind {kind!r}")


def build_embedding_backend(spec: dict):
    kind = str(spec.get("kind", "mock"))
    if kind == "mock":
        return _read(MockEmbeddingBackend, spec, "backends.embedding")
    if kind == "http":
        return _http_backend(HttpEmbeddingBackend, spec, "embedding")
    raise ConfigError(f"unknown embedding backend kind {kind!r}")


def _parse_script(entries) -> tuple[bool, ...]:
    if not isinstance(entries, list):
        raise ConfigError("backends.chat.script must be a list of yes/no entries")
    return tuple(_parse_script_entry(entry) for entry in entries)


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
