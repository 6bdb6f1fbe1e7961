"""Token usage records, the per-run usage ledger, and derived cost metrics.

Dollar cost uses exact decimal arithmetic; compute estimates use an integer
FLOP count divided once at the end, so both stay additive when ledgers are
concatenated.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal
from typing import Mapping, Sequence

from .errors import ConfigError

CALL_KINDS = ("proposer", "extractor", "aggregator", "embedding")

# Chat-style calls consume model forward passes; embedding calls are priced
# by token but excluded from the FLOP estimate.
CHAT_KINDS = ("proposer", "extractor", "aggregator")

DEFAULT_PRICE_PER_MILLION = Decimal("0.30")

_TOKENS_PER_MILLION = Decimal(1_000_000)
_CENTS = Decimal("0.01")
_FLOPS_PER_TFLOP = 1_000_000_000_000


@dataclass(frozen=True)
class TokenUsage:
    """Prompt and completion token counts for one backend call."""

    prompt_tokens: int
    completion_tokens: int

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class LedgerEntry:
    kind: str
    model: str
    usage: TokenUsage

    def __post_init__(self) -> None:
        if self.kind not in CALL_KINDS:
            raise ValueError(f"unknown call kind {self.kind!r}")


class UsageLedger:
    """Append-only record of per-call token usage for one run.

    ``run_pipeline`` appends every call's usage on the item's thread, the
    proposers' after the layer's barrier, in agent-index order. The lock
    serves a caller that shares one ledger across concurrent
    ``run_pipeline`` calls. Totals are recomputed from the entries on every
    read rather than cached.
    """

    def __init__(
        self,
        price_per_million_tokens: Decimal | str | int = DEFAULT_PRICE_PER_MILLION,
        params_per_model: Mapping[str, int] | None = None,
    ) -> None:
        price = Decimal(str(price_per_million_tokens))
        # NaN is checked first: ordering a NaN Decimal raises InvalidOperation.
        if not price.is_finite() or price < 0:
            raise ValueError("price per million tokens must be finite and nonnegative")
        self.price_per_million_tokens = price
        self.params_per_model = dict(params_per_model or {})
        for model, params in self.params_per_model.items():
            if params < 1:
                raise ValueError(f"parameter count of {model!r} must be at least 1, got {params}")
        self._entries: list[LedgerEntry] = []
        self._lock = threading.Lock()

    def append(self, kind: str, model: str, usage: TokenUsage) -> None:
        entry = LedgerEntry(kind, model, usage)
        with self._lock:
            self._entries.append(entry)

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        with self._lock:
            return tuple(self._entries)

    def count(self, kind: str) -> int:
        return sum(1 for e in self.entries if e.kind == kind)

    def total_tokens(self) -> int:
        return sum(e.usage.total for e in self.entries)

    def prompt_tokens(self) -> int:
        return sum(e.usage.prompt_tokens for e in self.entries)

    def completion_tokens(self) -> int:
        return sum(e.usage.completion_tokens for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {
                    "kind": e.kind,
                    "model": e.model,
                    "prompt_tokens": e.usage.prompt_tokens,
                    "completion_tokens": e.usage.completion_tokens,
                }
                for e in self.entries
            ],
            "price_per_million_tokens": str(self.price_per_million_tokens),
            "params_per_model": dict(sorted(self.params_per_model.items())),
            "totals": {
                "prompt_tokens": self.prompt_tokens(),
                "completion_tokens": self.completion_tokens(),
                "total_tokens": self.total_tokens(),
                "dollar_cost": str(format_dollars(dollar_cost(self))),
                "tflops": tflops_or_none(self),
            },
        }


def dollar_cost(ledger: UsageLedger) -> Decimal:
    """Exact dollar cost of every entry at the ledger's per-token price.

    Returns the unrounded decimal so concatenating ledgers is exactly
    additive; use :func:`format_dollars` when reporting.
    """
    total = sum(e.usage.total for e in ledger.entries)
    return Decimal(total) * ledger.price_per_million_tokens / _TOKENS_PER_MILLION


def format_dollars(amount: Decimal) -> Decimal:
    """Round to whole cents, ties to even, at any magnitude.

    The precision grows with the amount: the default 28 digits cannot hold
    the cents of a huge but finite cost.
    """
    context = Context(prec=max(28, amount.adjusted() + 3))
    return amount.quantize(_CENTS, rounding=ROUND_HALF_EVEN, context=context)


def tflops_estimate(ledger: UsageLedger) -> float:
    """Compute proxy: two FLOPs per parameter per processed token.

    Covers chat entries only; embedding calls are excluded. Every chat
    model must have a parameter count registered on the ledger.
    """
    flops = 0
    for entry in ledger.entries:
        if entry.kind not in CHAT_KINDS:
            continue
        params = ledger.params_per_model.get(entry.model)
        if params is None:
            raise ConfigError(
                f"no parameter count registered for model {entry.model!r}"
            )
        flops += 2 * params * entry.usage.total
    return flops / _FLOPS_PER_TFLOP


def tflops_or_none(ledger: UsageLedger) -> float | None:
    """:func:`tflops_estimate`, or None when a chat model has no parameter count."""
    try:
        return tflops_estimate(ledger)
    except ConfigError:
        return None


def hallucination_rate(prev: Sequence[bool], curr: Sequence[bool]) -> float | None:
    """Fraction of items correct in the earlier round that flipped wrong.

    ``prev`` and ``curr`` grade the same items, index-aligned. None when the
    earlier round has no correct item.
    """
    if len(prev) != len(curr):
        raise ValueError("rounds must grade the same number of items")
    previously_correct = [i for i, ok in enumerate(prev) if ok]
    if not previously_correct:
        return None
    flipped = sum(1 for i in previously_correct if not curr[i])
    return flipped / len(previously_correct)
