"""End-to-end metrics of an untraced phase and per-layer metrics of a traced one."""

from __future__ import annotations

from collections import defaultdict
from statistics import fmean, median
from typing import Sequence

from rmoa.pipeline import STOP_ADAPTIVE

from .tracing import Span, Tracer
from .workloads import Outcome, Phase, Workload

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MB",
    "tokens_per_item": "tokens",
    "calls_per_item": "calls",
    "completed_item_share": "ratio",
}

PER_LAYER_UNITS = {
    "backends.chat_calls_per_item": "count",
    "backends.embed_calls_per_item": "count",
    "backends.chat_ms_p50": "ms",
    "backends.chat_ms_tail": "ms",
    "backends.embed_ms_p50": "ms",
    "backends.wait_ms_per_item": "ms",
    "backends.connections_opened": "count",
    "backends.pool_discards": "count",
    "backends.retries": "count",
    "agents.self_us_per_call": "us",
    "agents.proposer_prompt_tokens_p50": "tokens",
    "agents.prompt_growth": "ratio",
    "embedding.embed_batch_self_ms_per_layer": "ms",
    "embedding.similarity_ms_per_layer": "ms",
    "selection.select_us_per_layer": "us",
    "termination.converged_us_per_layer": "us",
    "termination.layers_per_item": "count",
    "termination.early_stop_share": "ratio",
    "accounting.ledger_json_ms_per_item": "ms",
    "pipeline.self_ms_per_item": "ms",
    "pipeline.propose_stage_ms_p50": "ms",
    "pipeline.propose_straggler_ms_p50": "ms",
    "pipeline.persist_ms_per_item": "ms",
    "pipeline.persist_bytes_per_item": "bytes",
    "pipeline.persist_amplification": "ratio",
    "harness.worker_busy_share": "ratio",
    "harness.report_ms": "ms",
    "trace.overhead_share": "ratio",
}

_BACKEND_SPANS = ("backends.chat", "backends.embed")
_AGENT_SPANS = ("agents.propose", "agents.extract", "agents.aggregate")


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` at the highest percentile with ten samples beyond it.

    With ten samples or fewer there is no such percentile; the maximum is
    returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _median(values: Sequence[float]) -> float:
    return median(values) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return fmean(values) if values else 0.0


def end_to_end(
    phase: Phase, setup_s: Sequence[float], cost_items: int, rss_mb: float
) -> tuple[dict[str, float], dict]:
    """The untraced metrics, and the tail's percentile and sample count.

    Timings come from the timed passes; the cost counts and the completed
    share also include the warm-up pass.
    """
    walls_ms = [o.wall_s * 1e3 for o in phase.outcomes if not o.failed and o.wall_s is not None]
    tail_ms, percentile, samples = tail(walls_ms)
    outcomes = phase.all_outcomes
    cost = outcomes[:cost_items]
    metrics = {
        "setup_s": _median(setup_s),
        "items_per_s": phase.items_per_s,
        "item_p50_ms": _median(walls_ms),
        "item_tail_ms": tail_ms,
        "cpu_ms_per_item": phase.cpu_s_per_item * 1e3,
        "peak_rss_mb": rss_mb,
        "tokens_per_item": sum(o.tokens for o in cost) / len(cost),
        "calls_per_item": sum(sum(o.calls.values()) for o in cost) / len(cost),
        "completed_item_share": sum(not o.failed for o in outcomes) / len(outcomes),
    }
    details = {
        "item_tail_ms": {"percentile": percentile, "samples": samples},
        "cost_items": len(cost),
        "setup_s_samples": list(setup_s),
        "passes": [
            {"items": items, "wall_s": wall, "cpu_s": cpu} for items, wall, cpu in phase.passes
        ],
    }
    return metrics, details


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def per_layer(workload: Workload, tracer: Tracer, traced: Phase, plain: Phase) -> dict[str, float]:
    """Per-layer metrics of the traced phase; ``plain`` is its untraced twin."""
    outcomes: list[Outcome] = traced.outcomes
    n = len(outcomes)
    layers = sum(o.layers for o in outcomes) or 1
    spans: dict[str, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        spans[span.name].append(span)

    backend_ns: dict[int, int] = defaultdict(int)
    intervals: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name in _BACKEND_SPANS:
        for span in spans[name]:
            backend_ns[span.parent] += span.ns
            intervals[span.item].append((span.start, span.end))
    wait_ns = {item: _union_ns(spans_) for item, spans_ in intervals.items()}

    def self_ns(span: Span) -> int:
        return span.ns - backend_ns[span.id]

    def total_ns(name: str) -> int:
        return sum(span.ns for span in spans[name])

    proposals: dict[tuple[int, int], list[Span]] = defaultdict(list)
    for span in spans["agents.propose"]:
        proposals[span.item, span.layer].append(span)
    stages, stragglers = [], []
    for group in proposals.values():
        stage = max(s.end for s in group) - min(s.start for s in group)
        stages.append(stage / 1e6)
        stragglers.append((stage - median(s.ns for s in group)) / 1e6)

    growth = []
    by_item: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    for (item, layer), group in proposals.items():
        by_item[item][layer].extend(s.value for s in group if s.value is not None)
    for per_layer_tokens in by_item.values():
        if 2 in per_layer_tokens:
            last = per_layer_tokens[max(per_layer_tokens)]
            growth.append(fmean(last) / fmean(per_layer_tokens[2]))

    flushes: dict[int, list[Span]] = defaultdict(list)
    for span in spans["pipeline.flush"]:
        flushes[span.item].append(span)
    written = [sum(s.value for s in group) for group in flushes.values()]
    amplification = [
        sum(s.value for s in group) / max(group, key=lambda s: s.end).value
        for group in flushes.values()
    ]

    chat_ms = [s.ns / 1e6 for s in spans["backends.chat"]]
    items = spans["harness.item"]
    ledger_calls = sum(sum(o.calls.values()) for o in outcomes)
    stub = traced.stub or {}
    return {
        "backends.chat_calls_per_item": len(chat_ms) / n,
        "backends.embed_calls_per_item": len(spans["backends.embed"]) / n,
        "backends.chat_ms_p50": _median(chat_ms),
        "backends.chat_ms_tail": tail(chat_ms)[0],
        "backends.embed_ms_p50": _median([s.ns / 1e6 for s in spans["backends.embed"]]),
        "backends.wait_ms_per_item": sum(wait_ns.values()) / 1e6 / n,
        "backends.connections_opened": stub.get("connections", 0),
        "backends.pool_discards": traced.discards,
        "backends.retries": stub["requests"] - ledger_calls if stub else 0,
        "agents.self_us_per_call": _mean(
            [self_ns(s) / 1e3 for name in _AGENT_SPANS for s in spans[name]]
        ),
        "agents.proposer_prompt_tokens_p50": _median(
            [s.value for s in spans["agents.propose"] if s.value is not None]
        ),
        "agents.prompt_growth": _mean(growth),
        "embedding.embed_batch_self_ms_per_layer": sum(
            self_ns(s) for s in spans["embedding.embed_batch"]
        ) / 1e6 / layers,
        "embedding.similarity_ms_per_layer": total_ns("embedding.similarity") / 1e6 / layers,
        "selection.select_us_per_layer": total_ns("selection.select") / 1e3 / layers,
        "termination.converged_us_per_layer": total_ns("termination.converged") / 1e3 / layers,
        "termination.layers_per_item": layers / n,
        "termination.early_stop_share": sum(o.stop_reason == STOP_ADAPTIVE for o in outcomes) / n,
        "accounting.ledger_json_ms_per_item": total_ns("accounting.ledger_json") / 1e6 / n,
        "pipeline.self_ms_per_item": _mean(
            [(s.ns - wait_ns.get(s.item, 0)) / 1e6 for s in items]
        ),
        "pipeline.propose_stage_ms_p50": _median(stages),
        "pipeline.propose_straggler_ms_p50": _median(stragglers),
        "pipeline.persist_ms_per_item": total_ns("pipeline.flush") / 1e6 / n,
        "pipeline.persist_bytes_per_item": sum(written) / n,
        "pipeline.persist_amplification": _mean(amplification),
        "harness.worker_busy_share": sum(s.ns for s in items) / 1e9
        / (traced.wall_s * workload.item_parallelism),
        "harness.report_ms": _mean([s.ns / 1e6 for s in spans["harness.report"]]),
        "trace.overhead_share": 1.0 - traced.items_per_s / plain.items_per_s,
    }
