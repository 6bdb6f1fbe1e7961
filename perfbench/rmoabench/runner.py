"""One benchmark run: set-up, the timed phase or phases, checks and metrics."""

from __future__ import annotations

import contextlib
import json
import shutil
import tempfile
from pathlib import Path

from . import metrics
from .fixtures import Fixture
from .tracing import ItemTimer, Tracer
from .workloads import (
    COST_ITEMS,
    DIGEST_ITEMS,
    PASS_ITEMS,
    SETUP_REPEATS,
    WORKLOADS,
    Bench,
    Outcome,
    StubProcess,
    check_outcome,
    digest,
    load,
    measure_setup,
    peak_rss_mb,
)


def determinism_problems(bench: Bench, reference: list[Outcome]) -> list[str]:
    """Replay the leading items with this seed and with the next one."""
    count = min(DIGEST_ITEMS, len(reference))
    again = bench.replay(bench.fixture, count)
    other = bench.replay(Fixture(bench.fixture.seed + 1), count)
    problems = [p for o in again + other for p in check_outcome(bench.workload, o)]
    if digest(again) != digest(reference[:count]):
        problems.append("the same seed gave other answers or token counts on a second run")
    if digest(other) == digest(reference[:count]):
        problems.append("another seed gave the same answers and token counts")
    return problems


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    *,
    setup_repeats: int = SETUP_REPEATS,
    min_items: int = COST_ITEMS,
    pass_items: int = PASS_ITEMS,
) -> dict:
    """Run workload ``name`` and return the result object the benchmark prints.

    Untraced, the timed phase lasts ``seconds`` and at least ``min_items``
    items. Traced, an untraced phase and a traced phase of ``seconds / 2``
    each run the same items, so their throughput gives the trace overhead.
    Each phase starts with an untimed warm-up pass.
    Details and spans go to ``out_dir``.
    """
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=out_dir))
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, work_dir, True)
        stub = stack.enter_context(StubProcess(seed)) if workload.http else None
        config_path = work_dir / "config.json"
        config_path.write_text(json.dumps(workload.config_dict(stub.base_url if stub else None)))
        setup_s = measure_setup(config_path, setup_repeats)
        app, prompts = load(config_path)
        bench = Bench(workload, app, prompts, Fixture(seed), stub, work_dir, pass_items)
        if trace:
            plain = bench.phase(seconds / 2, 0, ItemTimer())
            tracer = Tracer(bench.item_ids)
            traced = bench.phase(seconds / 2, 0, tracer)
            phases = [plain, traced]
        else:
            phases = [bench.phase(seconds, min_items, ItemTimer())]
        rss_mb = peak_rss_mb()
        problems = [f"harness raised {error}" for phase in phases for error in phase.errors]
        problems += [
            p for phase in phases for o in phase.all_outcomes for p in check_outcome(workload, o)
        ]
        problems += determinism_problems(bench, phases[0].all_outcomes)

    details: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        values = metrics.per_layer(workload, tracer, traced, plain)
        units = metrics.PER_LAYER_UNITS
        spans_path = out_dir / f"spans_{name}_seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        details["spans"] = spans_path.name
        details["items_per_s"] = {"untraced": plain.items_per_s, "traced": traced.items_per_s}
    else:
        values, extra = metrics.end_to_end(phases[0], setup_s, min_items, rss_mb)
        units = metrics.END_TO_END_UNITS
        details.update(extra)
    outcomes = [o for phase in phases for o in phase.all_outcomes]
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    details.update(result=result, problems=problems[:50])
    report = out_dir / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    report.write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    return result
