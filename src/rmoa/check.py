"""The paper's two laws, checked on the files a run leaves behind.

The call-count law: each layer makes one call per live proposer, then in
``rmoa`` mode one embedding call and, from layer 2 on, one extractor call;
with ``capture_layer_answers`` each layer then makes its snapshot
aggregator call, and otherwise one aggregator call ends the item.

The early-stop law: an item that completes stops early (``adaptive_stop``)
exactly when fewer than the configured layers ran, and only the layer it
stopped at is marked ``terminated_here``. Under the ``llm`` policy that is
the first layer, before the last, whose last ``m`` residuals (from layer 2
on) say "no residual"; under ``none``, and in ``moa`` mode, no item stops
early. The ``sim_threshold`` and ``variance`` policies decide on cosines,
which are not persisted, so their stop layer is not rechecked.

Everything is read from ``transcript.json`` alone, so the checker serves a
run made with real backends as well as one made with mocks.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .harness import slugify
from .pipeline import STOP_ADAPTIVE, STOP_BACKEND_ABORT, STOP_MAX_LAYERS

ABORT_EVENT = re.compile(r"aborted: (?:layer (\d+)( snapshot)?|final aggregation): ")
FAILED_PROPOSER = re.compile(r"layer (\d+) proposer (\d+) failed: ")

UNCHECKED_NOTE = (
    "the sim_threshold and variance policies stop on cosines, which are not "
    "persisted: their stop layer is not rechecked"
)


def _layer_calls(layer: int, proposers: int, refine: bool) -> list[str]:
    """The calls of one layer up to its snapshot, in ledger order."""
    return ["proposer"] * proposers + (
        ["embedding"] + ["extractor"] * (layer > 1) if refine else []
    )


def check_transcript(data: dict) -> list[str]:
    """Every law the parsed ``transcript.json`` ``data`` breaks; empty if none."""
    config = data["config"]
    depth = config["layers"]
    refine = config["mode"] == "rmoa"
    states = data["layer_states"]
    stop = data["stop_reason"]
    ran = len(states)
    problems = []

    failed: dict[int, set[int]] = {}
    for event in data["events"]:
        if match := FAILED_PROPOSER.match(event):
            failed.setdefault(int(match[1]), set()).add(int(match[2]))

    def live(layer: int) -> list[int]:
        return [i for i in range(config["proposers_per_layer"]) if i not in failed.get(layer, ())]

    expected: list[str] = []
    for number, state in enumerate(states, start=1):
        agents = [response["agent_index"] for response in state["responses"]]
        if state["layer"] != number:
            problems.append(f"layer {number} is stored as layer {state['layer']}")
        if agents != live(number):
            problems.append(
                f"layer {number} has replies from agents {agents}, the events leave {live(number)}"
            )
        expected += _layer_calls(number, len(agents), refine)
        expected += ["aggregator"] * config["capture_layer_answers"]

    # An aborted item ends at one stage: "layer" (a call of layer ran + 1),
    # "snapshot" (the last layer's snapshot) or "final" (the final aggregation).
    kinds = [entry["kind"] for entry in data["ledger"]["entries"]]
    aborts = [event for event in data["events"] if event.startswith("aborted: ")]
    stage = None
    if stop != STOP_BACKEND_ABORT:
        if aborts:
            problems.append(f"a {stop!r} item has abort events {aborts}")
        if not config["capture_layer_answers"]:
            expected.append("aggregator")
    elif len(aborts) != 1 or not (match := ABORT_EVENT.match(aborts[0])):
        problems.append(f"an aborted item needs one 'aborted: <stage>: ' event, has {aborts}")
    else:
        stage = "snapshot" if match[2] else "layer" if match[1] else "final"
        if stage != "final" and int(match[1]) != ran + (stage == "layer"):
            problems.append(f"{aborts[0]!r} after {ran} layers")
        if stage == "snapshot":
            del expected[-1:]
        elif stage == "layer":
            tail = kinds[len(expected):]
            if tail == _layer_calls(ran + 1, len(live(ran + 1)), refine)[:len(tail)]:
                expected += tail
    if kinds != expected:
        pairs = enumerate(zip(kinds, expected))
        at = next((i for i, (got, want) in pairs if got != want), min(len(kinds), len(expected)))
        problems.append(
            f"ledger call {at + 1} is {(kinds + ['nothing'])[at]!r} where the law expects "
            f"{(expected + ['nothing'])[at]!r} ({len(kinds)} calls, the law gives {len(expected)})"
        )

    if stop in (STOP_ADAPTIVE, STOP_MAX_LAYERS):
        if stop != (STOP_ADAPTIVE if ran < depth else STOP_MAX_LAYERS):
            problems.append(f"stop reason {stop!r} after {ran} of {depth} layers")
    elif stop != STOP_BACKEND_ABORT:
        problems.append(f"unknown stop reason {stop!r}")
    # Only the last layer may be marked, and only where the item may have stopped there.
    marked = [state["layer"] for state in states if state["terminated_here"]]
    may_stop = ran < depth and (stop == STOP_ADAPTIVE or stage in ("snapshot", "final"))
    shapes = ([[ran]] if stop == STOP_ADAPTIVE else [[], [ran]]) if may_stop else [[]]
    if marked not in shapes:
        problems.append(f"layers {marked} are marked terminated_here after {ran} layers")
    policy = config["termination"]["policy"] if refine else "none"
    if policy == "none" and marked:
        problems.append(f"layers {marked} are marked terminated_here, but nothing stops early")
    elif policy == "llm":
        m = config["termination"]["m"]
        quiet = [state["residual"]["kind"] == "no_residual" for state in states]
        rule = [n for n in range(m + 1, min(ran, depth - 1) + 1) if all(quiet[n - m:n])][:1]
        if marked != rule:
            problems.append(f"the llm rule with m={m} stops at {rule}, the item at {marked}")
    return problems


def check_run(run_dir: str | Path) -> list[str]:
    """Every law an item of the run in ``run_dir`` breaks, each prefixed with
    the item's id, and every disagreement between ``report.json`` and the
    item files."""
    run_dir = Path(run_dir)
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    problems = []
    for item in report["items"]:
        path = run_dir / slugify(item["id"]) / "transcript.json"
        if not path.is_file():
            problems.append(f"{item['id']}: no {path}")
            continue
        data = json.loads(path.read_bytes())
        found = check_transcript(data)
        if data["stop_reason"] != item["stop_reason"]:
            found.append(
                f"report.json says {item['stop_reason']!r}, transcript.json {data['stop_reason']!r}"
            )
        problems += [f"{item['id']}: {problem}" for problem in found]
    return problems
