"""The paper's two laws, checked on the files a run leaves behind.

The call-count law: each layer makes one call per live proposer, then in
``rmoa`` mode one embedding call and, from layer 2 on, one extractor call;
with ``capture_layer_answers`` each layer then makes its snapshot
aggregator call, and otherwise one aggregator call ends the item.

The early-stop law, one window rule for every policy: an item stops at the
first layer, before the last, whose last ``m`` stored verdicts (``converged``)
are all true, and a completed item stops early (``adaptive_stop``) exactly
there. A verdict is null at layer 1 and in ``moa`` mode, false under ``none``,
and under ``llm`` says the layer's residual is ``no_residual``.

Everything is read from ``transcript.json`` alone, so the checker serves a
run made with real backends as well as one made with mocks.
"""

from __future__ import annotations

import json
from pathlib import Path

from .harness import slugify
from .pipeline import STOP_ADAPTIVE, STOP_BACKEND_ABORT, STOP_MAX_LAYERS


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
    policy, m = config["termination"]["policy"], config["termination"]["m"]
    states = data["layer_states"]
    stop = data["stop_reason"]
    ran = len(states)
    problems = []

    failed: dict[int, set[int]] = {}
    for event in data["events"]:
        if event["kind"] == "proposer_failed":
            failed.setdefault(event["layer"], set()).add(event["agent"])

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
        verdict = state["converged"]
        allowed = [None] if number == 1 or not refine else {
            "llm": [state["residual"]["kind"] == "no_residual"], "none": [False],
        }.get(policy, [False, True])
        if not any(verdict is value for value in allowed):  # so 0 and 1 are no verdicts
            problems.append(f"layer {number} has converged={verdict!r}, the law allows {allowed}")

    # An aborted item ends in a call of layer ran + 1, its last snapshot or the final aggregation.
    kinds = [entry["kind"] for entry in data["ledger"]["entries"]]
    aborts = [event for event in data["events"] if event["kind"] == "aborted"]
    stage = aborts[0]["stage"] if stop == STOP_BACKEND_ABORT and len(aborts) == 1 else None
    if stop != STOP_BACKEND_ABORT:
        if aborts:
            problems.append(f"a {stop!r} item has abort events {aborts}")
        if not config["capture_layer_answers"]:
            expected.append("aggregator")
    elif stage not in ("layer", "snapshot", "final"):
        problems.append(f"an aborted item needs one 'aborted' event with a stage, has {aborts}")
    else:
        if aborts[0]["layer"] != ran + (stage == "layer"):
            problems.append(f"a {stage!r} abort at layer {aborts[0]['layer']} after {ran} layers")
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
    # One window rule for every policy. An item that reached its final aggregation
    # early stopped at its last layer; one whose last snapshot failed may have.
    quiet = [state["converged"] is True for state in states]
    rule = [n for n in range(m + 1, min(ran, depth - 1) + 1) if all(quiet[n - m:n])][:1]
    stopped = ran < depth and (stop == STOP_ADAPTIVE or stage == "final")
    shapes = [[ran]] if stopped else [[], [ran]] if stage == "snapshot" else [[]]
    if rule not in shapes:
        problems.append(f"the window rule with m={m} stops at {rule}, the item ran {ran} layers")
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
