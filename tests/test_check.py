"""``rmoa check`` names every way a run directory can break the paper's laws:
real mock runs pass, and each hand-made breakage of their files is reported."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from rmoa import pipeline
from rmoa.check import check_run, check_transcript
from rmoa.cli import main
from rmoa.harness import BenchmarkItem, run_benchmark
from rmoa.termination import TerminationConfig

from conftest import make_config, make_mock_bundle
from faults import FaultPlan

ITEMS = [
    BenchmarkItem(name, f"Which colour is the {name} marker?", "", "none")
    for name in ("amber", "birch")
]


def make_run(out, base: str, layers: int = 3):
    """A mock run of ``ITEMS``, 3 proposers per layer: under the ``none``
    policy, under ``llm`` with a residual at every layer, under
    ``sim_threshold`` (theta -0.99) or ``variance`` (sigma2 4), which stop at
    layer 2, or ``aborted`` in the final aggregation."""
    policy = "none" if base == "aborted" else base
    config = replace(
        make_config(layers=layers, proposers=3, k=2),
        termination=TerminationConfig(policy=policy, theta=-0.99, sigma2=4.0),
    )
    bundle = make_mock_bundle(behavior="residual_script", script=(True, True))
    if base == "aborted":
        bundle = FaultPlan(bundle, {("aggregator", 3): "unavailable"})
    run_benchmark(ITEMS, config, bundle, out_dir=out)
    return out


def first_transcript(out) -> dict:
    return json.loads((out / ITEMS[0].id / "transcript.json").read_bytes())


def drop_extractor(data):
    entries = data["ledger"]["entries"]
    del entries[[entry["kind"] for entry in entries].index("extractor")]


def add_abort_event(data):
    data["events"] += [event for event in data["events"] if event["kind"] == "aborted"]


def quiet_layer_two(data):
    data["layer_states"][1]["residual"] = {"kind": "no_residual", "text": ""}


def quiet_layer_two_and_its_verdict(data):
    quiet_layer_two(data)
    data["layer_states"][1]["converged"] = True


BREAKAGES = {
    "extractor removed": ("none", drop_extractor, "where the law expects 'extractor'"),
    "last layer popped": (
        "none", lambda data: data["layer_states"].pop(),
        "stop reason 'max_layers' after 2 of 3 layers",
    ),
    "middle layer converged": (
        "none", lambda data: data["layer_states"][1].update(converged=True),
        "layer 2 has converged=True, the law allows [False]",
    ),
    "first layer converged": (
        "sim_threshold", lambda data: data["layer_states"][0].update(converged=False),
        "layer 1 has converged=False, the law allows [None]",
    ),
    "reply removed": (
        "none", lambda data: data["layer_states"][1]["responses"].pop(0),
        "layer 2 has replies from agents [1, 2], the events leave [0, 1, 2]",
    ),
    "two abort events": ("aborted", add_abort_event, "needs one 'aborted' event with a stage"),
    "quiet llm window": (
        "llm", quiet_layer_two, "layer 2 has converged=False, the law allows [True]"
    ),
    "quiet llm window and verdict": (
        "llm", quiet_layer_two_and_its_verdict,
        "the window rule with m=1 stops at [2], the item ran 3 layers",
    ),
}


@pytest.mark.parametrize("base", ["none", "llm", "sim_threshold", "variance", "aborted"])
def test_a_fresh_run_passes(tmp_path, capsys, base):
    out = make_run(tmp_path, base)
    layers = len(first_transcript(out)["layer_states"])
    assert layers == (2 if base in ("sim_threshold", "variance") else 3)
    assert check_run(out) == []
    assert main(["check", "--run-dir", str(out)]) == 0
    assert capsys.readouterr().out == "check: no problems\n"


def test_a_stop_one_layer_late_is_named(tmp_path, monkeypatch, capsys):
    # a stop check that sees every verdict but the newest fires one layer late
    plain = first_transcript(make_run(tmp_path / "plain", "sim_threshold", layers=4))
    assert (len(plain["layer_states"]), plain["stop_reason"]) == (2, "adaptive_stop")
    stop = pipeline.adaptive_should_stop
    monkeypatch.setattr(pipeline, "adaptive_should_stop", lambda h, m: stop(h[:-1], m))
    out = make_run(tmp_path / "late", "sim_threshold", layers=4)
    late = first_transcript(out)
    assert (len(late["layer_states"]), late["stop_reason"]) == (3, "adaptive_stop")
    assert check_run(out) == [
        f"{item.id}: the window rule with m=1 stops at [2], the item ran 3 layers"
        for item in ITEMS
    ]
    assert main(["check", "--run-dir", str(out)]) == 1
    assert capsys.readouterr().out.endswith("check: 2 problems\n")


@pytest.mark.parametrize("base, breakage, problem", BREAKAGES.values(), ids=BREAKAGES)
def test_each_breakage_is_named(tmp_path, capsys, base, breakage, problem):
    out = make_run(tmp_path, base)
    path = out / "amber" / "transcript.json"
    data = json.loads(path.read_bytes())
    breakage(data)
    path.write_text(json.dumps(data), encoding="utf-8")
    assert any(problem in found for found in check_transcript(data)), check_transcript(data)
    assert main(["check", "--run-dir", str(out)]) == 1
    assert problem in capsys.readouterr().out
    assert not [line for line in check_run(out) if line.startswith("birch: ")]


def test_report_disagreeing_on_the_stop_reason_is_named(tmp_path, capsys):
    out = make_run(tmp_path, "none")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report["items"][1]["stop_reason"] = "adaptive_stop"
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    assert check_run(out) == [
        "birch: report.json says 'adaptive_stop', transcript.json 'max_layers'"
    ]
    assert main(["check", "--run-dir", str(out)]) == 1


def test_an_item_without_its_transcript_is_named(tmp_path):
    out = make_run(tmp_path, "none")
    (out / "birch" / "transcript.json").unlink()
    assert check_run(out) == [f"birch: no {out / 'birch' / 'transcript.json'}"]
    assert main(["check", "--run-dir", str(out)]) == 1


@pytest.mark.parametrize(("base", "error"), [("none", "KeyError"), ("aborted", "TypeError")])
def test_a_run_in_the_old_format_is_one_error_line(tmp_path, capsys, base, error):
    # text events and no verdict per layer, as runs wrote them before events
    # were records and each layer kept its verdict
    out = make_run(tmp_path, base)
    for item in ITEMS:
        path = out / item.id / "transcript.json"
        data = json.loads(path.read_bytes())
        data["events"] = [f"aborted: final aggregation: {e['reason']}" for e in data["events"]]
        for state in data["layer_states"]:
            del state["converged"]
        path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", "--run-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {out} holds a file the checker cannot read: {error}: ")


def test_a_missing_report_is_one_error_line(tmp_path, capsys):
    assert main(["check", "--run-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {tmp_path / 'report.json'} not found (run `rmoa run` first)"
    ]
    assert captured.out == ""
