"""``rmoa check`` names every way a run directory can break the paper's laws:
real mock runs pass, and each hand-made breakage of their files is reported."""

from __future__ import annotations

import json

import pytest

from rmoa.check import check_run, check_transcript
from rmoa.cli import main
from rmoa.harness import BenchmarkItem, run_benchmark

from conftest import make_config, make_mock_bundle
from faults import FaultPlan

ITEMS = [
    BenchmarkItem(name, f"Which colour is the {name} marker?", "", "none")
    for name in ("amber", "birch")
]


def make_run(out, base: str):
    """A 3-layer, 3-proposer mock run of ``ITEMS``: under the ``none`` policy,
    under ``llm`` with a residual at every layer, or ``aborted`` in the final
    aggregation."""
    config = make_config(layers=3, proposers=3, k=2, policy="llm" if base == "llm" else "none")
    bundle = make_mock_bundle(behavior="residual_script", script=(True, True))
    if base == "aborted":
        bundle = FaultPlan(bundle, {("aggregator", 3): "unavailable"})
    run_benchmark(ITEMS, config, bundle, out_dir=out)
    return out


def drop_extractor(data):
    entries = data["ledger"]["entries"]
    del entries[[entry["kind"] for entry in entries].index("extractor")]


def add_abort_event(data):
    data["events"] += [event for event in data["events"] if event.startswith("aborted: ")]


def quiet_layer_two(data):
    data["layer_states"][1]["residual"] = {"kind": "no_residual", "text": ""}


BREAKAGES = {
    "extractor removed": ("none", drop_extractor, "where the law expects 'extractor'"),
    "last layer popped": (
        "none", lambda data: data["layer_states"].pop(),
        "stop reason 'max_layers' after 2 of 3 layers",
    ),
    "middle layer marked": (
        "none", lambda data: data["layer_states"][1].update(terminated_here=True),
        "layers [2] are marked terminated_here",
    ),
    "reply removed": (
        "none", lambda data: data["layer_states"][1]["responses"].pop(0),
        "layer 2 has replies from agents [1, 2], the events leave [0, 1, 2]",
    ),
    "two abort events": ("aborted", add_abort_event, "needs one 'aborted: <stage>: ' event"),
    "quiet llm window": ("llm", quiet_layer_two, "the llm rule with m=1 stops at [2]"),
}


@pytest.mark.parametrize("base", ["none", "llm", "aborted"])
def test_a_fresh_run_passes(tmp_path, capsys, base):
    out = make_run(tmp_path, base)
    assert check_run(out) == []
    assert main(["check", "--run-dir", str(out)]) == 0
    assert capsys.readouterr().out.startswith("check: no problems\n")


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


def test_a_missing_report_is_one_error_line(tmp_path, capsys):
    assert main(["check", "--run-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {tmp_path / 'report.json'} not found (run `rmoa run` first)"
    ]
    assert captured.out == ""
