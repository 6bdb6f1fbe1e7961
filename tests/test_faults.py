"""Seeded fault plans run through ``run_benchmark`` in both modes, at four
parallelism settings each: every run writes its report, completed items
keep the paper's laws (``rmoa.check``), aborted items end once, and a plan
gives the same results and transcripts at any parallelism."""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import product

import pytest

from rmoa.agents import SamplingParams
from rmoa.check import check_transcript
from rmoa.harness import BenchmarkItem, run_benchmark
from rmoa.prompts import load_prompt_set

from conftest import make_config, make_mock_bundle
from faults import CHAT_FAULTS, EMBEDDING_FAULTS, FaultPlan

LAYERS = PROPOSERS = 3
ITEMS = [
    BenchmarkItem(name, f"Which colour is the {name} marker?", "", "none")
    for name in ("amber", "birch")
]
QUESTIONS = (None, *(item.question for item in ITEMS))
# Faults that cost at most their item; the ones that escape the run have their own test.
CONTAINED_CHAT = tuple(fault for fault in CHAT_FAULTS if fault != "bug")
CONTAINED_EMBEDDING = tuple(f for f in EMBEDDING_FAULTS if f not in ("bug", "nan", "empty"))
KINDS = ("proposer", "proposer", "extractor", "aggregator", "embedding")


def draw_plan(rng: random.Random) -> dict:
    """Zero to three faults; one plan in five fails every proposer of a layer."""
    if rng.random() < 0.2:
        layer, question = rng.randint(1, LAYERS), rng.choice(QUESTIONS)
        return {
            ("proposer", layer, agent, question): rng.choice(CONTAINED_CHAT)
            for agent in range(PROPOSERS)
        }
    faults = {}
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(KINDS)
        agent = rng.randrange(PROPOSERS) if kind == "proposer" else 0
        key = (kind, rng.randint(1, LAYERS), agent, rng.choice(QUESTIONS))
        faults[key] = rng.choice(CONTAINED_EMBEDDING if kind == "embedding" else CONTAINED_CHAT)
    return faults


def check_item(item, result, out, faults) -> tuple[str, bytes]:
    """Check one item's files against the laws; return what happened to it
    and the bytes of its transcript."""
    data = (out / item.id / "transcript.json").read_bytes()
    transcript = json.loads(data)
    assert check_transcript(transcript) == [], transcript["events"]
    hit = [key for key in faults if key[3] in (None, item.question)]
    if transcript["stop_reason"] == "backend_abort":
        assert not (out / item.id / "layers.jsonl").exists()
        assert hit, f"{item.id} aborted with no fault planned for it"
        (abort,) = [event for event in transcript["events"] if event["kind"] == "aborted"]
        if abort["reason"] == "every proposer failed":
            return "every proposer failed", data
        return abort["stage"], data
    layers = len(transcript["layer_states"])
    dropped = {key[1:3] for key in hit if key[0] == "proposer" and key[1] <= layers}
    # the checker reads failures from the events: they must name the planned ones
    events = transcript["events"]
    failed = {(e["layer"], e["agent"]) for e in events if e["kind"] == "proposer_failed"}
    assert failed == dropped, transcript["events"]
    assert result.layers_used == layers
    return "dropped proposer" if dropped else "completed", data


def test_seeded_fault_plans_mean_the_same_at_any_parallelism(tmp_path):
    rng = random.Random(20161)
    prompts = load_prompt_set()  # loaded once, not by each of the 400 runs
    seen = Counter()
    for plan_number in range(50):
        faults = draw_plan(rng)
        snapshots, policy = rng.random() < 0.5, rng.choice(("none", "sim_threshold"))
        for mode in ("rmoa", "moa"):
            config = make_config(
                layers=LAYERS, proposers=PROPOSERS, k=2, mode=mode, policy=policy,
                capture_layer_answers=snapshots, sampling=SamplingParams(max_tokens=16),
            )
            runs = []
            for proposer_parallelism, item_parallelism in product((1, 3), (1, 2)):
                out = tmp_path / f"{plan_number}-{mode}-{proposer_parallelism}-{item_parallelism}"
                plan = FaultPlan(make_mock_bundle(embed_dim=16), faults, prompts.roles)
                report = run_benchmark(
                    ITEMS, config, plan, prompts=prompts, out_dir=out,
                    item_parallelism=item_parallelism,
                    proposer_parallelism=proposer_parallelism,
                )
                assert (out / "report.json").is_file()
                checked = [
                    check_item(item, result, out, faults)
                    for item, result in zip(ITEMS, report.items)
                ]
                seen.update(outcome for outcome, _ in checked)
                runs.append((report.items, [transcript for _, transcript in checked]))
            assert all(run == runs[0] for run in runs), (faults, mode)
    # every way an item can end came up, so a broken path cannot pass unseen
    assert set(seen) == {
        "completed", "dropped proposer", "every proposer failed",
        "layer", "snapshot", "final",
    }, seen


@pytest.mark.xfail(
    strict=True, raises=(ValueError, RuntimeError),
    reason="a NaN or empty embedding row, or a caller bug, escapes run_benchmark "
    "before the report is written",
)
@pytest.mark.parametrize(
    ("kind", "fault"), [("embedding", "nan"), ("embedding", "empty"), ("proposer", "bug")]
)
def test_escaping_fault_still_writes_the_report(tmp_path, kind, fault):
    config = make_config(layers=LAYERS, proposers=PROPOSERS, k=2)
    plan = FaultPlan(make_mock_bundle(embed_dim=16), {(kind, 2, 0, ITEMS[1].question): fault})
    run_benchmark(ITEMS, config, plan, out_dir=tmp_path, item_parallelism=2)
    assert (tmp_path / "report.json").is_file()


def test_string_component_from_an_in_process_backend_ends_one_item(tmp_path):
    items = [*ITEMS, BenchmarkItem("cedar", "Which colour is the cedar marker?", "", "none")]
    config = make_config(layers=LAYERS, proposers=PROPOSERS, k=2)
    # "x" as a component of the first row of the second item's first batch
    plan = FaultPlan(make_mock_bundle(embed_dim=16), {("embedding", 1, 0, items[1].question): "string"})
    report = run_benchmark(items, config, plan, out_dir=tmp_path, item_parallelism=2)
    assert (tmp_path / "report.json").is_file()
    assert [item.stop_reason for item in report.items] == ["max_layers", "backend_abort", "max_layers"]
    transcripts = [json.loads((tmp_path / item.id / "transcript.json").read_bytes()) for item in items]
    (abort,) = [event for event in transcripts[1]["events"] if event["kind"] == "aborted"]
    assert abort["reason"].startswith("vector 0: ")
    for transcript in transcripts[::2]:
        assert check_transcript(transcript) == []


def test_a_persona_shared_by_two_roles_is_refused():
    roles = load_prompt_set().roles
    with pytest.raises(ValueError, match="more than one agent"):
        FaultPlan(make_mock_bundle(), {}, roles=roles + roles[:1])
