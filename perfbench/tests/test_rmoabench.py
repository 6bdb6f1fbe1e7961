"""Tests of the benchmark itself: tiny smoke runs, its checks, and its inputs."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from rmoa.backends import Backends  # noqa: E402
from rmoa.errors import ProtocolError  # noqa: E402
from rmoabench import metrics  # noqa: E402
from rmoabench.fixtures import (  # noqa: E402
    DEPTH_PLAN,
    EMBED_DIM,
    LONG_ENTRIES,
    LONG_REPLY_WORDS,
    REPLY_WORDS,
    Fixture,
)
from rmoabench.runner import run  # noqa: E402
from rmoabench.workloads import (  # noqa: E402
    WORKLOADS,
    Bench,
    InprocChat,
    InprocEmbedding,
    Phase,
    check_outcome,
    load,
)


class DropProposerReply:
    """Chat backend that fails its ``drop_at``-th proposer call."""

    def __init__(self, inner, drop_at: int) -> None:
        self.inner = inner
        self.model = inner.model
        self.drop_at = drop_at
        self.proposer_calls = 0

    def chat(self, messages, **kwargs):
        if messages[0]["role"] == "system":
            self.proposer_calls += 1
            if self.proposer_calls == self.drop_at:
                raise ProtocolError("proposer reply dropped")
        return self.inner.chat(messages, **kwargs)


def _bench(tmp_path: Path, name: str, seed: int) -> Bench:
    workload = WORKLOADS[name]
    tmp_path.mkdir(parents=True, exist_ok=True)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workload.config_dict(None)))
    app, prompts = load(config_path)
    return Bench(workload, app, prompts, Fixture(seed), None, tmp_path)


def _one_item(bench: Bench, backends: Backends):
    phase = Phase()
    assert bench.run_pass(bench.items(bench.fixture, 0, 1), backends, phase)
    return phase.outcomes[0]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(tmp_path, name, trace):
    result = run(
        name, 5, 0.0, trace, tmp_path, setup_repeats=1, min_items=2, pass_items=2
    )
    assert result["correct"], (tmp_path / f"BENCH_{name}_seed5_trace{int(trace)}.json").read_text()
    assert result["failed"] == 0 and result["attempted"] >= 2
    units = metrics.PER_LAYER_UNITS if trace else metrics.END_TO_END_UNITS
    assert list(result["metrics"]) == list(units)
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
        return
    spans = [json.loads(line) for line in (tmp_path / f"spans_{name}_seed5.jsonl").open()]
    ids = {span["id"] for span in spans}
    per_item = [s for s in spans if s["name"] not in ("harness.run", "harness.report")]
    assert per_item and all(s["item"] and s["parent"] in ids for s in per_item)
    assert all(s["layer"] for s in per_item if s["name"] != "harness.item")
    connections = result["metrics"]["backends.connections_opened"]["value"]
    assert (connections > 0) == WORKLOADS[name].http


def test_dropped_proposer_reply_trips_call_count_check(tmp_path):
    bench = _bench(tmp_path, "inproc-rmoa-deep", 1)
    fixture = bench.fixture
    intact = _one_item(bench, Backends(InprocChat(fixture), InprocEmbedding(fixture)))
    assert check_outcome(bench.workload, intact) == []

    dropping = Backends(DropProposerReply(InprocChat(fixture), 3), InprocEmbedding(fixture))
    outcome = _one_item(bench, dropping)
    assert not outcome.failed
    problems = check_outcome(bench.workload, outcome)
    assert len(problems) == 1 and "call-count law" in problems[0]


class NanEmbedding(InprocEmbedding):
    """Embedding backend whose first row carries a NaN."""

    def embed(self, texts):
        batch = super().embed(texts)
        rows = ((float("nan"),) + batch.vectors[0][1:],) + batch.vectors[1:]
        return type(batch)(rows, batch.usage, batch.model)


def test_raising_run_counts_every_item_failed(tmp_path):
    bench = _bench(tmp_path, "inproc-rmoa-deep", 1)
    phase = Phase()
    backends = Backends(InprocChat(bench.fixture), NanEmbedding(bench.fixture))
    assert not bench.run_pass(bench.items(bench.fixture, 0, 2), backends, phase)
    assert len(phase.errors) == 1 and phase.errors[0].startswith("ValueError")
    assert len(phase.outcomes) == 2 and all(o.failed for o in phase.outcomes)
    values, _ = metrics.end_to_end(phase, [0.1], 2, 40.0)
    assert values["completed_item_share"] == 0.0


def test_seed_changes_inputs_but_not_shape(tmp_path):
    first, second = Fixture(1), Fixture(2)
    assert [first.item(i)[1] for i in range(4)] != [second.item(i)[1] for i in range(4)]
    assert first.replies != second.replies and first.vectors != second.vectors
    for fixture in (first, second):
        assert len(fixture.replies) == len(second.replies)
        lengths = [len(reply.split()) for reply in fixture.replies]
        assert REPLY_WORDS[0] <= min(lengths) and max(lengths) <= REPLY_WORDS[1]
        lengths = [len(reply.split()) for reply in fixture.long_replies]
        assert LONG_REPLY_WORDS[0] <= min(lengths) and max(lengths) <= LONG_REPLY_WORDS[1]
        size = len(DEPTH_PLAN)
        long_form = sorted(f"(difficulty {DEPTH_PLAN[e]}, long-form)" for e in LONG_ENTRIES)
        for block in range(3):
            questions = [fixture.item(block * size + slot)[1] for slot in range(size)]
            tags = sorted(q.split(": ")[0].split(" ", 2)[2] for q in questions if "long-form" in q)
            assert tags == long_form
        assert {len(vector) for vector in fixture.vectors} == {EMBED_DIM}

    outcomes = []
    for seed in (1, 2):
        bench = _bench(tmp_path / str(seed), "inproc-rmoa-deep", seed)
        fixture = bench.fixture
        outcomes.append(_one_item(bench, Backends(InprocChat(fixture), InprocEmbedding(fixture))))
    assert outcomes[0].answer != outcomes[1].answer
    assert outcomes[0].tokens != outcomes[1].tokens
    assert outcomes[0].calls == outcomes[1].calls
    assert outcomes[0].layers == outcomes[1].layers == 12


def test_tail_has_ten_samples_beyond_it():
    assert metrics.tail([float(i) for i in range(100)]) == (89.0, 90.0, 100)
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
