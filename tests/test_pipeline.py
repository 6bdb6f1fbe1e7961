"""Pipeline engine behavior under deterministic mocks."""

from __future__ import annotations

import builtins
import gc
import hashlib
import itertools
import json
import os
import pathlib
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from rmoa import pipeline
from rmoa.accounting import TokenUsage
from rmoa.agents import NO_RESIDUAL, Residual, Response, render_numbered_responses
from rmoa.backends import Backends
from rmoa.check import check_transcript
from rmoa.errors import ConfigError
from rmoa.mockbackend import MockChatBackend, MockEmbeddingBackend, MockRule
from rmoa.pipeline import (
    RunConfig,
    _transcript_pieces,
    build_reference_context,
    event_record,
    ordered_map,
    run_pipeline,
)
from rmoa.prompts import load_prompt_set
from rmoa.termination import TerminationConfig

from conftest import ThreadRecordingChat, make_config, make_mock_bundle
from faults import FaultPlan
from oracles import transcript_dict


def response(text: str) -> Response:
    return Response(text, 1, 0, "role", TokenUsage(1, 1))


def proposer_prompts_by_layer(call_log, config) -> list[list[str]]:
    """The prompts of a run's proposer calls, one list per layer.

    A proposer prompt is the only kind that starts with a role persona.
    Every proposer call of the run must have reached the log.
    """
    personas = tuple(f"{role.render()}\n" for role in load_prompt_set(config.benchmark).roles)
    prompts = [entry["prompt"] for entry in call_log if entry["prompt"].startswith(personas)]
    count = config.proposers_per_layer
    return [prompts[i:i + count] for i in range(0, len(prompts), count)]


def sent_reference(prompt: str, task: str) -> str:
    """The reference block of a refinement prompt, whose task is ``task``."""
    _, marker, rest = prompt.partition("\nReferences:\n")
    assert marker and rest.endswith(f"\n\n{task}")
    return rest.removesuffix(f"\n\n{task}")


class TestBuildReferenceContext:
    def test_single_reference_no_residual(self):
        context = build_reference_context([response("only answer")], NO_RESIDUAL)
        assert "Response 1:\nonly answer" in context
        assert context.endswith("Residual:\n(none)")

    def test_three_references_with_residual(self):
        context = build_reference_context(
            [response("a"), response("b"), response("c")], Residual.found("d")
        )
        for marker in ("Response 1:", "Response 2:", "Response 3:"):
            assert marker in context
        assert context.endswith("Residual:\nd")

    def test_pure(self):
        args = ([response("a")], Residual.found("d"))
        assert build_reference_context(*args) == build_reference_context(*args)

    def test_empty_references_rejected(self):
        with pytest.raises(ValueError):
            build_reference_context([], NO_RESIDUAL)


class TestRunRmoa:
    def test_single_layer_run(self):
        config = make_config(layers=1, proposers=3, k=2)
        transcript = run_pipeline("What is up?", config, make_mock_bundle())
        assert transcript.stop_reason == "max_layers"
        assert len(transcript.layer_states) == 1
        assert transcript.ledger.count("extractor") == 0
        assert transcript.ledger.count("aggregator") == 1
        state = transcript.layer_states[0]
        assert state.residual == NO_RESIDUAL
        # degenerate depth: aggregation references this layer's own selection
        assert transcript.final_response is not None

    def test_transcripts_bit_reproducible(self):
        config = make_config(layers=4, proposers=6, k=3, policy="none")
        payloads = [
            run_pipeline("Same every time?", config, make_mock_bundle()).to_json_bytes()
            for _ in range(2)
        ]
        assert payloads[0] == payloads[1]

    def test_parallelism_does_not_change_transcripts(self):
        config = make_config(layers=3, proposers=5, k=2, policy="none")
        serial = run_pipeline("Parallel?", config, make_mock_bundle())
        with ThreadPoolExecutor(5) as pool:
            threaded = run_pipeline("Parallel?", config, make_mock_bundle(), executor=pool)
        assert serial.to_json_bytes() == threaded.to_json_bytes()

    def test_layers_are_monotone_and_selections_valid(self):
        config = make_config(layers=4, proposers=6, k=3, policy="none")
        bundle = make_mock_bundle()
        transcript = run_pipeline("Validate shape.", config, bundle)
        for position, state in enumerate(transcript.layer_states, start=1):
            assert state.layer == position
            assert len(state.selected.selected_indices) == 3
            assert all(
                0 <= i < len(state.responses) for i in state.selected.selected_indices
            )
        # each layer's reference, as the next layer's proposers received it
        later_layers = proposer_prompts_by_layer(bundle.chat.call_log, config)[1:]
        assert len(later_layers) == 3
        for prompts in later_layers:
            assert all(sent_reference(prompt, "Validate shape.") for prompt in prompts)

    def test_layer_one_proposers_get_no_references(self):
        config = make_config(layers=2, proposers=3, k=2, policy="none")
        bundle = make_mock_bundle()
        run_pipeline("Check reference flow.", config, bundle)
        log = bundle.chat.call_log
        layer_one_prompts = [entry["prompt"] for entry in log[:3]]
        layer_two_prompts = [entry["prompt"] for entry in log[3:6]]
        assert all("References:" not in p for p in layer_one_prompts)
        assert all("References:" in p for p in layer_two_prompts)
        assert all("Residual:" in p for p in layer_two_prompts)

    def test_early_stop_skips_later_layers(self):
        config = make_config(layers=4, proposers=6, k=3, policy="llm", m=1)
        bundle = make_mock_bundle(behavior="residual_script", script=(False, False, False))
        transcript = run_pipeline("Stop early.", config, bundle)
        assert transcript.stop_reason == "adaptive_stop"
        assert [s.layer for s in transcript.layer_states] == [1, 2]
        assert [s.converged for s in transcript.layer_states] == [None, True]
        assert transcript.ledger.count("proposer") == 12
        assert transcript.ledger.count("extractor") == 1
        assert transcript.ledger.count("aggregator") == 1

    def test_policy_none_never_stops_early(self):
        config = make_config(layers=4, proposers=6, k=3, policy="none", m=1)
        bundle = make_mock_bundle(behavior="residual_script", script=(False, False, False))
        transcript = run_pipeline("Never stop.", config, bundle)
        assert transcript.stop_reason == "max_layers"
        assert [s.layer for s in transcript.layer_states] == [1, 2, 3, 4]
        # the residuals say "no residual", but the none policy never converges
        assert [s.converged for s in transcript.layer_states] == [None, False, False, False]
        assert transcript.ledger.count("extractor") == 3

    def test_m2_needs_two_quiet_layers(self):
        config = make_config(layers=5, proposers=4, k=2, policy="llm", m=2)
        bundle = make_mock_bundle(
            behavior="residual_script", script=(True, False, False)
        )
        transcript = run_pipeline("Stop later.", config, bundle)
        # verdicts per layer: 2 -> residual, 3 -> quiet, 4 -> quiet: the
        # m=2 window fires after layer 4
        assert [s.layer for s in transcript.layer_states] == [1, 2, 3, 4]
        assert transcript.stop_reason == "adaptive_stop"
        assert transcript.ledger.count("extractor") == 3

    def test_window_firing_at_depth_limit_reads_as_max_layers(self):
        config = make_config(layers=2, proposers=4, k=2, policy="llm", m=1)
        bundle = make_mock_bundle(behavior="residual_script", script=(False,))
        transcript = run_pipeline("Quiet at the end.", config, bundle)
        # nothing was skipped, so the run records the depth limit
        assert transcript.stop_reason == "max_layers"
        assert len(transcript.layer_states) == 2
        assert [s.converged for s in transcript.layer_states] == [None, True]

    @pytest.mark.parametrize(
        "length, m", [(n, m) for n in range(6) for m in (1, 2, 3) if m <= n + 1]
    )
    def test_every_verdict_script_stops_where_the_rule_says(self, length, m):
        # layers 2.. get one verdict each (True: residual, so not converged);
        # rmoa.check holds the stop rule and the call-count law
        layers = length + 1
        config = make_config(layers=layers, proposers=2, k=1, policy="llm", m=m)
        for script in itertools.product((False, True), repeat=length):
            bundle = make_mock_bundle(behavior="residual_script", script=script)
            transcript = run_pipeline("Follow the script.", config, bundle)
            assert check_transcript(json.loads(transcript.to_json_bytes())) == [], script
            # the checker reads the verdicts from the residuals: they must follow the script
            later = transcript.layer_states[1:]
            assert [s.residual.detected for s in later] == list(script[:len(later)]), script

    def test_quantitative_policy_stops_without_residual_signal(self):
        config = RunConfig(
            layers=4,
            proposers_per_layer=4,
            select_k=2,
            termination=TerminationConfig(policy="sim_threshold", theta=-0.9, m=1),
        )
        transcript = run_pipeline("Converge fast.", config, make_mock_bundle())
        assert transcript.stop_reason == "adaptive_stop"
        assert len(transcript.layer_states) == 2

    def test_failed_proposer_is_dropped(self):
        config = make_config(layers=1, proposers=3, k=2)
        bundle = FaultPlan(make_mock_bundle(), {("proposer", 1, 1): "unavailable"})
        transcript = run_pipeline("Lose one proposer.", config, bundle)
        state = transcript.layer_states[0]
        assert len(state.responses) == 2
        assert [r.agent_index for r in state.responses] == [0, 2]
        assert transcript.events == [event_record(
            "proposer_failed", 1, "backend unavailable at layer 1 proposer 1", agent=1
        )]
        assert transcript.stop_reason == "max_layers"

    @pytest.mark.parametrize("mode", ["rmoa", "moa"])
    def test_all_proposers_failing_aborts_with_partial_transcript(self, tmp_path, mode):
        config = make_config(layers=3, proposers=2, k=1, mode=mode)
        bundle = FaultPlan(make_mock_bundle(), {("proposer", 1, a): "unavailable" for a in (0, 1)})
        transcript = run_pipeline("Nothing works.", config, bundle, persist_dir=tmp_path)
        assert transcript.stop_reason == "backend_abort"
        assert transcript.final_response is None
        assert transcript.layer_states == []
        on_disk = json.loads((tmp_path / "transcript.json").read_text())
        assert on_disk["stop_reason"] == "backend_abort"
        assert (tmp_path / "ledger.json").is_file()
        assert not (tmp_path / "layers.jsonl").exists()

    def test_extractor_failure_aborts_after_first_layer(self):
        config = make_config(layers=3, proposers=2, k=1)
        bundle = FaultPlan(make_mock_bundle(), {("extractor", 2): "unavailable"})
        transcript = run_pipeline("Extractor dies.", config, bundle)
        assert transcript.stop_reason == "backend_abort"
        assert len(transcript.layer_states) == 1

    @pytest.mark.parametrize("mode", ["rmoa", "moa"])
    def test_aggregator_failure_aborts(self, mode):
        config = make_config(layers=1, proposers=1, k=1, mode=mode)
        bundle = FaultPlan(make_mock_bundle(), {("aggregator", 1): "unavailable"})
        transcript = run_pipeline("Aggregator dies.", config, bundle)
        assert transcript.stop_reason == "backend_abort"
        assert transcript.final_response is None
        assert len(transcript.layer_states) == 1

    @pytest.mark.parametrize("mode", ["rmoa", "moa"])
    def test_blank_aggregation_aborts(self, mode):
        config = make_config(layers=1, proposers=1, k=1, mode=mode)
        bundle = FaultPlan(make_mock_bundle(), {("aggregator", 1): "empty"})
        transcript = run_pipeline("Aggregator goes blank.", config, bundle)
        assert transcript.stop_reason == "backend_abort"
        assert transcript.final_response is None
        assert transcript.events == [
            event_record("aborted", 1, "aggregator returned an empty completion", stage="final")
        ]
        assert transcript.ledger.count("aggregator") == 0

    @pytest.mark.parametrize("mode", ["rmoa", "moa"])
    def test_snapshot_failure_aborts(self, mode):
        config = make_config(
            layers=2, proposers=2, k=1, mode=mode, capture_layer_answers=True
        )
        bundle = FaultPlan(make_mock_bundle(), {("aggregator", 1): "unavailable"})
        transcript = run_pipeline("Snapshot dies.", config, bundle)
        assert transcript.stop_reason == "backend_abort"
        assert len(transcript.layer_states) == 1
        assert transcript.layer_states[0].snapshot_answer is None
        assert transcript.final_response is None

    @pytest.mark.parametrize(
        ("mode", "shape", "faults", "layers_kept", "events"),
        [
            *(
                (mode, {"layers": 3, "proposers": 2},
                 {("proposer", 1, 0): "unavailable", ("proposer", 1, 1): "unavailable"}, [], [
                    *(
                        event_record("proposer_failed", 1, f"backend unavailable at layer 1 "
                                     f"proposer {agent}", agent=agent)
                        for agent in (0, 1)
                    ),
                    event_record("aborted", 1, "every proposer failed", stage="layer"),
                ])
                for mode in ("rmoa", "moa")
            ),
            ("rmoa", {"layers": 3, "proposers": 2}, {("extractor", 2): "unavailable"}, [1],
             [event_record("aborted", 2, "backend unavailable at layer 2 extractor",
                           stage="layer")]),
            *(
                (mode, {"layers": 2, "proposers": 2, "capture_layer_answers": True},
                 {("aggregator", 1): "unavailable"}, [1],
                 [event_record("aborted", 1, "backend unavailable at layer 1 aggregator",
                               stage="snapshot")])
                for mode in ("rmoa", "moa")
            ),
            *(
                (mode, {"layers": 1, "proposers": 1}, {("aggregator", 1): "unavailable"}, [1],
                 [event_record("aborted", 1, "backend unavailable at layer 1 aggregator",
                               stage="final")])
                for mode in ("rmoa", "moa")
            ),
            # layer 2 joins the transcript, but its snapshot fails before its log line
            *(
                (mode, {"layers": 3, "proposers": 2, "capture_layer_answers": True},
                 {("aggregator", 2): "unavailable"}, [1, 2],
                 [event_record("aborted", 2, "backend unavailable at layer 2 aggregator",
                               stage="snapshot")])
                for mode in ("rmoa", "moa")
            ),
        ],
        ids=[
            "proposers-rmoa", "proposers-moa", "extractor",
            "snapshot-rmoa", "snapshot-moa", "final-rmoa", "final-moa",
            "late-snapshot-rmoa", "late-snapshot-moa",
        ],
    )
    def test_abort_stage_is_named_in_the_event_log(
        self, tmp_path, mode, shape, faults, layers_kept, events
    ):
        config = make_config(k=1, mode=mode, **shape)
        bundle = FaultPlan(make_mock_bundle(), faults)
        transcript = run_pipeline("Abort somewhere.", config, bundle, persist_dir=tmp_path)
        assert transcript.stop_reason == "backend_abort"
        assert transcript.final_response is None
        assert [state.layer for state in transcript.layer_states] == layers_kept
        assert transcript.events == events
        assert (tmp_path / "transcript.json").read_bytes() == transcript.to_json_bytes()
        assert not (tmp_path / "layers.jsonl").exists()

    @pytest.mark.parametrize(
        ("fault", "reason"),
        [
            ("unavailable", "backend unavailable at layer 2 embedding"),
            ("short", "backend returned 1 embeddings for 2 texts"),
        ],
    )
    def test_embedding_failure_at_layer_two_aborts(self, tmp_path, fault, reason):
        config = make_config(layers=3, proposers=2, k=1)
        bundle = FaultPlan(make_mock_bundle(embed_dim=16), {("embedding", 2): fault})
        transcript = run_pipeline("Embeddings die.", config, bundle, persist_dir=tmp_path)
        assert transcript.stop_reason == "backend_abort"
        assert [state.layer for state in transcript.layer_states] == [1]
        assert transcript.final_response is None
        assert transcript.events == [event_record("aborted", 2, reason, stage="layer")]
        assert transcript.ledger.count("embedding") == 1
        assert transcript.ledger.count("extractor") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.json", "transcript.json"]
        assert (tmp_path / "transcript.json").read_bytes() == transcript.to_json_bytes()

    @pytest.mark.parametrize("policy", ["sim_threshold", "variance"])
    def test_embedding_dimension_change_aborts_in_the_stop_check(self, tmp_path, policy):
        config = make_config(layers=3, proposers=2, k=1, policy=policy)
        bundle = FaultPlan(make_mock_bundle(embed_dim=16), {("embedding", 2): "dimension"})
        transcript = run_pipeline("Dimensions drift.", config, bundle, persist_dir=tmp_path)
        assert transcript.stop_reason == "backend_abort"
        assert [state.layer for state in transcript.layer_states] == [1]
        assert transcript.events == [
            event_record("aborted", 2, "dimension mismatch: 16 vs 32", stage="layer")
        ]
        assert transcript.ledger.count("embedding") == 2
        assert transcript.ledger.count("extractor") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.json", "transcript.json"]

    @pytest.mark.parametrize(
        ("fault", "size"),
        # norms that overflow, squares that sum past the float range, and
        # a nonzero size below the range
        [("overflow", "1.41e+200"), ("sum_overflow", "1.41e+154"), ("tiny", "1.41e-150")],
        ids=["overflow", "sum_overflow", "tiny"],
    )
    def test_embedding_rows_outside_the_size_range_abort_the_item(self, tmp_path, fault, size):
        config = make_config(layers=3, proposers=2, k=1)
        bundle = FaultPlan(make_mock_bundle(), {("embedding", 1): fault})
        transcript = run_pipeline("Sizes out of range.", config, bundle, persist_dir=tmp_path)
        assert transcript.stop_reason == "backend_abort"
        assert transcript.layer_states == []
        assert transcript.events == [event_record(
            "aborted", 1, f"vector 0: embedding size {size} is outside [1e-140, 1e140]",
            stage="layer",
        )]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.json", "transcript.json"]
        assert (tmp_path / "transcript.json").read_bytes() == transcript.to_json_bytes()

    def test_embedding_dimension_change_is_harmless_under_llm_policy(self):
        config = make_config(layers=3, proposers=2, k=1, policy="llm")
        faults = {("embedding", layer): "dimension" for layer in (2, 3)}
        bundle = FaultPlan(make_mock_bundle(embed_dim=16), faults)
        transcript = run_pipeline("Dimensions drift.", config, bundle)
        assert transcript.stop_reason == "max_layers"
        assert len(transcript.layer_states) == 3

    def test_persisted_transcript_updates_per_layer(self, tmp_path):
        config = make_config(layers=2, proposers=2, k=1, policy="none")
        run_pipeline("Flush often.", config, make_mock_bundle(), persist_dir=tmp_path)
        payload = json.loads((tmp_path / "transcript.json").read_text())
        assert len(payload["layer_states"]) == 2
        assert payload["stop_reason"] == "max_layers"
        assert payload["final_response"]["text"]

    def test_crash_leaves_layer_log_and_rerun_finishes_clean(self, tmp_path):
        # layer 3's first proposer call raises like a crash would
        config = make_config(layers=3, proposers=2, k=1)
        clean = run_pipeline("Crash midway.", config, make_mock_bundle())
        run_pipeline("Crash midway.", config, make_mock_bundle(), persist_dir=tmp_path)
        with pytest.raises(RuntimeError):
            run_pipeline(
                "Crash midway.", config,
                FaultPlan(make_mock_bundle(), {("proposer", 3, 0): "bug"}),
                persist_dir=tmp_path,
            )
        lines = (tmp_path / "layers.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == [
            state.to_json_dict() for state in clean.layer_states[:2]
        ]
        assert not (tmp_path / "transcript.json").exists()
        assert not (tmp_path / "ledger.json").exists()

        run_pipeline("Crash midway.", config, make_mock_bundle(), persist_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.json", "transcript.json"]

    def test_transcript_is_the_last_rename(self, tmp_path, monkeypatch):
        # a crash between the two renames leaves no transcript.json behind
        config = make_config(layers=2, proposers=2, k=1)
        replace_file = os.replace
        calls = []

        def crash_on_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("killed between renames")
            replace_file(src, dst)

        monkeypatch.setattr(pipeline.os, "replace", crash_on_second)
        with pytest.raises(OSError):
            run_pipeline("Crash on rename.", config, make_mock_bundle(), persist_dir=tmp_path)
        assert not (tmp_path / "transcript.json").exists()
        assert (tmp_path / "layers.jsonl").exists()

        monkeypatch.setattr(pipeline.os, "replace", replace_file)
        run_pipeline("Crash on rename.", config, make_mock_bundle(), persist_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.json", "transcript.json"]

    @pytest.mark.parametrize(
        ("mode", "faults", "stop_reason"),
        [("rmoa", {}, "max_layers"), ("moa", {}, "max_layers"),
         ("rmoa", {("extractor", 2): "unavailable"}, "backend_abort")],
        ids=["rmoa", "moa", "rmoa-abort"],
    )
    def test_files_on_disk_match_in_memory_bytes(self, tmp_path, mode, faults, stop_reason):
        config = make_config(layers=3, proposers=2, k=1, mode=mode)
        bundle = FaultPlan(make_mock_bundle(), faults)
        transcript = run_pipeline("Bytes on disk.", config, bundle, persist_dir=tmp_path)
        assert transcript.stop_reason == stop_reason
        assert (tmp_path / "transcript.json").read_bytes() == transcript.to_json_bytes()
        ledger_text = json.dumps(transcript.ledger.to_json_dict(), sort_keys=True)
        assert (tmp_path / "ledger.json").read_bytes() == (ledger_text + "\n").encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.json", "transcript.json"]

    def test_stale_log_of_a_crashed_run_is_emptied_before_a_layer_one_abort(self, tmp_path):
        (tmp_path / "layers.jsonl").write_text('{"bogus": 1}\n{"layer": 7}\n{"torn', "utf-8")
        config = make_config(layers=3, proposers=2, k=1)
        faults = {("proposer", 1, a): "unavailable" for a in (0, 1)}
        bundle = FaultPlan(make_mock_bundle(), faults)
        transcript = run_pipeline("Stale log.", config, bundle, persist_dir=tmp_path)
        assert transcript.layer_states == []
        assert (tmp_path / "transcript.json").read_bytes() == transcript.to_json_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.json", "transcript.json"]

    @pytest.mark.parametrize("layer", [1, 3])
    def test_caller_bug_leaves_complete_lines_and_no_open_log(
        self, tmp_path, monkeypatch, layer
    ):
        # what the disk holds when the failing layer starts is what a hard crash leaves
        config = make_config(layers=3, proposers=2, k=1)
        clean = run_pipeline("Bug midway.", config, make_mock_bundle())
        bundle = FaultPlan(make_mock_bundle(), {("proposer", layer, 0): "bug"})
        log = tmp_path / "layers.jsonl"
        on_disk = []
        propose = pipeline.propose

        def reading_propose(*args, **kwargs):
            if kwargs["layer"] == layer and not on_disk:
                on_disk.append(log.read_text(encoding="utf-8"))
            return propose(*args, **kwargs)

        monkeypatch.setattr(pipeline, "propose", reading_propose)
        unraisable = []
        monkeypatch.setattr("sys.unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(RuntimeError):
                run_pipeline("Bug midway.", config, bundle, persist_dir=tmp_path)
            gc.collect()
        assert unraisable == []
        lines = "".join(
            json.dumps(state.to_json_dict(), sort_keys=True) + "\n"
            for state in clean.layer_states[:layer - 1]
        )
        assert on_disk == [lines]
        assert log.read_text(encoding="utf-8") == lines
        assert not (tmp_path / "transcript.json").exists()

    def test_capture_layer_answers_snapshots_each_layer(self):
        config = make_config(
            layers=3, proposers=3, k=2, policy="none", capture_layer_answers=True
        )
        transcript = run_pipeline("Snapshot layers.", config, make_mock_bundle())
        assert transcript.ledger.count("aggregator") == 3
        assert all(s.snapshot_answer for s in transcript.layer_states)
        assert transcript.final_response.text == transcript.layer_states[-1].snapshot_answer

    def test_default_operating_point_runs_to_depth(self):
        transcript = run_pipeline("Full depth run.", RunConfig(), make_mock_bundle())
        # echo extractions always read as residuals, so no early stop
        assert len(transcript.layer_states) <= 6
        assert transcript.stop_reason == "max_layers"
        assert transcript.ledger.count("proposer") == 36

    def test_embedding_truncation_noted_in_transcript(self):
        from rmoa.mockbackend import MockEmbeddingBackend

        config = make_config(layers=1, proposers=2, k=1)
        bundle = Backends(
            chat=MockChatBackend(MockRule()),
            embedding=MockEmbeddingBackend(max_input_chars=16),
        )
        transcript = run_pipeline("A query long enough to overflow.", config, bundle)
        lengths = [len(r.text) for r in transcript.layer_states[0].responses]
        assert transcript.events == [
            event_record("truncated", 1, f"embedding input {i} truncated from {n} to 16 chars")
            for i, n in enumerate(lengths)
        ]

    def test_requires_rmoa_mode_and_embedding_backend(self):
        bundle = Backends(chat=MockChatBackend(MockRule()), embedding=None)
        with pytest.raises(ConfigError):
            run_pipeline("Q", make_config(), bundle)

    def test_empty_query_rejected_before_any_call(self):
        bundle = make_mock_bundle()
        with pytest.raises(ValueError):
            run_pipeline("", make_config(), bundle)
        assert bundle.chat.call_log == []

    def test_given_executor_runs_every_proposer_call(self):
        config = make_config(layers=3, proposers=4, k=2, policy="none")
        alone = run_pipeline("Shared pool?", config, make_mock_bundle())
        with ThreadPoolExecutor(2) as pool:
            shared = run_pipeline("Shared pool?", config, make_mock_bundle(), executor=pool)
        assert shared.to_json_bytes() == alone.to_json_bytes()

    def test_without_executor_proposers_run_inline(self, monkeypatch):
        def no_thread(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        config = make_config(layers=3, proposers=4, k=2, policy="none")
        chat = ThreadRecordingChat()
        run_pipeline("Inline.", config, Backends(chat=chat, embedding=MockEmbeddingBackend()))
        assert len(chat.threads) == 3 * 4
        assert set(chat.threads) == {threading.current_thread()}


class TestRunMoa:
    def test_minimal_pipeline(self):
        config = make_config(layers=1, proposers=1, k=1, mode="moa")
        transcript = run_pipeline("Tiny.", config, make_mock_bundle())
        assert transcript.ledger.count("proposer") == 1
        assert transcript.ledger.count("aggregator") == 1
        assert transcript.ledger.count("embedding") == 0
        assert transcript.final_response is not None

    def test_reference_contains_all_numbered_responses(self):
        config = make_config(layers=2, proposers=4, k=2, mode="moa")
        bundle = make_mock_bundle()
        transcript = run_pipeline("All blocks.", config, bundle)
        for state in transcript.layer_states:
            assert state.residual == NO_RESIDUAL
            assert state.selected.selected_indices == (0, 1, 2, 3)
        # layer 1's reference, as the layer 2 proposers received it
        (layer_two,) = proposer_prompts_by_layer(bundle.chat.call_log, config)[1:]
        assert len(layer_two) == 4
        for prompt in layer_two:
            reference = sent_reference(prompt, "All blocks.")
            for index in range(1, 5):
                assert f"Response {index}:" in reference
            assert "Response 5:" not in reference

    def test_deterministic(self):
        config = make_config(layers=3, proposers=4, k=2, mode="moa")
        payloads = [
            run_pipeline("Repeat.", config, make_mock_bundle()).to_json_bytes()
            for _ in range(2)
        ]
        assert payloads[0] == payloads[1]

    def test_moa_works_without_embedding_backend(self):
        config = make_config(layers=2, proposers=2, k=1, mode="moa")
        bundle = Backends(chat=MockChatBackend(MockRule()), embedding=None)
        transcript = run_pipeline("No embeddings needed.", config, bundle)
        assert transcript.stop_reason == "max_layers"

    def test_run_pipeline_dispatches_on_mode(self):
        rmoa_cfg = make_config(layers=1, proposers=2, k=1)
        moa_cfg = make_config(layers=1, proposers=2, k=1, mode="moa")
        assert run_pipeline("Q", rmoa_cfg, make_mock_bundle()).config.mode == "rmoa"
        assert run_pipeline("Q", moa_cfg, make_mock_bundle()).config.mode == "moa"


class ServedNameChat:
    """Mock chat whose replies name a model other than the configured one."""

    model = "configured-chat"

    def __init__(self):
        self.inner = MockChatBackend(MockRule())

    def chat(self, messages, *, temperature, max_tokens):
        result = self.inner.chat(messages, temperature=temperature, max_tokens=max_tokens)
        return replace(result, model="served")


class ServedNameEmbedding:
    """Mock embeddings whose replies name a model other than the configured one."""

    model = "configured-embed"
    max_input_chars = None

    def embed(self, texts):
        return replace(MockEmbeddingBackend().embed(texts), model="served")


@pytest.mark.parametrize(
    ("mode", "snapshots", "per_layer", "tail"),
    [
        ("rmoa", True, ["proposer", "proposer", "embedding", "extractor", "aggregator"], []),
        ("moa", False, ["proposer", "proposer"], ["aggregator"]),
    ],
)
def test_ledger_records_every_call_in_order_under_the_configured_model(
    mode, snapshots, per_layer, tail
):
    config = make_config(
        layers=3, proposers=2, k=1, mode=mode, capture_layer_answers=snapshots
    )
    backends = Backends(chat=ServedNameChat(), embedding=ServedNameEmbedding())
    transcript = run_pipeline("Which model?", config, backends)
    layer_one = [kind for kind in per_layer if kind != "extractor"]
    kinds = layer_one + per_layer * 2 + tail
    models = {"embedding": "configured-embed"}
    assert [(e.kind, e.model) for e in transcript.ledger.entries] == [
        (kind, models.get(kind, "configured-chat")) for kind in kinds
    ]
    proposer_usage = [e.usage for e in transcript.ledger.entries if e.kind == "proposer"]
    assert proposer_usage == [
        r.usage for state in transcript.layer_states for r in state.responses
    ]
    assert transcript.ledger.entries[-1].usage == transcript.final_response.usage


class TestOrderedMap:
    def _thread_of(self, arg):
        return threading.current_thread()

    def test_no_pool_runs_inline(self):
        me = threading.current_thread()
        assert ordered_map(self._thread_of, [1, 2, 3], None) == [me] * 3

    def test_one_argument_runs_inline_even_with_a_pool(self):
        with ThreadPoolExecutor(2) as pool:
            assert ordered_map(self._thread_of, [1], pool) == [threading.current_thread()]
            assert ordered_map(self._thread_of, [], pool) == []

    def test_results_come_back_in_input_order(self):
        def late_first(arg):
            time.sleep((4 - arg) * 0.01)
            return arg * arg

        with ThreadPoolExecutor(4) as pool:
            assert ordered_map(late_first, range(4), pool) == [0, 1, 4, 9]

    def test_failure_cancels_only_its_own_unstarted_calls(self):
        # Map B's first two arguments hold two of three workers until
        # ``release``. Map A's first argument raises on the third worker, which
        # may then start A's second (it blocks too); A's last four must never
        # start, and B must still return every result.
        release = threading.Event()
        b_started = [threading.Event(), threading.Event()]
        a_started: list[int] = []
        b_results: list = []

        def fn_b(arg):
            if arg < 2:
                b_started[arg].set()
                assert release.wait(5)
            return arg * 10

        def fn_a(arg):
            a_started.append(arg)
            if arg == 0:
                raise KeyError("first call fails")
            assert release.wait(5)
            return arg

        with ThreadPoolExecutor(3) as pool:
            other = threading.Thread(
                target=lambda: b_results.extend(ordered_map(fn_b, range(4), pool))
            )
            other.start()
            assert all(event.wait(5) for event in b_started)
            try:
                with pytest.raises(KeyError, match="first call fails"):
                    ordered_map(fn_a, range(6), pool)
            finally:
                release.set()
                other.join(5)
        assert b_results == [0, 10, 20, 30]
        assert a_started in ([0], [0, 1])


# sha256 of the transcript bytes. These are the digests of the compact format
# without a stored reference; parsed, each transcript equals the one measured
# before the two mode loops were merged, less its layers' references, with
# each layer's old stop flag replaced by its verdict, converged.
@pytest.mark.parametrize(
    ("config", "bundle_args", "digest"),
    [
        (
            make_config(layers=4, proposers=6, k=3),
            {},
            "097c99eb7ed2c0cf602caf8cc5336c18faf277c273bed5965eaa4e0e74dd513b",
        ),
        (
            make_config(
                layers=4, proposers=6, k=3, policy="llm", m=1, capture_layer_answers=True
            ),
            {"behavior": "residual_script", "script": (False, False, False)},
            "aad488462577604bf7d30764d58aaabe32d3ed4661dec3c54268929ee42f9f5c",
        ),
        (
            make_config(layers=3, proposers=4, k=2, mode="moa"),
            {},
            "7dc7420b5f77f4073c1a62300c4c3c4bb766b6e33103155f7e3d0ed644b5d2f2",
        ),
        (
            make_config(layers=3, proposers=4, k=2, mode="moa", capture_layer_answers=True),
            {},
            "c88042e405d456c06e49e06cd55bd5059205d115bcc433ab1cb64e5be0c01276",
        ),
    ],
    ids=["rmoa", "rmoa-adaptive-stop-snapshots", "moa", "moa-snapshots"],
)
def test_transcript_bytes_pinned(config, bundle_args, digest):
    bundle = make_mock_bundle(**bundle_args)
    payload = run_pipeline("Pin the transcript.", config, bundle).to_json_bytes()
    assert hashlib.sha256(payload).hexdigest() == digest


@pytest.mark.parametrize(
    ("query", "config", "faults", "layers_kept"),
    [
        *(
            ("Nothing works.", make_config(layers=3, proposers=2, k=1, mode=mode),
             {("proposer", 1, 0): "unavailable", ("proposer", 1, 1): "unavailable"}, 0)
            for mode in ("rmoa", "moa")
        ),
        ("Snapshot dies.", make_config(layers=3, proposers=2, k=1, capture_layer_answers=True),
         {("aggregator", 2): "unavailable"}, 2),
        ('Ünïcode — 中文 "layer_states": [ ], "ledger": {', make_config(layers=3, proposers=3, k=2),
         {}, 3),
    ],
    ids=["zero-layers-rmoa", "zero-layers-moa", "snapshot-abort", "non-ascii-query"],
)
def test_transcript_bytes_match_the_whole_dict_encoding(query, config, faults, layers_kept):
    transcript = run_pipeline(query, config, FaultPlan(make_mock_bundle(), faults))
    states = transcript.layer_states
    assert len(states) == layers_kept
    if config.capture_layer_answers:
        assert states[-1].snapshot_answer is None and states[0].snapshot_answer
    text = json.dumps(transcript_dict(transcript), sort_keys=True) + "\n"
    assert transcript.to_json_bytes() == text.encode("utf-8")

    # head, one piece per layer, tail: no piece holds more than one layer
    ledger = json.dumps(transcript.ledger.to_json_dict(), sort_keys=True)
    layers = [json.dumps(state.to_json_dict(), sort_keys=True) for state in states]
    pieces = list(_transcript_pieces(transcript, ledger, layers))
    assert pieces[1:-1] == [(", " if i else "") + layer for i, layer in enumerate(layers)]
    assert pieces[0].endswith('"layer_states": [') and pieces[-1].startswith("], ")
    assert "".join(pieces) == text


@pytest.mark.parametrize(
    ("config", "faults", "layers_kept"),
    [
        (make_config(layers=3, proposers=2, k=1), {}, 3),
        (make_config(layers=3, proposers=2, k=1, mode="moa"), {}, 3),
        (make_config(layers=3, proposers=2, k=1, capture_layer_answers=True), {}, 3),
        (make_config(layers=3, proposers=2, k=1, mode="moa", capture_layer_answers=True),
         {("aggregator", 2): "unavailable"}, 2),
    ],
    ids=["rmoa", "moa", "rmoa-snapshots", "moa-snapshot-abort"],
)
def test_each_persisted_layer_is_encoded_once_into_one_log_handle(
    tmp_path, monkeypatch, config, faults, layers_kept
):
    encoded = []
    encode = pipeline._layer_json

    def counting_encode(state):
        encoded.append(state.layer)
        return encode(state)

    log_opens = []

    def counting(open_file):
        def wrapper(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.path.basename(file) == "layers.jsonl":
                if set(mode) & set("wax+"):
                    log_opens.append(mode)
            return open_file(file, mode, *args, **kwargs)
        return wrapper

    logged_at_flush = []
    flush = pipeline._flush

    def counting_flush(persist_dir, transcript):
        logged_at_flush.append(len((persist_dir / "layers.jsonl").read_text().splitlines()))
        flush(persist_dir, transcript)

    monkeypatch.setattr(pipeline, "_layer_json", counting_encode)
    monkeypatch.setattr(pipeline, "_flush", counting_flush)
    monkeypatch.setattr(builtins, "open", counting(builtins.open))
    monkeypatch.setattr(pathlib.Path, "open", counting(pathlib.Path.open))
    bundle = FaultPlan(make_mock_bundle(), faults)
    transcript = run_pipeline("Encode once.", config, bundle, persist_dir=tmp_path)
    assert len(transcript.layer_states) == layers_kept
    assert encoded == list(range(1, layers_kept + 1))
    assert len(log_opens) == 1
    # the log holds every stored layer, a snapshot-aborted one included
    assert logged_at_flush == [len(transcript.layer_states)]
    assert (tmp_path / "transcript.json").read_bytes() == transcript.to_json_bytes()


def _persisted_response(payload: dict) -> Response:
    usage = payload["usage"]
    return Response(
        payload["text"], payload["layer"], payload["agent_index"], payload["role_name"],
        TokenUsage(usage["prompt_tokens"], usage["completion_tokens"]),
    )


def rebuilt_references(transcript: dict) -> list[str]:
    """Each layer's reference, rebuilt from the fields of ``transcript.json``.

    rmoa: the previous layer's selected responses (at layer 1, the layer's
    own selection) and this layer's residual; moa: this layer's responses.
    """
    references = []
    previous_selected = None
    for state in transcript["layer_states"]:
        responses = [_persisted_response(r) for r in state["responses"]]
        if transcript["config"]["mode"] == "moa":
            references.append(render_numbered_responses(responses))
            continue
        selected = [responses[i] for i in state["selected"]["selected_indices"]]
        residual = Residual(state["residual"]["kind"], state["residual"]["text"])
        references.append(build_reference_context(previous_selected or selected, residual))
        previous_selected = selected
    return references


@pytest.mark.parametrize(
    ("config", "bundle_args", "faults", "stop_reason", "layers_kept", "referenced_layers"),
    [
        (make_config(layers=4, proposers=6, k=3), {}, {}, "max_layers", 4, 3),
        (
            make_config(
                layers=4, proposers=6, k=3, policy="llm", m=1, capture_layer_answers=True
            ),
            {"behavior": "residual_script", "script": (False,) * 3}, {},
            "adaptive_stop", 2, 1,
        ),
        (make_config(layers=3, proposers=4, k=2, mode="moa"), {}, {}, "max_layers", 3, 2),
        (make_config(layers=3, proposers=2, k=1), {}, {("extractor", 3): "unavailable"},
         "backend_abort", 2, 2),
    ],
    ids=["rmoa", "rmoa-adaptive-stop-snapshots", "moa", "rmoa-abort"],
)
def test_reference_is_rebuilt_from_persisted_fields(
    tmp_path, config, bundle_args, faults, stop_reason, layers_kept, referenced_layers
):
    bundle = make_mock_bundle(**bundle_args)
    run_pipeline("Rebuild the reference.", config, FaultPlan(bundle, faults), persist_dir=tmp_path)
    transcript = json.loads((tmp_path / "transcript.json").read_text(encoding="utf-8"))
    assert transcript["stop_reason"] == stop_reason
    assert len(transcript["layer_states"]) == layers_kept
    later_layers = proposer_prompts_by_layer(bundle.chat.call_log, config)[1:]
    assert len(later_layers) == referenced_layers
    refinement = load_prompt_set(config.benchmark).refinement
    for reference, prompts in zip(rebuilt_references(transcript), later_layers):
        sent = refinement.render(references=reference, task="Rebuild the reference.")
        assert len(prompts) == config.proposers_per_layer
        assert all(prompt.endswith(f"\n{sent}") for prompt in prompts)


class TestRunConfigValidation:
    def test_k_cannot_exceed_proposers(self):
        with pytest.raises(ConfigError):
            RunConfig(proposers_per_layer=3, select_k=4)

    def test_window_cannot_exceed_layers(self):
        with pytest.raises(ConfigError):
            RunConfig(layers=2, termination=TerminationConfig(m=3))

    def test_mode_checked(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="smoa")

    def test_defaults_are_the_operating_point(self):
        config = RunConfig()
        assert (config.layers, config.proposers_per_layer, config.select_k) == (6, 6, 3)
        assert config.sampling.temperature == 0.7
        assert config.sampling.max_tokens == 1024
