"""Pipeline engine behavior under deterministic mocks."""

from __future__ import annotations

import hashlib
import json

import pytest

from rmoa.accounting import TokenUsage
from rmoa.agents import NO_RESIDUAL, Residual, Response
from rmoa.backends import Backends
from rmoa.errors import BackendUnavailableError, ConfigError
from rmoa.mockbackend import MockChatBackend, MockRule
from rmoa.pipeline import (
    RunConfig,
    build_reference_context,
    run_pipeline,
)
from rmoa.termination import TerminationConfig

from conftest import make_config, make_mock_bundle


def response(text: str) -> Response:
    return Response(text, 1, 0, "role", TokenUsage(1, 1))


class FlakyChat:
    """Delegates to a mock but fails the configured call ordinals."""

    def __init__(self, fail_calls=(), fail_all=False, error=BackendUnavailableError):
        self.inner = MockChatBackend(MockRule())
        self.model = self.inner.model
        self.fail_calls = set(fail_calls)
        self.fail_all = fail_all
        self.error = error
        self.calls = 0

    def chat(self, messages, *, temperature, max_tokens):
        self.calls += 1
        if self.fail_all or self.calls in self.fail_calls:
            raise self.error(f"scripted failure on call {self.calls}")
        return self.inner.chat(messages, temperature=temperature, max_tokens=max_tokens)


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

    def test_call_count_law(self):
        config = make_config(layers=4, proposers=6, k=3, policy="none")
        ledger = run_pipeline("Count calls.", config, make_mock_bundle()).ledger
        assert ledger.count("proposer") == 24
        assert ledger.count("extractor") == 3
        assert ledger.count("aggregator") == 1
        assert ledger.count("embedding") == 4

    def test_transcripts_bit_reproducible(self):
        config = make_config(layers=4, proposers=6, k=3, policy="none")
        payloads = [
            run_pipeline("Same every time?", config, make_mock_bundle()).to_json_bytes()
            for _ in range(2)
        ]
        assert payloads[0] == payloads[1]

    def test_parallelism_does_not_change_transcripts(self):
        config = make_config(layers=3, proposers=5, k=2, policy="none")
        serial = run_pipeline("Parallel?", config, make_mock_bundle(), parallelism=1)
        threaded = run_pipeline("Parallel?", config, make_mock_bundle(), parallelism=5)
        assert serial.to_json_bytes() == threaded.to_json_bytes()

    def test_layers_are_monotone_and_selections_valid(self):
        config = make_config(layers=4, proposers=6, k=3, policy="none")
        transcript = run_pipeline("Validate shape.", config, make_mock_bundle())
        for position, state in enumerate(transcript.layer_states, start=1):
            assert state.layer == position
            assert len(state.selected.selected_indices) == 3
            assert all(
                0 <= i < len(state.responses) for i in state.selected.selected_indices
            )
            assert state.reference_context

    def test_layer_one_proposers_get_no_references(self):
        config = make_config(layers=2, proposers=3, k=2, policy="none")
        bundle = make_mock_bundle()
        run_pipeline("Check reference flow.", config, bundle, parallelism=1)
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
        assert transcript.layer_states[-1].terminated_here
        assert transcript.ledger.count("proposer") == 12
        assert transcript.ledger.count("extractor") == 1
        assert transcript.ledger.count("aggregator") == 1

    def test_policy_none_never_stops_early(self):
        config = make_config(layers=4, proposers=6, k=3, policy="none", m=1)
        bundle = make_mock_bundle(behavior="residual_script", script=(False, False, False))
        transcript = run_pipeline("Never stop.", config, bundle)
        assert transcript.stop_reason == "max_layers"
        assert [s.layer for s in transcript.layer_states] == [1, 2, 3, 4]
        assert not any(s.terminated_here for s in transcript.layer_states)
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
        assert not transcript.layer_states[-1].terminated_here

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
        bundle = Backends(chat=FlakyChat(fail_calls={2}), embedding=make_mock_bundle().embedding)
        transcript = run_pipeline("Lose one proposer.", config, bundle, parallelism=1)
        state = transcript.layer_states[0]
        assert len(state.responses) == 2
        assert [r.agent_index for r in state.responses] == [0, 2]
        assert any("proposer 1 failed" in event for event in transcript.events)
        assert transcript.stop_reason == "max_layers"

    @pytest.mark.parametrize("mode", ["rmoa", "moa"])
    def test_all_proposers_failing_aborts_with_partial_transcript(self, tmp_path, mode):
        config = make_config(layers=3, proposers=2, k=1, mode=mode)
        bundle = Backends(chat=FlakyChat(fail_all=True), embedding=make_mock_bundle().embedding)
        transcript = run_pipeline("Nothing works.", config, bundle, persist_dir=tmp_path)
        assert transcript.stop_reason == "backend_abort"
        assert transcript.final_response is None
        assert transcript.layer_states == []
        on_disk = json.loads((tmp_path / "transcript.json").read_text())
        assert on_disk["stop_reason"] == "backend_abort"
        assert (tmp_path / "ledger.json").is_file()
        assert not (tmp_path / "layers.jsonl").exists()

    def test_extractor_failure_aborts_after_first_layer(self):
        # layer 1: calls 1-2 succeed; layer 2: proposals 3-4 succeed, the
        # extractor is call 5 and fails
        config = make_config(layers=3, proposers=2, k=1)
        bundle = Backends(chat=FlakyChat(fail_calls={5}), embedding=make_mock_bundle().embedding)
        transcript = run_pipeline("Extractor dies.", config, bundle, parallelism=1)
        assert transcript.stop_reason == "backend_abort"
        assert len(transcript.layer_states) == 1

    @pytest.mark.parametrize("mode", ["rmoa", "moa"])
    def test_aggregator_failure_aborts(self, mode):
        config = make_config(layers=1, proposers=1, k=1, mode=mode)
        bundle = Backends(chat=FlakyChat(fail_calls={2}), embedding=make_mock_bundle().embedding)
        transcript = run_pipeline("Aggregator dies.", config, bundle, parallelism=1)
        assert transcript.stop_reason == "backend_abort"
        assert transcript.final_response is None
        assert len(transcript.layer_states) == 1

    @pytest.mark.parametrize("mode", ["rmoa", "moa"])
    def test_snapshot_failure_aborts(self, mode):
        # layer 1: proposals are calls 1-2, the snapshot is call 3 and fails
        config = make_config(
            layers=2, proposers=2, k=1, mode=mode, capture_layer_answers=True
        )
        bundle = Backends(chat=FlakyChat(fail_calls={3}), embedding=make_mock_bundle().embedding)
        transcript = run_pipeline("Snapshot dies.", config, bundle, parallelism=1)
        assert transcript.stop_reason == "backend_abort"
        assert len(transcript.layer_states) == 1
        assert transcript.layer_states[0].snapshot_answer is None
        assert transcript.final_response is None

    def test_persisted_transcript_updates_per_layer(self, tmp_path):
        config = make_config(layers=2, proposers=2, k=1, policy="none")
        run_pipeline("Flush often.", config, make_mock_bundle(), persist_dir=tmp_path)
        payload = json.loads((tmp_path / "transcript.json").read_text())
        assert len(payload["layer_states"]) == 2
        assert payload["stop_reason"] == "max_layers"
        assert payload["final_response"]["text"]

    def test_crash_leaves_layer_log_and_rerun_finishes_clean(self, tmp_path):
        # layer 1: calls 1-2; layer 2: calls 3-4 plus the extractor (5);
        # layer 3 starts at call 6, which raises like a crash would
        config = make_config(layers=3, proposers=2, k=1)

        def bundle(**flaky):
            return Backends(chat=FlakyChat(**flaky), embedding=make_mock_bundle().embedding)

        clean = run_pipeline("Crash midway.", config, bundle(), parallelism=1)
        run_pipeline("Crash midway.", config, bundle(), parallelism=1, persist_dir=tmp_path)
        with pytest.raises(RuntimeError):
            run_pipeline(
                "Crash midway.", config, bundle(fail_calls={6}, error=RuntimeError),
                parallelism=1, persist_dir=tmp_path,
            )
        lines = (tmp_path / "layers.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == [
            state.to_json_dict() for state in clean.layer_states[:2]
        ]
        assert not (tmp_path / "transcript.json").exists()
        assert not (tmp_path / "ledger.json").exists()

        run_pipeline("Crash midway.", config, bundle(), parallelism=1, persist_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.json", "transcript.json"]

    @pytest.mark.parametrize(
        ("mode", "fail_calls", "stop_reason"),
        [("rmoa", (), "max_layers"), ("moa", (), "max_layers"), ("rmoa", {5}, "backend_abort")],
        ids=["rmoa", "moa", "rmoa-abort"],
    )
    def test_files_on_disk_match_in_memory_bytes(self, tmp_path, mode, fail_calls, stop_reason):
        config = make_config(layers=3, proposers=2, k=1, mode=mode)
        bundle = Backends(
            chat=FlakyChat(fail_calls=fail_calls), embedding=make_mock_bundle().embedding
        )
        transcript = run_pipeline(
            "Bytes on disk.", config, bundle, parallelism=1, persist_dir=tmp_path
        )
        assert transcript.stop_reason == stop_reason
        assert (tmp_path / "transcript.json").read_bytes() == transcript.to_json_bytes()
        ledger_text = json.dumps(transcript.ledger.to_json_dict(), indent=2, sort_keys=True)
        assert (tmp_path / "ledger.json").read_bytes() == (ledger_text + "\n").encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.json", "transcript.json"]

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
        assert any("truncated" in event for event in transcript.events)

    def test_requires_rmoa_mode_and_embedding_backend(self):
        bundle = Backends(chat=MockChatBackend(MockRule()), embedding=None)
        with pytest.raises(ConfigError):
            run_pipeline("Q", make_config(), bundle)

    def test_empty_query_rejected_before_any_call(self):
        bundle = make_mock_bundle()
        with pytest.raises(ValueError):
            run_pipeline("", make_config(), bundle)
        assert bundle.chat.call_log == []


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
        transcript = run_pipeline("All blocks.", config, make_mock_bundle())
        for state in transcript.layer_states:
            for index in range(1, 5):
                assert f"Response {index}:" in state.reference_context
            assert "Response 5:" not in state.reference_context
            assert state.residual == NO_RESIDUAL
            assert state.selected.selected_indices == (0, 1, 2, 3)

    def test_chat_call_total(self):
        config = make_config(layers=4, proposers=6, k=3, mode="moa")
        ledger = run_pipeline("Count.", config, make_mock_bundle()).ledger
        assert ledger.count("proposer") + ledger.count("aggregator") == 25
        assert ledger.count("extractor") == 0

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


# sha256 of the transcript bytes, measured before the two mode loops were merged
@pytest.mark.parametrize(
    ("config", "bundle_args", "digest"),
    [
        (
            make_config(layers=4, proposers=6, k=3),
            {},
            "989d38f22480a6180e9d5f69e5255a562ff5b5b768748ef8d074d3723f8c0c1d",
        ),
        (
            make_config(
                layers=4, proposers=6, k=3, policy="llm", m=1, capture_layer_answers=True
            ),
            {"behavior": "residual_script", "script": (False, False, False)},
            "6911dab2ef12611d7ab9a8e33e1556ef2985643415446756bab01d033c2f8246",
        ),
        (
            make_config(layers=3, proposers=4, k=2, mode="moa"),
            {},
            "760439299761f640db78209d872cc3b84c4be313064718baed0b23968eca7557",
        ),
        (
            make_config(layers=3, proposers=4, k=2, mode="moa", capture_layer_answers=True),
            {},
            "ba6755eae8d43c4b0ed47d17074d6f29e17b6ffea6642387b547faf62f9a4509",
        ),
    ],
    ids=["rmoa", "rmoa-adaptive-stop-snapshots", "moa", "moa-snapshots"],
)
def test_transcript_bytes_pinned(config, bundle_args, digest):
    bundle = make_mock_bundle(**bundle_args)
    payload = run_pipeline("Pin the transcript.", config, bundle).to_json_bytes()
    assert hashlib.sha256(payload).hexdigest() == digest


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
