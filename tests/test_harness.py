"""Dataset parsing, grading, and batched benchmark runs."""

from __future__ import annotations

import json
import re
import threading
from decimal import Decimal
from itertools import product

import pytest

from rmoa import harness
from rmoa.backends import Backends
from rmoa.errors import BackendUnavailableError, DatasetError
from rmoa.harness import (
    BenchmarkItem,
    grade_answer,
    grade_boxed,
    grade_exact,
    load_dataset,
    run_benchmark,
    slugify,
)
from rmoa.mockbackend import MockChatBackend, MockEmbeddingBackend, MockRule

from conftest import FaultyEmbedding, ThreadRecordingChat, make_config, make_mock_bundle


def write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8"
    )


def exact_items(count: int) -> list[BenchmarkItem]:
    return [
        BenchmarkItem(
            id=f"q{i:02d}",
            question=f"Benchmark question number {i}, topic token-{i}.",
            gold_answer=f"gold-{i}",
            grader="exact_match",
        )
        for i in range(count)
    ]


def answering_bundle(items) -> Backends:
    answers = {item.question: item.gold_answer for item in items}
    return make_mock_bundle(behavior="template_answer", answers=answers)


class TestLoadDataset:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_dataset(path) == []

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(
            path,
            [
                {"id": "b", "question": "q1", "answer": "a1", "grader": "exact_match"},
                {"id": "a", "question": "q2", "answer": "a2", "grader": "boxed_math"},
                {"id": "c", "question": "q3", "grader": "none"},
            ],
        )
        items = load_dataset(path)
        assert [item.id for item in items] == ["b", "a", "c"]
        assert items[2].grader == "none"

    def test_missing_question_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"id": "a", "answer": "x", "grader": "exact_match"}])
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        valid = {"id": "a", "question": "q", "answer": "x", "grader": "exact_match"}
        path.write_text(json.dumps(valid) + "\nnot json\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "question": "q", "answer": "x", "grader": "exact_match"},
                {"id": "a", "question": "q", "answer": "y", "grader": "exact_match"},
            ],
        )
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(path)

    def test_grader_with_empty_gold_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"id": "a", "question": "q", "grader": "exact_match"}])
        with pytest.raises(DatasetError, match="gold"):
            load_dataset(path)

    def test_unknown_grader_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(
            path, [{"id": "a", "question": "q", "answer": "x", "grader": "judge"}]
        )
        with pytest.raises(DatasetError, match="grader"):
            load_dataset(path)


class TestGrading:
    def test_boxed_simple(self):
        assert grade_boxed("The asymptotes cancel, so the value is $\\boxed{0}$.", "0")

    def test_boxed_fraction(self):
        assert grade_boxed("$\\boxed{\\dfrac{211}{243}}$", "\\dfrac{211}{243}")

    def test_boxed_missing_grades_incorrect(self):
        assert grade_boxed("no boxed content here", "0") is False

    def test_boxed_takes_last_group(self):
        text = "First guess $\\boxed{1}$ but actually $\\boxed{2}$."
        assert grade_boxed(text, "2")
        assert not grade_boxed(text, "1")

    def test_boxed_handles_nested_braces(self):
        assert grade_boxed("$\\boxed{\\frac{a}{b}}$", "\\frac{a}{b}")

    def test_boxed_normalization_idempotent(self):
        from rmoa.harness import _normalize_answer

        for raw in ("  $ 63\\pi $ ", "63\\pi", "$x\n  y$"):
            once = _normalize_answer(raw)
            assert _normalize_answer(once) == once

    def test_boxed_whitespace_collapse(self):
        assert grade_boxed("$\\boxed{6z^5  +  15z^4}$", "6z^5 + 15z^4")

    def test_exact_match_trims(self):
        assert grade_exact(" gold \n", "gold")
        assert not grade_exact("golden", "gold")

    def test_grade_answer_none_cases(self):
        item = BenchmarkItem("a", "q", "", "none")
        assert grade_answer(item, "anything") is None
        graded = BenchmarkItem("b", "q", "g", "exact_match")
        assert grade_answer(graded, None) is None


class TestRunBenchmark:
    def test_empty_items_gives_empty_report(self):
        report = run_benchmark([], make_config(layers=1, proposers=1, k=1), make_mock_bundle())
        assert report.items == []
        assert report.accuracy is None
        assert report.mean_layers is None

    def test_template_answers_grade_perfectly(self):
        items = exact_items(4)
        config = make_config(layers=2, proposers=3, k=2, policy="none")
        report = run_benchmark(items, config, answering_bundle(items), item_parallelism=2)
        assert report.accuracy == 1.0
        assert report.graded_count == 4
        assert all(item.correct for item in report.items)

    def test_report_order_follows_input_order(self):
        items = exact_items(5)
        config = make_config(layers=1, proposers=2, k=1)
        report = run_benchmark(items, config, answering_bundle(items), item_parallelism=4)
        assert [r.item_id for r in report.items] == [item.id for item in items]

    def test_totals_are_sums_of_item_ledgers(self):
        items = exact_items(3)
        config = make_config(layers=2, proposers=2, k=1, policy="none")
        report = run_benchmark(items, config, answering_bundle(items))
        assert report.total_tokens == sum(r.total_tokens for r in report.items)
        assert report.total_cost == sum((r.cost for r in report.items), Decimal(0))

    def test_deterministic_across_item_parallelism(self):
        items = exact_items(6)
        config = make_config(layers=2, proposers=3, k=2, policy="none")
        payloads = {
            (p, q): json.dumps(
                run_benchmark(
                    items, config, answering_bundle(items),
                    item_parallelism=p, proposer_parallelism=q,
                ).to_json_dict(),
                sort_keys=True,
            )
            for p, q in product((1, 4), (1, 3))
        }
        assert len(set(payloads.values())) == 1

    def test_proposer_calls_share_one_bounded_pool(self):
        # the bound is item_parallelism x per-item workers = 2 x 3
        items = exact_items(6)
        config = make_config(layers=3, proposers=3, k=2, policy="none")
        chat = ThreadRecordingChat()
        bundle = Backends(chat=chat, embedding=MockEmbeddingBackend())
        report = run_benchmark(items, config, bundle, item_parallelism=2)
        assert [r.stop_reason for r in report.items] == ["max_layers"] * 6
        assert len(chat.threads) == 6 * 3 * 3
        assert len(set(chat.threads)) <= 6

    def test_serial_proposers_run_on_the_item_thread(self):
        items = exact_items(3)
        config = make_config(layers=2, proposers=3, k=2, policy="none")
        chat = ThreadRecordingChat()
        bundle = Backends(chat=chat, embedding=MockEmbeddingBackend())
        run_benchmark(items, config, bundle, item_parallelism=1, proposer_parallelism=1)
        assert set(chat.threads) == {threading.current_thread()}

    @pytest.mark.parametrize("bug_at", [None, 8], ids=["clean", "caller-bug"])
    def test_run_leaves_no_threads_behind(self, bug_at):
        items = exact_items(4)
        config = make_config(layers=2, proposers=3, k=2, policy="none")
        bundle = Backends(chat=ThreadRecordingChat(bug_at), embedding=MockEmbeddingBackend())
        before = threading.active_count()
        if bug_at is None:
            run_benchmark(items, config, bundle, item_parallelism=2)
        else:
            with pytest.raises(RuntimeError, match="caller bug"):
                run_benchmark(items, config, bundle, item_parallelism=2)
        assert threading.active_count() == before

    @pytest.mark.parametrize("name", ["item_parallelism", "proposer_parallelism"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_parallelism_below_one_is_rejected(self, name, value):
        items = exact_items(2)
        config = make_config(layers=1, proposers=2, k=1)
        kind = name.split("_")[0]
        with pytest.raises(ValueError, match=f"{kind}.parallelism must be at least 1, got {value}"):
            run_benchmark(items, config, answering_bundle(items), **{name: value})

    @pytest.mark.parametrize("item_parallelism", [1, 4])
    def test_ids_sharing_a_directory_are_rejected_before_any_call(
        self, tmp_path, item_parallelism
    ):
        items = [
            BenchmarkItem(item_id, f"Question {n}?", "", "none")
            for n, item_id in enumerate(["q 1", "q_1", "q/1"])
        ]
        config = make_config(layers=1, proposers=2, k=1)
        bundle = make_mock_bundle()
        out = tmp_path / "out"
        message = f"items 'q 1' and 'q_1' share the directory {out / 'q_1'}"
        with pytest.raises(DatasetError, match=re.escape(message)):
            run_benchmark(items, config, bundle, out_dir=out, item_parallelism=item_parallelism)
        assert bundle.chat.call_log == []
        assert not out.exists()
        # without an output directory the ids do not clash
        report = run_benchmark(items, config, bundle, item_parallelism=item_parallelism)
        assert [r.item_id for r in report.items] == ["q 1", "q_1", "q/1"]

    @pytest.mark.parametrize(
        "item_id", ["report.json", "report.json.tmp", "report.csv", "report.txt.tmp"]
    )
    def test_id_taking_a_report_file_name_is_rejected_before_any_call(self, tmp_path, item_id):
        items = [
            BenchmarkItem("a", "Question a?", "", "none"),
            BenchmarkItem(item_id, "Question b?", "", "none"),
        ]
        bundle = make_mock_bundle()
        out = tmp_path / "out"
        message = f"item {item_id!r} would use {out / item_id}, a name kept for the report files"
        with pytest.raises(DatasetError, match=re.escape(message)):
            run_benchmark(items, make_config(layers=1, proposers=2, k=1), bundle, out_dir=out)
        assert bundle.chat.call_log == []
        assert not out.exists()

    @pytest.mark.parametrize("item_id", [".", ".."])
    def test_run_writes_only_item_directories_and_reports(self, tmp_path, item_id):
        items = [
            BenchmarkItem(item_id, "Question a?", "", "none"),
            BenchmarkItem("b", "Question b?", "", "none"),
        ]
        config = make_config(layers=2, proposers=2, k=1)
        run_benchmark(items, config, make_mock_bundle(), out_dir=tmp_path / "out")
        written = {path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")}
        assert written == {
            "out",
            "out/report.json",
            "out/report.csv",
            "out/report.txt",
            "out/item",
            "out/item/transcript.json",
            "out/item/ledger.json",
            "out/b",
            "out/b/transcript.json",
            "out/b/ledger.json",
        }

    def test_dot_ids_share_the_item_directory(self, tmp_path):
        items = [BenchmarkItem(item_id, "Question?", "", "none") for item_id in (".", "..")]
        bundle = make_mock_bundle()
        message = f"items '.' and '..' share the directory {tmp_path / 'item'}"
        with pytest.raises(DatasetError, match=re.escape(message)):
            run_benchmark(items, make_config(layers=1, proposers=2, k=1), bundle, out_dir=tmp_path)
        assert bundle.chat.call_log == []

    def test_aborted_item_is_reported_and_run_continues(self):
        items = exact_items(3)
        poison = items[1].question

        class PoisonChat:
            def __init__(self):
                self.inner = MockChatBackend(MockRule())
                self.model = self.inner.model

            def chat(self, messages, *, temperature, max_tokens):
                if any(poison in m["content"] for m in messages):
                    raise BackendUnavailableError("poisoned item")
                return self.inner.chat(
                    messages, temperature=temperature, max_tokens=max_tokens
                )

        bundle = Backends(chat=PoisonChat(), embedding=MockEmbeddingBackend())
        config = make_config(layers=1, proposers=2, k=1)
        report = run_benchmark(items, config, bundle, item_parallelism=1)
        assert report.items[1].stop_reason == "backend_abort"
        assert report.items[1].correct is None
        assert report.graded_count == 2

    def test_stop_check_dimension_mismatch_aborts_items_and_report_is_written(
        self, tmp_path
    ):
        items = exact_items(2)
        config = make_config(layers=2, proposers=2, k=1, policy="sim_threshold")
        bundle = Backends(
            chat=MockChatBackend(MockRule()), embedding=FaultyEmbedding("dimension")
        )
        report = run_benchmark(items, config, bundle, out_dir=tmp_path)
        assert [item.stop_reason for item in report.items] == ["backend_abort"] * 2
        payload = json.loads((tmp_path / "report.json").read_text())
        assert [item["stop_reason"] for item in payload["items"]] == ["backend_abort"] * 2
        for item in items:
            transcript = json.loads((tmp_path / item.id / "transcript.json").read_text())
            assert transcript["events"] == ["aborted: layer 2: dimension mismatch: 16 vs 32"]

    def test_embedding_rows_whose_norms_overflow_abort_items_and_report_is_written(
        self, tmp_path
    ):
        items = exact_items(2)
        config = make_config(layers=2, proposers=2, k=1, policy="sim_threshold")
        bundle = Backends(
            chat=MockChatBackend(MockRule()), embedding=FaultyEmbedding("overflow")
        )
        report = run_benchmark(items, config, bundle, out_dir=tmp_path)
        assert [item.stop_reason for item in report.items] == ["backend_abort"] * 2
        payload = json.loads((tmp_path / "report.json").read_text())
        assert [item["stop_reason"] for item in payload["items"]] == ["backend_abort"] * 2
        for item in items:
            transcript = json.loads((tmp_path / item.id / "transcript.json").read_text())
            assert transcript["events"] == ["aborted: layer 2: vector 0 has a norm that overflows"]

    def test_embedding_rows_whose_squares_sum_past_the_float_range_still_write_the_report(
        self, tmp_path
    ):
        items = exact_items(2)
        config = make_config(layers=2, proposers=2, k=1)
        bundle = Backends(
            chat=MockChatBackend(MockRule()), embedding=FaultyEmbedding("sum-overflow")
        )
        run_benchmark(items, config, bundle, out_dir=tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert [item["stop_reason"] for item in payload["items"]] == ["backend_abort"] * 2
        for item in items:
            transcript = json.loads((tmp_path / item.id / "transcript.json").read_text())
            assert transcript["events"] == ["aborted: layer 2: vector 0 has a norm that overflows"]

    def test_run_dir_layout(self, tmp_path):
        items = exact_items(2)
        config = make_config(layers=1, proposers=2, k=1)
        run_benchmark(items, config, answering_bundle(items), out_dir=tmp_path)
        for item in items:
            assert (tmp_path / item.id / "transcript.json").is_file()
            assert (tmp_path / item.id / "ledger.json").is_file()
        for name in ("report.json", "report.csv", "report.txt"):
            assert (tmp_path / name).is_file()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["aggregates"]["graded"] == 2

    def test_failed_report_render_keeps_earlier_report_files(self, tmp_path, monkeypatch):
        items = exact_items(2)
        config = make_config(layers=1, proposers=2, k=1)
        run_benchmark(items, config, answering_bundle(items), out_dir=tmp_path)
        names = ("report.json", "report.csv", "report.txt")
        before = {name: (tmp_path / name).read_bytes() for name in names}

        def broken_csv(report_dict):
            raise RuntimeError("render failed")

        monkeypatch.setattr(harness, "render_report_csv", broken_csv)
        with pytest.raises(RuntimeError, match="render failed"):
            run_benchmark(items[:1], config, answering_bundle(items), out_dir=tmp_path)
        assert {name: (tmp_path / name).read_bytes() for name in names} == before
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_tflops_reported_when_params_known(self):
        items = exact_items(1)
        config = make_config(layers=1, proposers=1, k=1)
        report = run_benchmark(
            items,
            config,
            answering_bundle(items),
            params_per_model={"mock-chat": 7_000_000_000},
        )
        assert report.items[0].tflops is not None
        assert report.total_tflops == report.items[0].tflops

    def test_capture_layer_answers_builds_rounds(self):
        items = exact_items(3)
        config = make_config(
            layers=3, proposers=2, k=1, policy="none", capture_layer_answers=True
        )
        report = run_benchmark(items, config, answering_bundle(items))
        rounds = report.rounds()
        assert [r.round for r in rounds] == [1, 2, 3]
        assert all(len(r.correctness) == 3 for r in rounds)
        rates = report.hallucination_rates()
        assert set(rates) == {2, 3}
        assert rates[2] == 0.0  # answers stay the mapped gold every round
        payload = report.to_json_dict()
        assert payload["per_layer_capture"] is True
        assert payload["hallucination_rates"] == {"2": 0.0, "3": 0.0}

    def test_each_answer_is_graded_once_when_its_item_finishes(self, monkeypatch):
        graded = []

        def counting_grade(item, answer_text):
            graded.append(item.id)
            return grade_answer(item, answer_text)

        monkeypatch.setattr(harness, "grade_answer", counting_grade)
        items = exact_items(3)
        config = make_config(
            layers=3, proposers=2, k=1, policy="none", capture_layer_answers=True
        )
        report = run_benchmark(items, config, answering_bundle(items))
        # 1 final answer + 3 layer snapshots per item, all graded by the run
        assert sorted(graded) == ["q00"] * 4 + ["q01"] * 4 + ["q02"] * 4
        first, second = report.to_json_dict(), report.to_json_dict()
        assert len(graded) == 12
        assert first == second
        assert first["hallucination_rates"] == {"2": 0.0, "3": 0.0}

    @pytest.mark.parametrize("answering, rate", [(True, "0.0000"), (False, "-")])
    def test_report_text_lists_flip_rates(self, answering, rate):
        # echo replies never match the gold, so no round has a correct item to flip
        items = exact_items(2)
        config = make_config(
            layers=3, proposers=2, k=1, policy="none", capture_layer_answers=True
        )
        bundle = answering_bundle(items) if answering else make_mock_bundle()
        text = harness.render_report_text(
            run_benchmark(items, config, bundle).to_json_dict()
        )
        assert "per-layer answers captured: yes" in text
        assert f"flip rate round 2: {rate}\nflip rate round 3: {rate}\n" in text


class TestRoundsTracking:
    def _result(self, item, layer_answers, correct=True):
        from rmoa.harness import ItemResult

        return ItemResult(
            item_id=item.id,
            answer=layer_answers[-1] if layer_answers else None,
            correct=correct,
            layers_used=len(layer_answers) if layer_answers else 1,
            stop_reason="max_layers",
            total_tokens=1,
            cost=Decimal("0"),
            tflops=None,
            layer_answers=layer_answers,
            layer_correct=(
                [grade_answer(item, answer) for answer in layer_answers] if layer_answers else None
            ),
        )

    def test_early_stopped_items_carry_last_answer_forward(self):
        from rmoa.harness import BenchmarkReport

        items = [
            BenchmarkItem("a", "qa", "right", "exact_match"),
            BenchmarkItem("b", "qb", "right", "exact_match"),
        ]
        # item a ran three rounds and flipped wrong at round 3; item b
        # stopped after round 1 with the right answer
        report = BenchmarkReport(
            [
                self._result(items[0], ["right", "right", "wrong"], correct=False),
                self._result(items[1], ["right"], correct=True),
            ],
            make_config(layers=3, proposers=2, k=1, capture_layer_answers=True),
        )
        rounds = report.rounds()
        assert [r.correctness for r in rounds] == [
            (True, True),
            (True, True),
            (False, True),
        ]
        rates = report.hallucination_rates()
        assert rates == {2: 0.0, 3: 0.5}

    def test_rounds_empty_without_capture(self):
        from rmoa.harness import BenchmarkReport

        items = [BenchmarkItem("a", "qa", "right", "exact_match")]
        report = BenchmarkReport(
            [self._result(items[0], None)], make_config(layers=1, proposers=2, k=1)
        )
        assert report.rounds() == []


class TestSlugify:
    def test_safe_characters_kept(self):
        assert slugify("item-01.A_b") == "item-01.A_b"

    def test_unsafe_characters_replaced(self):
        assert slugify("a/b c:d") == "a_b_c_d"

    def test_empty_becomes_item(self):
        assert slugify("///") == "item"

    @pytest.mark.parametrize("value", [".", "..", "./", "/.."])
    def test_dot_names_become_item(self, value):
        assert slugify(value) == "item"

    def test_dots_within_a_name_kept(self):
        assert slugify("...") == "..."
        assert slugify("a..b") == "a..b"
