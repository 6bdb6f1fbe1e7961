"""Dataset parsing, grading, and batched benchmark runs."""

from __future__ import annotations

import json
from decimal import Decimal

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

from conftest import make_config, make_mock_bundle


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
        payloads = [
            json.dumps(
                run_benchmark(
                    items, config, answering_bundle(items), item_parallelism=p
                ).to_json_dict(items),
                sort_keys=True,
            )
            for p in (1, 4)
        ]
        assert payloads[0] == payloads[1]

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
        rounds = report.rounds(items)
        assert [r.round for r in rounds] == [1, 2, 3]
        assert all(len(r.correctness) == 3 for r in rounds)
        rates = report.hallucination_rates(items)
        assert set(rates) == {2, 3}
        assert rates[2] == 0.0  # answers stay the mapped gold every round
        payload = report.to_json_dict(items)
        assert payload["per_layer_capture"] is True
        assert payload["hallucination_rates"] == {"2": 0.0, "3": 0.0}


class TestRoundsTracking:
    def _result(self, item_id, layer_answers, correct=True):
        from rmoa.harness import ItemResult

        return ItemResult(
            item_id=item_id,
            answer=layer_answers[-1] if layer_answers else None,
            correct=correct,
            layers_used=len(layer_answers) if layer_answers else 1,
            stop_reason="max_layers",
            total_tokens=1,
            cost=Decimal("0"),
            tflops=None,
            layer_answers=layer_answers,
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
                self._result("a", ["right", "right", "wrong"], correct=False),
                self._result("b", ["right"], correct=True),
            ],
            make_config(layers=3, proposers=2, k=1, capture_layer_answers=True),
        )
        rounds = report.rounds(items)
        assert [r.correctness for r in rounds] == [
            (True, True),
            (True, True),
            (False, True),
        ]
        rates = report.hallucination_rates(items)
        assert rates == {2: 0.0, 3: 0.5}

    def test_rounds_empty_without_capture(self):
        from rmoa.harness import BenchmarkReport

        items = [BenchmarkItem("a", "qa", "right", "exact_match")]
        report = BenchmarkReport(
            [self._result("a", None)], make_config(layers=1, proposers=2, k=1)
        )
        assert report.rounds(items) == []


class TestSlugify:
    def test_safe_characters_kept(self):
        assert slugify("item-01.A_b") == "item-01.A_b"

    def test_unsafe_characters_replaced(self):
        assert slugify("a/b c:d") == "a_b_c_d"

    def test_empty_becomes_item(self):
        assert slugify("///") == "item"
