"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavyweight fixtures (the twenty-item benchmark runs) are shared
across criteria at module scope.
"""

from __future__ import annotations

import random
import string
import time
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from rmoa.accounting import TokenUsage, UsageLedger, dollar_cost, tflops_estimate
from rmoa.agents import parse_residual_flag
from rmoa.embedding import build_similarity_matrix, cosine
from rmoa.harness import BenchmarkItem, grade_boxed, run_benchmark
from rmoa.pipeline import run_pipeline
from rmoa.selection import greedy_diverse_select
from rmoa.termination import (
    ResidualWindow,
    adaptive_should_stop,
    pairwise_similarities,
    similarity_threshold_stop,
    squared_deviation_sum,
    variance_stop,
)

from conftest import ANGLE_FIXTURE_ENTRIES, make_config, make_mock_bundle
from oracles import (
    naive_greedy_select,
    random_similarity_matrix,
    random_vectors,
)
from rmoa.embedding import SimilarityMatrix


def passline(number: int, label: str) -> None:
    print(f"[acceptance] criterion {number:>2}: {label}: PASS")


@dataclass
class BenchmarkFixture:
    items: list[BenchmarkItem]
    rmoa_dirs: tuple[Path, Path]
    rmoa_reports: tuple[dict, dict]
    moa_report: dict
    rmoa_elapsed_s: float


def _benchmark_items(count: int) -> list[BenchmarkItem]:
    return [
        BenchmarkItem(
            id=f"case-{i:02d}",
            question=(
                f"Benchmark case {i}: describe the contents of container {i}, "
                f"which holds {'many ' * (i % 4)}distinct marker tokens."
            ),
            gold_answer=f"gold-{i}",
            grader="exact_match",
        )
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def bench(tmp_path_factory) -> BenchmarkFixture:
    items = _benchmark_items(20)
    config = make_config(layers=4, proposers=6, k=3, policy="none")
    moa_config = make_config(layers=4, proposers=6, k=3, mode="moa")
    dirs = [tmp_path_factory.mktemp(f"run_{tag}") for tag in ("a", "b", "moa")]

    start = time.monotonic()
    reports = [
        run_benchmark(
            items, config, make_mock_bundle(), out_dir=run_dir, item_parallelism=4
        ).to_json_dict()
        for run_dir in dirs[:2]
    ]
    elapsed = time.monotonic() - start
    moa_report = run_benchmark(
        items, moa_config, make_mock_bundle(), out_dir=dirs[2], item_parallelism=4
    ).to_json_dict()
    return BenchmarkFixture(
        items=items,
        rmoa_dirs=(dirs[0], dirs[1]),
        rmoa_reports=(reports[0], reports[1]),
        moa_report=moa_report,
        rmoa_elapsed_s=elapsed,
    )


def test_criterion_01_selection_matches_naive_oracle():
    rng = random.Random(1001)
    start = time.monotonic()
    matrices = 0
    while matrices < 1000:
        n = rng.randint(1, 8)
        matrix = random_similarity_matrix(rng, n)
        # select before reading the entries, so selection decides on the
        # screened intervals rather than on the cached exact matrix
        chosen = [greedy_diverse_select(matrix, k).selected_indices for k in range(1, n + 1)]
        rows = [list(row) for row in matrix.entries]
        for k, selected in enumerate(chosen, start=1):
            assert selected == tuple(naive_greedy_select(rows, k))
        matrices += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
    passline(1, "greedy selection equals naive oracle on 1000 matrices")


def test_criterion_02_hand_traced_angle_fixture():
    matrix = SimilarityMatrix(ANGLE_FIXTURE_ENTRIES)
    assert greedy_diverse_select(matrix, 2).selected_indices == (0, 3)
    passline(2, "angle fixture (0/10/90/100 degrees, k=2) selects [0, 3]")


def test_criterion_03_matrix_invariants_and_scale_invariance():
    rng = random.Random(1003)
    for _ in range(1000):
        dim = rng.randint(2, 64)
        vectors = random_vectors(rng, rng.randint(2, 6), dim)
        matrix = build_similarity_matrix(vectors)
        n = matrix.n
        for i in range(n):
            assert abs(matrix.entries[i][i] - 1.0) <= 1e-9
            for j in range(n):
                assert abs(matrix.entries[i][j] - matrix.entries[j][i]) <= 1e-9
                assert -1.0 <= matrix.entries[i][j] <= 1.0
        a, b = vectors[0], vectors[1]
        alpha = rng.uniform(1e-3, 1e3)
        assert abs(cosine(a.scaled(alpha), b) - cosine(a, b)) <= 1e-9
    passline(3, "matrix invariants and cosine scale invariance on 1000 sets")


def test_criterion_04_termination_truth_tables_and_monotonicity():
    for m in (1, 2, 3):
        for length in range(0, 7):
            for bits in range(2**length):
                history = tuple(bool((bits >> i) & 1) for i in range(length))
                expected = length >= m and not any(history[-m:])
                assert adaptive_should_stop(ResidualWindow(history, m)) == expected
    rng = random.Random(1004)
    for _ in range(200):
        dim = rng.randint(2, 8)
        count = rng.randint(1, 3)
        prev = random_vectors(rng, count, dim)
        curr = random_vectors(rng, count, dim)
        theta_lo, theta_hi = sorted((rng.uniform(-0.99, 1.0), rng.uniform(-0.99, 1.0)))
        if similarity_threshold_stop(prev, curr, theta_hi):
            assert similarity_threshold_stop(prev, curr, theta_lo)
        sigma_lo, sigma_hi = sorted((rng.uniform(1e-6, 2.0), rng.uniform(1e-6, 2.0)))
        if variance_stop(prev, curr, sigma_lo):
            assert variance_stop(prev, curr, sigma_hi)
    passline(4, "window truth tables exhaustive; threshold/variance monotone")


def test_criterion_05_variance_fixture():
    exact = squared_deviation_sum(
        [Fraction(1), Fraction(4, 5), Fraction(4, 5), Fraction(1)]
    )
    assert exact == Fraction(1, 25)

    from rmoa.embedding import EmbeddingVector

    prev = [EmbeddingVector((1.0, 0.0)), EmbeddingVector((0.8, 0.6))]
    curr = [EmbeddingVector((1.0, 0.0)), EmbeddingVector((0.8, 0.6))]
    assert sorted(pairwise_similarities(prev, curr)) == [0.8, 0.8, 1.0, 1.0]
    assert variance_stop(prev, curr, 1e-3) is False
    assert variance_stop(prev, curr, 0.05) is True
    passline(5, "variance fixture: spread 1/25 exactly; verdicts at 1e-3 and 0.05")


def _random_ledger(rng: random.Random, params=None) -> UsageLedger:
    ledger = UsageLedger("0.30", params)
    for _ in range(rng.randint(0, 10)):
        ledger.append(
            rng.choice(("proposer", "extractor", "aggregator", "embedding")),
            rng.choice(("m7", "m9")),
            TokenUsage(rng.randint(0, 100_000), rng.randint(0, 100_000)),
        )
    return ledger


def test_criterion_06_cost_arithmetic():
    ledger = UsageLedger("0.30")
    ledger.append("proposer", "m", TokenUsage(250_000, 750_000))
    assert dollar_cost(ledger) == Decimal("0.30")

    rng = random.Random(1006)
    for _ in range(500):
        a = _random_ledger(rng)
        b = _random_ledger(rng)
        assert dollar_cost(UsageLedger.merged([a, b])) == dollar_cost(a) + dollar_cost(b)
        factor = rng.randint(1, 7)
        scaled = UsageLedger("0.30")
        for entry in a.entries:
            scaled.append(
                entry.kind,
                entry.model,
                TokenUsage(
                    entry.usage.prompt_tokens * factor,
                    entry.usage.completion_tokens * factor,
                ),
            )
        assert dollar_cost(scaled) == factor * dollar_cost(a)
    passline(6, "1M tokens at $0.30/M costs $0.30; additive and homogeneous")


def test_criterion_07_tflops_formula():
    ledger = UsageLedger(params_per_model={"m7": 7_000_000_000})
    ledger.append("proposer", "m7", TokenUsage(400, 600))
    assert tflops_estimate(ledger) == 14.0

    rng = random.Random(1007)
    params = {"m7": 7_000_000_000, "m9": 9_000_000_000}
    for _ in range(500):
        a = _random_ledger(rng, params)
        b = _random_ledger(rng, params)
        merged = UsageLedger.merged([a, b])
        assert tflops_estimate(merged) == pytest.approx(
            tflops_estimate(a) + tflops_estimate(b), rel=1e-12, abs=1e-12
        )
    passline(7, "7B params x 1000 tokens = 14.0 TFLOPs; additive over ledgers")


def test_criterion_08_call_count_law():
    config = make_config(layers=4, proposers=6, k=3, policy="none")
    ledger = run_pipeline("Count the calls.", config, make_mock_bundle()).ledger
    assert ledger.count("proposer") == 24
    assert ledger.count("extractor") == 3
    assert ledger.count("aggregator") == 1

    moa_config = make_config(layers=4, proposers=6, k=3, mode="moa")
    bundle = make_mock_bundle()
    moa_ledger = run_pipeline("Count the calls.", moa_config, bundle).ledger
    chat_calls = moa_ledger.count("proposer") + moa_ledger.count("aggregator")
    assert chat_calls == 25
    assert moa_ledger.count("extractor") == 0
    assert len(bundle.chat.call_log) == 25
    passline(8, "L=4/N=6 issues 24+3+1 calls; baseline issues 25 chat calls")


def test_criterion_09_early_stop_law():
    config = make_config(layers=4, proposers=6, k=3, policy="llm", m=1)
    bundle = make_mock_bundle(behavior="residual_script", script=(False, False, False))
    transcript = run_pipeline("Stop after two layers.", config, bundle)
    assert transcript.stop_reason == "adaptive_stop"
    assert [state.layer for state in transcript.layer_states] == [1, 2]
    # 6 + 6 proposer calls, 1 extractor, 1 aggregator: nothing from layer 3
    assert transcript.ledger.count("proposer") == 12
    assert len(bundle.chat.call_log) == 14
    passline(9, "all-quiet script with m=1 stops after layer 2; no layer-3 calls")


def test_criterion_10_benchmark_determinism(bench: BenchmarkFixture):
    assert bench.rmoa_elapsed_s < 10.0, f"two runs took {bench.rmoa_elapsed_s:.2f}s"
    dir_a, dir_b = bench.rmoa_dirs
    compared = 0
    for file_a in sorted(dir_a.rglob("*")):
        if not file_a.is_file():
            continue
        file_b = dir_b / file_a.relative_to(dir_a)
        assert file_b.is_file(), f"missing counterpart for {file_a.name}"
        assert file_a.read_bytes() == file_b.read_bytes(), f"{file_a.name} differs"
        compared += 1
    # 20 items x (transcript + ledger) + report.json/csv/txt
    assert compared == 43
    assert bench.rmoa_reports[0] == bench.rmoa_reports[1]
    passline(10, f"two 20-item runs byte-identical ({compared} files, "
                 f"{bench.rmoa_elapsed_s:.2f}s)")


def test_criterion_11_cost_direction(bench: BenchmarkFixture):
    rmoa_items = {item["id"]: item for item in bench.rmoa_reports[0]["items"]}
    moa_items = {item["id"]: item for item in bench.moa_report["items"]}
    assert set(rmoa_items) == set(moa_items) and len(rmoa_items) == 20
    for item_id, rmoa_item in rmoa_items.items():
        assert rmoa_item["total_tokens"] < moa_items[item_id]["total_tokens"], (
            f"{item_id}: {rmoa_item['total_tokens']} >= "
            f"{moa_items[item_id]['total_tokens']}"
        )
    ratio = (
        bench.rmoa_reports[0]["aggregates"]["total_tokens"]
        / bench.moa_report["aggregates"]["total_tokens"]
    )
    passline(11, f"selective mode cheaper on all 20 items (token ratio {ratio:.3f})")


def test_criterion_12_residual_flag_parser():
    yes = parse_residual_flag("Residuals Detected: Yes")
    no = parse_residual_flag("Residuals Detected: No")
    free = parse_residual_flag("The responses look broadly similar overall.")
    assert yes.detected
    assert not no.detected and no.text == ""
    assert free.detected and free.text

    rng = random.Random(1012)
    alphabet = string.printable + "Ωδ≠京 "
    words = ["yes", "no", "Residuals", "Detected", ":", "\n", "no change", "no update"]
    for _ in range(10_000):
        if rng.random() < 0.5:
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 80)))
        else:
            text = " ".join(rng.choices(words, k=rng.randint(0, 12)))
        residual = parse_residual_flag(text)
        assert residual.kind in ("has_residual", "no_residual")
    passline(12, "flag fixtures classify correctly; no throw on 10k fuzz strings")


def test_criterion_13_boxed_grading_fixtures():
    assert grade_boxed(
        "and therefore the value is $\\boxed{0}$.", "0"
    )
    assert grade_boxed(
        "Thus, the total hopped is $\\boxed{\\dfrac{211}{243}}$", "\\dfrac{211}{243}"
    )
    passline(13, "boxed-answer fixtures grade correct against their golds")
