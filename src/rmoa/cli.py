"""Command-line interface: run, grade, report, selftest."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .agents import parse_residual_flag
from .backends import Backends
from .config import build_backends, load_config
from .errors import RmoaError
from .harness import (
    BenchmarkItem,
    grade_answer,
    load_dataset,
    read_jsonl,
    render_report_text,
    run_benchmark,
    write_report_files,
)
from .mockbackend import MockChatBackend, MockEmbeddingBackend, MockRule
from .pipeline import RunConfig, run_pipeline
from .prompts import load_prompt_set
from .termination import TerminationConfig


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except RmoaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmoa",
        description=(
            "Layered multi-agent inference with diversity selection, residual "
            "propagation, and adaptive early stopping."
        ),
    )
    commands = parser.add_subparsers(required=True)

    run = commands.add_parser("run", help="run a benchmark through the pipeline")
    run.add_argument("--dataset", required=True, type=Path)
    run.add_argument("--config", required=True, type=Path)
    run.add_argument("--mode", choices=("rmoa", "moa"), default=None,
                     help="override the mode named in the config file")
    run.add_argument("--out", required=True, type=Path)
    run.set_defaults(handler=_cmd_run)

    grade = commands.add_parser("grade", help="grade an answers file against a dataset")
    grade.add_argument("--answers", required=True, type=Path,
                       help="JSONL with one {\"id\": ..., \"answer\": ...} per line")
    grade.add_argument("--dataset", required=True, type=Path)
    grade.set_defaults(handler=_cmd_grade)

    report = commands.add_parser("report", help="re-render tables from a run directory")
    report.add_argument("--run-dir", required=True, type=Path)
    report.set_defaults(handler=_cmd_report)

    selftest = commands.add_parser(
        "selftest", help="run the mock-backend determinism suite"
    )
    selftest.set_defaults(handler=_cmd_selftest)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    run_config = config.run
    if args.mode is not None and args.mode != run_config.mode:
        run_config = dataclasses.replace(run_config, mode=args.mode)
    items = load_dataset(args.dataset)
    backends = build_backends(config)
    prompts = load_prompt_set(run_config.benchmark, config.prompt_dir)
    report = run_benchmark(
        items,
        run_config,
        backends,
        price_per_million_tokens=config.price_per_million_tokens,
        params_per_model=config.params_per_model,
        prompts=prompts,
        out_dir=args.out,
        item_parallelism=config.item_parallelism,
        proposer_parallelism=config.proposer_parallelism,
    )
    print(render_report_text(report.to_json_dict(items)), end="")
    return 0


def _cmd_grade(args: argparse.Namespace) -> int:
    items = {item.id: item for item in load_dataset(args.dataset)}
    graded = correct = missing = 0
    for _, record in list(read_jsonl(args.answers)):
        item = items.get(str(record.get("id")))
        if item is None:
            missing += 1
            print(f"{record.get('id')}: not in dataset")
            continue
        verdict = grade_answer(item, str(record.get("answer", "")))
        if verdict is None:
            print(f"{item.id}: ungraded")
            continue
        graded += 1
        correct += verdict
        print(f"{item.id}: {'correct' if verdict else 'incorrect'}")
    if graded:
        print(f"accuracy: {correct}/{graded} = {correct / graded:.4f}")
    else:
        print("accuracy: undefined (no graded items)")
    if missing:
        print(f"unknown ids: {missing}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report_path = Path(args.run_dir) / "report.json"
    if not report_path.is_file():
        print(f"error: {report_path} not found (run `rmoa run` first)", file=sys.stderr)
        return 2
    try:
        report_dict = json.loads(report_path.read_text(encoding="utf-8"))
        # Renders all three reports before writing any, so a bad dict writes nothing.
        write_report_files(report_dict, Path(args.run_dir))
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        print(
            f"error: {report_path} is not a valid report: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2
    print(render_report_text(report_dict), end="")
    return 0


def _selftest_items(count: int) -> list[BenchmarkItem]:
    return [
        BenchmarkItem(
            id=f"item-{i:02d}",
            question=f"Selftest question number {i}: name the color of marker {i}.",
            gold_answer=f"color-{i}",
            grader="exact_match",
        )
        for i in range(count)
    ]


def _mock_bundle(behavior: str = "echo", script=()) -> Backends:
    rule = MockRule(behavior=behavior, script=tuple(script))
    return Backends(
        chat=MockChatBackend(rule),
        embedding=MockEmbeddingBackend(),
    )


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"selftest: {name}: {'ok' if ok else 'FAIL'}")
        failures += 0 if ok else 1

    items = _selftest_items(6)
    config = RunConfig(
        layers=3,
        proposers_per_layer=4,
        select_k=2,
        termination=TerminationConfig(policy="none"),
    )
    reports = [
        run_benchmark(items, config, _mock_bundle(), item_parallelism=parallelism)
        for parallelism in (4, 1)
    ]
    payloads = [
        json.dumps(report.to_json_dict(items), sort_keys=True) for report in reports
    ]
    check("benchmark report is deterministic across parallelism", payloads[0] == payloads[1])

    transcripts = [
        run_pipeline("Selftest single query.", config, _mock_bundle()).to_json_bytes()
        for _ in range(2)
    ]
    check("transcripts are byte-identical across runs", transcripts[0] == transcripts[1])

    count_config = RunConfig(
        layers=4, proposers_per_layer=6, select_k=3,
        termination=TerminationConfig(policy="none"),
    )
    ledger = run_pipeline("Count the calls.", count_config, _mock_bundle()).ledger
    check(
        "call counts: 24 proposer / 3 extractor / 1 aggregator",
        (ledger.count("proposer"), ledger.count("extractor"), ledger.count("aggregator"))
        == (24, 3, 1),
    )
    moa_config = RunConfig(
        layers=4, proposers_per_layer=6, select_k=3, mode="moa",
        termination=TerminationConfig(policy="none"),
    )
    moa_ledger = run_pipeline("Count the calls.", moa_config, _mock_bundle()).ledger
    check(
        "baseline issues 25 chat calls",
        moa_ledger.count("proposer") + moa_ledger.count("aggregator") == 25
        and moa_ledger.count("extractor") == 0,
    )

    stop_config = RunConfig(
        layers=4, proposers_per_layer=6, select_k=3,
        termination=TerminationConfig(policy="llm", m=1),
    )
    bundle = _mock_bundle(behavior="residual_script", script=(False, False, False))
    stopped = run_pipeline("Stop early please.", stop_config, bundle)
    check(
        "scripted no-residual stops after layer 2",
        len(stopped.layer_states) == 2
        and stopped.stop_reason == "adaptive_stop"
        and stopped.ledger.count("proposer") == 12,
    )

    check(
        "residual flag parsing",
        parse_residual_flag("Residuals Detected: No").detected is False
        and parse_residual_flag("Residuals Detected: Yes\ndetail").detected is True
        and parse_residual_flag("free text").detected is True,
    )

    print(f"selftest: {'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
