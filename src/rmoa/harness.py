"""Benchmark loading, grading, batched pipeline runs, and reporting.

Datasets are JSON lines with ``id``, ``question``, ``answer``, ``grader``
fields. Grading is deliberately string-based: boxed answers are compared
after a fixed normalization, with no symbolic algebra.
"""

from __future__ import annotations

import csv
import io
import json
import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Iterator

from .accounting import (
    DEFAULT_PRICE_PER_MILLION,
    GradedRound,
    UsageLedger,
    dollar_cost,
    format_dollars,
    hallucination_rate,
    tflops_or_none,
)
from .backends import Backends
from .errors import DatasetError, UndefinedRateError
from .pipeline import (
    STOP_BACKEND_ABORT,
    RunConfig,
    Transcript,
    ordered_map,
    run_pipeline,
    write_atomic,
)
from .prompts import PromptSet, load_prompt_set

GRADERS = ("boxed_math", "exact_match", "none")

_SLUG = re.compile(r"[^A-Za-z0-9._-]+")

DEFAULT_ITEM_PARALLELISM = 4

_DEFAULT_MAX_PARALLEL_PROPOSERS = 8


@dataclass(frozen=True)
class BenchmarkItem:
    id: str
    question: str
    gold_answer: str
    grader: str

    def __post_init__(self) -> None:
        if self.grader not in GRADERS:
            raise DatasetError(f"unknown grader {self.grader!r}")
        if self.grader != "none" and not self.gold_answer:
            raise DatasetError(f"item {self.id!r} has a grader but no gold answer")


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each nonblank line of a JSON-lines file.

    A file that cannot be read, a line that is not JSON, or a line that is
    not a JSON object raises ``DatasetError`` naming the file.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise DatasetError(f"{path}: line {lineno}: expected an object")
                yield lineno, record
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"{path}: cannot read: {exc}") from exc


def load_dataset(path: str | Path) -> list[BenchmarkItem]:
    """Parse a JSONL dataset, preserving file order and rejecting duplicates."""
    items: list[BenchmarkItem] = []
    seen: set[str] = set()
    for lineno, record in read_jsonl(path):
        for field_name in ("id", "question", "grader"):
            if field_name not in record:
                raise DatasetError(f"{path}: line {lineno}: missing field {field_name!r}")
        item_id = str(record["id"])
        if item_id in seen:
            raise DatasetError(f"{path}: line {lineno}: duplicate id {item_id!r}")
        seen.add(item_id)
        try:
            items.append(
                BenchmarkItem(
                    id=item_id,
                    question=str(record["question"]),
                    gold_answer=str(record.get("answer", "")),
                    grader=str(record["grader"]),
                )
            )
        except DatasetError as exc:
            raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
    return items


def _last_boxed_group(text: str) -> str | None:
    """Contents of the last well-formed, brace-balanced ``\\boxed{...}``."""
    for match in reversed(list(re.finditer(r"\\boxed\s*\{", text))):
        depth = 1
        start = match.end()
        for pos in range(start, len(text)):
            char = text[pos]
            if char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    return text[start:pos]
    return None


def _normalize_answer(answer: str) -> str:
    answer = answer.strip()
    while len(answer) > 1 and answer.startswith("$") and answer.endswith("$"):
        answer = answer[1:-1].strip()
    return " ".join(answer.split())


def grade_boxed(answer_text: str, gold: str) -> bool:
    """Compare the last boxed group against the gold answer, normalized.

    A missing boxed group grades incorrect rather than raising.
    """
    boxed = _last_boxed_group(answer_text)
    if boxed is None:
        return False
    return _normalize_answer(boxed) == _normalize_answer(gold)


def grade_exact(answer_text: str, gold: str) -> bool:
    return answer_text.strip() == gold.strip()


def grade_answer(item: BenchmarkItem, answer_text: str | None) -> bool | None:
    """None for ungradable items (no grader, or no answer produced)."""
    if item.grader == "none" or answer_text is None:
        return None
    if item.grader == "boxed_math":
        return grade_boxed(answer_text, item.gold_answer)
    return grade_exact(answer_text, item.gold_answer)


@dataclass
class ItemResult:
    item_id: str
    answer: str | None
    correct: bool | None
    layers_used: int
    stop_reason: str | None
    total_tokens: int
    cost: Decimal
    tflops: float | None
    layer_answers: list[str] | None

    def to_json_dict(self) -> dict:
        return {
            "id": self.item_id,
            "answer": self.answer,
            "correct": self.correct,
            "layers_used": self.layers_used,
            "stop_reason": self.stop_reason,
            "total_tokens": self.total_tokens,
            "cost_usd": str(format_dollars(self.cost)),
            "tflops": self.tflops,
            "layer_answers": self.layer_answers,
        }


@dataclass
class BenchmarkReport:
    """Per-item outcomes plus recomputed aggregates for one benchmark run."""

    items: list[ItemResult]
    config: RunConfig

    @property
    def graded_count(self) -> int:
        return sum(1 for item in self.items if item.correct is not None)

    @property
    def correct_count(self) -> int:
        return sum(1 for item in self.items if item.correct)

    @property
    def accuracy(self) -> float | None:
        graded = self.graded_count
        if graded == 0:
            return None
        return self.correct_count / graded

    @property
    def total_tokens(self) -> int:
        return sum(item.total_tokens for item in self.items)

    @property
    def total_cost(self) -> Decimal:
        return sum((item.cost for item in self.items), Decimal(0))

    @property
    def total_tflops(self) -> float | None:
        if any(item.tflops is None for item in self.items):
            return None
        return sum(item.tflops for item in self.items)

    @property
    def mean_layers(self) -> float | None:
        if not self.items:
            return None
        return sum(item.layers_used for item in self.items) / len(self.items)

    def rounds(self, items_source: list[BenchmarkItem]) -> list[GradedRound]:
        """Per-round correctness over gradable items, for flip-rate analysis.

        Items that stopped early keep their last answer for later rounds.
        Empty unless the run captured per-layer answers.
        """
        by_id = {item.id: item for item in items_source}
        tracked = [
            result
            for result in self.items
            if result.layer_answers
            and result.correct is not None
            and result.stop_reason != STOP_BACKEND_ABORT
        ]
        if not tracked:
            return []
        depth = max(len(result.layer_answers) for result in tracked)
        rounds: list[GradedRound] = []
        for round_index in range(depth):
            graded = []
            for result in tracked:
                answers = result.layer_answers
                answer = answers[min(round_index, len(answers) - 1)]
                graded.append(bool(grade_answer(by_id[result.item_id], answer)))
            rounds.append(GradedRound(round_index + 1, tuple(graded)))
        return rounds

    def hallucination_rates(self, items_source: list[BenchmarkItem]) -> dict[int, float | None]:
        """Flip rate between consecutive rounds; None where undefined."""
        rounds = self.rounds(items_source)
        rates: dict[int, float | None] = {}
        for prev, curr in zip(rounds, rounds[1:]):
            try:
                rates[curr.round] = hallucination_rate(prev, curr)
            except UndefinedRateError:
                rates[curr.round] = None
        return rates

    def to_json_dict(self, items_source: list[BenchmarkItem] | None = None) -> dict:
        rates = None
        if self.config.capture_layer_answers and items_source is not None:
            rates = {
                str(round_number): rate
                for round_number, rate in self.hallucination_rates(items_source).items()
            }
        return {
            "aggregates": {
                "items": len(self.items),
                "graded": self.graded_count,
                "correct": self.correct_count,
                "accuracy": self.accuracy,
                "total_tokens": self.total_tokens,
                "total_cost_usd": str(format_dollars(self.total_cost)),
                "total_tflops": self.total_tflops,
                "mean_layers": self.mean_layers,
            },
            "per_layer_capture": self.config.capture_layer_answers,
            "hallucination_rates": rates,
            "items": [item.to_json_dict() for item in self.items],
        }


def slugify(value: str) -> str:
    slug = _SLUG.sub("_", value).strip("_")
    return slug or "item"


def _fork(backend):
    fork = getattr(backend, "fork_for_run", None)
    return fork() if callable(fork) else backend


def _check_item_dirs(items: list[BenchmarkItem], out_dir: Path) -> None:
    """Raise ``DatasetError`` if two items would write to one directory under ``out_dir``."""
    owners: dict[str, str] = {}
    for item in items:
        slug = slugify(item.id)
        if slug in owners:
            raise DatasetError(
                f"items {owners[slug]!r} and {item.id!r} share the directory {out_dir / slug}"
            )
        owners[slug] = item.id


def run_benchmark(
    items: list[BenchmarkItem],
    config: RunConfig,
    backends: Backends,
    *,
    price_per_million_tokens: Decimal | str = DEFAULT_PRICE_PER_MILLION,
    params_per_model: dict[str, int] | None = None,
    prompts: PromptSet | None = None,
    out_dir: Path | None = None,
    item_parallelism: int = DEFAULT_ITEM_PARALLELISM,
    proposer_parallelism: int | None = None,
) -> BenchmarkReport:
    """Run the pipeline over every item and aggregate the outcomes.

    Items run concurrently up to ``item_parallelism``; results are
    assembled in input order so reports do not depend on scheduling. An
    aborted item is reported ungraded and the run continues. Items whose
    ids slugify to one directory under ``out_dir`` raise ``DatasetError``.

    Proposer calls of all items share one pool, opened once per run, of
    ``item_parallelism`` times each item's share of threads; the share is
    ``proposer_parallelism``, else one per proposer up to a default cap. A
    share of one runs each item's calls inline, with no pool.
    """
    if item_parallelism < 1:
        raise ValueError(f"item_parallelism must be at least 1, got {item_parallelism}")
    share = proposer_parallelism
    if share is None:
        share = min(config.proposers_per_layer, _DEFAULT_MAX_PARALLEL_PROPOSERS)
    elif share < 1:
        raise ValueError(f"proposer parallelism must be at least 1, got {share}")
    if out_dir is not None:
        _check_item_dirs(items, Path(out_dir))
    prompts = prompts or load_prompt_set(config.benchmark)

    def run_item(item: BenchmarkItem) -> ItemResult:
        ledger = UsageLedger(price_per_million_tokens, params_per_model)
        bundle = Backends(
            chat=_fork(backends.chat),
            embedding=_fork(backends.embedding) if backends.embedding else None,
        )
        persist = Path(out_dir) / slugify(item.id) if out_dir else None
        transcript = run_pipeline(
            item.question,
            config,
            bundle,
            prompts=prompts,
            ledger=ledger,
            persist_dir=persist,
            executor=calls,
        )
        return _item_result(item, transcript)

    # Items wait on their proposer calls, so the two never share a pool. The
    # call pool closes first so that the item threads exit last: glibc gives a
    # new thread the malloc arena freed last, so the next run's item threads
    # reuse their predecessors' arenas. Closed the other way round, the items'
    # large allocations spread over every call thread's arena (+10% peak RSS
    # on http-fanout in 50 s runs on a 2-vCPU VM). If an item raises, items
    # still running then fail at their next proposer fan-out.
    with _thread_pool(item_parallelism, "rmoa-item") as item_threads:
        with _thread_pool(item_parallelism * share if share > 1 else 1, "rmoa-call") as calls:
            results = ordered_map(run_item, items, item_threads)
    report = BenchmarkReport(results, config)
    if out_dir is not None:
        write_report_files(report.to_json_dict(items), Path(out_dir))
    return report


def _thread_pool(workers: int, name: str):
    """A pool of ``workers`` threads to use in a ``with``; none for one worker."""
    if workers <= 1:
        return nullcontext()
    return ThreadPoolExecutor(workers, thread_name_prefix=name)


def _item_result(item: BenchmarkItem, transcript: Transcript) -> ItemResult:
    answer = transcript.final_response.text if transcript.final_response else None
    layer_answers = None
    if transcript.config.capture_layer_answers:
        layer_answers = [
            state.snapshot_answer
            for state in transcript.layer_states
            if state.snapshot_answer is not None
        ]
    return ItemResult(
        item_id=item.id,
        answer=answer,
        correct=grade_answer(item, answer),
        layers_used=len(transcript.layer_states),
        stop_reason=transcript.stop_reason,
        total_tokens=transcript.ledger.total_tokens(),
        cost=dollar_cost(transcript.ledger),
        tflops=tflops_or_none(transcript.ledger),
        layer_answers=layer_answers,
    )


def render_report_csv(report_dict: dict) -> str:
    """Per-item table as CSV with a trailing totals row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["id", "correct", "layers_used", "stop_reason", "total_tokens", "cost_usd", "tflops"]
    )
    for item in report_dict["items"]:
        writer.writerow(
            [
                item["id"],
                _csv_cell(item["correct"]),
                item["layers_used"],
                item["stop_reason"] or "",
                item["total_tokens"],
                item["cost_usd"],
                _csv_cell(item["tflops"]),
            ]
        )
    aggregates = report_dict["aggregates"]
    writer.writerow(
        [
            "TOTAL",
            _csv_cell(aggregates["accuracy"]),
            _csv_cell(aggregates["mean_layers"]),
            "",
            aggregates["total_tokens"],
            aggregates["total_cost_usd"],
            _csv_cell(aggregates["total_tflops"]),
        ]
    )
    return buffer.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def render_report_text(report_dict: dict) -> str:
    """Human-readable summary of a report dict."""
    aggregates = report_dict["aggregates"]
    lines = [
        f"items:        {aggregates['items']}",
        f"graded:       {aggregates['graded']}",
        f"correct:      {aggregates['correct']}",
        f"accuracy:     {_text_cell(aggregates['accuracy'])}",
        f"mean layers:  {_text_cell(aggregates['mean_layers'])}",
        f"total tokens: {aggregates['total_tokens']}",
        f"total cost:   ${aggregates['total_cost_usd']}",
        f"total tflops: {_text_cell(aggregates['total_tflops'])}",
    ]
    if report_dict.get("per_layer_capture"):
        lines.append("per-layer answers captured: yes (adds one aggregator call per layer)")
        rates = report_dict.get("hallucination_rates") or {}
        for round_number in sorted(rates, key=int):
            lines.append(
                f"flip rate round {round_number}: {_text_cell(rates[round_number])}"
            )
    lines.append("")
    lines.append(f"{'id':<24} {'correct':<8} {'layers':<7} {'tokens':<10} cost")
    for item in report_dict["items"]:
        lines.append(
            f"{item['id']:<24} {_text_cell(item['correct']):<8} "
            f"{item['layers_used']:<7} {item['total_tokens']:<10} ${item['cost_usd']}"
        )
    return "\n".join(lines) + "\n"


def _text_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def write_report_files(report_dict: dict, out_dir: Path) -> None:
    """Write the three report files atomically, rendering all before writing any."""
    texts = {
        "report.json": json.dumps(report_dict, indent=2, sort_keys=True) + "\n",
        "report.csv": render_report_csv(report_dict),
        "report.txt": render_report_text(report_dict),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        write_atomic(out_dir / name, [text])
