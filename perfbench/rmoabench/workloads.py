"""Workloads, the timed closed loop over ``rmoa.harness``, and the output checks.

Every workload is a closed loop with persistence on: each pass hands the
harness the next ``PASS_ITEMS`` generated items, as one ``rmoa run`` over a
dataset would, with a fresh run directory, and waits for the report. The
program receives only the generated items; the seed stays with the
benchmark.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import resource
import select
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Sequence

from rmoa import harness
from rmoa.accounting import TokenUsage
from rmoa.backends import Backends, ChatResult, EmbeddingBatch
from rmoa.config import AppConfig, build_backends, load_config
from rmoa.harness import BenchmarkItem, slugify
from rmoa.pipeline import STOP_BACKEND_ABORT
from rmoa.prompts import PromptSet, load_prompt_set

from .fixtures import DEPTH_PLAN, Fixture, token_count

BENCH_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = BENCH_DIR.parent / "src"

# One block of the depth plan per pass, so every pass has the same depth mix.
PASS_ITEMS = len(DEPTH_PLAN)
# tokens_per_item and calls_per_item average over this many leading items,
# which every full-length run completes, so both repeat exactly per seed.
COST_ITEMS = 96
DIGEST_ITEMS = 3
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    layers: int
    policy: str
    item_parallelism: int
    http: bool
    # None leaves the program's default proposer fan-out in place.
    proposer_parallelism: int | None = None
    proposers: int = 6
    select_k: int = 3
    theta: float = 0.9
    m: int = 1

    def config_dict(self, base_url: str | None) -> dict:
        """The run configuration a user would hand to ``rmoa run``."""
        if self.http:
            chat = {"kind": "http", "base_url": base_url, "model": "bench-chat"}
            embedding = {"kind": "http", "base_url": base_url, "model": "bench-embed"}
        else:
            # The benchmark substitutes its own in-process backends.
            chat = {"kind": "mock", "model": "bench-chat"}
            embedding = {"kind": "mock", "model": "bench-embed"}
        execution = {"item_parallelism": self.item_parallelism}
        if self.proposer_parallelism is not None:
            execution["proposer_parallelism"] = self.proposer_parallelism
        return {
            "run": {
                "layers": self.layers,
                "proposers_per_layer": self.proposers,
                "select_k": self.select_k,
                "mode": self.mode,
                "benchmark": "generic",
                "termination": {"policy": self.policy, "m": self.m, "theta": self.theta},
            },
            "backends": {"chat": chat, "embedding": embedding},
            "execution": execution,
        }


# The in-process workloads call their proposers one after another. With
# zero-latency backends, proposer threads only hand the GIL back and forth,
# and each handoff waits for the OS to run the next thread, so their wall
# time measured how busy the host was rather than the framework.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("inproc-rmoa-deep", "rmoa", 12, "sim_threshold", 1, http=False,
                 proposer_parallelism=1),
        Workload("inproc-moa-deep", "moa", 12, "sim_threshold", 1, http=False,
                 proposer_parallelism=1),
        Workload("http-fanout", "rmoa", 6, "llm", 2, http=True),
    )
}


class InprocChat:
    """Zero-latency chat backend over the seeded reply pool."""

    def __init__(self, fixture: Fixture, model: str = "bench-chat") -> None:
        self.fixture = fixture
        self.model = model

    def chat(self, messages, *, temperature: float, max_tokens: int) -> ChatResult:
        prompt = "\n".join(m["content"] for m in messages)
        text = self.fixture.reply(prompt)
        return ChatResult(text, TokenUsage(token_count(prompt), token_count(text)), self.model)


class InprocEmbedding:
    """Zero-latency embedding backend over the seeded unit-vector pool."""

    max_input_chars = None

    def __init__(self, fixture: Fixture, model: str = "bench-embed") -> None:
        self.fixture = fixture
        self.model = model

    def embed(self, texts: Sequence[str]) -> EmbeddingBatch:
        rows = tuple(self.fixture.vectors[self.fixture.vector_index(text)] for text in texts)
        usage = TokenUsage(sum(token_count(text) for text in texts), 0)
        return EmbeddingBatch(rows, usage, self.model)


class StubProcess:
    """The loopback stub in its own process; stopped and reaped on exit."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.proc: subprocess.Popen | None = None
        self.base_url = ""

    def __enter__(self) -> "StubProcess":
        # Loopback traffic must not go through a proxy named in the environment.
        os.environ["no_proxy"] = "127.0.0.1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "rmoabench.stub", "--seed", str(self.seed)],
            cwd=BENCH_DIR,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 30)
            line = self.proc.stdout.readline() if ready else ""
            if not line.strip():
                raise RuntimeError("the loopback stub did not report its port")
        except BaseException:
            self.__exit__()
            raise
        self.base_url = f"http://127.0.0.1:{int(line)}/v1"
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _control(self, path: str, method: str) -> dict:
        url = self.base_url.removesuffix("/v1") + path
        request = urllib.request.Request(url, method=method, data=b"" if method == "POST" else None)
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def reset(self) -> None:
        self._control("/_bench/reset", "POST")

    def stats(self) -> dict:
        return self._control("/_bench/stats", "GET")


class PoolDiscards(logging.Handler):
    """Counts urllib3's "Connection pool is full" warnings instead of printing them."""

    def __init__(self) -> None:
        super().__init__()
        self.count = 0
        self._logger = logging.getLogger("urllib3.connectionpool")
        self._propagate = self._logger.propagate

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith("Connection pool is full"):
            self.count += 1

    def __enter__(self) -> "PoolDiscards":
        self._logger.addHandler(self)
        self._logger.propagate = False
        return self

    def __exit__(self, *exc) -> None:
        self._logger.removeHandler(self)
        self._logger.propagate = self._propagate


def measure_setup(config_path: Path, repeats: int) -> list[float]:
    """Set-up seconds in fresh interpreters, after one untimed warm-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for attempt in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, str(probe), str(config_path)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if attempt:
            times.append(float(done.stdout))
    return times


@dataclass
class Outcome:
    """One item as the program reported and persisted it."""

    id: str
    question: str
    answer: str | None
    layers: int
    stop_reason: str | None
    tokens: int
    calls: Counter
    failed: bool
    wall_s: float | None = None


@dataclass
class Phase:
    """The items of one timed phase and what they cost.

    ``warmup`` holds the untimed pass that precedes the timed ones; its items
    are checked like the others but have no wall time.
    """

    warmup: list[Outcome] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    passes: list[tuple[int, float, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    stub: dict | None = None
    discards: int = 0

    @property
    def all_outcomes(self) -> list[Outcome]:
        """Every item of the phase in item order, the warm-up pass first."""
        return self.warmup + self.outcomes

    @property
    def wall_s(self) -> float:
        return sum(wall for _, wall, _ in self.passes)

    @property
    def items_per_s(self) -> float:
        """Median over passes, so a burst of load on the host moves it less."""
        return median(items / wall for items, wall, _ in self.passes)

    @property
    def cpu_s_per_item(self) -> float:
        """Median over passes of process CPU time per item."""
        return median(cpu / items for items, _, cpu in self.passes)


class Bench:
    """One workload at one seed: its config, prompts, fixture and stub."""

    def __init__(
        self,
        workload: Workload,
        app: AppConfig,
        prompts: PromptSet,
        fixture: Fixture,
        stub: StubProcess | None,
        work_dir: Path,
        pass_items: int = PASS_ITEMS,
    ) -> None:
        self.workload = workload
        self.app = app
        self.prompts = prompts
        self.fixture = fixture
        self.stub = stub
        self.work_dir = work_dir
        self.pass_items = pass_items
        self.item_ids: dict[str, str] = {}

    def backends(self, fixture: Fixture) -> Backends:
        if self.workload.http:
            return build_backends(self.app)
        return Backends(chat=InprocChat(fixture), embedding=InprocEmbedding(fixture))

    def items(self, fixture: Fixture, start: int, count: int) -> list[BenchmarkItem]:
        items = []
        for index in range(start, start + count):
            item_id, question = fixture.item(index)
            self.item_ids[question] = item_id
            items.append(BenchmarkItem(item_id, question, "", "none"))
        return items

    def run_pass(self, items: list[BenchmarkItem], backends: Backends, phase: Phase) -> bool:
        """One harness run over ``items``; False if the harness raised."""
        out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.work_dir))
        started, cpu = time.perf_counter(), time.process_time()
        try:
            report = harness.run_benchmark(
                items,
                self.app.run,
                backends,
                price_per_million_tokens=self.app.price_per_million_tokens,
                params_per_model=self.app.params_per_model,
                prompts=self.prompts,
                out_dir=out_dir,
                item_parallelism=self.app.item_parallelism,
                proposer_parallelism=self.app.proposer_parallelism,
            )
        except Exception as exc:  # a raising run is counted, not lost
            report = None
            phase.errors.append(f"{type(exc).__name__}: {exc}")
        phase.passes.append((len(items), time.perf_counter() - started, time.process_time() - cpu))
        if report is None:
            phase.outcomes.extend(
                Outcome(item.id, item.question, None, 0, None, 0, Counter(), True)
                for item in items
            )
        else:
            phase.outcomes.extend(
                _outcome(item, result, out_dir) for item, result in zip(items, report.items)
            )
        shutil.rmtree(out_dir, ignore_errors=True)
        return report is not None

    def phase(self, seconds: float, min_items: int, instrument) -> Phase:
        """One untimed warm-up pass, then timed passes until ``seconds`` have
        passed and ``min_items`` timed items are done."""
        phase = Phase()
        plain = self.backends(self.fixture)
        wrap = getattr(instrument, "wrap_backends", None)
        backends = plain if wrap is None else wrap(plain)
        with PoolDiscards() as discards:
            warmup = Phase()
            self.run_pass(self.items(self.fixture, 0, self.pass_items), plain, warmup)
            phase.warmup = warmup.outcomes
            phase.errors = warmup.errors
            if self.stub:
                self.stub.reset()
            discards.count = 0
            deadline = time.perf_counter() + seconds
            with instrument:
                while True:
                    start = len(phase.all_outcomes)
                    items = self.items(self.fixture, start, self.pass_items)
                    if not self.run_pass(items, backends, phase):
                        break
                    if time.perf_counter() >= deadline and len(phase.outcomes) >= min_items:
                        break
        phase.discards = discards.count
        if self.stub:
            phase.stub = self.stub.stats()
        for outcome in phase.outcomes:
            wall = instrument.walls.get(outcome.question)
            outcome.wall_s = wall[1] - wall[0] if wall else None
        return phase

    def replay(self, fixture: Fixture, count: int) -> list[Outcome]:
        """The first ``count`` items of ``fixture`` again, untimed and fresh."""
        phase = Phase()
        self.run_pass(self.items(fixture, 0, count), self.backends(fixture), phase)
        return phase.outcomes


def _outcome(item: BenchmarkItem, result, out_dir: Path) -> Outcome:
    ledger_path = out_dir / slugify(item.id) / "ledger.json"
    entries = json.loads(ledger_path.read_text(encoding="utf-8"))["entries"]
    return Outcome(
        id=item.id,
        question=item.question,
        answer=result.answer,
        layers=result.layers_used,
        stop_reason=result.stop_reason,
        tokens=result.total_tokens,
        calls=Counter(entry["kind"] for entry in entries),
        failed=result.stop_reason == STOP_BACKEND_ABORT or not (result.answer or "").strip(),
    )


def expected_calls(workload: Workload, layers: int) -> Counter:
    """The call-count law for an item that ran ``layers`` layers."""
    calls = Counter(proposer=workload.proposers * layers, aggregator=1)
    if workload.mode == "rmoa":
        calls.update(extractor=layers - 1, embedding=layers)
    return calls


def check_outcome(workload: Workload, outcome: Outcome) -> list[str]:
    """Every way this item's output breaks the workload's laws."""
    problems = []
    if outcome.failed:
        problems.append(f"{outcome.id}: aborted or empty answer ({outcome.stop_reason})")
        return problems
    expected = expected_calls(workload, outcome.layers)
    if outcome.calls != expected:
        problems.append(
            f"{outcome.id}: calls {dict(outcome.calls)} break the call-count law "
            f"{dict(expected)} for {outcome.layers} layers"
        )
    if not workload.http and outcome.layers != workload.layers:
        problems.append(f"{outcome.id}: ran {outcome.layers} of {workload.layers} layers")
    return problems


def digest(outcomes: Sequence[Outcome]) -> str:
    """Hash of per-item answers and token counts, in item order."""
    payload = json.dumps([[o.answer, o.tokens] for o in outcomes])
    return hashlib.sha256(payload.encode()).hexdigest()


def load(config_path: Path) -> tuple[AppConfig, PromptSet]:
    app = load_config(config_path)
    return app, load_prompt_set(app.run.benchmark, app.prompt_dir)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
