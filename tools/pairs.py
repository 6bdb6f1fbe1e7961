"""Alternating benchmark pairs of a parent commit and this checkout.

Usage, from the repository root::

    python3 tools/pairs.py --parent HEAD~1 --workload inproc-rmoa-deep \
        --pairs 10 --seconds 50 --seed 31 --claim item_tail_ms

The parent side is ``git archive`` of REV unpacked into a temporary
directory, with this checkout's ``perfbench/`` copied over its own, so the
two sides differ only in ``src``; ``perfbench/run.py`` imports the ``src``
of its own checkout. Pair i runs the parent first when i is even and this
checkout first when it is odd, so run order favours neither side. Each run
starts in a session of its own, and its process group, the run's HTTP stub
included, is killed when the run ends. ``SIGTERM`` exits like an error, so
on every exit the temporary directory is removed and no run is left behind.

It writes ``BENCH_<workload>.json`` at the repository root: both commits,
the seed, the run length and the host's CPU count; for every end-to-end
metric of ``BENCHMARK.json``, each pair's values, both sides' medians and
quartiles, the wins and a drift note (the parent's first-half median
against its second-half median); and the verdict on ``--claim``. A gain
holds when this checkout wins at least 9 of every 10 pairs, ties counting
for neither side, and its median beats the parent's by more than the
parent's interquartile range (Kalibera & Jones, "Rigorous Benchmarking in
Reasonable Time", ISMM 2013).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values``, interpolated linearly between ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values: list[float]) -> dict:
    q1, median, q3 = (quantile(values, q) for q in (0.25, 0.5, 0.75))
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's pairs, in run order, summarised and judged."""
    sign = 1 if better == "higher" else -1
    wins = {"change": 0, "parent": 0, "ties": 0}
    for p, c in zip(parent, change, strict=True):
        gap = sign * (c - p)
        wins["change" if gap > 0 else "parent" if gap < 0 else "ties"] += 1
    before, after = summary(parent), summary(change)
    gain = sign * (after["median"] - before["median"])
    half = len(parent) // 2
    return {
        "parent": parent,
        "change": change,
        "parent_summary": before,
        "change_summary": after,
        "wins": wins,
        # worse_by: the change's median loss as a share of the parent's median
        "worse_by": -gain / abs(before["median"]) if before["median"] else 0.0,
        "within_bound": -gain <= bound * abs(before["median"]),
        "gain": 10 * wins["change"] >= 9 * len(parent) and gain > before["iqr"],
        "drift": {
            "parent_first_half_median": quantile(parent[:half], 0.5) if half else None,
            "parent_second_half_median": quantile(parent[half:], 0.5),
        },
    }


def report(spec: dict, runs: list[dict[str, dict]], claim: str | None) -> dict:
    """The per-metric blocks and the claim's verdict for ``runs``, one dict per pair."""
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [run[side]["metrics"][name]["value"] for run in runs]
                  for side in ("parent", "change")}
        metrics[name] = {"unit": metric["unit"], "better": metric["better"],
                         "bound": metric["bound"],
                         **compare(values["parent"], values["change"],
                                   metric["better"], metric["bound"])}
    verdict = None
    if claim is not None:
        verdict = {"metric": claim, "met": metrics[claim]["gain"]}
    return {"metrics": metrics, "claim": verdict}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _unpack(rev: str, into: Path) -> None:
    """``rev``'s tree in ``into``, with this checkout's ``perfbench/`` over its own."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    with archive.stdout, tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    if archive.wait():
        raise RuntimeError(f"git archive {rev} exited {archive.returncode}")
    shutil.rmtree(into / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    process = subprocess.Popen(command, cwd=checkout, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate()
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    lines = stdout.strip().splitlines()
    if process.returncode or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {process.returncode}:\n"
                           f"{stdout[-2000:]}{stderr[-2000:]}")
    return json.loads(lines[-1])


def _exit_on_signal(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.claim and args.claim not in {m["name"] for m in spec["end_to_end"]}:
        parser.error("--claim must be an end-to-end metric of BENCHMARK.json")

    parent_commit = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    runs: list[dict[str, dict]] = []
    with tempfile.TemporaryDirectory(prefix="rmoa-pairs-") as temp:
        parent_tree = Path(temp)
        _unpack(parent_commit, parent_tree)
        sides = {"parent": parent_tree, "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            run = {side: _run(sides[side], args.workload, args.seed, args.seconds)
                   for side in order}
            runs.append(run)
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + ", ".join(
                f"{side} {run[side]['metrics'][args.claim or 'items_per_s']['value']:.4g}"
                for side in ("parent", "change")), file=sys.stderr)

    document = {
        "workload": args.workload,
        "parent": {"rev": args.parent, "commit": parent_commit},
        "change": {"commit": _git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(_git("status", "--porcelain", "--", "src"))},
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "order": ["parent first" if i % 2 == 0 else "change first" for i in range(args.pairs)],
        "outcomes": [{side: {key: run[side][key] for key in ("correct", "attempted", "failed")}
                      for side in ("parent", "change")} for run in runs],
        **report(spec, runs, args.claim),
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    if document["claim"] is not None:
        print(f"claim {args.claim}: {'met' if document['claim']['met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
