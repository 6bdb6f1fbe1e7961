"""The verdict and quartile code of ``tools/pairs.py`` on fixed numbers, and
what a ``SIGTERM`` to it leaves behind."""

from __future__ import annotations

import importlib.util
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

# a parent's ten runs in order: median 59, quartiles 54.5 and 63.5, IQR 9
PARENT = [50.0, 52.0, 54.0, 56.0, 58.0, 60.0, 62.0, 64.0, 66.0, 68.0]


@pytest.mark.parametrize("values", [PARENT, [3.0, 1.0, 2.0], [7.5, 0.5], [4.0, 4.0, 9.0, 1.0]])
def test_quartiles_interpolate_between_ranks(values):
    expected = statistics.quantiles(values, n=4, method="inclusive")
    assert [pairs.quantile(values, q) for q in (0.25, 0.5, 0.75)] == pytest.approx(expected)
    assert pairs.quantile(values, 0.5) == statistics.median(values)


def test_one_run_is_its_own_median_and_quartiles():
    assert pairs.summary([41.5]) == {"median": 41.5, "q1": 41.5, "q3": 41.5, "iqr": 0.0}


def test_summary_of_the_parent_runs():
    assert pairs.summary(PARENT) == {"median": 59.0, "q1": 54.5, "q3": 63.5, "iqr": 9.0}


@pytest.mark.parametrize(
    ("change", "wins", "gain"),
    [
        # 9 of 10 won, median 49: 10 ms better, beyond the parent's IQR of 9
        ([v - 10 for v in PARENT[:9]] + [PARENT[9] + 1], (9, 1, 0), True),
        # 8 of 10 won
        ([v - 10 for v in PARENT[:8]] + [v + 1 for v in PARENT[8:]], (8, 2, 0), False),
        # ties count for neither side: 9 won and a tie passes, 8 won and two ties do not
        ([v - 10 for v in PARENT[:9]] + [PARENT[9]], (9, 0, 1), True),
        ([v - 10 for v in PARENT[:8]] + PARENT[8:], (8, 0, 2), False),
        # every pair won, but the median gap of 8 is inside the IQR of 9
        ([v - 8 for v in PARENT], (10, 0, 0), False),
    ],
    ids=["9-of-10", "8-of-10", "9-and-a-tie", "8-and-two-ties", "gap-inside-iqr"],
)
def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr(change, wins, gain):
    result = pairs.compare(PARENT, change, "lower", 0.25)
    assert tuple(result["wins"][side] for side in ("change", "parent", "ties")) == wins
    assert result["gain"] is gain
    assert result["parent_summary"]["iqr"] == 9.0


def test_direction_comes_from_the_metric():
    higher = [v + 10 for v in PARENT]
    assert pairs.compare(PARENT, higher, "higher", 0.25)["gain"] is True
    assert pairs.compare(PARENT, higher, "lower", 0.25)["gain"] is False
    assert pairs.compare(PARENT, higher, "lower", 0.25)["wins"]["parent"] == 10


@pytest.mark.parametrize(
    ("shift", "worse_by", "within"),
    [(5.9, 0.1, True), (-5.9, -0.1, True), (14.75, 0.25, True), (15.0, 15.0 / 59.0, False)],
)
def test_loss_is_a_share_of_the_parent_median_checked_against_the_bound(shift, worse_by, within):
    result = pairs.compare(PARENT, [v + shift for v in PARENT], "lower", 0.25)
    assert result["worse_by"] == pytest.approx(worse_by)
    assert result["within_bound"] is within


def test_drift_compares_the_parent_halves_in_run_order():
    result = pairs.compare(PARENT, PARENT, "lower", 0.25)
    assert result["drift"] == {"parent_first_half_median": 54.0, "parent_second_half_median": 64.0}
    one = pairs.compare([3.0], [2.0], "lower", 0.25)
    assert one["drift"] == {"parent_first_half_median": None, "parent_second_half_median": 3.0}


def test_report_judges_the_claimed_metric_over_every_end_to_end_metric():
    spec = {"end_to_end": [
        {"name": "item_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "items_per_s", "unit": "items/s", "better": "higher", "bound": 0.25},
    ]}

    def side(tail, rate):
        return {"metrics": {"item_tail_ms": {"value": tail}, "items_per_s": {"value": rate}}}

    runs = [{"parent": side(p, 40.0), "change": side(p - 10, 40.0)} for p in PARENT]
    result = pairs.report(spec, runs, "item_tail_ms")
    assert result["claim"] == {"metric": "item_tail_ms", "met": True}
    assert set(result["metrics"]) == {"item_tail_ms", "items_per_s"}
    rate = result["metrics"]["items_per_s"]
    assert rate["wins"] == {"change": 0, "parent": 0, "ties": 10}
    assert (rate["unit"], rate["better"], rate["gain"]) == ("items/s", "higher", False)
    assert result["metrics"]["item_tail_ms"]["change"] == [p - 10 for p in PARENT]
    assert pairs.report(spec, runs, None)["claim"] is None


# A parent tree whose run.py starts a grandchild, records both PIDs and hangs.
HANGING_RUN = """
import os, subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
pids = os.environ["PAIRS_TEST_PIDS"]
with open(pids + ".part", "w") as out:
    out.write(f"{os.getpid()} {child.pid}")
os.replace(pids + ".part", pids)
time.sleep(60)
"""

DRIVER = """
import importlib.util, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("pairs", sys.argv[1])
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

def unpack(rev, into):
    (into / "perfbench").mkdir()
    (into / "perfbench" / "run.py").write_text(sys.argv[2])

pairs._unpack = unpack
pairs._git = lambda *args: "0" * 40
sys.exit(pairs.main(["--parent", "HEAD", "--workload", "w", "--pairs", "1",
                     "--seconds", "1", "--seed", "1"]))
"""


def alive(pid: int) -> bool:
    """Is ``pid`` running? A zombie left to an init that does not reap counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    try:
        return stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return not Path("/proc").is_dir()


def wait_until(condition, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_sigterm_removes_the_temp_dir_and_the_running_run_with_its_children(tmp_path):
    temp, pid_file = tmp_path / "tmp", tmp_path / "pids"
    temp.mkdir()
    env = {**os.environ, "TMPDIR": str(temp), "PAIRS_TEST_PIDS": str(pid_file)}
    driver = subprocess.Popen(
        [sys.executable, "-c", DRIVER, _SPEC.origin, HANGING_RUN], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    pids: list[int] = []
    try:
        assert wait_until(pid_file.exists), "the run never started"
        pids = [int(pid) for pid in pid_file.read_text().split()]
        assert [path.name.startswith("rmoa-pairs-") for path in temp.iterdir()] == [True]
        driver.send_signal(signal.SIGTERM)
        assert driver.wait(timeout=10) == 128 + signal.SIGTERM
        assert list(temp.iterdir()) == []
        assert wait_until(lambda: not any(map(alive, pids))), "a run process outlived pairs.py"
    finally:
        for pid in [driver.pid, *pids]:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
        driver.wait()
