"""scripts/bench_merge.py on synthetic run records."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_merge.py"
MACHINE = {"nproc": 2, "cpu": "test cpu", "python": "3.11.0", "numpy": "2.0.0"}
WALL = {"parent": (1.0, 1.2, 1.1), "change": (0.9, 1.3, 1.0)}


def _record(path, side, metrics, workload="design-export"):
    path.write_text(json.dumps({
        "provenance": {**MACHINE, "git_commit": side, "workload": workload,
                       "seed": 0, "trace": False},
        "metrics": metrics}))
    return str(path)


def _runs(tmp_path, side, counts=3, workload="design-export"):
    return [_record(tmp_path / f"{workload}-{side}{i}.json", side,
                    {"wall_s": wall, "cpu_s": 2 * wall}, workload)
            for i, wall in enumerate(WALL[side][:counts])]


def _merge(tmp_path, parent, change):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path / "bench.json"),
         "--parent", *parent, "--change", *change],
        capture_output=True, text=True)


def test_equal_counts_merge(tmp_path):
    done = _merge(tmp_path, _runs(tmp_path, "parent"), _runs(tmp_path, "change"))
    assert (done.returncode, done.stderr) == (0, "")
    data = (tmp_path / "bench.json").read_bytes()
    # the bytes the merge wrote before it checked run counts and metric names
    assert hashlib.sha256(data).hexdigest() == (
        "6577ef60770e21772e1494afa76eeb9baa90de8dfe224e29bd388eddab9226f8")
    wall = json.loads(data)["rows"][0]["metrics"]["wall_s"]
    assert wall["change_lower"] == 2
    assert wall["parent"]["median"] == 1.1


@pytest.mark.parametrize("parent_runs, change_runs, others, message", [
    (3, 1, False, "design-export seed 0 trace False has 3 parent runs and 1 "
                  "change runs"),
    (1, 3, False, "design-export seed 0 trace False has 1 parent runs and 3 "
                  "change runs"),
    (3, 3, True, "exact-sums seed 0 trace False has 1 parent runs and 0 "
                 "change runs")],
    ids=["fewer-change", "fewer-parent", "one-side-only"])
def test_unpaired_runs_refused(tmp_path, parent_runs, change_runs, others,
                               message):
    parent = _runs(tmp_path, "parent", parent_runs)
    if others:
        parent += _runs(tmp_path, "parent", 1, "exact-sums")
    done = _merge(tmp_path, parent, _runs(tmp_path, "change", change_runs))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"bench_merge: {message}\n"
    assert not (tmp_path / "bench.json").exists()


@pytest.mark.parametrize("side", ["parent", "change"])
def test_one_sided_metric_refused(tmp_path, side):
    runs = {"parent": _runs(tmp_path, "parent"),
            "change": _runs(tmp_path, "change")}
    runs[side][0] = _record(tmp_path / "extra.json", side,
                            {"wall_s": 1.0, "cpu_s": 2.0, "rss_mb": 50.0})
    done = _merge(tmp_path, runs["parent"], runs["change"])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("bench_merge: design-export seed 0 trace False: "
                           "metrics ['rss_mb'] are missing from some runs\n")
    assert not (tmp_path / "bench.json").exists()
