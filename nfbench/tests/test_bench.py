"""Tests of the benchmark itself: job lists, oracles, outcome rules, tracing.

Run from the repository root:  python3 -m pytest nfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import nfsense  # noqa: E402
from nfsense import cli  # noqa: E402

import jobs  # noqa: E402
import oracles  # noqa: E402
from drift import REFERENCE_S, percentile_summary, speed_factors  # noqa: E402
from jobs import Outcome, completed, run_cli  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_same_seed_same_job_list(workload):
    first = [j.describe() for j in jobs.job_list(workload, 7, 100)]
    again = [j.describe() for j in jobs.job_list(workload, 7, 100)]
    other = [j.describe() for j in jobs.job_list(workload, 8, 100)]
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)
    assert len(first) == 100


def test_job_count_leaves_ten_samples_beyond_p90():
    for workload in jobs.WORKLOADS:
        assert jobs.job_count(workload, 1) >= 100
    _, beyond = percentile_summary(np.arange(100.0), 90)
    assert beyond >= 10


def test_desk_upca_case_in_every_exact_list():
    for seed in range(3):
        argvs = [j.argv for j in jobs.job_list("exact-sums", seed, 100)]
        assert argvs.count(jobs.DESK_UPCA) == 1


def _perturb_csv(text, column, row=0, delta=1e-6):
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[body[0]].split(",")
    j = header.index(column)
    target = body[1 + row]
    cells = lines[target].split(",")
    cells[j] = repr(float(cells[j]) + delta)
    lines[target] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv, column, row", [
    (("af-curve", "--kind", "ula,uca", "--mode", "both", "--aperture-lambda",
      "20", "--target-lambda", "60", "--sweep", "30:200:300"), "power_db", 53),
    (("beamdepth-sweep", "--kind", "upca", "--mode", "mimo",
      "--aperture-lambda", "30", "--sweep", "1:300:200"), "beamdepth_m", 50),
    (("dump-geometry", "--kind", "uca", "--aperture-lambda", "9"), "z", 5),
    (("validate", "--kind", "ula", "--mode", "simo", "--aperture-lambda",
      "50", "--target-lambda", "150", "--sweep", "0:0:201"), "d3db_low_m", 0),
    (("tables", "--kind", "upca,ura"), "psl_mimo_db", 1),
])
def test_row_perturbed_by_1e_6_fails(argv, column, row):
    outcome = run_cli(cli.main, argv)
    assert completed(outcome)
    problems, rows = oracles.check_cli(argv, outcome)
    assert problems == [] and rows > row
    outcome.stdout = _perturb_csv(outcome.stdout, column, row)
    problems, _ = oracles.check_cli(argv, outcome)
    assert problems


def test_json_output_checked_like_csv():
    argv = ("af-curve", "--kind", "uca", "--mode", "simo", "--aperture-lambda",
            "12", "--target-lambda", "40", "--sweep", "10:90:100",
            "--format", "json")
    outcome = run_cli(cli.main, argv)
    assert oracles.check_cli(argv, outcome)[0] == []
    doc = json.loads(outcome.stdout)
    doc["rows"][40]["power_db"] += 1e-6
    outcome.stdout = json.dumps(doc)
    assert oracles.check_cli(argv, outcome)[0]


def test_offaxis_value_perturbed_by_1e_6_fails():
    job = jobs.job_list("offaxis-field", 3, 100)[0]
    target, probes = jobs.probe_patch(job.params)
    outcome = jobs.run_library(nfsense, job.params, target, probes)
    assert completed(outcome)
    assert oracles.check_offaxis(job.params, target, probes, outcome) == []
    outcome.value = outcome.value.copy()
    outcome.value[0] += 1e-6
    assert oracles.check_offaxis(job.params, target, probes, outcome)


def test_exit_2_completes_and_exit_1_3_and_exceptions_fail(tmp_path):
    assert completed(Outcome(exit_code=0))
    assert completed(Outcome(exit_code=2))
    assert not completed(Outcome(exit_code=1))
    assert not completed(Outcome(exit_code=3))
    assert not completed(Outcome(exit_code=0, error="RuntimeError: boom"))

    desk = run_cli(cli.main, jobs.DESK_UPCA)
    assert desk.exit_code == 2 and completed(desk)
    assert oracles.check_cli(jobs.DESK_UPCA, desk)[0] == []

    usage = run_cli(cli.main, ("tables", "--kind", "hexagon"))
    assert usage.exit_code == 1 and not completed(usage)
    unwritable = str(tmp_path / "missing" / "out.csv")
    io_error = run_cli(cli.main, ("tables", "--kind", "ula", "--out", unwritable))
    assert io_error.exit_code == 3 and not completed(io_error)

    def crash(argv):
        raise ValueError("bad input")
    crashed = run_cli(crash, ("tables",))
    assert crashed.error.startswith("ValueError") and not completed(crashed)


def test_speed_factors_use_the_matching_kernel_part_around_each_job():
    samples = [{"numpy": 0.004, "python": 0.002},
               {"numpy": 0.006, "python": 0.004},
               {"numpy": 0.010, "python": 0.004}]
    factors = speed_factors(samples, ["numpy", "python"])
    assert np.allclose(factors, [REFERENCE_S["numpy"] / 0.005,
                                 REFERENCE_S["python"] / 0.004])
    parts = {j.label: j.kernel_part for j in jobs.job_list("design-export", 1, 100)}
    assert parts == {"tables": "numpy", "af-curve": "python",
                     "beamdepth-sweep": "python", "dump-geometry": "python"}


def test_tracer_rebinds_every_name_and_derives_self_time(monkeypatch):
    import importlib
    modules = {name: importlib.import_module(f"nfsense.{name}")
               for name in ("ambiguity", "cli", "metrics", "geometry")}
    for module in [nfsense, *modules.values()]:
        for name, value in vars(module).items():
            if not name.startswith("__"):
                monkeypatch.setattr(module, name, value)
    for name in ("_COMMANDS",):
        monkeypatch.setattr(modules["cli"], name, dict(modules["cli"]._COMMANDS))
    monkeypatch.setattr(modules["geometry"], "_BUILDERS",
                        dict(modules["geometry"]._BUILDERS))

    tracer = Tracer()
    assert tracer.install(nfsense) > 0
    assert nfsense.normalized_power.__wrapped__ is not None
    assert modules["cli"].broadside_power_sweep is modules["ambiguity"].broadside_power_sweep
    assert hasattr(modules["metrics"].half_power_argument, "cache_clear")

    tracer.begin_job(0)
    assert run_cli(nfsense.cli.main, ("validate", "--kind", "ula", "--mode",
                                      "both", "--aperture-lambda", "40",
                                      "--target-lambda", "120", "--sweep",
                                      "0:0:201")).exit_code == 0
    summary = tracer.summary()
    spans = tracer.columns()
    duration = spans["end"] - spans["start"]
    total_self = sum(summary[f"{layer}.self_s"] for layer in
                     ("specfun", "geometry", "ambiguity", "closed_form",
                      "metrics", "cli"))
    assert total_self == pytest.approx(duration[spans["parent"] < 0].sum())
    # the two modes sweep the same setup and target over different grids:
    # four evaluations, none repeated, one (setup, target) pair
    assert summary["ambiguity.distinct_ratio"] == 1.0
    assert summary["ambiguity.distinct_setup_ratio"] == 0.25
    assert summary["ambiguity.work"] == 2 * (81 + 1) * 5 * 201
    assert summary["cli.work"] > 0 and summary["geometry.work"] == 81 + 1
