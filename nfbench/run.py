"""nfsense benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 nfbench/run.py --workload design-export --seed 1 --seconds 20 --trace 0

Each workload runs in this one process as a closed loop with one caller:
the next job starts when the previous one has finished.  Every job starts
with cold solver caches and its output is checked against an independent
oracle.  --trace 0 reports the end-to-end metrics; --trace 1 runs the job
list untraced and then traced and reports the per-layer metrics.  The last
line of stdout is a JSON object {correct, attempted, failed, metrics}; the
full run record (provenance, raw and corrected per-job times, kernel
samples, failures) and, for traced runs, the spans go to nfbench/runs/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import oracles
from drift import (REFERENCE_S, SETUP_REFERENCE_S, ReferenceKernel,
                   percentile_summary, speed_factors)
from jobs import (WORKLOADS, completed, job_count, job_list, probe_patch,
                  run_cli, run_library)
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUP_PROBES = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "job_s.p50": "s", "job_s.p90": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"self_s": "s", "overhead_s": "s", "ns_per_work": "ns",
               "distinct_ratio": "ratio", "distinct_setup_ratio": "ratio"}


def _import_nfsense():
    """Import nfsense from this checkout's src/, and nowhere else."""
    if not (SRC / "nfsense" / "__init__.py").is_file():
        raise SystemExit(f"nfbench: no nfsense sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nfsense
    from nfsense import cli, metrics
    if not Path(nfsense.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"nfbench: nfsense imported from {nfsense.__file__}")
    return nfsense, cli, metrics


def _probe(*args) -> float:
    done = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), *args],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          timeout=60, capture_output=True, text=True, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds() -> dict:
    """Set-ups interleaved with reference set-ups, each in a fresh process.

    Each set-up is scaled by SETUP_REFERENCE_S over the mean of the two
    reference set-ups around it, which removes host speed drift the same
    way the reference kernel does for jobs.
    """
    reference = [_probe("--reference")]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(_probe(str(ROOT)))
        reference.append(_probe("--reference"))
    corrected = [s * SETUP_REFERENCE_S / (0.5 * (a + b))
                 for s, a, b in zip(raw, reference, reference[1:])]
    return {"raw": raw, "reference": reference, "corrected": corrected}


def _clear_caches(metrics) -> None:
    for name in dir(metrics):
        obj = getattr(metrics, name)
        if not name.startswith("_") and hasattr(obj, "cache_clear"):
            obj.cache_clear()


def run_pass(jobs, nfsense, cli, metrics, kernel, tracer=None) -> dict:
    """Run the job list once; time, check and record every job."""
    wall, cpu, kernel_s, rows, exits, failures = [], [], [], [], [], []
    for index, job in enumerate(jobs):
        target = probes = None
        if job.params:
            target, probes = probe_patch(job.params)
        _clear_caches(metrics)
        gc.collect()
        kernel_s.append(kernel())
        if tracer is not None:
            tracer.begin_job(index)
        c0, t0 = time.process_time(), time.perf_counter()
        if job.argv:
            outcome = run_cli(cli.main, job.argv)
        else:
            outcome = run_library(nfsense, job.params, target, probes)
        t1, c1 = time.perf_counter(), time.process_time()
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        exits.append(outcome.exit_code)
        n_rows = 0
        if not completed(outcome):
            problems = [outcome.error or f"exit {outcome.exit_code}: "
                        f"{outcome.stderr.strip()[-200:]}"]
        elif job.argv:
            problems, n_rows = oracles.check_cli(job.argv, outcome)
        else:
            problems = oracles.check_offaxis(job.params, target, probes, outcome)
        rows.append(n_rows)
        if problems:
            failures.append({"job": index, "label": job.label,
                             "problems": problems[:5]})
    kernel_s.append(kernel())
    return {"wall": wall, "cpu": cpu, "kernel": kernel_s, "rows": rows,
            "exits": exits, "failures": failures}


def corrected(record: dict, jobs) -> dict:
    factor = speed_factors(record["kernel"], [j.kernel_part for j in jobs])
    wall = np.asarray(record["wall"]) * factor
    cpu = np.asarray(record["cpu"]) * factor
    p50, _ = percentile_summary(wall, 50)
    p90, beyond = percentile_summary(wall, 90)
    return {"wall_s": float(wall.sum()), "cpu_s": float(cpu.sum()),
            "job_s.p50": p50, "job_s.p90": p90, "p90_samples_beyond": beyond}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_info() -> dict:
    info = {"model": platform.processor() or None, "cache": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info["cache"][f"L{level}"] = size
    return info


def provenance(args, n_jobs: int, kernel_median: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_info(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": _git_commit(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_run": n_jobs,
        "reference_kernel_median_s": kernel_median,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nfsense, cli, metrics = _import_nfsense()
    jobs = job_list(args.workload, args.seed, job_count(args.workload, args.seconds))
    kernel = ReferenceKernel()
    setup = setup_seconds() if not args.trace else {}
    gc.collect()
    gc.freeze()

    passes = {"plain": run_pass(jobs, nfsense, cli, metrics, kernel)}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = corrected(passes["plain"], jobs)
    if args.trace:
        tracer = Tracer()
        tracer.install(nfsense)
        passes["traced"] = run_pass(jobs, nfsense, cli, metrics, kernel, tracer)
        traced = corrected(passes["traced"], jobs)
        values = tracer.summary()
        values["cli.rows"] = int(sum(passes["traced"]["rows"]))
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        units = {name: LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")
                 for name in values}
    else:
        values = {"setup_s": statistics.median(setup["corrected"]), **{
            k: plain[k] for k in ("wall_s", "cpu_s", "job_s.p50", "job_s.p90")},
            "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS

    attempted = sum(len(p["wall"]) for p in passes.values())
    failed = sum(len(p["failures"]) for p in passes.values())
    kernel_median = {part: statistics.median(
        k[part] for p in passes.values() for k in p["kernel"])
        for part in REFERENCE_S}
    record = {
        "provenance": provenance(args, len(jobs), kernel_median),
        "metrics": values, "setup": setup,
        "p90_samples_beyond": plain["p90_samples_beyond"],
        "jobs": [j.describe() for j in jobs],
        "passes": {name: {**p, "speed_factor": speed_factors(
            p["kernel"], [j.kernel_part for j in jobs]).tolist()}
                   for name, p in passes.items()},
    }
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS / f"{stem}.json").write_text(json.dumps(record) + "\n")
    if args.trace:
        tracer.save(RUNS / f"{stem}-spans.npz")

    prov = record["provenance"]
    print(f"nfbench {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
          f"nproc {prov['nproc']}, {prov['cpu']['model']}, "
          f"caches {prov['cpu']['cache']}, reference kernel medians "
          + ", ".join(f"{part} {t * 1e3:.3f} ms" for part, t
                      in prov["reference_kernel_median_s"].items()))
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  job_s.p90 has {plain['p90_samples_beyond']} of {len(jobs)} "
          f"samples beyond it; failure share {failed}/{attempted}")
    for failure in (f for p in passes.values() for f in p["failures"]):
        print(f"  FAILED job {failure['job']} ({failure['label']}): "
              f"{'; '.join(failure['problems'])}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
