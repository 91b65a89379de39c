"""Seeded job lists for the three workloads, and the code that runs one job.

A job list is a pure function of (workload, seed, job count): the same seed
always yields the same jobs.  Continuous parameters are drawn by stratified
sampling (one draw per equal-width stratum, in shuffled order) and categorical
ones are balanced, so the total work of a list barely depends on the seed
while every seed still gives different inputs.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

KINDS = ("ula", "uca", "ura", "upca")
MODES = ("simo", "mimo", "both")
KIND_SUBSETS = tuple(
    ",".join(k for i, k in enumerate(KINDS) if mask >> i & 1)
    for mask in range(1, 16))

# Jobs per second of --seconds, chosen so that a list takes about that long
# on a 2-core host; every list has at least MIN_JOBS jobs so that the 90th
# percentile has ten samples beyond it.
JOB_RATE = {"design-export": 8.0, "exact-sums": 5.0, "offaxis-field": 6.5}
MIN_JOBS = 100

# The desk-scale planar-circular case of the README; it exits 2 because of
# the documented 2.45% residual of the second-order model.
DESK_UPCA = ("validate", "--kind", "upca", "--mode", "both",
             "--aperture-lambda", "50", "--target-lambda", "100",
             "--sweep", "0:0:201")


# Jobs whose time goes mostly to per-row Python output; the others spend it
# in vectorized numpy.  Each is drift-corrected by the matching kernel part.
PYTHON_BOUND = ("af-curve", "beamdepth-sweep", "dump-geometry")


@dataclass
class Job:
    """One unit of work: a CLI argv, or the parameters of a library call."""

    label: str
    argv: tuple = ()
    params: dict = field(default_factory=dict)

    @property
    def kernel_part(self) -> str:
        return "python" if self.label in PYTHON_BOUND else "numpy"

    def describe(self) -> dict:
        return {"label": self.label, "argv": list(self.argv),
                "params": self.params}


@dataclass
class Outcome:
    """What one job returned: exit code, captured text or value, error."""

    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str | None = None


def completed(outcome: Outcome) -> bool:
    """A job completed when it raised nothing and exited 0 or 2.

    Exit 2 is a validation verdict with a full report; exit 1 (usage), exit
    3 (I/O) and exceptions are failures.
    """
    return outcome.error is None and outcome.exit_code in (0, 2)


def _strata(rng, n: int, lo: float, hi: float, log: bool = False):
    """n draws from [lo, hi], one per equal-width stratum, shuffled."""
    u = (rng.permutation(n) + rng.random(n)) / n
    if log:
        return lo * (hi / lo) ** u
    return lo + (hi - lo) * u


def _balanced(rng, n: int, options) -> list:
    """n picks in which every option occurs floor(n/k) or ceil(n/k) times."""
    options = list(options)
    order = [options[i] for i in rng.permutation(len(options))]
    picks = [order[i % len(order)] for i in range(n)]
    return [picks[i] for i in rng.permutation(n)]


def _n_modes(mode: str) -> int:
    return 2 if mode == "both" else 1


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _sweep_points(rng, n: int, kinds: list, modes: list):
    """Points per sweep such that rows = points x kinds x modes lies in
    4000..8000, stratified; this keeps points in 500..8000 and the sweep
    jobs' costs within a factor of two of each other, so the median job
    falls inside them."""
    rows = _strata(rng, n, 4000.0, 8000.0, log=True)
    return [int(round(r / (len(k.split(",")) * _n_modes(m))))
            for r, k, m in zip(rows, kinds, modes)]


def _formats(rng, n: int, json_share: float = 0.2) -> list:
    n_json = int(round(json_share * n))
    return _balanced(rng, n, ["json"] * n_json + ["csv"] * (n - n_json))


def design_export(rng, n: int) -> list:
    """CLI closed-form jobs: tables, af-curve, beamdepth-sweep, dump-geometry."""
    n_tables = 15 * max(1, int(round(0.15 * n / 15)))
    rest = n - n_tables
    n_af = int(round(0.4 * rest))
    n_bd = int(round(0.3 * rest))
    n_geo = rest - n_af - n_bd
    jobs = []

    subsets = [s for s in KIND_SUBSETS for _ in range(n_tables // 15)]
    for kinds, fmt in zip(subsets, _formats(rng, n_tables)):
        jobs.append(("tables", "--kind", kinds, "--format", fmt))

    kinds = _balanced(rng, n_af, KIND_SUBSETS)
    modes = _balanced(rng, n_af, MODES)
    points = _sweep_points(rng, n_af, kinds, modes)
    apertures = _strata(rng, n_af, 8.0, 100.0)
    targets = _strata(rng, n_af, 1.0, 6.0)
    lows = _strata(rng, n_af, 0.3, 0.8)
    highs = _strata(rng, n_af, 2.0, 5.0)
    for i, fmt in enumerate(_formats(rng, n_af)):
        target = apertures[i] * targets[i]
        sweep = f"{_fmt(lows[i] * target)}:{_fmt(highs[i] * target)}:{points[i]}"
        jobs.append(("af-curve", "--kind", kinds[i], "--mode", modes[i],
                     "--aperture-lambda", _fmt(apertures[i]),
                     "--target-lambda", _fmt(target), "--sweep", sweep,
                     "--format", fmt))

    kinds = _balanced(rng, n_bd, KIND_SUBSETS)
    modes = _balanced(rng, n_bd, MODES)
    points = _sweep_points(rng, n_bd, kinds, modes)
    apertures = _strata(rng, n_bd, 8.0, 100.0)
    reach = _strata(rng, n_bd, 0.05, 0.5)  # stop, as a share of d_FA
    for i, fmt in enumerate(_formats(rng, n_bd)):
        d_fa = 2.0 * apertures[i] ** 2
        sweep = f"1:{_fmt(max(2.0, reach[i] * d_fa))}:{points[i]}"
        jobs.append(("beamdepth-sweep", "--kind", kinds[i], "--mode", modes[i],
                     "--aperture-lambda", _fmt(apertures[i]), "--sweep", sweep,
                     "--format", fmt))

    geo_kinds = _balanced(rng, n_geo, KINDS)
    for kind in KINDS:
        idx = [i for i, k in enumerate(geo_kinds) if k == kind]
        for aperture in _strata(rng, len(idx), 8.0, 100.0):
            jobs.append(("dump-geometry", "--kind", kind,
                         "--aperture-lambda", _fmt(aperture)))
    return [Job(label=argv[0], argv=argv)
            for argv in (jobs[i] for i in rng.permutation(len(jobs)))]


# Cells of the exact-sum workload: kinds, modes, aperture range
# (wavelengths), target range as a multiple of the aperture, sweep points N,
# element x probe pairs per job, share of jobs.
#
# The aperture/target boxes sit inside the closed forms' regime: scanned on
# the current code, every corner stays below 0.016 peak deviation and 0.015
# crossing error against the 0.02 / 0.03 gates, in both modes.  N follows
# from the pairs (validate sweeps N and then 4 N points per mode, so pairs
# = 5 N x elements x modes) and the boxes keep it within the cell's range.
# Fixing the pairs keeps each cell's job costs close together, so the median
# falls inside the UCA cell and the 90th percentile inside the two-mode
# URA/UPCA cell, not on the edge between two cells.
EXACT_CELLS = (
    ("ula", MODES, (40.0, 100.0), (2.5, 4.0), (201, 1001), (405e3, 405e3), 0.32),
    ("uca", MODES, (40.0, 70.0), (2.5, 4.0), (201, 1001), (0.9e6, 1.25e6), 0.32),
    ("ula,uca", MODES, (40.0, 70.0), (2.5, 4.0), (201, 1001), (1.17e6, 1.66e6),
     0.10),
    ("ura", ("both",), (28.0, 32.0), (1.65, 1.85), (201, 361), (5.2e6, 5.65e6),
     0.10),
    ("upca", ("both",), (24.0, 28.0), (2.2, 2.5), (201, 301), (5.2e6, 5.65e6),
     0.10),
    ("ura", ("simo", "mimo"), (28.0, 32.0), (1.65, 1.85), (201, 361),
     (2.6e6, 2.8e6), 0.03),
    ("upca", ("simo", "mimo"), (24.0, 28.0), (2.2, 2.5), (201, 301),
     (2.6e6, 2.8e6), 0.03),
)


def exact_sums(rng, n: int) -> list:
    """CLI validate jobs (exact element sums) plus the desk-scale UPCA case."""
    jobs = [Job(label="validate-desk-upca", argv=DESK_UPCA)]
    counts = [int(round(cell[-1] * (n - 1))) for cell in EXACT_CELLS]
    counts[0] += n - 1 - sum(counts)
    for (kinds, mode_set, (d_lo, d_hi), (r_lo, r_hi), (p_lo, p_hi),
         (b_lo, b_hi), _), count in zip(EXACT_CELLS, counts):
        modes = _balanced(rng, count, mode_set)
        apertures = _strata(rng, count, d_lo, d_hi)
        ratios = _strata(rng, count, r_lo, r_hi)
        pairs = _strata(rng, count, b_lo, b_hi)
        for i in range(count):
            elements = sum(element_count(k, apertures[i]) for k in kinds.split(","))
            points = pairs[i] / (5 * elements * _n_modes(modes[i]))
            points = min(max(int(round(points)), p_lo), p_hi)
            jobs.append(Job(label="validate", argv=(
                "validate", "--kind", kinds, "--mode", modes[i],
                "--aperture-lambda", _fmt(apertures[i]),
                "--target-lambda", _fmt(apertures[i] * ratios[i]),
                "--sweep", f"0:0:{points}")))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def offaxis_field(rng, n: int) -> list:
    """Library jobs: normalized power on a 2-D probe patch off broadside.

    Element x probe pairs are stratified log-uniformly over 0.1M..6M, so
    jobs run from a working set of a few MB, about one L2 cache, to above
    the 4M-pair chunk of the exact sum.
    """
    kinds = _balanced(rng, n, KINDS)
    modes = _balanced(rng, n, ("simo", "mimo"))
    pairs = _strata(rng, n, 1e5, 6e6, log=True)
    apertures = {k: iter(_strata(rng, kinds.count(k), 8.0, 30.0)) for k in KINDS}
    ranges = _strata(rng, n, 1.5, 4.0)
    polar = _strata(rng, n, 10.0, 50.0)
    azimuth = rng.uniform(0.0, 360.0, n)
    jobs = []
    for i in range(n):
        aperture = float(next(apertures[kinds[i]]))
        elements = element_count(kinds[i], aperture) + (modes[i] == "simo")
        probes = max(16, int(round(pairs[i] / elements)))
        cols = int(math.ceil(math.sqrt(probes)))
        jobs.append(Job(label=f"offaxis-{kinds[i]}", params={
            "kind": kinds[i], "mode": modes[i], "aperture": aperture,
            "range": float(ranges[i] * aperture), "polar_deg": float(polar[i]),
            "azimuth_deg": float(azimuth[i]),
            "rows": int(math.ceil(probes / cols)), "cols": cols}))
    return jobs


def element_count(kind: str, aperture: float) -> int:
    """Element count of a layout at unit wavelength, from its build rule."""
    if kind == "ula":
        return int(math.floor(2.0 * aperture + 1e-9)) + 1
    if kind == "uca":
        return int(math.ceil(2.0 * math.pi * aperture - 1e-9))
    if kind == "ura":
        return (int(math.floor(math.sqrt(2.0) * aperture + 1e-9)) + 1) ** 2
    rings = int(math.floor(aperture + 1e-9))
    return 1 + sum(max(1, int(math.ceil(2.0 * math.pi * i - 1e-9)))
                   for i in range(1, rings + 1))


WORKLOADS = {
    "design-export": design_export,
    "exact-sums": exact_sums,
    "offaxis-field": offaxis_field,
}


def job_count(workload: str, seconds: float) -> int:
    return max(MIN_JOBS, int(round(JOB_RATE[workload] * seconds)))


def job_list(workload: str, seed: int, n: int) -> list:
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, n)


def probe_patch(params: dict):
    """Target point and (rows*cols, 3) probe patch of an off-axis job.

    The patch spans the target's range direction and one transverse
    direction, a few beamdepths and beamwidths across; in range it stays
    within half the target range, so it never reaches the array.
    """
    polar = math.radians(params["polar_deg"])
    azimuth = math.radians(params["azimuth_deg"])
    radial = np.array([math.sin(polar) * math.cos(azimuth),
                       math.sin(polar) * math.sin(azimuth), math.cos(polar)])
    transverse = np.array([math.cos(polar) * math.cos(azimuth),
                           math.cos(polar) * math.sin(azimuth), -math.sin(polar)])
    rng_m, aperture = params["range"], params["aperture"]
    target = rng_m * radial
    depth = min(8.0 * rng_m ** 2 / aperture ** 2, 0.5 * rng_m)
    width = 4.0 * rng_m / aperture
    a = np.linspace(-depth, depth, params["rows"])
    b = np.linspace(-width, width, params["cols"])
    ga, gb = np.meshgrid(a, b, indexing="ij")
    probes = (target[None, :] + ga.reshape(-1, 1) * radial[None, :]
              + gb.reshape(-1, 1) * transverse[None, :])
    return target, probes


def run_cli(main, argv) -> Outcome:
    """Run the CLI entry point with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    outcome = Outcome()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome.exit_code = main(list(argv))
    except Exception as exc:  # a crash is a failed job, not a benchmark error
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
    return outcome


def run_library(nfsense, params: dict, target, probes) -> Outcome:
    """Build the array, set up the link and evaluate the probe patch."""
    outcome = Outcome()
    try:
        kind = nfsense.GeometryKind(params["kind"])
        geometry = nfsense.build_array(kind, params["aperture"], 1.0)
        setup = (nfsense.simo_miso_setup(geometry) if params["mode"] == "simo"
                 else nfsense.mimo_setup(geometry))
        outcome.value = nfsense.normalized_power(setup, target, probes)
        outcome.exit_code = 0
    except Exception as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome
