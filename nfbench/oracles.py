"""Output checks against oracles that share no code with nfsense.

Closed-form rows are recomputed with scipy.special and numpy, element
positions from the documented build rules, exact sums by a plain numpy
direct sum, and table values are compared with the paper's published
figures.  Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import numpy as np
from scipy import optimize, special

from jobs import KINDS, Outcome, element_count

SCALE = {"ula": 0.25, "uca": math.pi / 16.0, "ura": 0.125, "upca": 1.0 / 16.0}
MODE_NAMES = {"simo": ["SIMO_MISO"], "mimo": ["MIMO"],
              "both": ["SIMO_MISO", "MIMO"]}
EXPONENT = {"SIMO_MISO": 1, "MIMO": 2}

# Published figures (x_3dB, alpha, SIMO/MIMO alpha ratio, PSL), each checked
# to one unit of its last printed digit.
PUBLISHED = {
    "ula": {"x3db": (1.738, 1.242), "alpha": (6.952, 4.969), "ratio": 1.399,
            "psl": (-8.78, -17.57)},
    "uca": {"x3db": (1.126, 0.815), "alpha": (5.737, 4.148), "ratio": 1.383,
            "psl": (-7.90, -15.80)},
    "ura": {"x3db": (1.242, 0.884), "alpha": (9.937, 7.068), "ratio": 1.406,
            "psl": (-17.57, -35.13)},
    "upca": {"x3db": (0.443, 0.319), "alpha": (7.087, 5.103), "ratio": 1.389,
             "psl": (-13.26, -26.52)},
}

# Closed-form power may differ from the scipy oracle by this much (absolute,
# on the linear 0..1 scale): the special functions document <1e-11.
POWER_TOL = 1e-10
REL_TOL = 1e-9
PRINT_TOL = 1e-11  # the CLI prints 12 significant digits
FIELD_TOL = 1e-9
DB_FLOOR = -60.0


def power(kind: str, mode: str, x):
    """Normalized closed-form power from scipy.special and numpy."""
    x = np.asarray(x, dtype=float)
    if kind in ("ula", "ura"):
        safe = np.where(x > 0, x, 1.0)
        s, c = special.fresnel(np.sqrt(safe))
        base = np.where(x > 0, (c * c + s * s) / safe, 1.0)
        if kind == "ura":
            base = base * base
    elif kind == "uca":
        base = special.j0(x) ** 2
    else:
        base = np.sinc(x) ** 2
    return base ** EXPONENT[mode]


@lru_cache(maxsize=None)
def figures(kind: str, mode: str) -> dict:
    """x_3dB by root finding and PSL by scan plus bounded refinement."""
    f = lambda x: float(power(kind, mode, x))  # noqa: E731
    grid = np.linspace(0.0, 4.0, 4001)
    i = int(np.argmax(power(kind, mode, grid) < 0.5))
    x3db = optimize.brentq(lambda x: f(x) - 0.5, grid[i - 1], grid[i],
                           xtol=1e-15, rtol=4 * np.finfo(float).eps)
    grid = np.linspace(1e-6, 50.0, 500_001)
    vals = power(kind, mode, grid)
    mins = np.where((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
    lobe = vals[mins[0]:]
    peaks = np.where((lobe[1:-1] > lobe[:-2]) & (lobe[1:-1] >= lobe[2:]))[0] + 1
    best = mins[0] + peaks[int(np.argmax(lobe[peaks]))]
    res = optimize.minimize_scalar(lambda x: -f(x), method="bounded",
                                   bounds=(grid[best - 1], grid[best + 1]),
                                   options={"xatol": 1e-12})
    return {"x3db": x3db, "alpha": x3db / SCALE[kind],
            "psl": 10.0 * math.log10(-res.fun)}


def geometry(kind: str, aperture: float) -> np.ndarray:
    """Element positions at unit wavelength from the documented rules."""
    n = element_count(kind, aperture) if kind != "upca" else None
    if kind == "ula":
        pos = np.zeros((n, 3))
        pos[:, 0] = (np.arange(n) - (n - 1) / 2.0) * 0.5
    elif kind == "uca":
        theta = 2.0 * math.pi * np.arange(n) / n
        pos = np.zeros((n, 3))
        pos[:, 0] = 0.5 * aperture * np.cos(theta)
        pos[:, 2] = 0.5 * aperture * np.sin(theta)
    elif kind == "ura":
        side = math.isqrt(n)
        g = (np.arange(side) - (side - 1) / 2.0) * 0.5
        pos = np.zeros((n, 3))
        pos[:, 0] = np.repeat(g, side)
        pos[:, 1] = np.tile(g, side)
    else:
        rings = [np.zeros((1, 3))]
        for i in range(1, int(math.floor(aperture + 1e-9)) + 1):
            count = max(1, int(math.ceil(2.0 * math.pi * i - 1e-9)))
            theta = 2.0 * math.pi * np.arange(count) / count
            ring = np.zeros((count, 3))
            ring[:, 0] = 0.5 * i * np.cos(theta)
            ring[:, 1] = 0.5 * i * np.sin(theta)
            rings.append(ring)
        pos = np.vstack(rings)
    return pos - pos.mean(axis=0)


def aperture_of(kind: str, pos: np.ndarray) -> float:
    if kind == "ula":
        return float(np.ptp(pos[:, 0]))
    if kind == "ura":
        return float(math.hypot(np.ptp(pos[:, 0]), np.ptp(pos[:, 1])))
    return float(2.0 * np.sqrt((pos ** 2).sum(axis=1)).max())


def direct_power(elements: np.ndarray, mimo: bool, target, probes):
    """Normalized power by the literal per-element sum, probe by probe."""
    k = 2.0 * math.pi
    d_t = np.sqrt(((target[None, :] - elements) ** 2).sum(axis=1))
    out = np.empty(len(probes))
    for i, p in enumerate(probes):
        d_p = np.sqrt(((p[None, :] - elements) ** 2).sum(axis=1))
        s = np.exp(-1j * k * (d_t - d_p)).sum()
        g = (s.real ** 2 + s.imag ** 2) / len(elements) ** 2
        out[i] = g * g if mimo else g
    return out


# ---------------------------------------------------------------- parsing

def options(argv) -> dict:
    """--flag value pairs of a CLI argv, with the CLI's defaults."""
    opts = {"kind": ",".join(KINDS), "mode": "both", "aperture-lambda": "50",
            "target-lambda": "100", "format": "csv"}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts[flag[2:]] = value
    return opts


def parse(text: str, fmt: str):
    """(metadata, header, rows) of a CSV or JSON document."""
    if fmt == "json":
        doc = json.loads(text)
        rows = doc["rows"]
        header = list(rows[0]) if rows else []
        return doc["metadata"], header, [list(r.values()) for r in rows]
    metadata, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            metadata[key] = value
        else:
            body.append(line)
    table = list(csv.reader(io.StringIO("\n".join(body))))
    return metadata, (table[0] if table else []), table[1:]


def _column(header, rows, name) -> np.ndarray:
    j = header.index(name)
    return np.array([float(r[j]) for r in rows], dtype=float)


def _labels(header, rows, name) -> list:
    j = header.index(name)
    return [r[j] for r in rows]


def _close(actual, expected, rel=REL_TOL, absolute=0.0) -> np.ndarray:
    """Elementwise agreement; infinities must match exactly."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    same_inf = np.isinf(actual) & np.isinf(expected) & (actual == expected)
    with np.errstate(invalid="ignore"):
        ok = np.abs(actual - expected) <= absolute + rel * np.abs(expected)
    return ok | same_inf


def _expect(problems, ok, what):
    ok = np.asarray(ok)
    if not ok.all():
        bad = int(np.argmin(ok)) if ok.ndim else 0
        problems.append(f"{what}: {int((~ok).sum()) if ok.ndim else 1} "
                        f"value(s) off, first at row {bad}")


def _sweep(opts):
    start, stop, points = opts["sweep"].split(":")
    return np.linspace(float(start), float(stop), int(points))


def _series(opts):
    return [(k, m) for k in opts["kind"].split(",")
            for m in MODE_NAMES[opts["mode"]]]


# ---------------------------------------------------------------- checks

def check_tables(opts, meta, header, rows) -> list:
    problems = []
    kinds = opts["kind"].split(",")
    if [str(k).lower() for k in _labels(header, rows, "kind")] != kinds:
        return ["tables: kinds or row order differ from the request"]
    for i, kind in enumerate(kinds):
        pub = PUBLISHED[kind]
        simo, mimo = figures(kind, "SIMO_MISO"), figures(kind, "MIMO")
        got = {name: float(rows[i][header.index(name)]) for name in header[1:]}
        pairs = [
            ("x3db_simo", simo["x3db"], pub["x3db"][0], 1e-3),
            ("x3db_mimo", mimo["x3db"], pub["x3db"][1], 1e-3),
            ("alpha_simo", simo["alpha"], pub["alpha"][0], 1e-3),
            ("alpha_mimo", mimo["alpha"], pub["alpha"][1], 1e-3),
            ("alpha_ratio", simo["x3db"] / mimo["x3db"], pub["ratio"], 1e-3),
            ("psl_simo_db", simo["psl"], pub["psl"][0], 1e-2),
            ("psl_mimo_db", mimo["psl"], pub["psl"][1], 1e-2),
        ]
        for name, ref, published, unit in pairs:
            tight = 1e-7 if name.startswith("psl") else REL_TOL * abs(ref)
            if abs(got[name] - published) > unit + 1e-12:
                problems.append(f"tables {kind} {name} {got[name]} vs "
                                f"published {published}")
            if abs(got[name] - ref) > tight:
                problems.append(f"tables {kind} {name} {got[name]} vs "
                                f"oracle {ref}")
        if abs(got["argument_scale"] - SCALE[kind]) > PRINT_TOL * SCALE[kind]:
            problems.append(f"tables {kind} argument_scale")
    return problems


def check_af_curve(opts, meta, header, rows) -> list:
    aperture, target = float(opts["aperture-lambda"]), float(opts["target-lambda"])
    d_fa = 2.0 * aperture ** 2
    dist = _sweep(opts)
    series = _series(opts)
    problems = []
    if len(rows) != len(series) * dist.size:
        return [f"af-curve: {len(rows)} rows, expected {len(series) * dist.size}"]
    labels = list(zip(_labels(header, rows, "kind"), _labels(header, rows, "mode")))
    expected = [(k.upper(), m) for k, m in series for _ in range(dist.size)]
    if labels != expected:
        return ["af-curve: kind/mode labels or row order differ"]
    got_d = _column(header, rows, "distance_m")
    got_db = _column(header, rows, "power_db")
    _expect(problems, _close(float(meta["fraunhofer_m"]), d_fa), "fraunhofer_m")
    for s, (kind, mode) in enumerate(series):
        part = slice(s * dist.size, (s + 1) * dist.size)
        _expect(problems, _close(got_d[part], dist, rel=PRINT_TOL), "distance_m")
        x = SCALE[kind] * d_fa * np.abs(1.0 / target - 1.0 / dist)
        p = np.maximum(power(kind, mode, x), 10.0 ** (DB_FLOOR / 10.0))
        db = np.maximum(10.0 * np.log10(p), DB_FLOOR)
        tol_db = 10.0 / math.log(10.0) * POWER_TOL / p + 1e-10
        _expect(problems, np.abs(got_db[part] - db) <= tol_db,
                f"power_db {kind} {mode}")
        alpha = figures(kind, mode)["alpha"]
        _expect(problems, _close(float(meta[f"alpha[{kind.upper()},{mode}]"]),
                                 alpha), f"alpha {kind} {mode}")
    return problems


def check_beamdepth(opts, meta, header, rows) -> list:
    aperture = float(opts["aperture-lambda"])
    d_fa = 2.0 * aperture ** 2
    targets = _sweep(opts)
    series = _series(opts)
    if len(rows) != len(series) * targets.size:
        return [f"beamdepth-sweep: {len(rows)} rows, expected "
                f"{len(series) * targets.size}"]
    labels = list(zip(_labels(header, rows, "kind"), _labels(header, rows, "mode")))
    if labels != [(k.upper(), m) for k, m in series for _ in targets]:
        return ["beamdepth-sweep: kind/mode labels or row order differ"]
    problems = []
    got_t = _column(header, rows, "target_m")
    got_bd = _column(header, rows, "beamdepth_m")
    for s, (kind, mode) in enumerate(series):
        part = slice(s * targets.size, (s + 1) * targets.size)
        alpha = figures(kind, mode)["alpha"]
        reach = d_fa / alpha
        _expect(problems, _close(got_t[part], targets, rel=PRINT_TOL), "target_m")
        denom = d_fa ** 2 - alpha ** 2 * targets ** 2
        with np.errstate(divide="ignore"):
            bd = np.where(targets < reach,
                          2.0 * alpha * d_fa * targets ** 2 / denom, np.inf)
            sensitivity = 2.0 + 2.0 * alpha ** 2 * targets ** 2 / np.abs(denom)
        edge = np.abs(targets - reach) <= 1e-9 * reach  # either side is right
        ok = _close(got_bd[part], bd, rel=REL_TOL * sensitivity) | edge
        _expect(problems, ok, f"beamdepth_m {kind} {mode}")
        tag = f"[{kind.upper()},{mode}]"
        _expect(problems, _close(float(meta["alpha" + tag]), alpha), "alpha" + tag)
        _expect(problems, _close(float(meta["max_nf_range_m" + tag]), reach),
                "max_nf_range_m" + tag)
    return problems


def check_geometry(opts, meta, header, rows) -> list:
    kind, aperture = opts["kind"], float(opts["aperture-lambda"])
    pos = geometry(kind, aperture)
    if header != ["index", "x", "y", "z"] or len(rows) != len(pos):
        return [f"dump-geometry {kind}: {len(rows)} rows, expected {len(pos)}"]
    problems = []
    _expect(problems, _column(header, rows, "index") == np.arange(len(pos)),
            "index")
    for j, axis in enumerate("xyz"):
        _expect(problems, np.abs(_column(header, rows, axis) - pos[:, j])
                <= FIELD_TOL, f"{kind} {axis}")
    return problems


VALIDATE_FIELDS = ["kind", "mode", "elements", "aperture_m", "fraunhofer_m",
                   "d3db_low_m", "d3db_high_m", "max_peak_deviation",
                   "max_rel_error", "crossing_low_rel_err",
                   "crossing_high_rel_err", "status"]


def check_validate(opts, meta, header, rows, exit_code) -> list:
    aperture, target = float(opts["aperture-lambda"]), float(opts["target-lambda"])
    series = _series(opts)
    if header != VALIDATE_FIELDS or len(rows) != len(series):
        return [f"validate: incomplete report ({len(rows)} of {len(series)} rows)"]
    if (float(meta["deviation_threshold"]), float(meta["crossing_threshold"])) \
            != (0.02, 0.03):
        return ["validate: thresholds differ from 0.02 / 0.03"]
    problems = []
    any_fail = False
    for row, (kind, mode) in zip(rows, series):
        got = dict(zip(header, row))
        if (str(got["kind"]).lower(), got["mode"]) != (kind, mode):
            return ["validate: kind/mode rows differ from the request"]
        pos = geometry(kind, aperture)
        ap = aperture_of(kind, pos)
        d_fa = 2.0 * ap ** 2
        if int(float(got["elements"])) != len(pos):
            problems.append(f"validate {kind}: elements {got['elements']}")
        _expect(problems, _close(float(got["aperture_m"]), ap), f"{kind} aperture_m")
        _expect(problems, _close(float(got["fraunhofer_m"]), d_fa),
                f"{kind} fraunhofer_m")
        column = 0 if mode == "SIMO_MISO" else 1
        for alpha, rel in ((figures(kind, mode)["alpha"], 4 * REL_TOL),
                           (PUBLISHED[kind]["alpha"][column], 2e-4)):
            low = d_fa * target / (d_fa + alpha * target)
            high = d_fa * target / (d_fa - alpha * target)
            _expect(problems, _close([float(got["d3db_low_m"]),
                                      float(got["d3db_high_m"])], [low, high],
                                     rel=rel), f"{kind} {mode} d3db bounds")
        dev = float(got["max_peak_deviation"])
        cross = (float(got["crossing_low_rel_err"]),
                 float(got["crossing_high_rel_err"]))
        if not (0.0 <= dev <= 1.0 and min(cross) >= 0.0):
            problems.append(f"validate {kind} {mode}: deviation out of range")
        verdict = "pass" if dev <= 0.02 and max(cross) <= 0.03 else "fail"
        if got["status"] != verdict:
            problems.append(f"validate {kind} {mode}: status {got['status']} "
                            f"but deviations say {verdict}")
        any_fail |= verdict == "fail"
    if exit_code != (2 if any_fail else 0):
        problems.append(f"validate: exit {exit_code} does not match the report")
    return problems


CLI_CHECKS = {
    "tables": check_tables,
    "af-curve": check_af_curve,
    "beamdepth-sweep": check_beamdepth,
    "dump-geometry": check_geometry,
}


def check_cli(argv, outcome: Outcome) -> tuple:
    """(problems, rows) of one CLI job's captured output."""
    opts = options(argv)
    try:
        meta, header, rows = parse(outcome.stdout, opts["format"])
        if argv[0] == "validate":
            return check_validate(opts, meta, header, rows,
                                  outcome.exit_code), len(rows)
        if outcome.exit_code != 0:
            return [f"{argv[0]}: exit {outcome.exit_code}"], len(rows)
        if argv[0] != "dump-geometry" and (meta.get("tool"), meta.get(
                "command")) != ("nfsense", argv[0]):
            return [f"{argv[0]}: metadata does not name the command"], len(rows)
        return CLI_CHECKS[argv[0]](opts, meta, header, rows), len(rows)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return [f"{argv[0]}: unreadable output ({type(exc).__name__}: {exc})"], 0


def check_offaxis(params: dict, target, probes, outcome: Outcome,
                  samples: int = 8) -> list:
    value = np.asarray(outcome.value, dtype=float)
    if value.shape != (len(probes),) or not np.all(np.isfinite(value)):
        return ["offaxis: output shape or finiteness"]
    if value.min() < 0.0 or value.max() > 1.0 + 1e-12:
        return ["offaxis: power outside [0, 1]"]
    pick = np.unique(np.linspace(0, len(probes) - 1, samples).astype(int))
    elements = geometry(params["kind"], params["aperture"])
    ref = direct_power(elements, params["mode"] == "mimo", target, probes[pick])
    problems = []
    _expect(problems, np.abs(value[pick] - ref) <= FIELD_TOL,
            "offaxis sampled probes")
    return problems
