"""Command-line front end.

Commands
--------
tables           half-power coefficients, mode ratios and sidelobe levels
af-curve         normalized power vs probe range from the closed forms
beamdepth-sweep  beamdepth vs target range, with divergence metadata
validate         direct element summation vs closed forms on broadside
dump-geometry    element positions of one array

Outputs are CSV (''#''-prefixed metadata lines, then a header row) or JSON
(a metadata object plus an array of row records).  Identical inputs give
byte-identical output.  Exit codes: 0 success, 1 usage error, 2 validation
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from dataclasses import asdict
from enum import Enum
from operator import attrgetter

import numpy as np

from . import __version__
from .ambiguity import broadside_power_sweep
from .closed_form import af_argument, normalized_af_power, vergence_difference
from .geometry import (GeometryKind, ProcessingMode, build_array,
                       simo_miso_setup)
from .metrics import (SIDELOBE_SCAN_MAX, beamdepth, compute_metrics,
                      half_power_coefficient, half_power_distances,
                      max_nearfield_range)

DB_FLOOR = -60.0
DEVIATION_THRESHOLD = 0.02  # of the unit mainlobe peak
CROSSING_THRESHOLD = 0.03   # relative, in distance
MAX_SWEEP_POINTS = 100_000  # validate sweeps four times as many on its wide grid


class UsageError(Exception):
    pass


class ValidationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_kinds(text: str) -> list:
    names = [t.strip().lower() for t in text.split(",") if t.strip()]
    if not names:
        raise argparse.ArgumentTypeError("at least one geometry kind is required")
    kinds = []
    for name in names:
        try:
            kind = GeometryKind(name)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"unknown kind {name!r} (choose from ula, uca, ura, upca)")
        if kind not in kinds:
            kinds.append(kind)
    return kinds


def _parse_modes(text: str) -> list:
    key = text.strip().lower().replace("-", "_")
    table = {
        "simo": [ProcessingMode.SIMO_MISO],
        "miso": [ProcessingMode.SIMO_MISO],
        "simo_miso": [ProcessingMode.SIMO_MISO],
        "mimo": [ProcessingMode.MIMO],
        "both": [ProcessingMode.SIMO_MISO, ProcessingMode.MIMO],
    }
    if key not in table:
        raise argparse.ArgumentTypeError(
            f"unknown mode {text!r} (choose simo, mimo or both)")
    return table[key]


def _parse_sweep(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"sweep must be start:stop:points, got {text!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep value {text!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"sweep ends must be finite, got {text!r}")
    if not 2 <= points <= MAX_SWEEP_POINTS:
        raise argparse.ArgumentTypeError(
            f"sweep needs 2 to {MAX_SWEEP_POINTS} points, got {points}")
    if not (start < stop or (start == stop == 0.0)):
        raise argparse.ArgumentTypeError("sweep start must be below stop")
    return start, stop, points


def _parse_positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}")
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {value}")
    return value


def _parse_format(text: str) -> str:
    # checked here, not by choices=, so that a config-file value is checked too
    if text.lower() not in ("csv", "json"):
        raise argparse.ArgumentTypeError(
            f"unknown format {text!r} (choose csv or json)")
    return text.lower()


# flag, type, default, help; every command takes every flag
_FLAGS = (
    ("--kind", _parse_kinds, "ula,uca,ura,upca", "comma-separated: ula,uca,ura,upca"),
    ("--mode", _parse_modes, "both", "simo, mimo or both"),
    ("--aperture-lambda", _parse_positive, "50", "aperture D in wavelengths"),
    ("--target-lambda", _parse_positive, "100", "target range d' in wavelengths"),
    ("--wavelength", _parse_positive, "1", "wavelength in meters"),
    ("--sweep", _parse_sweep, "0:0:2", "grid as start:stop:points (wavelengths)"),
    ("--format", _parse_format, "csv", "csv or json"),
    ("--out", str, "-", "output path, - for stdout"),
)
_CONFIG_KEYS = {flag[2:].replace("-", "_") for flag, *_ in _FLAGS}
_SWEEP_DEFAULTS = {
    "af-curve": "50:400:2000",
    "beamdepth-sweep": "10:1200:500",
    "validate": "0:0:3001",  # validate picks its own window; only points used
}


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                key = key.strip().lower().replace("-", "_")
                if key not in _CONFIG_KEYS:
                    raise UsageError(f"unknown config key {key!r} in {path}")
                values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return values


def _check_lengths(**meters) -> None:
    """Reject lengths in meters that are not finite and positive."""
    for name, value in meters.items():
        if not 0.0 < value < math.inf:
            raise UsageError(f"{name} = {value:g} is not a finite positive length")


def _fraunhofer_m(aperture: float, lam: float) -> float:
    """2 D^2 / lambda in meters, inf where D^2 overflows."""
    try:
        return 2.0 * aperture ** 2 / lam
    except OverflowError:
        return math.inf


def _sweep_grid(args) -> np.ndarray:
    """The --sweep grid in meters."""
    start, stop, points = args.sweep
    lam = args.wavelength
    _check_lengths(sweep_start_m=start * lam, sweep_stop_m=stop * lam)
    return np.linspace(start * lam, stop * lam, points)


@contextlib.contextmanager
def _rejected_input():
    """Report a library ValueError (an input out of its domain) as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _format(values: list, text: bool) -> list:
    """One column as CSV text (text=True) or JSON values.

    The column's first value picks the rule for all of them: enums by name,
    floats to 12 significant digits in CSV and infinities as "inf".
    """
    first = values[0] if values else None
    if isinstance(first, Enum):
        # _name_ is a plain attribute; .name and hashing a member are
        # Python-level calls per row
        return list(map(attrgetter("_name_"), values))
    if isinstance(first, float):
        if text:
            return list(map("{:.12g}".format, values))
        return ["inf" if math.isinf(v) else v for v in values]
    return list(map(str, values)) if text else values


def _emit(args, metadata: dict, columns: dict) -> None:
    """Write metadata and equal-length named columns in the chosen format."""
    text = args.format == "csv"
    metadata = {key: _format([value], text)[0] for key, value in metadata.items()}
    cells = [_format(values, text) for values in columns.values()]
    try:
        with (contextlib.nullcontext(sys.stdout) if args.out == "-" else
              open(args.out, "w", encoding="utf-8", newline="")) as stream:
            if text:
                for key, value in metadata.items():
                    stream.write(f"# {key} = {value}\n")
                writer = csv.writer(stream, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows(zip(*cells))
            else:
                doc = {"metadata": metadata,
                       "rows": [dict(zip(columns, row)) for row in zip(*cells)]}
                json.dump(doc, stream, indent=2, allow_nan=False)
                stream.write("\n")
    except OSError as exc:
        raise IOError(f"cannot write output {args.out!r}: {exc}") from exc


def _base_metadata(args) -> dict:
    return {"tool": "nfsense", "version": __version__, "command": args.command}


def cmd_tables(args) -> int:
    metadata = _base_metadata(args)
    metadata["x3db_tolerance"] = 1e-9
    metadata["sidelobe_scan_max_x"] = SIDELOBE_SCAN_MAX
    rows = [asdict(compute_metrics(kind)) for kind in args.kind]
    _emit(args, metadata, {key: [r[key] for r in rows] for key in rows[0]})
    return 0


def cmd_af_curve(args) -> int:
    lam = args.wavelength
    d_target = args.target_lambda * lam
    aperture = args.aperture_lambda * lam
    d_fa = _fraunhofer_m(aperture, lam)
    _check_lengths(target_m=d_target, fraunhofer_m=d_fa)
    distances = _sweep_grid(args)
    metadata = _base_metadata(args)
    metadata.update({
        "lambda_m": lam, "aperture_m": aperture, "target_m": d_target,
        "fraunhofer_m": d_fa, "db_floor": DB_FLOOR,
    })
    distances_m = distances.tolist()
    columns = {"kind": [], "mode": [], "distance_m": [], "power_db": []}
    for kind in args.kind:
        with np.errstate(over="ignore", invalid="ignore"):
            x = af_argument(kind, d_fa, vergence_difference(d_target, distances))
        if not np.all(np.isfinite(x)):
            raise UsageError("closed-form argument overflows; "
                             "probe distances too small for this aperture")
        # MIMO squares the single-aperture power
        base = normalized_af_power(kind, ProcessingMode.SIMO_MISO, x)
        for mode in args.mode:
            metadata[f"alpha[{kind.name},{mode.name}]"] = \
                half_power_coefficient(kind, mode)
            power = base ** mode.power_exponent
            db = 10.0 * np.log10(np.maximum(power, 1e-300))
            db = np.maximum(db, DB_FLOOR)
            columns["kind"] += [kind] * len(distances_m)
            columns["mode"] += [mode] * len(distances_m)
            columns["distance_m"] += distances_m
            columns["power_db"] += db.tolist()
    _emit(args, metadata, columns)
    return 0


def cmd_beamdepth_sweep(args) -> int:
    lam = args.wavelength
    aperture = args.aperture_lambda * lam
    d_fa = _fraunhofer_m(aperture, lam)
    _check_lengths(fraunhofer_m=d_fa)
    targets = _sweep_grid(args).tolist()
    metadata = _base_metadata(args)
    metadata.update({"lambda_m": lam, "aperture_m": aperture, "fraunhofer_m": d_fa})
    columns = {"kind": [], "mode": [], "target_m": [], "beamdepth_m": []}
    for kind in args.kind:
        for mode in args.mode:
            coeff = half_power_coefficient(kind, mode)
            metadata[f"alpha[{kind.name},{mode.name}]"] = coeff
            metadata[f"max_nf_range_m[{kind.name},{mode.name}]"] = \
                max_nearfield_range(d_fa, coeff)
            columns["kind"] += [kind] * len(targets)
            columns["mode"] += [mode] * len(targets)
            columns["target_m"] += targets
            with _rejected_input():  # a depth out of floating-point range
                columns["beamdepth_m"] += [beamdepth(d, d_fa, coeff)
                                           for d in targets]
    _emit(args, metadata, columns)
    return 0


def _validate_series(kind: GeometryKind, args) -> list:
    """Exact vs closed-form comparison rows for one geometry, both modes."""
    lam = args.wavelength
    with _rejected_input():
        geometry = build_array(kind, args.aperture_lambda * lam, lam)
    d_fa = _fraunhofer_m(geometry.aperture, lam)
    d_target = args.target_lambda * lam
    _check_lengths(target_m=d_target, fraunhofer_m=d_fa)
    setup = simo_miso_setup(geometry)
    points = max(args.sweep[2], 201)
    rows = []
    for mode in args.mode:
        coeff = half_power_coefficient(kind, mode)
        d_low, d_high = half_power_distances(d_target, d_fa, coeff)
        if math.isinf(d_high):
            raise ValidationFailure(
                f"{kind.name}: target beyond the maximum near-field range; "
                "no finite mainlobe to validate")
        grid = np.linspace(d_low, d_high, points)
        # the wide grid locates the exact half-power crossings around the target
        wide = np.linspace(0.85 * d_low, 1.15 * d_high, 4 * points)
        wide = wide[wide > 1e-9]
        with _rejected_input():  # the target or a probe on an element
            exact = broadside_power_sweep(setup, d_target, grid) ** mode.power_exponent
            exact_wide = (broadside_power_sweep(setup, d_target, wide)
                          ** mode.power_exponent)
        x = af_argument(kind, d_fa, vergence_difference(d_target, grid))
        closed = normalized_af_power(kind, mode, x)
        deviation = np.abs(exact - closed)
        rel = deviation / closed
        lower = _crossing(wide, exact_wide, d_target, upper=False)
        upper = _crossing(wide, exact_wide, d_target, upper=True)
        err_low = abs(lower - d_low) / d_low if lower is not None else math.inf
        err_high = abs(upper - d_high) / d_high if upper is not None else math.inf
        ok = (deviation.max() <= DEVIATION_THRESHOLD
              and err_low <= CROSSING_THRESHOLD and err_high <= CROSSING_THRESHOLD)
        rows.append({
            "kind": kind, "mode": mode, "elements": geometry.n_elements,
            "aperture_m": geometry.aperture, "fraunhofer_m": d_fa,
            "d3db_low_m": d_low, "d3db_high_m": d_high,
            "max_peak_deviation": float(deviation.max()),
            "max_rel_error": float(rel.max()),
            "crossing_low_rel_err": err_low, "crossing_high_rel_err": err_high,
            "status": "pass" if ok else "fail",
        })
    return rows


def _crossing(distances, power, d_target, upper: bool):
    """Interpolated half-power crossing adjacent to the target range."""
    above = power >= 0.5
    if upper:
        idx = np.where((distances[:-1] > d_target) & above[:-1] & ~above[1:])[0]
        if idx.size == 0:
            return None
        i = int(idx[0])
    else:
        idx = np.where((distances[1:] < d_target) & ~above[:-1] & above[1:])[0]
        if idx.size == 0:
            return None
        i = int(idx[-1])
    p0, p1 = power[i], power[i + 1]
    return float(distances[i] + (0.5 - p0) / (p1 - p0)
                 * (distances[i + 1] - distances[i]))


def cmd_validate(args) -> int:
    metadata = _base_metadata(args)
    metadata.update({
        "lambda_m": args.wavelength,
        "aperture_lambda": args.aperture_lambda,
        "target_lambda": args.target_lambda,
        "deviation_threshold": DEVIATION_THRESHOLD,
        "crossing_threshold": CROSSING_THRESHOLD,
    })
    rows = []
    for kind in args.kind:
        rows.extend(_validate_series(kind, args))
    _emit(args, metadata, {key: [r[key] for r in rows] for key in rows[0]})
    failed = [r for r in rows if r["status"] == "fail"]
    for r in rows:
        print(f"validate {r['kind'].name:4s} {r['mode'].name:9s} "
              f"peak-deviation {r['max_peak_deviation']:.4f} "
              f"crossings {r['crossing_low_rel_err']:.4f}/"
              f"{r['crossing_high_rel_err']:.4f} {r['status']}",
              file=sys.stderr)
    if failed:
        raise ValidationFailure(
            f"{len(failed)} of {len(rows)} series exceeded thresholds")
    return 0


def cmd_dump_geometry(args) -> int:
    if len(args.kind) != 1:
        raise UsageError("dump-geometry takes exactly one kind")
    with _rejected_input():
        geometry = build_array(args.kind[0], args.aperture_lambda * args.wavelength,
                               args.wavelength)
    columns = {"index": list(range(geometry.n_elements)),
               **dict(zip("xyz", geometry.elements.T.tolist()))}
    _emit(args, {}, columns)
    return 0


_COMMANDS = {
    "tables": cmd_tables,
    "af-curve": cmd_af_curve,
    "beamdepth-sweep": cmd_beamdepth_sweep,
    "validate": cmd_validate,
    "dump-geometry": cmd_dump_geometry,
}


def _build_parser() -> tuple:
    """The top-level parser and its subparsers by command name."""
    parser = _Parser(prog="nfsense", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"nfsense {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    subparsers = {}
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for flag, parse, default, text in _FLAGS:
            p.add_argument(flag, type=parse, default=default, help=text)
        p.add_argument("--config", help="key = value file with flag defaults")
        if name in _SWEEP_DEFAULTS:
            p.set_defaults(sweep=_SWEEP_DEFAULTS[name])
        subparsers[name] = p
    return parser, subparsers


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (see --help)")
        if args.config:
            # file values become string defaults, which argparse passes
            # through each flag's type; flags given on the command line win
            subparsers[args.command].set_defaults(**_load_config_file(args.config))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"nfsense: error: {exc}", file=sys.stderr)
        return 1
    except ValidationFailure as exc:
        print(f"nfsense: validation failed: {exc}", file=sys.stderr)
        return 2
    except IOError as exc:
        print(f"nfsense: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
