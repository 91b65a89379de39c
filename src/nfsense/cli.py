"""Command-line front end.

Commands
--------
tables           half-power coefficients, mode ratios, sidelobe levels and
                 the quadratic mainlobe model's sqrt(2) beside them
af-curve         normalized power vs probe range from the closed forms
beamdepth-sweep  beamdepth vs target range, with divergence metadata
validate         direct element summation vs closed forms on broadside
dump-geometry    element positions of one array

Every command takes every flag, before or after the command name.
Outputs are CSV ('#'-prefixed metadata lines, then a header row) or JSON
(a metadata object plus an array of row records).  Identical inputs give
byte-identical output on one machine.  Exit codes: 0 success, 1 usage
error or an input out of the library's domain, 2 validation failure, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from collections import Counter
from enum import Enum
from itertools import chain
from operator import attrgetter

import numpy as np

from . import __version__
from .ambiguity import broadside_power_sweep
from .closed_form import af_argument, normalized_af_power, vergence_difference
from .geometry import (GeometryKind, ProcessingMode, _fraunhofer, _real,
                       build_array, fraunhofer_distance, simo_miso_setup)
from .metrics import (beamdepth, compute_metrics, half_power_coefficient,
                      half_power_distances, max_nearfield_range)

DB_FLOOR = -60.0
DEVIATION_THRESHOLD = 0.02  # of the unit mainlobe peak
CROSSING_THRESHOLD = 0.03   # relative, in distance
MAX_SWEEP_POINTS = 100_000  # validate sweeps four times as many on its wide grid


class ValidationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


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
    # checked here, not by choices=, for this message and for --format CSV
    if text.lower() not in ("csv", "json"):
        raise argparse.ArgumentTypeError(
            f"unknown format {text!r} (choose csv or json)")
    return text.lower()


# flag, type, default, help; every command takes every flag.  --sweep has
# no default of its own: main fills in the command's, from _SWEEP_DEFAULTS.
_FLAGS = (
    ("--kind", _parse_kinds, "ula,uca,ura,upca", "comma-separated: ula,uca,ura,upca"),
    ("--mode", _parse_modes, "both", "simo, mimo or both"),
    ("--aperture-lambda", _parse_positive, "50", "aperture D in wavelengths"),
    ("--target-lambda", _parse_positive, "100", "target range d' in wavelengths"),
    ("--wavelength", _parse_positive, "1", "wavelength in meters"),
    ("--sweep", _parse_sweep, None,
     "grid as start:stop:points (wavelengths): the probe ranges of af-curve, "
     "the target ranges of beamdepth-sweep; validate reads only points (at "
     "least 201) for its own windows [d_low, d_high] and [0.85 d_low, "
     "1.15 d_high]; tables and dump-geometry ignore it"),
    ("--format", _parse_format, "csv", "csv or json"),
    ("--out", str, "-", "output path, - for stdout"),
)
_SWEEP_DEFAULTS = {
    "af-curve": "50:400:2000",
    "beamdepth-sweep": "10:1200:500",
    "validate": "0:0:3001",  # validate picks its own window; only points used
}


def _sweep_grid(args) -> np.ndarray:
    """The --sweep grid in meters, between finite positive ends."""
    start, stop, points = args.sweep
    lam = args.wavelength
    return np.linspace(_real(start * lam, "sweep_start_m"),
                       _real(stop * lam, "sweep_stop_m"), points)


def _json_float(value: float) -> str:
    """A float as JSON text: infinities as strings, and no nan."""
    if math.isfinite(value):
        return float.__repr__(value)
    if math.isnan(value):
        raise ValueError("Out of range float values are not JSON compliant")
    return '"inf"' if value > 0 else '"-inf"'


def _cells(values: list, text: bool) -> tuple:
    """One column as (%-format spec, the values it formats).

    The column's first value picks the rule for all of them: enums by name;
    floats to 12 significant digits in CSV and as float.__repr__ in JSON,
    where infinities become the strings "inf" and "-inf" and nan is
    rejected; ints in decimal; strings as they are in CSV (no string the
    CLI writes holds a comma, quote or newline), escaped in JSON.
    """
    first = values[0] if values else None
    if isinstance(first, Enum):
        # _name_ is a plain attribute, .name a Python-level property; names
        # are identifiers, which JSON quotes without escapes
        return ("%s" if text else '"%s"'), list(map(attrgetter("_name_"), values))
    if isinstance(first, float):
        if text:
            return "%.12g", values
        if all(map(math.isfinite, values)):  # str of a float is its repr
            return "%s", values
        return "%s", list(map(_json_float, values))
    if type(first) is int:  # not bool, which CSV and JSON spell as words
        return "%d", values
    return "%s", (values if text else list(map(json.dumps, values)))


def _json_object(keys, specs, indent: str) -> str:
    """%-template of a JSON object laid out as json.dump(indent=2) does."""
    if not keys:
        return "{}"
    inner = "\n" + indent + "  "
    return ("{" + inner + ("," + inner).join(
        json.dumps(key).replace("%", "%%") + ": " + spec
        for key, spec in zip(keys, specs)) + "\n" + indent + "}")


# rows formatted per write, which bounds the text held in memory
_ROWS_PER_WRITE = 4096


def _chunks(row: str, cells: list):
    """A block's rows as strings of up to _ROWS_PER_WRITE rows, each
    formatted by one % of the row template repeated to its row count."""
    n, width = (len(cells[0]) if cells else 0), len(cells)
    for start in range(0, n, _ROWS_PER_WRITE):
        stop = min(start + _ROWS_PER_WRITE, n)
        # the chunk's cells row by row, laid out by one slice per column
        flat = [None] * ((stop - start) * width)
        for j, column in enumerate(cells):
            flat[j::width] = column[start:stop]
        yield row * (stop - start) % tuple(flat)


def _emit(args, metadata: dict, *blocks: dict) -> None:
    """Write metadata and blocks of rows in the chosen format.

    Each block maps every column name, in the first block's order, to a
    list of cells or to one value shared by the whole block (a kind and
    mode, or a coordinate that is the same bit for bit on every element
    of a layout); its lists are equally long and give its rows.  A
    block's rows are formatted by one %-template built from its column
    types, with its shared values already formatted into it, and a list
    that several blocks hold is formatted once.  Every value is checked,
    every template built and the first chunk formatted before the first
    write, and each write is one chunk of _chunks: up to _ROWS_PER_WRITE
    rows of one block, formatted by a single %.
    """
    text = args.format == "csv"

    def one(value) -> str:
        spec, cell = _cells([value], text)
        return spec % tuple(cell)

    uses = Counter(id(values) for block in blocks for values in block.values()
                   if isinstance(values, list))
    columns, per_block = {}, []  # columns: list id -> (spec, cells)
    for block in blocks:
        specs, cells = [], []
        for values in block.values():
            if not isinstance(values, list):
                specs.append(one(values).replace("%", "%%"))
                continue
            if id(values) not in columns:
                spec, out = _cells(values, text)
                if uses[id(values)] > 1:  # format it once
                    spec, out = "%s", list(map(spec.__mod__, out))
                columns[id(values)] = spec, out
            specs.append(columns[id(values)][0])
            cells.append(columns[id(values)][1])
        # a JSON row opens with the comma after the row before it
        row = (",".join(specs) + "\n" if text else
               ",\n    " + _json_object(list(block), specs, "    "))
        per_block.append(_chunks(row, cells))
    chunks = chain.from_iterable(per_block)
    first = next(chunks, "")
    if text:
        head = "".join(f"# {key} = {one(value)}\n" for key, value in metadata.items())
        head += ",".join(blocks[0]) + "\n"
        tail = ""
    else:
        head = ('{\n  "metadata": '
                + _json_object(list(metadata), ["%s"] * len(metadata), "  ")
                % tuple(map(one, metadata.values())) + ',\n  "rows": [')
        first = first[1:]  # the first row follows the opening bracket
        tail = ("\n  ]" if first else "]") + "\n}\n"
    try:
        with (contextlib.nullcontext(sys.stdout) if args.out == "-" else
              open(args.out, "w", encoding="utf-8", newline="")) as stream:
            stream.write(head + first)
            for chunk in chunks:
                stream.write(chunk)
            stream.write(tail)
    except OSError as exc:
        raise IOError(f"cannot write output {args.out!r}: {exc}") from exc


def _base_metadata(args) -> dict:
    return {"tool": "nfsense", "version": __version__, "command": args.command}


def cmd_tables(args) -> None:
    metadata = _base_metadata(args)
    metadata["figure_accuracy"] = "correctly rounded from 40 digits"
    rows = [vars(compute_metrics(kind)) for kind in args.kind]
    _emit(args, metadata, {key: [r[key] for r in rows] for key in rows[0]})


def cmd_af_curve(args) -> None:
    lam = args.wavelength
    d_target = args.target_lambda * lam
    aperture = args.aperture_lambda * lam
    d_fa = _fraunhofer(aperture, lam)
    distances = _sweep_grid(args)
    vergence = vergence_difference(d_target, distances)
    metadata = _base_metadata(args)
    metadata.update({
        "lambda_m": lam, "aperture_m": aperture, "target_m": d_target,
        "fraunhofer_m": d_fa, "db_floor": DB_FLOOR,
    })
    distances_m = distances.tolist()
    blocks = []
    for kind in args.kind:
        # MIMO squares the single-aperture power
        base = normalized_af_power(kind, ProcessingMode.SIMO_MISO,
                                   af_argument(kind, d_fa, vergence))
        for mode in args.mode:
            metadata[f"alpha[{kind.name},{mode.name}]"] = \
                half_power_coefficient(kind, mode)
            power = base ** mode.power_exponent
            # log10(1e-6) is exactly -6, so the floored power gives DB_FLOOR
            db = 10.0 * np.log10(np.maximum(power, 10 ** (DB_FLOOR / 10)))
            blocks.append({"kind": kind, "mode": mode, "distance_m": distances_m,
                           "power_db": db.tolist()})
    _emit(args, metadata, *blocks)


def cmd_beamdepth_sweep(args) -> None:
    lam = args.wavelength
    aperture = args.aperture_lambda * lam
    d_fa = _fraunhofer(aperture, lam)
    targets = _sweep_grid(args)
    metadata = _base_metadata(args)
    metadata.update({"lambda_m": lam, "aperture_m": aperture, "fraunhofer_m": d_fa})
    targets_m = targets.tolist()
    blocks = []
    for kind in args.kind:
        for mode in args.mode:
            coeff = half_power_coefficient(kind, mode)
            metadata[f"alpha[{kind.name},{mode.name}]"] = coeff
            metadata[f"max_nf_range_m[{kind.name},{mode.name}]"] = \
                max_nearfield_range(d_fa, coeff)
            blocks.append({"kind": kind, "mode": mode, "target_m": targets_m,
                           "beamdepth_m": beamdepth(targets, d_fa, coeff).tolist()})
    _emit(args, metadata, *blocks)


def _crossing(distances, power, d_target, upper: bool) -> float:
    """The half-power crossing next to d_target, interpolated linearly in
    power: in the last segment that rises through 1/2 and starts below the
    target, or the first that falls through it and ends above; inf if none."""
    above = power >= 0.5
    fall = (distances[1:] > d_target) & above[:-1] & ~above[1:]
    rise = (distances[:-1] < d_target) & ~above[:-1] & above[1:]
    idx = np.flatnonzero(fall)[:1] if upper else np.flatnonzero(rise)[-1:]
    if idx.size == 0:
        return math.inf
    i = int(idx[0])
    p0, p1 = power[i], power[i + 1]
    return float(distances[i] + (0.5 - p0) / (p1 - p0)
                 * (distances[i + 1] - distances[i]))


def cmd_validate(args) -> None:
    lam = args.wavelength
    d_target = args.target_lambda * lam
    points = max(args.sweep[2], 201)
    metadata = _base_metadata(args)
    metadata.update({
        "lambda_m": lam,
        "aperture_lambda": args.aperture_lambda,
        "target_lambda": args.target_lambda,
        "deviation_threshold": DEVIATION_THRESHOLD,
        "crossing_threshold": CROSSING_THRESHOLD,
    })
    # every series' window is derived before the first exact sum
    series = []
    for kind in args.kind:
        geometry = build_array(kind, args.aperture_lambda * lam, lam)
        d_fa = fraunhofer_distance(geometry)
        setup = simo_miso_setup(geometry)
        for mode in args.mode:
            coeff = half_power_coefficient(kind, mode)
            d_low, d_high = half_power_distances(d_target, d_fa, coeff)
            if math.isinf(d_high):
                raise ValidationFailure(
                    f"{kind.name}: target beyond the maximum near-field range; "
                    "no finite mainlobe to validate")
            series.append((kind, mode, geometry, setup, d_fa, d_low, d_high))
    rows = []
    for kind, mode, geometry, setup, d_fa, d_low, d_high in series:
        grid = np.linspace(d_low, d_high, points)
        # the wide grid locates the exact half-power crossings
        wide = np.linspace(0.85 * d_low, 1.15 * d_high, 4 * points)
        exact, exact_wide = (
            broadside_power_sweep(setup, d_target, g) ** mode.power_exponent
            for g in (grid, wide))
        x = af_argument(kind, d_fa, vergence_difference(d_target, grid))
        closed = normalized_af_power(kind, mode, x)
        deviation = np.abs(exact - closed)
        rel = deviation / closed
        lower = _crossing(wide, exact_wide, d_target, upper=False)
        upper = _crossing(wide, exact_wide, d_target, upper=True)
        err_low = abs(lower - d_low) / d_low
        err_high = abs(upper - d_high) / d_high
        ok = (deviation.max() <= DEVIATION_THRESHOLD
              and err_low <= CROSSING_THRESHOLD
              and err_high <= CROSSING_THRESHOLD)
        rows.append({
            "kind": kind, "mode": mode, "elements": geometry.n_elements,
            "aperture_m": geometry.aperture, "fraunhofer_m": d_fa,
            "d3db_low_m": d_low, "d3db_high_m": d_high,
            "max_peak_deviation": float(deviation.max()),
            "max_rel_error": float(rel.max()),
            "crossing_low_rel_err": err_low, "crossing_high_rel_err": err_high,
            "status": "pass" if ok else "fail",
        })
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


def cmd_dump_geometry(args) -> None:
    if len(args.kind) != 1:
        raise ValueError("dump-geometry takes exactly one kind")
    geometry = build_array(args.kind[0], args.aperture_lambda * args.wavelength,
                           args.wavelength)
    elements = geometry.elements
    # a coordinate the layout's frame fixes is one shared value; bits, not
    # values, decide, so a column that mixes 0.0 and -0.0 stays per row
    bits = elements.view(np.uint64)
    fixed = (bits == bits[0]).all(axis=0)
    columns = {"index": list(range(geometry.n_elements)),
               **{axis: float(values[0]) if same else values.tolist()
                  for axis, values, same in zip("xyz", elements.T, fixed)}}
    _emit(args, {}, columns)


_COMMANDS = {
    "tables": cmd_tables,
    "af-curve": cmd_af_curve,
    "beamdepth-sweep": cmd_beamdepth_sweep,
    "validate": cmd_validate,
    "dump-geometry": cmd_dump_geometry,
}


@functools.cache
def _parser() -> _Parser:
    """The one parser, built on first use; parsing never changes it, so
    every call and thread shares it."""
    parser = _Parser(prog="nfsense", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"nfsense {__version__}")
    parser.add_argument("command", nargs="?", choices=_COMMANDS, metavar="COMMAND",
                        help="one of the commands above")
    for flag, parse, default, text in _FLAGS:
        parser.add_argument(flag, type=parse, default=default, help=text)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command is None:
            raise ValueError("a command is required (see --help)")
        if args.sweep is None:
            args.sweep = _parse_sweep(_SWEEP_DEFAULTS.get(args.command, "0:0:2"))
        _COMMANDS[args.command](args)
    except ValueError as exc:  # a usage error, or a library input out of its domain
        print(f"nfsense: error: {exc}", file=sys.stderr)
        return 1
    except ValidationFailure as exc:
        print(f"nfsense: validation failed: {exc}", file=sys.stderr)
        return 2
    except IOError as exc:
        print(f"nfsense: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
