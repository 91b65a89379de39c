"""Print a digest of the CLI's outputs over a fixed argv matrix, then of
the exact-sum, layout and closed-form library calls.

It keeps the outputs whose bytes the test suite cannot pin: the exact sums,
whose bits follow the host's np.tan, large files and the help text.  Every
rejected input, with its exit code and full output or its message, is a
row of tests/test_cli.py's EXITS or of tests/test_real_inputs.py's tables,
and nowhere else.  An output whose bits another case or a tier-1 test
already fixes is not hashed again (README names those tests).

Each CLI case runs nfsense.cli.main in this process with stdout and
stderr captured, and prints one line: the sha256 of stdout and stderr,
the exit code (or the name of an exception that escapes) and the argv.
The script sets COLUMNS=80, to which argparse wraps the help text, so the
listing does not depend on the terminal.  Each library case prints the
sha256 of the result's bytes as a numpy array, 0 and the call; a raised
exception prints the sha256 of its type name and the name in place of
the 0.

A checkout's outputs match another's when the two listings do, line by
line by name (a checkout whose ArrayGeometry still takes an aperture
argument is listed by its own copy of this script):

    python3 scripts/output_digest.py /path/to/other/checkout > before.txt
    python3 scripts/output_digest.py > after.txt
    diff before.txt after.txt

Compare the two listings on one host: np.tan's bits depend on the host's
SIMD dispatch (on an AVX512 host it differs from libm's tan by one ulp in
about 0.5% of values), and the exact sums take one np.tan per pair.

The optional argument is the checkout whose src/ is imported; the default
is the one holding this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from itertools import product
from pathlib import Path

import numpy as np

KIND_SETS = ("ula", "uca", "ura", "upca", "ura,ula", "ula,uca,ura,upca")
MODES = ("simo", "mimo", "both")
FORMATS = ("csv", "json")
SWEEPS = {"tables": "", "af-curve": "--sweep 50:400:2000",
          "beamdepth-sweep": "--sweep 10:1200:500",
          "validate": "--sweep 0:0:301"}
EXTREME_WAVELENGTHS = (
    "dump-geometry --kind upca --aperture-lambda 3 --wavelength 1e300",
    "dump-geometry --kind upca --aperture-lambda 1.7 --wavelength 1e308",
    "dump-geometry --kind ula --aperture-lambda 1 --wavelength 1e308",
    "dump-geometry --kind uca --aperture-lambda 1 --wavelength 1e308",
    "dump-geometry --kind ura --aperture-lambda 1.5 --wavelength 1e308",
)


def cases():
    for command, kinds, mode, fmt in product(SWEEPS, KIND_SETS, MODES, FORMATS):
        if command == "tables" and mode != "both":  # tables ignores --mode
            continue
        yield (f"{command} --kind {kinds} --mode {mode} --format {fmt} "
               f"{SWEEPS[command]}")
    for fmt in FORMATS:
        yield f"validate --format {fmt}"
        for kind in ("ula", "uca", "ura", "upca"):
            yield f"dump-geometry --kind {kind} --aperture-lambda 12 --format {fmt}"
        # single blocks of more than the writer's 4,096 rows a write
        yield f"af-curve --kind ula --mode simo --sweep 50:400:10000 --format {fmt}"
        yield f"dump-geometry --kind ura --aperture-lambda 60 --format {fmt}"
    yield from EXTREME_WAVELENGTHS
    yield "validate --kind ula,uca --wavelength 1e-11 --sweep 0:0:301"
    # d_FA moves by one ulp if D^2 goes through C's pow
    for command, sweep in (("af-curve", "5:400:300"),
                           ("beamdepth-sweep", "1:60:2000")):
        yield f"{command} --aperture-lambda 12.457 --format json --sweep {sweep}"
    # the UCA pattern's argument runs to 72, past J0's branch at 13
    yield ("af-curve --kind uca --aperture-lambda 100 --target-lambda 150 "
           "--sweep 40:600:3001 --format json")
    # argparse ends --help with SystemExit, whose code is printed as the
    # exit code; tier-1 pins each command's --help to this one, and both
    # --version lines in full
    yield "--help"


# Python floats, among them points where glibc's pow (Python's float **)
# rounds a closed-form square otherwise than a product: J0(8.4)^2,
# sinc(0.863)^2, and the MIMO squares of J0(1.888)^2, sinc(0.19)^2 and of
# the URA pattern at 0.337
SCALARS = (0.0, 0.19, 0.337, 0.863, 1.888, 8.4, 41.4)


def _elements(make, *args):
    """The element array of the geometry that make(*args) returns."""
    return make(*args).elements


def _each_scalar(function, *args):
    """function(*args, v) for each v in SCALARS, one call per scalar."""
    return [function(*args, v) for v in SCALARS]


def library_cases():
    """(name, function, args) of the exact-sum, geometry and metric calls."""
    import nfsense
    from nfsense.ambiguity import (array_factor, broadside_power_sweep,
                                   normalized_power)
    from nfsense.closed_form import normalized_af_power, vergence_difference
    from nfsense.geometry import (ArrayGeometry, GeometryKind, ProcessingMode,
                                  build_array, fraunhofer_distance, mimo_setup,
                                  simo_miso_setup)
    from nfsense.specfun import bessel_j0, fresnel_c, fresnel_cs, fresnel_s, sinc

    x, z = np.meshgrid(np.linspace(-15.0, 15.0, 30), np.linspace(60.0, 140.0, 20))
    patch = np.column_stack([x.ravel(), 5.0 + 0.1 * x.ravel(), z.ravel()])
    # the broadside sweep's points given as 3-vectors
    axis = np.column_stack([np.zeros((901, 2)), np.linspace(20.0, 200.0, 901)])
    for kind in GeometryKind:
        array = build_array(kind, 12.0, 1.0)
        for make in (simo_miso_setup, mimo_setup):
            yield (f"normalized_power {kind.value} {make.__name__}",
                   normalized_power, (make(array), [4.0, -3.0, 100.0], patch))
        # the same elements in another order: a class's term is its
        # lowest-index element, and the terms are summed in index order
        permuted = ArrayGeometry(kind, 1.0, np.roll(
            array.elements[::-1], array.n_elements // 3, axis=0))
        for geometry, how in ((array, "simo_miso_setup"), (permuted, "permuted")):
            yield (f"broadside_power_sweep {kind.value} {how}",
                   broadside_power_sweep, (simo_miso_setup(geometry), 60.0,
                                           np.linspace(20.0, 200.0, 901)))
        yield (f"normalized_power {kind.value} mimo_setup on axis",
               normalized_power, (mimo_setup(array), [0.0, 0.0, 60.0], axis))
        yield (f"array_factor {kind.value} on axis", array_factor,
               (array, [0.0, 0.0, 60.0], axis))
    # large layouts, whose blocks hold few probe rows of many elements
    for kind, aperture in ((GeometryKind.URA, 40.0), (GeometryKind.UPCA, 50.0)):
        array = build_array(kind, aperture, 1.0)
        for make in (simo_miso_setup, mimo_setup):
            yield (f"normalized_power {kind.value} {aperture:g} {make.__name__}",
                   normalized_power, (make(array), [4.0, -3.0, 100.0], patch))
    # probes where the phase is many cycles
    ula = build_array(GeometryKind.ULA, 12.0, 1.0)
    for far in (1e5, 1e6):
        probes = np.column_stack([np.linspace(-0.3 * far, 0.3 * far, 201),
                                  np.full(201, 2.5), np.full(201, far)])
        yield (f"array_factor ula 12 1 probes {far:g} away", array_factor,
               (ula, [4.0, -3.0, 100.0], probes))
    # a probe half a cycle nearer than the target
    yield ("array_factor one element half a cycle", array_factor,
           (ArrayGeometry(None, 1.0, np.zeros((1, 3))), [0.0, 0.0, 100.0],
            [0.0, 0.0, 99.5]))
    # a float32 wavelength, which the geometry keeps as a float
    single = ArrayGeometry(GeometryKind.ULA, np.float32(0.0123), build_array(
        GeometryKind.ULA, 20 * 0.0123, 0.0123).elements)
    yield ("fraunhofer_distance ula float32 wavelength", fraunhofer_distance,
           (single,))
    yield ("normalized_power ula mimo_setup float32 wavelength",
           normalized_power, (mimo_setup(single), [0.01, 0.02, 0.5], patch / 100))
    yield "sorted nfsense.__all__", np.array, (sorted(nfsense.__all__),)
    yield ("vergence_difference (100.0, [50.0, 60.0])", vergence_difference,
           (100.0, [50.0, 60.0]))
    for function in (fresnel_cs, fresnel_c, fresnel_s, bessel_j0, sinc):
        yield (f"{function.__name__} scalars", _each_scalar, (function,))
    for kind, mode in product(GeometryKind, ProcessingMode):
        # the URA's SIMO pattern is the ULA's MIMO one
        if (kind, mode) != (GeometryKind.URA, ProcessingMode.SIMO_MISO):
            yield (f"normalized_af_power {kind.value} {mode.name} scalars",
                   _each_scalar, (normalized_af_power, kind, mode))
    # J0 above its series branch at x = 13
    grid = np.linspace(13.0, 60.0, 2001)
    yield "bessel_j0 linspace(13, 60, 2001)", bessel_j0, (grid,)
    for mode in ProcessingMode:
        yield (f"normalized_af_power uca {mode.name} linspace(13, 60, 2001)",
               normalized_af_power, (GeometryKind.UCA, mode, grid))
    # a hand-built layout off the z = 0 plane: a spiral of rings of
    # distinct radii and heights, each element with its mirror image
    k = np.arange(40)
    spiral = np.column_stack([(1.0 + 0.1 * (k % 7)) * np.cos(2.4 * k),
                              (1.0 + 0.1 * (k % 7)) * np.sin(2.4 * k),
                              0.3 * (k % 5) - 0.6])
    spiral = ArrayGeometry(None, 0.5, np.concatenate(
        [spiral, spiral * [-1.0, -1.0, 1.0]]))
    for make in (simo_miso_setup, mimo_setup):
        yield (f"broadside_power_sweep spiral {make.__name__}",
               broadside_power_sweep, (make(spiral), 60.0,
                                       np.linspace(5.0, 200.0, 901)))
        yield (f"normalized_power spiral {make.__name__}", normalized_power,
               (make(spiral), [4.0, -3.0, 100.0], patch))
    # on-axis points with x = -0.0 on even rows and y = -0.0 on odd ones,
    # and a target at x = -0.0
    signed = axis.copy()
    signed[::2, 0] = signed[1::2, 1] = -0.0
    yield ("array_factor spiral on axis -0", array_factor,
           (spiral, [-0.0, 0.0, 60.0], signed))
    # layouts near the ends of the float range
    for kind, lam in product(GeometryKind, (1e-300, 1e300)):
        yield (f"build_array {kind.value} 3 {lam!r}", _elements,
               (build_array, kind, 3.0 * lam, lam))
    # a large layout, the UPCA's of 300 rings
    yield ("build_array upca 300 1", _elements,
           (build_array, GeometryKind.UPCA, 300.0, 1.0))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    os.environ["COLUMNS"] = "80"  # the width argparse wraps --help to
    from nfsense.cli import main as cli_main

    for case in cases():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(case.split())
            except SystemExit as exc:  # --help
                code = exc.code
            except Exception as exc:  # a traceback: the type is the code
                code = type(exc).__name__
        digest = hashlib.sha256(
            out.getvalue().encode() + b"\0" + err.getvalue().encode())
        print(digest.hexdigest(), code, case.strip())

    for name, function, args in library_cases():
        try:
            data, code = np.asarray(function(*args)).tobytes(), 0
        except Exception as exc:  # the type is the output
            code = type(exc).__name__
            data = code.encode()
        print(hashlib.sha256(data).hexdigest(), code, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
