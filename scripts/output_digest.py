"""Print a digest of every CLI output over a fixed argv matrix, then of
the exact-sum library calls.

Each CLI case runs nfsense.cli.main in this process with stdout and
stderr captured, and prints one line: the sha256 of stdout and stderr,
the exit code (or the name of an exception that escapes) and the argv.
The script sets COLUMNS=80, to which argparse wraps the help text, so the
listing does not depend on the terminal.  The CLI cases, in print order:

- tables, af-curve, beamdepth-sweep and validate over kind subsets, modes
  and both formats;
- per format, the validate defaults and dump-geometry per kind at
  D = 12 lambda;
- inputs that exit 1;
- a validate at lambda = 1e-11 m;
- an af-curve and a beamdepth-sweep at D = 12.457 lambda, whose d_FA
  moves by one ulp if its square goes through C's pow;
- a UCA af-curve whose pattern argument runs to 72, past J0's branch at
  13;
- the --help text of nfsense and of each command, and --version before
  and after a command (argparse ends those with SystemExit, whose code is
  printed as the exit code);
- flags given before the command.

Each library case prints the sha256 of the result's bytes as a numpy
array (a geometry's element array), 0 and the call; a raised exception
prints the sha256 of its type name and the name in place of the 0.  The
library cases, in print order:

- per kind, at D = 12 lambda and lambda = 1: normalized_power on an
  off-axis patch per setup; broadside_power_sweep on the built geometry,
  on an ArrayGeometry hand-built from its elements (whose line prints the
  built one's hash) and on one hand-built from them in a fixed other
  order, which pins the class terms' representatives and summation order;
  normalized_power per setup and array_factor on the sweep's points
  given as on-axis 3-vectors (the SIMO power line prints the sweep's
  hash);
- normalized_power on an off-axis patch per setup for a URA at 40 lambda
  and a UPCA at 50 lambda, whose blocks hold few probe rows of many
  elements;
- normalized_power on an empty probe batch;
- array_factor of a ULA on probes about 1e5 and 1e6 lambda away, where
  the phase is many cycles;
- array_factor of one element on a probe half a cycle nearer than the
  target;
- rejected geometries: each builder at lambda = 0 and -1, an
  ArrayGeometry with empty, NaN or (2, 2) elements, and build_array with
  a string kind;
- fraunhofer_distance and a MIMO normalized_power of a ULA hand-built
  with a float32 wavelength;
- normalized_power, array_factor and broadside_power_sweep given two
  targets;
- the package's sorted __all__;
- beamdepth and half_power_distances one ulp below d_FA/alpha,
  half_power_distances on a two-element array, and vergence_difference
  on a list, at a target of 1e-320 m, whose reciprocal overflows, and at
  an infinite target;
- inputs no public function takes as real numbers: a numeric string to
  normalized_af_power, a bool to bessel_j0, a string kind to
  af_argument, a complex probe to normalized_power and a None aperture
  to SensingSetup, whose setup is then summed;
- af_argument per kind at d_FA = d_ver = 1, which is the kind's argument
  scale;
- each specfun function, and normalized_af_power per kind and mode, on
  each of the Python floats SCALARS;
- bessel_j0 and the UCA pattern per mode on a grid of [13, 60];
- per kind, normalized_power per setup and array_factor on the on-axis
  points with x = -0.0 or y = -0.0 and a target at -0.0 (each prints its
  on-axis hash);
- a hand-built layout of 80 elements at several heights off the z = 0
  plane, mirrored in pairs: broadside_power_sweep and off-axis
  normalized_power per setup, and array_factor on the -0.0 points;
- per kind, the first case's sums with every length times lambda =
  2**-500: normalized_power on the off-axis patch per setup,
  broadside_power_sweep and array_factor on the on-axis points (the sums
  work in wavelengths, so each prints its lambda = 1 line's hash).

A checkout's outputs match another's when the two listings do, line by
line by name (a checkout whose ArrayGeometry still takes an aperture
argument is listed by its own copy of this script):

    python3 scripts/output_digest.py /path/to/other/checkout > before.txt
    python3 scripts/output_digest.py > after.txt
    diff before.txt after.txt

The optional argument is the checkout whose src/ is imported; the default
is the one holding this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
from itertools import product
from pathlib import Path

import numpy as np

COMMANDS = ("tables", "af-curve", "beamdepth-sweep", "validate", "dump-geometry")
KIND_SETS = ("ula", "uca", "ura", "upca", "ura,ula", "ula,uca,ura,upca")
MODES = ("simo", "mimo", "both")
FORMATS = ("csv", "json")
SWEEPS = {"tables": "", "af-curve": "--sweep 50:400:2000",
          "beamdepth-sweep": "--sweep 10:1200:500",
          "validate": "--sweep 0:0:301"}
BAD_INPUTS = (
    "",
    "tables --kind nope",
    "tables --format xml",
    "af-curve --sweep 400:50:100",
    "af-curve --sweep 1:inf:3",
    "af-curve --aperture-lambda -5",
    "af-curve --aperture-lambda 1e200",
    "af-curve --sweep 0:1:10000000000",
    "validate --kind ula --target-lambda 1e-300",
    "validate --sweep 0:0:100001",
    "validate --kind uca --aperture-lambda 3 --wavelength 1e300",
    "dump-geometry --kind ula,uca",
    "dump-geometry --kind ula --aperture-lambda 0.3",
    "dump-geometry --kind upca --aperture-lambda 3 --wavelength 1e300",
    "dump-geometry --kind upca --aperture-lambda 1.7 --wavelength 1e308",
    "dump-geometry --kind ula --aperture-lambda 1 --wavelength 1e308",
    "dump-geometry --kind uca --aperture-lambda 1 --wavelength 1e308",
    "dump-geometry --kind uca --aperture-lambda 0.5 --wavelength 5e-324",
    "dump-geometry --kind ura --aperture-lambda 1.5 --wavelength 1e308",
    "beamdepth-sweep --aperture-lambda 5e153 --sweep 1:1e300:3",
    "beamdepth-sweep --aperture-lambda 1e-100 --sweep 1e-300:1e300:3",
    "validate --kind ula --wavelength 1e152",
    "validate --kind uca --mode simo --aperture-lambda 3 --target-lambda 1e-320 "
    "--wavelength 1e3 --sweep 0:0:201",
    "af-curve --wavelength 1e-163",
    "beamdepth-sweep --wavelength 1e-110 --sweep 10:1200:3",
)


def cases():
    for command, kinds, mode, fmt in product(SWEEPS, KIND_SETS, MODES, FORMATS):
        yield (f"{command} --kind {kinds} --mode {mode} --format {fmt} "
               f"{SWEEPS[command]}")
    for fmt in FORMATS:
        yield f"validate --format {fmt}"
        for kind in ("ula", "uca", "ura", "upca"):
            yield f"dump-geometry --kind {kind} --aperture-lambda 12 --format {fmt}"
    yield from BAD_INPUTS
    yield "validate --kind ula,uca --wavelength 1e-11 --sweep 0:0:301"
    for command, sweep in (("af-curve", "5:400:300"),
                           ("beamdepth-sweep", "1:60:2000")):
        yield f"{command} --aperture-lambda 12.457 --format json --sweep {sweep}"
    yield ("af-curve --kind uca --aperture-lambda 100 --target-lambda 150 "
           "--sweep 40:600:3001 --format json")
    yield "--help"
    for command in COMMANDS:
        yield f"{command} --help"
    yield "--version"
    yield "tables --version"
    yield "--kind ula --format json tables"


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
    from nfsense.closed_form import (af_argument, normalized_af_power,
                                     vergence_difference)
    from nfsense.geometry import (ArrayGeometry, GeometryKind, ProcessingMode,
                                  SensingSetup, build_array,
                                  fraunhofer_distance, mimo_setup,
                                  simo_miso_setup)
    from nfsense.metrics import beamdepth, half_power_distances
    from nfsense.specfun import bessel_j0, fresnel_c, fresnel_cs, fresnel_s, sinc

    x, z = np.meshgrid(np.linspace(-15.0, 15.0, 30), np.linspace(60.0, 140.0, 20))
    patch = np.column_stack([x.ravel(), 5.0 + 0.1 * x.ravel(), z.ravel()])
    for kind in GeometryKind:
        array = build_array(kind, 12.0, 1.0)
        for make in (simo_miso_setup, mimo_setup):
            yield (f"normalized_power {kind.value} {make.__name__}",
                   normalized_power, (make(array), [4.0, -3.0, 100.0], patch))
        hand = ArrayGeometry(kind, 1.0, array.elements)
        # the same elements in another order: a class's term is its
        # lowest-index element, and the terms are summed in index order
        permuted = ArrayGeometry(kind, 1.0, np.roll(
            array.elements[::-1], array.n_elements // 3, axis=0))
        for geometry, how in ((array, "simo_miso_setup"), (hand, "hand-built"),
                              (permuted, "permuted")):
            yield (f"broadside_power_sweep {kind.value} {how}",
                   broadside_power_sweep, (simo_miso_setup(geometry), 60.0,
                                           np.linspace(20.0, 200.0, 901)))
        # the broadside sweep's points given as 3-vectors: the SIMO line
        # prints the sweep's hash
        axis = np.column_stack([np.zeros((901, 2)),
                                np.linspace(20.0, 200.0, 901)])
        for make in (simo_miso_setup, mimo_setup):
            yield (f"normalized_power {kind.value} {make.__name__} on axis",
                   normalized_power, (make(array), [0.0, 0.0, 60.0], axis))
        yield (f"array_factor {kind.value} on axis", array_factor,
               (array, [0.0, 0.0, 60.0], axis))
    # large layouts, whose blocks hold few probe rows of many elements
    for kind, aperture in ((GeometryKind.URA, 40.0), (GeometryKind.UPCA, 50.0)):
        array = build_array(kind, aperture, 1.0)
        for make in (simo_miso_setup, mimo_setup):
            yield (f"normalized_power {kind.value} {aperture:g} {make.__name__}",
                   normalized_power, (make(array), [4.0, -3.0, 100.0], patch))
    yield ("normalized_power ula simo_miso_setup empty", normalized_power,
           (simo_miso_setup(build_array(GeometryKind.ULA, 12.0, 1.0)),
            [4.0, -3.0, 100.0], np.empty((0, 3))))
    ula = build_array(GeometryKind.ULA, 12.0, 1.0)
    for far in (1e5, 1e6):
        probes = np.column_stack([np.linspace(-0.3 * far, 0.3 * far, 201),
                                  np.full(201, 2.5), np.full(201, far)])
        yield (f"array_factor ula 12 1 probes {far:g} away", array_factor,
               (ula, [4.0, -3.0, 100.0], probes))
    yield ("array_factor one element half a cycle", array_factor,
           (ArrayGeometry(None, 1.0, np.zeros((1, 3))), [0.0, 0.0, 100.0],
            [0.0, 0.0, 99.5]))
    for kind, wavelength in product(GeometryKind, (0.0, -1.0)):
        yield (f"build_array {kind.value} 10 {wavelength:g}", _elements,
               (build_array, kind, 10.0, wavelength))
    for name, elements in (("empty", np.empty((0, 3))),
                           ("nan", np.array([[0.0, 0.0, np.nan]])),
                           ("2x2", np.zeros((2, 2)))):
        yield (f"ArrayGeometry {name} elements", _elements,
               (ArrayGeometry, None, 1.0, elements))
    yield ("build_array 'ula' 1 1", _elements, (build_array, "ula", 1.0, 1.0))
    # a float32 wavelength, which the geometry keeps as a float
    single = ArrayGeometry(GeometryKind.ULA, np.float32(0.0123), build_array(
        GeometryKind.ULA, 20 * 0.0123, 0.0123).elements)
    yield ("fraunhofer_distance ula float32 wavelength", fraunhofer_distance,
           (single,))
    yield ("normalized_power ula mimo_setup float32 wavelength",
           normalized_power, (mimo_setup(single), [0.01, 0.02, 0.5], patch / 100))
    two = [[0.0, 0.0, 50.0], [0.0, 0.0, 80.0]]
    yield ("normalized_power ula simo_miso_setup two targets", normalized_power,
           (simo_miso_setup(ula), two, [0.0, 0.0, 60.0]))
    yield ("array_factor ula two targets", array_factor,
           (ula, two, [0.0, 0.0, 60.0]))
    yield ("broadside_power_sweep ula simo_miso_setup two targets",
           broadside_power_sweep, (simo_miso_setup(ula), [50.0, 80.0], [60.0]))
    yield "sorted nfsense.__all__", np.array, (sorted(nfsense.__all__),)
    for function, args in (
            (beamdepth, (56.31967387950216, 160.08963235498462, 2.842517034056372)),
            (half_power_distances,
             (110.5308754512692, 293.06884588646074, 2.6514658885124707)),
            (half_power_distances, (np.array([100.0, 200.0]), 5000.0, 7.0)),
            (vergence_difference, (100.0, [50.0, 60.0])),
            (vergence_difference, (1e-320, 5.0)),
            (vergence_difference, (math.inf, 5.0)),
            (normalized_af_power,
             (GeometryKind.ULA, ProcessingMode.SIMO_MISO, "0.5")),
            (bessel_j0, (True,)),
            (af_argument, ("ula", 1.0, 0.1))):
        yield f"{function.__name__} {args!r}", function, args
    for kind in GeometryKind:  # the argument scale a
        yield f"af_argument {kind.value} 1.0 1.0", af_argument, (kind, 1.0, 1.0)
    yield ("normalized_power ula simo_miso_setup complex probe",
           normalized_power, (simo_miso_setup(ula), [0.0, 0.0, 10.0],
                              [0.0, 0.0, 5.0 + 1j]))
    yield ("normalized_power SensingSetup None MIMO",
           lambda: normalized_power(SensingSetup(None, ProcessingMode.MIMO),
                                    [0.0, 0.0, 10.0], [0.0, 0.0, 5.0]), ())
    for function in (fresnel_cs, fresnel_c, fresnel_s, bessel_j0, sinc):
        yield (f"{function.__name__} scalars", _each_scalar, (function,))
    for kind, mode in product(GeometryKind, ProcessingMode):
        yield (f"normalized_af_power {kind.value} {mode.name} scalars",
               _each_scalar, (normalized_af_power, kind, mode))
    # J0 above its series branch at x = 13
    grid = np.linspace(13.0, 60.0, 2001)
    yield "bessel_j0 linspace(13, 60, 2001)", bessel_j0, (grid,)
    for mode in ProcessingMode:
        yield (f"normalized_af_power uca {mode.name} linspace(13, 60, 2001)",
               normalized_af_power, (GeometryKind.UCA, mode, grid))
    # on-axis points with x = -0.0 on even rows and y = -0.0 on odd ones,
    # and a target at x = -0.0: each line prints its "on axis" case's hash
    signed = np.column_stack([np.zeros((901, 2)), np.linspace(20.0, 200.0, 901)])
    signed[::2, 0] = signed[1::2, 1] = -0.0
    for kind in GeometryKind:
        array = build_array(kind, 12.0, 1.0)
        for make in (simo_miso_setup, mimo_setup):
            yield (f"normalized_power {kind.value} {make.__name__} on axis -0",
                   normalized_power, (make(array), [-0.0, 0.0, 60.0], signed))
        yield (f"array_factor {kind.value} on axis -0", array_factor,
               (array, [0.0, -0.0, 60.0], signed))
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
    yield ("array_factor spiral on axis -0", array_factor,
           (spiral, [-0.0, 0.0, 60.0], signed))
    lam = 2.0 ** -500
    for kind in GeometryKind:
        array = build_array(kind, 12.0 * lam, lam)
        for make in (simo_miso_setup, mimo_setup):
            yield (f"normalized_power {kind.value} {make.__name__} 2**-500",
                   normalized_power, (make(array), [4.0 * lam, -3.0 * lam,
                                                   100.0 * lam], patch * lam))
        yield (f"broadside_power_sweep {kind.value} simo_miso_setup 2**-500",
               broadside_power_sweep, (simo_miso_setup(array), 60.0 * lam,
                                       np.linspace(20.0, 200.0, 901) * lam))
        yield (f"array_factor {kind.value} on axis 2**-500", array_factor,
               (array, [0.0, 0.0, 60.0 * lam], axis * lam))


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
