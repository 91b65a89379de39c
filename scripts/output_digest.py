"""Print a digest of every CLI output over a fixed argv matrix, then of
the exact-sum library calls.

Each CLI case runs nfsense.cli.main in this process with stdout and stderr
captured, and prints one line: the sha256 of stdout and stderr, the exit
code and the argv.  The matrix is every command over kind subsets, modes
and both formats, the validate defaults, inputs that exit 1, a validate
at lambda = 1e-11 m, an af-curve and a beamdepth-sweep at D = 12.457 lambda
(whose d_FA moves by one ulp if its square goes through C's pow) and the
--help text of nfsense and of each command (argparse ends those with
SystemExit, whose code is printed as the exit code; the text wraps to the
terminal width, so compare listings made at the same COLUMNS).  Each
library case (normalized_power on an off-axis patch per kind and setup,
broadside_power_sweep per kind, D = 12 lambda at lambda = 1,
normalized_power on an empty probe batch, array_factor of a ULA on probes
about 1e5 and 1e6 lambda away, where the phase is many cycles, and of one
element on a probe half a cycle nearer than the target, and the rejections
of bad geometry inputs: each builder at lambda = 0 and -1, an ArrayGeometry
with empty, NaN or (2, 2) elements and build_array with a string kind, the
package's sorted __all__, beamdepth and half_power_distances one ulp below
d_FA/alpha and vergence_difference on a list) prints the sha256 of the
result's bytes as a numpy array (a geometry's element array), 0 and the
call; a raised exception prints the sha256 of its type name and the name
in place of the 0.  A checkout's outputs match another's when the two
listings do:

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
    "beamdepth-sweep --aperture-lambda 5e153 --sweep 1:1e300:3",
    "beamdepth-sweep --aperture-lambda 1e-100 --sweep 1e-300:1e300:3",
    "validate --kind ula --wavelength 1e152",
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
    yield "--help"
    for command in COMMANDS:
        yield f"{command} --help"


def _elements(make, *args):
    """The element array of the geometry that make(*args) returns."""
    return make(*args).elements


def library_cases():
    """(name, function, args) of the exact-sum, geometry and metric calls."""
    import nfsense
    from nfsense.ambiguity import (array_factor, broadside_power_sweep,
                                   normalized_power)
    from nfsense.closed_form import vergence_difference
    from nfsense.geometry import (ArrayGeometry, GeometryKind, build_array,
                                  mimo_setup, simo_miso_setup)
    from nfsense.metrics import beamdepth, half_power_distances

    x, z = np.meshgrid(np.linspace(-15.0, 15.0, 30), np.linspace(60.0, 140.0, 20))
    patch = np.column_stack([x.ravel(), 5.0 + 0.1 * x.ravel(), z.ravel()])
    for kind in GeometryKind:
        array = build_array(kind, 12.0, 1.0)
        for make in (simo_miso_setup, mimo_setup):
            yield (f"normalized_power {kind.value} {make.__name__}",
                   normalized_power, (make(array), [4.0, -3.0, 100.0], patch))
        yield (f"broadside_power_sweep {kind.value} simo_miso_setup",
               broadside_power_sweep,
               (simo_miso_setup(array), 60.0, np.linspace(20.0, 200.0, 901)))
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
           (ArrayGeometry(None, 1.0, np.zeros((1, 3)), 0.0), [0.0, 0.0, 100.0],
            [0.0, 0.0, 99.5]))
    for kind, wavelength in product(GeometryKind, (0.0, -1.0)):
        yield (f"build_array {kind.value} 10 {wavelength:g}", _elements,
               (build_array, kind, 10.0, wavelength))
    for name, elements in (("empty", np.empty((0, 3))),
                           ("nan", np.array([[0.0, 0.0, np.nan]])),
                           ("2x2", np.zeros((2, 2)))):
        yield (f"ArrayGeometry {name} elements", _elements,
               (ArrayGeometry, None, 1.0, elements, 0.0))
    yield ("build_array 'ula' 1 1", _elements, (build_array, "ula", 1.0, 1.0))
    yield "sorted nfsense.__all__", np.array, (sorted(nfsense.__all__),)
    for function, args in (
            (beamdepth, (56.31967387950216, 160.08963235498462, 2.842517034056372)),
            (half_power_distances,
             (110.5308754512692, 293.06884588646074, 2.6514658885124707)),
            (vergence_difference, (100.0, [50.0, 60.0]))):
        yield f"{function.__name__} {args!r}", function, args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from nfsense.cli import main as cli_main

    for case in cases():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(case.split())
            except SystemExit as exc:  # --help
                code = exc.code
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
