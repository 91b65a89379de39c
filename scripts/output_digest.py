"""Print a digest of every CLI output over a fixed argv matrix.

Each case runs nfsense.cli.main in this process with stdout and stderr
captured, and prints one line: the sha256 of stdout and stderr, the exit
code and the argv.  The matrix is every command over kind subsets, modes
and both formats, the validate defaults, and inputs that exit 1.  A
checkout's outputs match another's when the two listings do:

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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from nfsense.cli import main as cli_main

    for case in cases():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(case.split())
        digest = hashlib.sha256(
            out.getvalue().encode() + b"\0" + err.getvalue().encode())
        print(digest.hexdigest(), code, case.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
