"""Time one set-up in a fresh process, or the fixed reference set-up.

Usage: python3 nfbench/probe_setup.py ROOT
       python3 nfbench/probe_setup.py --reference

The first form imports nfsense from ROOT/src and warms it up (one small
CLI job and one small library call).  The second imports only numpy and the
standard modules nfsense uses; the benchmark interleaves the two and
scales each set-up by the reference set-ups around it.  Both print the
elapsed seconds.
"""

import sys
import time

start = time.perf_counter()

if sys.argv[1] == "--reference":
    import argparse  # noqa: E402,F401
    import csv  # noqa: E402,F401
    import dataclasses  # noqa: E402,F401
    import enum  # noqa: E402,F401
    import json  # noqa: E402,F401

    import numpy  # noqa: E402,F401
    print(time.perf_counter() - start)
    sys.exit(0)

import contextlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402

import nfsense  # noqa: E402
from nfsense import cli  # noqa: E402

root = os.path.realpath(sys.argv[1])
if not os.path.realpath(nfsense.__file__).startswith(
        os.path.join(root, "src") + os.sep):
    sys.exit(f"nfsense imported from {nfsense.__file__}, not from {root}/src")

with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["dump-geometry", "--kind", "ula", "--aperture-lambda", "2"])
array = nfsense.build_array(nfsense.GeometryKind.ULA, 2.0, 1.0)
nfsense.normalized_power(nfsense.simo_miso_setup(array), [0.0, 0.0, 10.0],
                         [[0.0, 0.0, 11.0]])
nfsense.normalized_af_power(nfsense.GeometryKind.ULA,
                            nfsense.ProcessingMode.SIMO_MISO, [0.5])

print(time.perf_counter() - start)
