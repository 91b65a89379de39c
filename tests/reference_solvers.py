"""Test-only reference solvers: grid scans, bisection and golden section.

They find the half-power roots, mainlobe edges and peak sidelobe powers on
the library's own closed-form pattern, one point per call, as
nfsense.metrics once did at run time; tests require them to agree with the
table of figures that nfsense.metrics now holds.  bisect also locates
validate's half-power crossings on the exact power.
"""

import math
from functools import partial

import numpy as np

from nfsense.closed_form import normalized_af_power
from nfsense.geometry import GeometryKind, ProcessingMode

SIDELOBE_SCAN_MAX = 50.0
"Upper end of the lobe scan, and so of the sidelobe search window, in x."

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# layout -> (base pattern, exponent n): the single-aperture power is the
# base's to the n; the square array is two crossed linear arrays
_BASE = {GeometryKind.ULA: (GeometryKind.ULA, 1),
         GeometryKind.UCA: (GeometryKind.UCA, 1),
         GeometryKind.URA: (GeometryKind.ULA, 2),
         GeometryKind.UPCA: (GeometryKind.UPCA, 1)}


def golden_max(f, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Abscissa of the maximum of unimodal f on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def half_power_argument(kind: GeometryKind, mode: ProcessingMode) -> float:
    """Smallest x with normalized power 0.5, by bracketing and bisection."""
    base, n = _BASE[kind]
    f = partial(normalized_af_power, base, ProcessingMode.SIMO_MISO)
    level = 0.5 ** (1.0 / (n * mode.power_exponent))
    grid = np.linspace(0.0, 4.0, 4001)
    vals = f(grid) - level
    idx = int(np.argmax(vals < 0.0))
    if idx == 0:
        raise RuntimeError("no half-power bracket found")
    return bisect(lambda x: f(x) - level, float(grid[idx - 1]), float(grid[idx]),
                  1e-12)


def bisect(f, lo: float, hi: float, tol: float) -> float:
    """A root of f between lo and hi, where f changes sign, to within tol."""
    above = f(lo) > 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == above:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) < tol:
            break
    return 0.5 * (lo + hi)


def lobe_scan(base: GeometryKind) -> tuple[float, float]:
    """(mainlobe edge, peak sidelobe power) of a base pattern f."""
    f = partial(normalized_af_power, base, ProcessingMode.SIMO_MISO)
    grid = np.linspace(0.0, SIDELOBE_SCAN_MAX, 50_001)
    vals = f(grid)
    interior = np.where((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:]))[0]
    if interior.size == 0:
        raise RuntimeError("no mainlobe edge found in scan window")
    edge = int(interior[0]) + 1
    x_edge = golden_max(lambda x: -f(x), float(grid[edge - 1]),
                        float(grid[edge + 1]), tol=1e-12)
    lobes = vals[edge:]
    is_max = (lobes[1:-1] > lobes[:-2]) & (lobes[1:-1] >= lobes[2:])
    candidates = np.where(is_max)[0] + edge + 1
    if candidates.size == 0:
        raise RuntimeError("no sidelobe found in scan window")
    best = int(candidates[int(np.argmax(vals[candidates]))])
    x_peak = golden_max(f, float(grid[best - 1]), float(grid[best + 1]))
    return x_edge, f(x_peak)
