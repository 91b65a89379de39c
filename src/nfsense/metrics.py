"""Sensing metrics derived from the closed-form array factors.

A layout's power in a mode is its base pattern f to the exponent n p
(see nfsense.closed_form), so every solver works on f alone: the
half-power point solves f(x) = 0.5 ** (1/(n p)) by bisection on the
monotone mainlobe; one cached scan of f per base pattern, refined by
golden section, gives the mainlobe edge (the first minimum of f, which
no exponent moves) and the sidelobe level (n p times that of f in dB).
Beamdepth and its divergence point follow from the vergence algebra

    d_3dB = d_FA d' / (d_FA +- alpha d')
    BD    = 2 alpha d_FA d'^2 / (d_FA^2 - alpha^2 d'^2)   (d' < d_FA/alpha)

with alpha = x_3dB / a.  Beamdepth is infinite for d' >= d_FA / alpha,
which is therefore the maximum range with a finite focal region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .closed_form import (base_layout, normalized_af_power,
                          quadratic_mainlobe_coefficient)
from .geometry import GeometryKind, ProcessingMode

__all__ = [
    "SIDELOBE_SCAN_MAX",
    "GeometryMetrics",
    "QuadraticGainAnalysis",
    "half_power_argument",
    "half_power_coefficient",
    "half_power_distances",
    "beamdepth",
    "max_nearfield_range",
    "lobe_scan",
    "mainlobe_edge",
    "peak_sidelobe_level",
    "quadratic_gain_analysis",
    "compute_metrics",
]

SIDELOBE_SCAN_MAX = 50.0
"Upper end of the lobe scan, and so of the sidelobe search window, in x."

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float = 1e-9) -> float:
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


@lru_cache(maxsize=None)
def half_power_argument(kind: GeometryKind, mode: ProcessingMode) -> float:
    """Smallest x with normalized power 0.5, by bracketing and bisection.

    Solves f(x) = 0.5 ** (1 / (n p)) on the base pattern f.  f is 1 at
    x = 0 and drops below 0.5 before its first minimum for every layout,
    so the first sign change brackets the root.
    """
    base, n = base_layout(kind)
    f = partial(normalized_af_power, base, ProcessingMode.SIMO_MISO)
    level = 0.5 ** (1.0 / (n * mode.power_exponent))
    grid = np.linspace(0.0, 4.0, 4001)
    vals = f(grid) - level
    idx = int(np.argmax(vals < 0.0))
    if idx == 0:
        raise RuntimeError("no half-power bracket found")
    lo, hi = float(grid[idx - 1]), float(grid[idx])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) - level > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def half_power_coefficient(kind: GeometryKind, mode: ProcessingMode) -> float:
    """alpha = x_3dB / a; scales d_FA * d_ver at the half-power point."""
    return half_power_argument(kind, mode) / kind.argument_scale


def half_power_distances(d_target: float, d_fraunhofer: float,
                         coefficient: float) -> tuple[float, float]:
    """The two ranges where the power around a target at d' falls to half.

    Returns (lower, upper); upper is math.inf once the target sits at or
    beyond d_FA / alpha.
    """
    if not (d_target > 0 and d_fraunhofer > 0 and coefficient > 0):
        raise ValueError("distances and coefficient must be positive")
    lower = d_fraunhofer * d_target / (d_fraunhofer + coefficient * d_target)
    if d_target >= d_fraunhofer / coefficient:
        return lower, math.inf
    upper = d_fraunhofer * d_target / (d_fraunhofer - coefficient * d_target)
    return lower, upper


def beamdepth(d_target: float, d_fraunhofer: float, coefficient: float) -> float:
    """Radial half-power extent around a target at d'; inf past d_FA/alpha.

    Below d_FA/alpha the extent is finite; ValueError where its formula
    leaves the float range (an overflowing or underflowing square).
    """
    if not (d_target > 0 and d_fraunhofer > 0 and coefficient > 0):
        raise ValueError("distances and coefficient must be positive")
    if d_target >= d_fraunhofer / coefficient:
        return math.inf
    try:
        depth = (2.0 * coefficient * d_fraunhofer * d_target ** 2
                 / (d_fraunhofer ** 2 - coefficient ** 2 * d_target ** 2))
    except (OverflowError, ZeroDivisionError):
        depth = math.inf
    if not math.isfinite(depth):
        raise ValueError(f"beamdepth at d' = {d_target:g} m with d_FA = "
                         f"{d_fraunhofer:g} m is out of floating-point range")
    return depth


def max_nearfield_range(d_fraunhofer: float, coefficient: float) -> float:
    """Largest target range with a finite beamdepth, d_FA / alpha."""
    if not (d_fraunhofer > 0 and coefficient > 0):
        raise ValueError("inputs must be positive")
    return d_fraunhofer / coefficient


@lru_cache(maxsize=None)
def lobe_scan(base: GeometryKind) -> tuple[float, float]:
    """(mainlobe edge, peak sidelobe power) of a base pattern f.

    One scan of f on [0, SIDELOBE_SCAN_MAX] at step 1e-3, refined by golden
    section: the first interior minimum ends the mainlobe, and the highest
    maximum beyond it (ties to the smallest x) is the peak sidelobe.
    """
    f = partial(normalized_af_power, base, ProcessingMode.SIMO_MISO)
    grid = np.linspace(0.0, SIDELOBE_SCAN_MAX, 50_001)
    vals = f(grid)
    interior = np.where((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:]))[0]
    if interior.size == 0:
        raise RuntimeError("no mainlobe edge found in scan window")
    edge = int(interior[0]) + 1
    x_edge = _golden_max(lambda x: -f(x), float(grid[edge - 1]),
                         float(grid[edge + 1]), tol=1e-12)
    lobes = vals[edge:]
    is_max = (lobes[1:-1] > lobes[:-2]) & (lobes[1:-1] >= lobes[2:])
    candidates = np.where(is_max)[0] + edge + 1
    if candidates.size == 0:
        raise RuntimeError("no sidelobe found in scan window")
    best = int(candidates[int(np.argmax(vals[candidates]))])
    x_peak = _golden_max(f, float(grid[best - 1]), float(grid[best + 1]))
    return x_edge, f(x_peak)


def mainlobe_edge(kind: GeometryKind, mode: ProcessingMode) -> float:
    """First local minimum of the normalized power, the same for any n p.

    A null for UCA and UPCA; nonzero for the Fresnel-based layouts.
    """
    return lobe_scan(base_layout(kind)[0])[0]


def peak_sidelobe_level(kind: GeometryKind, mode: ProcessingMode) -> float:
    """Highest sidelobe in dB below the peak: n p times the base pattern's."""
    base, n = base_layout(kind)
    return n * mode.power_exponent * 10.0 * math.log10(lobe_scan(base)[1])


@dataclass(frozen=True)
class QuadraticGainAnalysis:
    """Half-power arguments under the quadratic mainlobe model 1 - c x^2.

    The model predicts x_3dB = sqrt(2)/(2 sqrt(c)) for a single aperture
    and 1/(2 sqrt(c)) for MIMO, hence a mode ratio of sqrt(2) regardless
    of c.  rel_error_* compare the model's x_3dB against the true values;
    ratio_rel_error compares the sqrt(2) prediction against the true ratio.
    """

    kind: GeometryKind
    curvature: float
    x3db_quad_simo: float
    x3db_quad_mimo: float
    predicted_ratio: float
    true_ratio: float
    rel_error_simo: float
    rel_error_mimo: float

    @property
    def ratio_rel_error(self) -> float:
        return abs(self.predicted_ratio - self.true_ratio) / self.true_ratio


def quadratic_gain_analysis(kind: GeometryKind) -> QuadraticGainAnalysis:
    c = quadratic_mainlobe_coefficient(kind)
    quad_simo = math.sqrt(2.0) / (2.0 * math.sqrt(c))
    quad_mimo = 1.0 / (2.0 * math.sqrt(c))
    true_simo = half_power_argument(kind, ProcessingMode.SIMO_MISO)
    true_mimo = half_power_argument(kind, ProcessingMode.MIMO)
    return QuadraticGainAnalysis(
        kind=kind,
        curvature=c,
        x3db_quad_simo=quad_simo,
        x3db_quad_mimo=quad_mimo,
        predicted_ratio=math.sqrt(2.0),
        true_ratio=true_simo / true_mimo,
        rel_error_simo=abs(quad_simo - true_simo) / true_simo,
        rel_error_mimo=abs(quad_mimo - true_mimo) / true_mimo,
    )


@dataclass(frozen=True)
class GeometryMetrics:
    """One table row: half-power and sidelobe figures for a layout."""

    kind: GeometryKind
    argument_scale: float
    x3db_simo: float
    x3db_mimo: float
    alpha_simo: float
    alpha_mimo: float
    alpha_ratio: float
    psl_simo_db: float
    psl_mimo_db: float


def compute_metrics(kind: GeometryKind) -> GeometryMetrics:
    x_simo = half_power_argument(kind, ProcessingMode.SIMO_MISO)
    x_mimo = half_power_argument(kind, ProcessingMode.MIMO)
    a = kind.argument_scale
    return GeometryMetrics(
        kind=kind,
        argument_scale=a,
        x3db_simo=x_simo,
        x3db_mimo=x_mimo,
        alpha_simo=x_simo / a,
        alpha_mimo=x_mimo / a,
        alpha_ratio=x_simo / x_mimo,
        psl_simo_db=peak_sidelobe_level(kind, ProcessingMode.SIMO_MISO),
        psl_mimo_db=peak_sidelobe_level(kind, ProcessingMode.MIMO),
    )
