"""Sensing metrics derived from the closed-form array factors.

A layout's power in a mode is its base pattern f to the exponent n p, so
every figure belongs to f: the half-power argument x_3dB is the smallest
root of f(x) ** (n p) = 1/2, the mainlobe edge is the first minimum of f,
which no exponent moves, and the sidelobe level is n p times that of f in
dB.  nfsense.closed_form holds each layout's base, n and argument scale a,
and the 13 figures of the three base patterns as constants, correctly
rounded from a 40-digit mpmath solve: scripts/solve_figures.py prints
their table, and --check verifies it; this module derives from them.
Beamdepth and its divergence point follow from the vergence algebra

    d_3dB = d_FA d' / (d_FA +- alpha d')
    BD    = 2 alpha d_FA d'^2 / (d_FA^2 - alpha^2 d'^2)   (d' < d_FA/alpha)

with alpha = x_3dB / a.  Beamdepth is infinite for d' >= d_FA / alpha,
which is therefore the maximum range with a finite focal region.
compute_metrics gives a layout's figures as one record, the quadratic
mainlobe model's x_3dB pair and its sqrt(2) mode ratio among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closed_form import _FIGURES, _layout, quadratic_mainlobe_coefficient
from .geometry import _TINY, GeometryKind, ProcessingMode, _real

__all__ = [
    "GeometryMetrics", "half_power_argument", "half_power_coefficient",
    "half_power_distances", "beamdepth", "max_nearfield_range",
    "mainlobe_edge", "peak_sidelobe_level", "compute_metrics",
]

_x3db = lru_cache(maxsize=None)(lambda base, n_p: _FIGURES[base][0][n_p])


def half_power_argument(kind: GeometryKind, mode: ProcessingMode) -> float:
    """Smallest x with normalized power 0.5.

    The power is the base pattern f to the exponent n p, so this is the
    half-power root of (base, n p): the URA in SIMO shares the ULA's in MIMO.
    """
    return _x3db(*_layout(kind, mode)[:2])


half_power_argument.cache_clear = _x3db.cache_clear  # nfbench's tests pin it


def half_power_coefficient(kind: GeometryKind, mode: ProcessingMode) -> float:
    """alpha = x_3dB / a; scales d_FA * d_ver at the half-power point."""
    base, exponent, scale = _layout(kind, mode)
    return _x3db(base, exponent) / scale


def half_power_distances(d_target: float, d_fraunhofer: float,
                         coefficient: float) -> tuple[float, float]:
    """The two ranges where the power around a target at d' falls to half.

    The three inputs are finite positive real scalars, not arrays
    (beamdepth takes arrays); anything else raises ValueError.  Returns
    (lower, upper); upper is math.inf once the target sits at or beyond
    d_FA / alpha.  ValueError where the formula leaves the float
    range: d_FA d' or the lower distance overflows or falls below the
    normal floats, or just below d_FA / alpha, alpha d' rounds to d_FA or
    above it.
    """
    d_target = _real(d_target, "d_target")
    d_fraunhofer = _real(d_fraunhofer, "d_fraunhofer")
    coefficient = _real(coefficient, "coefficient")
    product = d_fraunhofer * d_target
    lower = product / (d_fraunhofer + coefficient * d_target)
    finite = d_target < d_fraunhofer / coefficient
    gap = d_fraunhofer - coefficient * d_target
    upper = math.inf
    if finite and gap > 0.0:
        upper = product / gap
    if not (_TINY <= min(product, lower) and lower < math.inf
            and (upper < math.inf) == finite):
        raise ValueError(f"half-power distances at d' = {d_target:g} m with "
                         f"d_FA = {d_fraunhofer:g} m are out of "
                         "floating-point range")
    return lower, upper


def beamdepth(d_target, d_fraunhofer, coefficient):
    """Radial half-power extent around a target at d'; inf past d_FA/alpha.

    Below d_FA/alpha the extent is finite; ValueError where its formula
    leaves the float range: a square, the rounded gap d_FA^2 - alpha^2 d'^2,
    the numerator or the extent overflows or falls below the normal floats,
    where it has lost digits (a gap that is not positive among them).  The
    inputs broadcast as numpy arrays and give an array of extents, and
    scalars give a float.  Squares are x * x, correctly rounded on any
    platform, where a C library's pow can be an ulp off.
    """
    d, fa, c = np.broadcast_arrays(*(
        _real(v, "distances and coefficient", scalar=False)
        for v in (d_target, d_fraunhofer, coefficient)))
    with np.errstate(all="ignore"):
        d2, fa2, c2 = d * d, fa * fa, c * c
        gap = fa2 - c2 * d2
        top = 2.0 * c * fa * d2
        depth = top / gap
        finite = d < fa / c
        # a square that overflows can still give a finite quotient, one that
        # underflows a nonzero one, and just below d_FA / alpha the rounded
        # gap can vanish or change sign
        bad = finite & ~np.all([(_TINY <= v) & (v < math.inf)
                                for v in (d2, fa2, c2, gap, top, depth)], axis=0)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"beamdepth at d' = {d.flat[i]:g} m with d_FA = "
                         f"{fa.flat[i]:g} m is out of floating-point range")
    depth = np.where(finite, depth, math.inf)
    return float(depth) if depth.ndim == 0 else depth


def max_nearfield_range(d_fraunhofer: float, coefficient: float) -> float:
    """Largest target range with a finite beamdepth, d_FA / alpha; both
    inputs are finite positive real scalars, or ValueError."""
    return _real(d_fraunhofer, "d_fraunhofer") / _real(coefficient, "coefficient")


def mainlobe_edge(kind: GeometryKind, mode: ProcessingMode) -> float:
    """First local minimum of the normalized power, the same for any n p.

    A null for UCA and UPCA; nonzero for the Fresnel-based layouts.
    """
    return _FIGURES[_layout(kind, mode)[0]][1]


def peak_sidelobe_level(kind: GeometryKind, mode: ProcessingMode) -> float:
    """Highest sidelobe in dB below the peak: n p times the base pattern's."""
    base, exponent, _ = _layout(kind, mode)
    return exponent * 10.0 * math.log10(_FIGURES[base][2])


@dataclass(frozen=True)
class GeometryMetrics:
    """One table row: half-power and sidelobe figures for a layout, then the
    quadratic mainlobe model 1 - c x^2 beside them.

    The model puts x_3dB at sqrt(2)/(2 sqrt(c)) for a single aperture and
    at 1/(2 sqrt(c)) for MIMO, hence a mode ratio of sqrt(2) whatever c is.
    quad_rel_error_* compare the model's x_3dB with the true ones, and
    quad_ratio_rel_error its sqrt(2) with alpha_ratio.
    """

    kind: GeometryKind
    argument_scale: float
    x3db_simo: float
    x3db_mimo: float
    alpha_simo: float
    alpha_mimo: float
    alpha_ratio: float
    psl_simo_db: float
    psl_mimo_db: float
    curvature: float
    x3db_quad_simo: float
    x3db_quad_mimo: float
    quad_ratio: float
    quad_rel_error_simo: float
    quad_rel_error_mimo: float
    quad_ratio_rel_error: float


def compute_metrics(kind: GeometryKind) -> GeometryMetrics:
    x_simo = half_power_argument(kind, ProcessingMode.SIMO_MISO)
    x_mimo = half_power_argument(kind, ProcessingMode.MIMO)
    a = _layout(kind)[2]
    ratio = x_simo / x_mimo
    c = quadratic_mainlobe_coefficient(kind)
    quad_simo = math.sqrt(2.0) / (2.0 * math.sqrt(c))
    quad_mimo = 1.0 / (2.0 * math.sqrt(c))
    return GeometryMetrics(
        kind=kind, argument_scale=a, x3db_simo=x_simo, x3db_mimo=x_mimo,
        alpha_simo=x_simo / a, alpha_mimo=x_mimo / a, alpha_ratio=ratio,
        psl_simo_db=peak_sidelobe_level(kind, ProcessingMode.SIMO_MISO),
        psl_mimo_db=peak_sidelobe_level(kind, ProcessingMode.MIMO),
        curvature=c, x3db_quad_simo=quad_simo, x3db_quad_mimo=quad_mimo,
        quad_ratio=math.sqrt(2.0),
        quad_rel_error_simo=abs(quad_simo - x_simo) / x_simo,
        quad_rel_error_mimo=abs(quad_mimo - x_mimo) / x_mimo,
        quad_ratio_rel_error=abs(math.sqrt(2.0) - ratio) / ratio,
    )
