"""Closed-form normalized array-factor power per layout.

Every layout shares one dimensionless argument

    x = a * d_FA * d_ver

where a is the layout's argument scale, d_FA the Fraunhofer distance and
d_ver = |1/d' - 1/d| the vergence difference between target and probe
ranges.  The normalized single-aperture power is then

    ULA   (C^2(sqrt x) + S^2(sqrt x)) / x
    UCA   J0(x)^2
    URA   ((C^2(sqrt x) + S^2(sqrt x)) / x)^2
    UPCA  sinc(x)^2

and MIMO squares the single-aperture value.  The forms assume probe points
at broadside distances well beyond the aperture; close to the array the
direct summation in nfsense.ambiguity is authoritative.
"""

from __future__ import annotations

import numpy as np

from .geometry import GeometryKind, ProcessingMode
from .specfun import bessel_j0, fresnel_cs, sinc

__all__ = [
    "vergence_difference",
    "af_argument",
    "normalized_af_power",
    "quadratic_mainlobe_coefficient",
]


def vergence_difference(d_target: float, d_probe):
    """|1/d' - 1/d| for target range d' and probe range(s) d, all > 0."""
    if not (d_target > 0 and np.all(np.greater(d_probe, 0))):
        raise ValueError("distances must be positive")
    return abs(1.0 / d_target - 1.0 / d_probe)


def af_argument(kind: GeometryKind, d_fraunhofer: float, vergence):
    """Unified argument x = a * d_FA * d_ver, d_ver a scalar or an array."""
    if not d_fraunhofer > 0:
        raise ValueError("Fraunhofer distance must be positive")
    return kind.argument_scale * d_fraunhofer * vergence


def _fresnel_power(x):
    """(C^2(sqrt x) + S^2(sqrt x)) / x with its x -> 0 limit of 1."""
    # C(u) ~ u and S(u) ~ pi u^3 / 6, so the ratio tends to 1; below the
    # cutoff the formula would divide underflowed squares.
    tiny = x < 1e-300
    safe = np.where(tiny, 1.0, x)
    c, s = fresnel_cs(np.sqrt(safe))
    return np.where(tiny, 1.0, (c * c + s * s) / safe)


def normalized_af_power(kind: GeometryKind, mode: ProcessingMode, x):
    """Normalized ambiguity power at argument x >= 0 (scalar or array).

    Equals 1 at x = 0 and the single-aperture power is squared for MIMO.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    if np.any(arr < 0):
        raise ValueError("x must be nonnegative")
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    if kind is GeometryKind.ULA:
        base = _fresnel_power(a)
    elif kind is GeometryKind.UCA:
        base = np.atleast_1d(bessel_j0(a)) ** 2
    elif kind is GeometryKind.URA:
        base = _fresnel_power(a) ** 2
    elif kind is GeometryKind.UPCA:
        base = np.atleast_1d(sinc(a)) ** 2
    else:
        raise ValueError(f"unknown geometry kind {kind!r}")
    out = base if mode is ProcessingMode.SIMO_MISO else base ** 2
    if scalar:
        return float(out[0])
    return out


# x^2 coefficients of the power series of the single-aperture power:
#   (C^2 + S^2)(sqrt x) / x = 1 - pi^2 x^2 / 45 + O(x^4), squared for the URA
#   J0(x)^2 = 1 - x^2 / 2 + O(x^4);  sinc(x)^2 = 1 - (pi x)^2 / 3 + O(x^4)
_CURVATURE = {
    GeometryKind.ULA: np.pi ** 2 / 45.0,
    GeometryKind.UCA: 0.5,
    GeometryKind.URA: 2.0 * np.pi ** 2 / 45.0,
    GeometryKind.UPCA: np.pi ** 2 / 3.0,
}


def quadratic_mainlobe_coefficient(kind: GeometryKind) -> float:
    """Curvature coefficient c of the mainlobe model |AF(x)|^2 ~ 1 - c x^2.

    c = -(1/2) d^2/dx^2 of the normalized single-aperture power at x = 0,
    taken from the power series of each layout's closed form.
    """
    return _CURVATURE[kind]
