"""The closed form of every layout: argument scale, base pattern, figures.

Every layout shares one dimensionless argument

    x = a * d_FA * d_ver

where a is the layout's argument scale, d_FA the Fraunhofer distance and
d_ver = |1/d' - 1/d| the vergence difference between target and probe
ranges.  The normalized single-aperture power is a base pattern to a
layout exponent n

    ULA   (C^2(sqrt x) + S^2(sqrt x)) / x   n = 1   a = 1/4
    UCA   J0(x)^2                           n = 1   a = pi/16
    URA   the ULA pattern (crossed ULAs)    n = 2   a = 1/8
    UPCA  sinc(x)^2                         n = 1   a = 1/16

and MIMO squares it again (p = 2; p = 1 for SIMO/MISO).  Three tables hold
each layout's (base, n, a), each base with its mainlobe curvature and the
13 figures nfsense.metrics reads.  The forms assume probe points at
broadside distances well beyond the aperture; close to the array the
direct summation in nfsense.ambiguity is authoritative.
"""

from __future__ import annotations

import numpy as np

from .geometry import GeometryKind, ProcessingMode, _real
from .specfun import bessel_j0, fresnel_cs, sinc

__all__ = [
    "vergence_difference",
    "af_argument",
    "normalized_af_power",
    "quadratic_mainlobe_coefficient",
]

# Layout -> (base pattern, exponent n, argument scale a); the square array
# is two crossed linear arrays, so the URA is the ULA's pattern squared.
_LAYOUTS = {
    GeometryKind.ULA: (GeometryKind.ULA, 1, 0.25),
    GeometryKind.UCA: (GeometryKind.UCA, 1, np.pi / 16.0),
    GeometryKind.URA: (GeometryKind.ULA, 2, 0.125),
    GeometryKind.UPCA: (GeometryKind.UPCA, 1, 1.0 / 16.0),
}


def _layout(kind: GeometryKind, mode: ProcessingMode = ProcessingMode.SIMO_MISO
            ) -> tuple[GeometryKind, int, float]:
    """(base, n p, a): the power in the mode is base ** (n p) at x = a d_FA
    d_ver.  ValueError for a mode, then a kind, that is not a member."""
    if not isinstance(mode, ProcessingMode):
        raise ValueError(f"unknown processing mode {mode!r}")
    if not isinstance(kind, GeometryKind):
        raise ValueError(f"unknown geometry kind {kind!r}")
    base, n, scale = _LAYOUTS[kind]
    return base, n * mode.power_exponent, scale


def vergence_difference(d_target: float, d_probe):
    """|1/d' - 1/d| for target range d' and probe range(s) d, finite and > 0.

    ValueError where a reciprocal overflows (a distance below about 5.6e-309).
    """
    d_target = _real(d_target, "d_target", scalar=False)
    d_probe = _real(d_probe, "d_probe", scalar=False)
    with np.errstate(over="ignore"):
        inverse_target, inverse_probe = 1.0 / d_target, 1.0 / d_probe
    if np.isinf(inverse_target).any() or np.isinf(inverse_probe).any():
        raise ValueError("distances are too small: a reciprocal overflows")
    out = np.abs(inverse_target - inverse_probe)
    return float(out) if out.ndim == 0 else out


def af_argument(kind: GeometryKind, d_fraunhofer: float, vergence):
    """Unified argument x = a * d_FA * d_ver, d_ver a scalar or an array.

    ValueError unless d_FA is finite and positive and every d_ver finite
    and nonnegative, and where x overflows.
    """
    scale = _layout(kind)[2]
    d_fraunhofer = _real(d_fraunhofer, "d_fraunhofer")
    vergence = _real(vergence, "vergence", positive=False, scalar=False)
    if np.any(vergence < 0.0):
        raise ValueError("vergence must be nonnegative")
    with np.errstate(over="ignore"):
        x = scale * d_fraunhofer * vergence
    if np.isinf(x).any():
        raise ValueError("closed-form argument overflows: d_FA * d_ver is too large")
    return float(x) if x.ndim == 0 else x


def _fresnel_power(x):
    """(C^2(sqrt x) + S^2(sqrt x)) / x with its x -> 0 limit of 1."""
    # C(u) ~ u and S(u) ~ pi u^3 / 6, so the ratio tends to 1; below the
    # cutoff the formula would divide underflowed squares.
    tiny = x < 1e-300
    safe = np.where(tiny, 1.0, x)
    c, s = fresnel_cs(np.sqrt(safe))
    return np.where(tiny, 1.0, (c * c + s * s) / safe)


# Base pattern -> (f, c): f(x) on an array x >= 0, 0-d too, and its
# curvature c, f = 1 - c x^2 + O(x^4).  Squares are products: ** on a 0-d
# result is the C library's pow, which may round a square otherwise.
_PATTERNS = {
    # (C^2 + S^2)(sqrt x) / x = 1 - pi^2 x^2 / 45 + O(x^4)
    GeometryKind.ULA: (_fresnel_power, np.pi * np.pi / 45.0),
    # J0(x)^2 = 1 - x^2 / 2 + O(x^4)
    GeometryKind.UCA: (lambda x: np.square(bessel_j0(x)), 0.5),
    # sinc(x)^2 = 1 - (pi x)^2 / 3 + O(x^4)
    GeometryKind.UPCA: (lambda x: np.square(sinc(x)), np.pi * np.pi / 3.0),
}

# Per base pattern f: ({n p: x_3dB}, mainlobe edge, peak sidelobe power of
# f), each correctly rounded from 40 digits by scripts/constants.py.
_FIGURES = {
    GeometryKind.ULA: ({1: 1.7379732118866686, 2: 1.2421576124333258,
                        4: 0.8834812565540558},
                       3.6538339518893572, 0.13232119929784664),
    GeometryKind.UCA: ({1: 1.1263642393772588, 2: 0.8145063295647214},
                       2.404825557695773, 0.16221513082668565),
    GeometryKind.UPCA: ({1: 0.44294647068945237, 2: 0.3189166986852232},
                        1.0, 0.047190449225811275),
}


def normalized_af_power(kind: GeometryKind, mode: ProcessingMode, x):
    """Normalized ambiguity power at argument x >= 0 (scalar or array).

    Equals 1 at x = 0; the base pattern is raised to n * p by squaring.
    """
    arr = _real(x, "x", positive=False, scalar=False)
    if np.any(arr < 0):
        raise ValueError("x must be nonnegative")
    base, exponent, _ = _layout(kind, mode)
    out = _PATTERNS[base][0](arr)
    for _ in range(exponent // 2):  # n p is 1, 2 or 4
        out = out * out
    return float(out) if arr.ndim == 0 else out


def quadratic_mainlobe_coefficient(kind: GeometryKind) -> float:
    """Curvature coefficient c of the mainlobe model |AF(x)|^2 ~ 1 - c x^2.

    c = -(1/2) d^2/dx^2 of the single-aperture power at x = 0; as
    (1 - c x^2)^n = 1 - n c x^2 + O(x^4), it is n times the base's.
    """
    base, n, _ = _layout(kind)
    return n * _PATTERNS[base][1]
