"""Special functions used by the closed-form array factors.

Self-contained implementations of the Fresnel integrals C and S, the
zero-order Bessel function of the first kind J0, and the normalized sinc.
Inputs are finite real scalars or arrays, else ValueError; a scalar runs
the array code as a 0-d array and is made a float only on return.

Every function costs a fixed number of operations per point.  Each branch
of C, S and J0 sums Chebyshev series of fixed length by Clenshaw's
recurrence, on float coefficients that scripts/constants.py interpolates
in mpmath at 50 digits (its --check mode confirms every tuple below bit for
bit); sinc uses no series.

    fresnel_cs  |u| <= 2        C(u)/u and S(u)/u^3, 15 terms in u^4
                2 < |u| < 1e17  C = 1/2 + f sin(phi) - g cos(phi),
                                S = 1/2 - f cos(phi) - g sin(phi),
                                pi u f and pi^2 u^3 g (A&S 7.3.9-7.3.10),
                                24 terms in 4/u^2; phi = pi u^2 / 2 is
                                reduced exactly modulo 2 pi
                |u| >= 1e17     1/2
    bessel_j0   |x| <= 13       1 + x^2 R(x^2), 20 terms in x^2
                |x| > 13        sqrt(2/(pi x)) (P cos(chi) - Q sin(chi)),
                                chi = x - pi/4 (A&S 9.2.5), summed as
                                ((P + Q) cos x + (P - Q) sin x) / sqrt(pi x);
                                P and x Q, 12 terms each in 338/x^2
    sinc        sin(pi x) / (pi x)

Absolute error against mpmath at 50 digits, as gated in the test suite:

    fresnel_c, fresnel_s   1e-15 for |u| <= 1000
    bessel_j0              1e-14 for |x| <= 13, 1e-15 for 13 < |x| <= 50,
                           2e-16 for 13 < |x| <= 1e6
    sinc                   machine precision

Each value depends only on its own argument, never on the rest of the
batch: a point gives the same bits alone as inside any array.  Every
finite argument gives a finite value, with no numpy warning; C(0) = S(0)
= 0 and J0(0) = sinc(0) = 1 exactly.
"""

from __future__ import annotations

import numpy as np

from .geometry import _real

__all__ = ["fresnel_c", "fresnel_s", "fresnel_cs", "bessel_j0", "sinc"]

# Series below this |u|, auxiliary functions above.
_FRESNEL_SERIES_MAX = 2.0

# From this |u| on, |C - 1/2| and |S - 1/2| < 1/(pi u) are below half an
# ulp of 1/2, so both are 1/2 exactly (and pi u^2 / 2 may overflow).
_FRESNEL_HALF_MIN = 1e17

# Series in x^2 below this |x|, the Hankel envelope's series above.
_J0_SERIES_MAX = 13.0

# Chebyshev coefficients, generated by scripts/constants.py.  The
# variable s in [-1, 1] is u^4 / 8 - 1 for C(u)/u and S(u)/u^3, 8 / u^2 - 1
# for the scaled auxiliary functions pi u f(u) and pi^2 u^3 g(u),
# x^2 / 84.5 - 1 for (J0(x) - 1) / x^2 and 338 / x^2 - 1 for P(x) and x Q(x).
_C_OVER_U = (
    0.39740718857599805, -0.3100070983680217, 0.21349075614188737,
    -0.06678900553022198, 0.011085973995082385, -0.0011365259733006202,
    7.927825032635591e-05, -4.013934222204706e-06, 1.544413153283575e-07,
    -4.6730963378884215e-09, 1.1418677215891532e-10, -2.3013977400655348e-12,
    3.892649691840435e-14, -5.605750728025666e-16, 6.956754197566016e-18,
)

_S_OVER_U3 = (
    0.19918673864190226, -0.22356648669212584, 0.08202822552969624,
    -0.016602561737554058, 0.0020382145350386067, -0.00016643843000521268,
    9.674781743977045e-06, -4.2065853292879686e-07, 1.4200048580250818e-08,
    -3.8304499680234226e-10, 8.448489681753256e-12, -1.5523581348897443e-13,
    2.4133399377202637e-15, -3.216107033507859e-17, 3.7147826295456183e-19,
)

_F_SCALED = (
    0.9936990863600468, -0.008209184888380643, -0.0017788768337519947,
    0.0001357045746490918, 3.65168225762795e-06, -2.369284577724498e-06,
    3.0316755294006257e-07, 1.8514882733714642e-09, -9.648883584185786e-09,
    2.3108204329601346e-09, -2.3192638201358237e-10, -3.817508104164108e-11,
    2.4044693009089975e-11, -6.033415842460877e-12, 7.111062811417178e-13,
    1.2450473644494007e-13, -9.89373971015637e-14, 3.170704784765944e-14,
    -5.8932745546821865e-15, 1.6963581405944262e-17, 4.99728314550586e-16,
    -2.3845575687978376e-16, 7.004471335933004e-17, -1.3205454439555254e-17,
)

_G_SCALED = (
    0.9709885034157409, -0.03721198100023102, -0.007247795833833105,
    0.0009680654616814093, -7.4283366656288856e-06, -1.8969915784759953e-05,
    3.757371487868839e-06, -2.0787604790580336e-07, -9.091511824358853e-08,
    3.383195532724747e-08, -5.667031640736758e-09, 5.0990834222618986e-12,
    3.300980081721385e-10, -1.2018392099424872e-10, 2.351843715558389e-11,
    -7.142823225806951e-13, -1.5068699470650493e-12, 7.117318236013699e-13,
    -1.9175056815210588e-13, 2.567249060308938e-14, 5.526414976423765e-15,
    -5.205834281169543e-15, 2.091079234789658e-15, -5.577996633110051e-16,
)

_J0_M1_OVER_X2 = (
    -0.048736120521650876, 0.07540476657827574, -0.05445763038636283,
    0.03798450342916819, -0.021570518926092512, 0.008731281923860468,
    -0.0024980137252042993, 0.0005226365471409504, -8.304294389555012e-05,
    1.0352655655204095e-05, -1.0399901218305567e-06, 8.603478589648909e-08,
    -5.966907516083307e-09, 3.521449028519242e-10, -1.7908024030326754e-11,
    7.932134769588748e-13, -3.0886971212666554e-14, 1.06589798067176e-15,
    -3.2832301197548146e-17, 9.078768312537265e-19,
)

_J0_P = (
    0.9997934121847564, -0.00020611439523212407, 4.700730800424534e-07,
    -3.3000646100032123e-09, 4.58082685788884e-11, -1.0243903778266216e-12,
    3.277582320554439e-14, -1.3891461408835408e-15, 7.392122837315143e-17,
    -4.74949107171181e-18, 3.577145685055411e-19, -3.055573488559919e-20,
)

_J0_XQ = (
    -0.1247861844922887, 0.00021287312762123184, -9.325971087898131e-07,
    9.604007157675034e-09, -1.7402694432379353e-10, 4.759340836069206e-12,
    -1.7865199836709816e-13, 8.633040809648015e-15, -5.130337187036368e-16,
    3.624128110606118e-17, -2.96482635584271e-18, 2.7208300869204116e-19,
)


def _clenshaw(coef, s):
    """The Chebyshev series sum_k coef[k] T_k(s) of a tuple of N floats, at
    the points of the array s."""
    two_s = 2.0 * s
    b1, b2 = coef[-1], 0.0
    for c in coef[-2:0:-1]:
        b = two_s * b1
        b -= b2
        b += c
        b1, b2 = b, b1
    return s * b1 - b2 + coef[0]


def _fresnel_small(u):
    """C(u) and S(u) for 0 <= u <= 2."""
    s = (u * u) * (u * u) / 8.0 - 1.0
    return u * _clenshaw(_C_OVER_U, s), u * u * u * _clenshaw(_S_OVER_U3, s)


def _fresnel_large(u):
    """C(u) and S(u) for 2 < u < 1e17, from the auxiliary functions f, g."""
    s = 8.0 / (u * u) - 1.0
    f = _clenshaw(_F_SCALED, s) / (np.pi * u)
    g = _clenshaw(_G_SCALED, s) / (np.pi * np.pi * u * u * u)
    # phi modulo 2 pi, i.e. u^2 modulo 4 quarter turns: with u = hi + lo
    # split into halves of 26 bits, hi^2, 2 hi lo and lo^2 are exact, and
    # so are their remainders
    split = 134217729.0 * u
    hi = split - (split - u)
    lo = u - hi
    quarter_turns = sum(np.fmod(p, 4.0)
                        for p in (hi * hi, 2.0 * hi * lo, lo * lo))
    phase = 0.5 * np.pi * quarter_turns
    sin, cos = np.sin(phase), np.cos(phase)
    return 0.5 + f * sin - g * cos, 0.5 - f * cos - g * sin


def fresnel_cs(u):
    """Return the pair (C(u), S(u)) in the pi t^2 / 2 convention.

    C(u) = integral_0^u cos(pi t^2 / 2) dt
    S(u) = integral_0^u sin(pi t^2 / 2) dt

    Both are odd in u; the limits for u -> +inf are 1/2.
    """
    a = _real(u, "u", positive=False, scalar=False)
    sign = np.sign(a)
    mag = np.abs(a)
    cc = np.full_like(mag, 0.5)
    ss = np.full_like(mag, 0.5)
    small = mag <= _FRESNEL_SERIES_MAX
    if np.any(small):
        cc[small], ss[small] = _fresnel_small(mag[small])
    large = ~small & (mag < _FRESNEL_HALF_MIN)
    if np.any(large):
        cc[large], ss[large] = _fresnel_large(mag[large])
    cc *= sign
    ss *= sign
    return (float(cc), float(ss)) if a.ndim == 0 else (cc, ss)


def fresnel_c(u):
    """Fresnel cosine integral C(u) = integral_0^u cos(pi t^2 / 2) dt."""
    return fresnel_cs(u)[0]


def fresnel_s(u):
    """Fresnel sine integral S(u) = integral_0^u sin(pi t^2 / 2) dt."""
    return fresnel_cs(u)[1]


def _j0_small(x):
    w = x * x
    return 1.0 + w * _clenshaw(_J0_M1_OVER_X2, w / 84.5 - 1.0)


def _j0_large(x):
    # J0(x) = sqrt(2/(pi x)) [P(x) cos(chi) - Q(x) sin(chi)], chi = x - pi/4,
    # = [(P + Q) cos x + (P - Q) sin x] / sqrt(pi x): the phase is x itself,
    # which a rounded chi would lose an ulp of
    with np.errstate(over="ignore"):
        # x^2 and pi x overflow to inf for huge x, and 1/inf = 0 is the
        # limit of the terms they divide
        s = 338.0 / (x * x) - 1.0
        amplitude = np.sqrt(1.0 / (np.pi * x))
    p, q = _clenshaw(_J0_P, s), _clenshaw(_J0_XQ, s) / x
    return amplitude * ((p + q) * np.cos(x) + (p - q) * np.sin(x))


def bessel_j0(x):
    """Zero-order Bessel function of the first kind, J0(x).

    Chebyshev series in x^2 for |x| <= 13, and in 1/x^2 for the Hankel
    envelope P, Q above.  Even in x; J0(0) = 1.
    """
    a = np.abs(_real(x, "x", positive=False, scalar=False))
    out = np.piecewise(a, [a <= _J0_SERIES_MAX], [_j0_small, _j0_large])
    return float(out) if a.ndim == 0 else out


def sinc(x):
    """Normalized sinc, sin(pi x) / (pi x), with sinc(0) = 1 exactly.

    Where pi x overflows, |sinc| < 1/(pi |x|) underflows and sinc is 0.
    """
    a = _real(x, "x", positive=False, scalar=False)
    with np.errstate(over="ignore"):
        px = np.pi * a
    tiny = np.abs(a) < 1e-7
    finite = np.isfinite(px)
    safe = np.where(tiny | ~finite, 1.0, px)
    near = np.where(tiny, px, 0.0)
    out = np.where(tiny, 1.0 - near * near / 6.0,
                   np.where(finite, np.sin(safe) / safe, 0.0))
    return float(out) if a.ndim == 0 else out
