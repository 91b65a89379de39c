"""Special functions used by the closed-form array factors.

Self-contained implementations of the Fresnel integrals C and S, the
zero-order Bessel function of the first kind J0, and the normalized sinc.
Inputs may be scalars or numpy arrays; scalar in, float out.

Accuracy (absolute error, verified against quadrature / high precision
references in the test suite):

    fresnel_c, fresnel_s   < 1e-13 for |u| <= 10
    bessel_j0              < 1e-11 for |x| <= 50
    sinc                   machine precision

and every finite argument gives a finite value, with no numpy warning.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fresnel_c", "fresnel_s", "fresnel_cs", "bessel_j0", "sinc"]

# Maclaurin series below this |u|, continued fraction above.  At the
# crossover both branches are accurate to ~1e-15.
_FRESNEL_SERIES_MAX = 2.0

# From this |u| on, |C - 1/2| and |S - 1/2| < 1/(pi u) are below half an
# ulp of 1/2, so both are 1/2 exactly (and pi u^2 / 2 may overflow).
_FRESNEL_HALF_MIN = 1e17

# Power series below this |x|, Hankel asymptotic expansion above.
_J0_SERIES_MAX = 13.0

_SQRT_PI = np.sqrt(np.pi)


def _checked_array(x, name: str):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def _fresnel_series(u):
    """Maclaurin series of C(u) and S(u); use only for |u| <= ~2.5.

    C(u) = u * sum_k (-t^2)^k / ((2k)! (4k+1)),      t = pi u^2 / 2
    S(u) = u*t * sum_k (-t^2)^k / ((2k+1)! (4k+3))
    """
    t = 0.5 * np.pi * u * u
    mt2 = -(t * t)
    term_c = np.ones_like(u)
    term_s = np.ones_like(u)
    acc_c = term_c.copy()
    acc_s = term_s / 3.0
    for k in range(1, 26):
        term_c = term_c * mt2 / ((2 * k) * (2 * k - 1))
        term_s = term_s * mt2 / ((2 * k + 1) * (2 * k))
        acc_c += term_c / (4 * k + 1)
        acc_s += term_s / (4 * k + 3)
    return u * acc_c, u * t * acc_s


def _fresnel_cf(u):
    """C(u) and S(u) for u > 0 via the complementary error function.

    C(u) + i S(u) = (1+i)/2 * erf(z),  z = sqrt(pi)/2 (1-i) u, and erfc(z)
    is evaluated with the classic continued fraction

        erfc(z) = exp(-z^2)/sqrt(pi) * 1/(z + (1/2)/(z + 1/(z + (3/2)/(...))))

    using the modified Lentz iteration.  Converges in < 80 iterations for
    u >= 2; exp(-z^2) = exp(i pi u^2 / 2) is unit modulus, so there is no
    overflow for any argument.
    """
    z = 0.5 * _SQRT_PI * (1.0 - 1.0j) * u
    b = z
    c = np.full_like(z, 1e300)
    d = 1.0 / b
    h = d.copy()
    for n in range(1, 400):
        a = 0.5 * n
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        if np.all(np.abs(delta - 1.0) < 1e-15):
            break
    else:
        raise RuntimeError("Fresnel continued fraction failed to converge")
    erfc = np.exp(1j * 0.5 * np.pi * u * u) * h / _SQRT_PI
    w = 0.5 * (1.0 + 1.0j) * (1.0 - erfc)
    return w.real.copy(), w.imag.copy()


def fresnel_cs(u):
    """Return the pair (C(u), S(u)) in the pi t^2 / 2 convention.

    C(u) = integral_0^u cos(pi t^2 / 2) dt
    S(u) = integral_0^u sin(pi t^2 / 2) dt

    Both are odd in u; the limits for u -> +inf are 1/2.
    """
    arr = _checked_array(u, "u")
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    sign = np.sign(a)
    mag = np.abs(a)
    cc = np.full_like(mag, 0.5)
    ss = np.full_like(mag, 0.5)
    small = mag <= _FRESNEL_SERIES_MAX
    if np.any(small):
        cc[small], ss[small] = _fresnel_series(mag[small])
    large = ~small & (mag < _FRESNEL_HALF_MIN)
    if np.any(large):
        cc[large], ss[large] = _fresnel_cf(mag[large])
    cc *= sign
    ss *= sign
    if scalar:
        return float(cc[0]), float(ss[0])
    return cc, ss


def fresnel_c(u):
    """Fresnel cosine integral C(u) = integral_0^u cos(pi t^2 / 2) dt."""
    return fresnel_cs(u)[0]


def fresnel_s(u):
    """Fresnel sine integral S(u) = integral_0^u sin(pi t^2 / 2) dt."""
    return fresnel_cs(u)[1]


def _j0_series(x):
    # sum_k (-x^2/4)^k / (k!)^2, fine up to |x| ~ 13
    mq = -(x * x) / 4.0
    term = np.ones_like(x)
    acc = term.copy()
    for k in range(1, 46):
        term = term * mq / (k * k)
        acc += term
    return acc


# Hankel coefficients a_k = (-1)^k [(2k-1)!!]^2 / (k! 8^k)
_J0_HANKEL_K = 12
_J0_HANKEL_A = [1.0]
for _k in range(1, 2 * _J0_HANKEL_K + 1):
    _J0_HANKEL_A.append(_J0_HANKEL_A[-1] * -((2 * _k - 1) ** 2) / (8.0 * _k))


def _j0_hankel(x):
    # J0(x) = sqrt(2/(pi x)) [P(x) cos(x - pi/4) - Q(x) sin(x - pi/4)]
    with np.errstate(over="ignore"):
        # x^2 and pi x overflow to inf for huge x, and 1/inf = 0 is the
        # limit of the terms they divide
        inv2 = 1.0 / (x * x)
        amplitude = np.sqrt(2.0 / (np.pi * x))
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    powp = np.ones_like(x)
    powq = 1.0 / x
    for m in range(_J0_HANKEL_K):
        s = -1.0 if m % 2 else 1.0
        p += s * _J0_HANKEL_A[2 * m] * powp
        q += s * _J0_HANKEL_A[2 * m + 1] * powq
        powp *= inv2
        powq *= inv2
    chi = x - 0.25 * np.pi
    return amplitude * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j0(x):
    """Zero-order Bessel function of the first kind, J0(x).

    Power series for |x| <= 13, Hankel asymptotic expansion (12 terms of
    each auxiliary series) above.  Even in x; J0(0) = 1.
    """
    arr = _checked_array(x, "x")
    scalar = arr.ndim == 0
    a = np.abs(np.atleast_1d(arr))
    out = np.empty_like(a)
    small = a <= _J0_SERIES_MAX
    if np.any(small):
        out[small] = _j0_series(a[small])
    large = ~small
    if np.any(large):
        out[large] = _j0_hankel(a[large])
    if scalar:
        return float(out[0])
    return out


def sinc(x):
    """Normalized sinc, sin(pi x) / (pi x), with sinc(0) = 1 exactly.

    Where pi x overflows, |sinc| < 1/(pi |x|) underflows and sinc is 0.
    """
    arr = _checked_array(x, "x")
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    with np.errstate(over="ignore"):
        px = np.pi * a
    tiny = np.abs(a) < 1e-7
    finite = np.isfinite(px)
    safe = np.where(tiny | ~finite, 1.0, px)
    near = np.where(tiny, px, 0.0)
    out = np.where(tiny, 1.0 - near * near / 6.0,
                   np.where(finite, np.sin(safe) / safe, 0.0))
    if scalar:
        return float(out[0])
    return out
