"""Generate the Chebyshev coefficients of nfsense.specfun.

Every series in specfun is the Chebyshev interpolant of a smooth function
g(s) on s in [-1, 1] at the N roots of T_N,

    c_k = (2 - [k = 0]) / N * sum_j g(cos t_j) cos(k t_j)
    t_j = pi (j + 1/2) / N

evaluated in mpmath at 50 significant digits and rounded once to float,
so the output is deterministic and independent of numpy and BLAS.  N is
chosen so that the neglected tail (twice the sum of |c_k| for k >= N,
which bounds both truncation and aliasing; read off fits at N = 40 and
60) moves C, S and J0 by less than 1e-17.  The four series, one per
branch of specfun, and their rows:

    fresnel_small   |u| <= 2    C(u)/u, S(u)/u^3              N = 15
    fresnel_large   |u| > 2     pi u f(u), pi^2 u^3 g(u)      N = 24
    j0_small        |x| <= 13   (J0(x) - 1)/x^2               N = 20
    j0_large        |x| > 13    P(x), x Q(x) of the Hankel    N = 12
                                envelope (A&S 9.2.5-9.2.6)

    python scripts/fit_specfun.py           # print the coefficient tuples
    python scripts/fit_specfun.py --check   # exit 1 unless specfun holds
                                            # exactly these floats
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp

DIGITS = 50
HALF = mp.mpf(1) / 2


def chebyshev(g, n: int) -> list[tuple[float, ...]]:
    """The n Chebyshev interpolation coefficients of each row of g."""
    angles = [mp.pi * (j + HALF) / n for j in range(n)]
    values = [g(mp.cos(t)) for t in angles]
    rows = []
    for row in zip(*values):
        coef = [2 * mp.fsum(v * mp.cos(k * t) for v, t in zip(row, angles)) / n
                for k in range(n)]
        coef[0] /= 2
        rows.append(tuple(float(c) for c in coef))
    return rows


def fresnel_small(s):
    """u in (0, 2] with u^4 = 8 (1 + s): the rows C(u)/u and S(u)/u^3."""
    u = mp.root(8 * (1 + s), 4)
    return mp.fresnelc(u) / u, mp.fresnels(u) / u ** 3


def fresnel_large(s):
    """u in (2, inf) with 8 / u^2 = 1 + s: the rows pi u f(u), pi^2 u^3 g(u).

    f and g are the auxiliary functions of A&S 7.3.9-7.3.10.
    """
    u = mp.sqrt(8 / (1 + s))
    phase = mp.pi / 2 * u * u
    c_tail = HALF - mp.fresnelc(u)
    s_tail = HALF - mp.fresnels(u)
    f = s_tail * mp.cos(phase) - c_tail * mp.sin(phase)
    g = c_tail * mp.cos(phase) + s_tail * mp.sin(phase)
    return mp.pi * u * f, mp.pi ** 2 * u ** 3 * g


def j0_small(s):
    """x in (0, 13] with x^2 = 84.5 (1 + s): (J0(x) - 1) / x^2."""
    w = mp.mpf(169) / 2 * (1 + s)
    return ((mp.besselj(0, mp.sqrt(w)) - 1) / w,)


def j0_large(s):
    """x in (13, inf) with 338 / x^2 = 1 + s: the rows P(x) and x Q(x) of

        J0(x) = sqrt(2 / (pi x)) (P cos(chi) - Q sin(chi)), chi = x - pi/4,
        Y0(x) = sqrt(2 / (pi x)) (P sin(chi) + Q cos(chi)),

    both smooth in 1 / x^2 down to s = -1, where P = 1 and x Q = -1/8.
    """
    x = 13 * mp.sqrt(2 / (1 + s))
    chi = x - mp.pi / 4
    j, y = mp.besselj(0, x), mp.bessely(0, x)
    scale = mp.sqrt(mp.pi * x / 2)
    return (scale * (j * mp.cos(chi) + y * mp.sin(chi)),
            x * scale * (y * mp.cos(chi) - j * mp.sin(chi)))


# (function of s, N, the names of its rows in specfun)
SERIES = (
    (fresnel_small, 15, ("_C_OVER_U", "_S_OVER_U3")),
    (fresnel_large, 24, ("_F_SCALED", "_G_SCALED")),
    (j0_small, 20, ("_J0_M1_OVER_X2",)),
    (j0_large, 12, ("_J0_P", "_J0_XQ")),
)


def fit() -> dict[str, tuple[float, ...]]:
    with mp.workdps(DIGITS):
        return {name: coef for g, n, names in SERIES
                for name, coef in zip(names, chebyshev(g, n))}


def source(name: str, coef: tuple[float, ...]) -> str:
    lines = [f"{name} = ("]
    for i in range(0, len(coef), 3):
        lines.append("    " + " ".join(f"{c!r}," for c in coef[i:i + 3]))
    lines.append(")")
    return "\n".join(lines)


def check(fitted: dict[str, tuple[float, ...]]) -> list[str]:
    """Names whose committed tuple is not bit-equal to the fitted one."""
    from nfsense import specfun

    return [name for name, coef in fitted.items()
            if [c.hex() for c in getattr(specfun, name)]
            != [c.hex() for c in coef]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the tuples committed in specfun")
    args = parser.parse_args(argv)
    fitted = fit()
    if args.check:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        stale = check(fitted)
        for name in stale:
            print(f"{name}: committed coefficients differ from the fit")
        return 1 if stale else 0
    print("\n\n".join(source(name, coef) for name, coef in fitted.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
