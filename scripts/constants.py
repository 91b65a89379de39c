"""Derive every float table of nfsense in mpmath, and check the committed ones.

nfsense holds two kinds of committed floats, each rounded once from mpmath
to the nearest double, so the output is deterministic and independent of
numpy and BLAS.

specfun's Chebyshev tuples.  Every series in specfun is the Chebyshev
interpolant of a smooth function g(s) on s in [-1, 1] at the N roots of T_N,

    c_k = (2 - [k = 0]) / N * sum_j g(cos t_j) cos(k t_j)
    t_j = pi (j + 1/2) / N

evaluated at FIT_DIGITS = 50 significant digits.  N is chosen so that the
neglected tail (twice the sum of |c_k| for k >= N, which bounds both
truncation and aliasing; read off fits at N = 40 and 60) moves C, S and J0
by less than 1e-17.  The four series, one per branch of specfun, and their
rows:

    fresnel_small   |u| <= 2    C(u)/u, S(u)/u^3              N = 15
    fresnel_large   |u| > 2     pi u f(u), pi^2 u^3 g(u)      N = 24
    j0_small        |x| <= 13   (J0(x) - 1)/x^2               N = 20
    j0_large        |x| > 13    P(x), x Q(x) of the Hankel    N = 12
                                envelope (A&S 9.2.5-9.2.6)

closed_form._FIGURES.  Every half-power root, mainlobe edge and sidelobe
level of the package is a figure of one of three base patterns f, to which
nfsense.closed_form maps each layout:

    ULA   (C^2(u) + S^2(u)) / u^2 with u = sqrt x
    UCA   J0(x)^2
    UPCA  sinc(x)^2 = (sin(pi x) / (pi x))^2

For each base this script solves, at FIGURE_DIGITS = 40 significant digits,
the smallest root x_3dB of f(x) ** (n p) = 1/2 for every exponent n p a
layout of that base reaches (1, 2 and 4 for the ULA, which the URA shares;
1 and 2 otherwise), the mainlobe edge (the first minimum of f) and the peak
sidelobe power (f at its first maximum past the edge; every base's
sidelobes fall off with x).

    python scripts/constants.py           # print the specfun tuples, then
                                          # the _FIGURES table
    python scripts/constants.py --check   # exit 1, naming each stale table,
                                          # unless nfsense holds exactly
                                          # these floats
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp

FIT_DIGITS = 50
FIGURE_DIGITS = 40
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
    """specfun name -> its coefficient tuple."""
    with mp.workdps(FIT_DIGITS):
        return {name: coef for g, n, names in SERIES
                for name, coef in zip(names, chebyshev(g, n))}


def root(g, lo, hi):
    """The root of g in [lo, hi], where g changes sign once."""
    return mp.findroot(g, (mp.mpf(lo), mp.mpf(hi)), solver="anderson")


def fresnel_power(x):
    u = mp.sqrt(x)
    return (mp.fresnelc(u) ** 2 + mp.fresnels(u) ** 2) / x


def fresnel_slope(u):
    """u^3 / 2 times the u-derivative of (C^2 + S^2)(u) / u^2."""
    phase = mp.pi * u * u / 2
    c, s = mp.fresnelc(u), mp.fresnels(u)
    return u * (c * mp.cos(phase) + s * mp.sin(phase)) - (c * c + s * s)


def ula_lobes():
    # the slope rises through 0 at the edge and falls through it at the
    # first sidelobe; the two brackets hold one sign change each
    return root(fresnel_slope, 1.5, 2.0) ** 2, root(fresnel_slope, 2.0, 2.5) ** 2


def uca_lobes():
    # J0^2 has its minima at the zeros of J0 and its maxima at those of J1
    return mp.besseljzero(0, 1), mp.besseljzero(1, 1)


def upca_lobes():
    # sinc^2 vanishes at x = 1 and peaks where tan(pi x) = pi x
    return mp.mpf(1), root(lambda x: mp.sin(mp.pi * x)
                           - mp.pi * x * mp.cos(mp.pi * x), 1.25, 1.5)


# base -> (f, its lobes, the exponents n p of its layouts)
BASES = {
    "ULA": (fresnel_power, ula_lobes, (1, 2, 4)),
    "UCA": (lambda x: mp.besselj(0, x) ** 2, uca_lobes, (1, 2)),
    "UPCA": (lambda x: mp.sinc(mp.pi * x) ** 2, upca_lobes, (1, 2)),
}


def solve() -> dict[str, tuple[dict[int, float], float, float]]:
    """base -> ({n p: x_3dB}, mainlobe edge, peak sidelobe power)."""
    figures = {}
    with mp.workdps(FIGURE_DIGITS):
        for name, (f, lobes, exponents) in BASES.items():
            edge, peak = lobes()
            # f falls monotonically from 1 at x = 0 to its edge, and is
            # above every level at edge / 8
            roots = {n: float(root(lambda x, n=n: f(x) ** n - HALF, edge / 8, edge))
                     for n in exponents}
            figures[name] = (roots, float(edge), float(f(peak)))
    return figures


def tuple_source(name: str, coef: tuple[float, ...]) -> str:
    lines = [f"{name} = ("]
    for i in range(0, len(coef), 3):
        lines.append("    " + " ".join(f"{c!r}," for c in coef[i:i + 3]))
    lines.append(")")
    return "\n".join(lines)


def figures_source(figures) -> str:
    lines = ["_FIGURES = {"]
    for name, (roots, edge, peak) in figures.items():
        head = f"    GeometryKind.{name}: ("
        indent = "\n" + " " * len(head)
        cells = [f"{n}: {x!r}" for n, x in roots.items()]
        pairs = [", ".join(cells[i:i + 2]) for i in range(0, len(cells), 2)]
        lines.append(head + "{" + ("," + indent + " ").join(pairs) + "},"
                     + indent + f"{edge!r}, {peak!r}),")
    lines.append("}")
    return "\n".join(lines)


def _bits(table) -> list[str]:
    """Every number of a table, a dict's keys among them, as float hex, in
    order, however tuples and dicts nest in it."""
    if isinstance(table, (int, float)):
        return [float(table).hex()]
    items = table.items() if isinstance(table, dict) else table
    return [bits for item in items for bits in _bits(item)]


def check(fitted, figures) -> list[str]:
    """Names of the tables whose committed floats are not bit-equal to the
    derived ones: a specfun tuple by its name, a _FIGURES row by its base."""
    from nfsense import closed_form, specfun
    from nfsense.geometry import GeometryKind

    committed = {**{name: getattr(specfun, name) for name in fitted},
                 **{name: closed_form._FIGURES[GeometryKind[name]]
                    for name in figures}}
    return [name for name, table in {**fitted, **figures}.items()
            if _bits(committed[name]) != _bits(table)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the tables committed in nfsense")
    args = parser.parse_args(argv)
    fitted, figures = fit(), solve()
    if args.check:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        stale = check(fitted, figures)
        for name in stale:
            print(f"{name}: committed floats differ from the mpmath derivation")
        return 1 if stale else 0
    print("\n\n".join([*(tuple_source(name, coef) for name, coef in fitted.items()),
                       figures_source(figures)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
