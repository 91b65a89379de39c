"""Solve the closed-form figures of nfsense.closed_form in mpmath.

Every half-power root, mainlobe edge and sidelobe level of the package is
a figure of one of three base patterns f, to which nfsense.closed_form
maps each layout:

    ULA   (C^2(u) + S^2(u)) / u^2 with u = sqrt x
    UCA   J0(x)^2
    UPCA  sinc(x)^2 = (sin(pi x) / (pi x))^2

For each base this script solves, at 40 significant digits, the smallest
root x_3dB of f(x) ** (n p) = 1/2 for every exponent n p a layout of that
base reaches (1, 2 and 4 for the ULA, which the URA shares; 1 and 2
otherwise), the mainlobe edge (the first minimum of f) and the peak
sidelobe power (f at its first maximum past the edge; every base's
sidelobes fall off with x).  Each figure is rounded once to the nearest
double, so the output is deterministic and independent of numpy.

    python scripts/solve_figures.py           # print the _FIGURES table
    python scripts/solve_figures.py --check   # exit 1 unless closed_form
                                              # holds exactly these floats
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp

DIGITS = 40
HALF = mp.mpf(1) / 2


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
    with mp.workdps(DIGITS):
        for name, (f, lobes, exponents) in BASES.items():
            edge, peak = lobes()
            # f falls monotonically from 1 at x = 0 to its edge, and is
            # above every level at edge / 8
            roots = {n: float(root(lambda x, n=n: f(x) ** n - HALF, edge / 8, edge))
                     for n in exponents}
            figures[name] = (roots, float(edge), float(f(peak)))
    return figures


def source(figures) -> str:
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


def check(figures) -> list[str]:
    """Bases whose committed figures are not bit-equal to the solved ones."""
    from nfsense import closed_form
    from nfsense.geometry import GeometryKind

    def bits(row):
        roots, edge, peak = row
        return {n: x.hex() for n, x in roots.items()}, edge.hex(), peak.hex()

    return [name for name, row in figures.items()
            if bits(closed_form._FIGURES[GeometryKind[name]]) != bits(row)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the table committed in closed_form")
    args = parser.parse_args(argv)
    figures = solve()
    if args.check:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        stale = check(figures)
        for name in stale:
            print(f"{name}: committed figures differ from the solve")
        return 1 if stale else 0
    print(source(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
