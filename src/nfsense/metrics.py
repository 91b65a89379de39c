"""Sensing metrics derived from the closed-form array factors.

A layout's power in a mode is its base pattern f to the exponent n p
(see nfsense.closed_form), so every solver works on f alone: the
half-power point solves f(x) = 0.5 ** (1/(n p)) by bisection on the
monotone mainlobe, once per (base, n p), bracketed on every 64th point of
its grid and then within one segment; one cached scan of f per base
pattern, refined by golden section, gives the mainlobe edge (the first
minimum of f, which no exponent moves) and the sidelobe level (n p times
that of f in dB).  The scan walks its grid in blocks from x = 0 and stops
once the base's decreasing envelope E >= f, from the pattern table of
nfsense.closed_form, is below the best sidelobe found.  Both searches
evaluate f for several steps per call: every point the next steps can
visit, then the steps replayed in order, so they return the bits of a
search that calls f one point at a time, and the bracket and the stop find
the grid points a search over the whole grid finds.
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

from .closed_form import (_PATTERNS, base_layout, normalized_af_power,
                          quadratic_mainlobe_coefficient)
from .geometry import GeometryKind, ProcessingMode

__all__ = [
    "SIDELOBE_SCAN_MAX",
    "GeometryMetrics",
    "QuadraticGainAnalysis",
    "half_power_root",
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

# Bracket width in x below which the half-power bisection stops.
_X3DB_TOLERANCE = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Steps a solver looks ahead: one call of f evaluates every point that the
# next _LOOKAHEAD steps can visit, 2 ** _LOOKAHEAD - 1 of them.
_LOOKAHEAD = 6

# The half-power bracket looks at every _BRACKET_STRIDE-th grid point first.
_BRACKET_STRIDE = 64

# Points per block of the lobe scan, and the margin by which the envelope
# must clear the best sidelobe; specfun's error is below 1e-13.
_LOBE_BLOCK = 2048
_ENVELOPE_MARGIN = 1e-12


def _lookahead(f, children, node) -> list:
    """f at the point of `node` and of its descendants _LOOKAHEAD - 1 deep.

    A node is a search state whose last entry is the point its step
    evaluates; children(*node) gives the two nodes that step can lead to,
    first the one taken when the search moves up.  The tree is built node
    by node in heap order, so entry i's children are entries 2i + 1 and
    2i + 2, and values come in that order.  children runs on the same
    Python floats here as when the solver replays its steps, so every point
    is computed by the same float operations; f is evaluated elementwise,
    so each value is the one a call at that point alone gives.
    """
    nodes = [node]
    for i in range(2 ** (_LOOKAHEAD - 1) - 1):
        nodes += children(*nodes[i])
    return f(np.array([n[-1] for n in nodes])).tolist()


def _halves(lo, hi, mid):
    """The brackets after a bisection step: f(mid) above the level, then not."""
    return (mid, hi, 0.5 * (mid + hi)), (lo, mid, 0.5 * (lo + mid))


def _bisect(f, level: float, lo: float, hi: float) -> float:
    """Root of f(x) = level where f falls through it on [lo, hi].

    At most 80 halvings, stopping once the bracket is under _X3DB_TOLERANCE
    wide.
    """
    node = (lo, hi, 0.5 * (lo + hi))
    for step in range(80):
        if step % _LOOKAHEAD == 0:
            values, i = _lookahead(f, _halves, node), 0
        up = values[i] - level > 0.0
        node = _halves(*node)[0 if up else 1]
        i = 2 * i + (1 if up else 2)
        if node[1] - node[0] < _X3DB_TOLERANCE:
            break
    return node[2]


def _golden_steps(a, b, x1, x2, _point):
    """The states after a golden-section step: f(x1) < f(x2), then not."""
    up = x1 + _GOLDEN * (b - x1)
    down = x2 - _GOLDEN * (x2 - a)
    return (x1, b, x2, up, up), (a, x2, down, x1, down)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Abscissa of the maximum of unimodal f on [lo, hi]."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(np.array([x1, x2])).tolist()
    node = (lo, hi, x1, x2, None)
    step = 0
    while node[1] - node[0] > tol:
        up = f1 < f2
        node = _golden_steps(*node)[0 if up else 1]
        if step % _LOOKAHEAD == 0:
            values, i = _lookahead(f, _golden_steps, node), 0
        else:
            i = 2 * i + (1 if up else 2)
        f1, f2 = (f2, values[i]) if up else (values[i], f1)
        step += 1
    return 0.5 * (node[0] + node[1])


@lru_cache(maxsize=None)
def half_power_root(base: GeometryKind, exponent: int) -> float:
    """Smallest x where f ** exponent falls to 0.5, f the kind's pattern.

    Solves f(x) = 0.5 ** (1 / exponent) by bracketing on a 4001-point grid
    over [0, 4] and bisection.  f is 1 at x = 0, falls monotonically to its
    first minimum, which lies more than a coarse step past the root, and
    its sidelobes stay below every level, so f is below the level at each
    grid point from the root on.  The first grid point below the level is
    therefore found on every _BRACKET_STRIDE-th point first and then among
    the points of that one segment, and it is the first sign change of the
    whole grid.
    """
    f = partial(normalized_af_power, base, ProcessingMode.SIMO_MISO)
    level = 0.5 ** (1.0 / exponent)
    grid = np.linspace(0.0, 4.0, 4001)
    marks = np.append(np.arange(0, grid.size - 1, _BRACKET_STRIDE), grid.size - 1)
    j = int(np.argmax(f(grid[marks]) - level < 0.0))
    if j == 0:
        raise RuntimeError("no half-power bracket found")
    lo, hi = int(marks[j - 1]), int(marks[j])
    inner = f(grid[lo + 1:hi]) - level < 0.0
    idx = lo + 1 + int(np.argmax(inner)) if inner.any() else hi
    return _bisect(f, level, float(grid[idx - 1]), float(grid[idx]))


@lru_cache(maxsize=None)
def half_power_argument(kind: GeometryKind, mode: ProcessingMode) -> float:
    """Smallest x with normalized power 0.5.

    The power is the base pattern f to the exponent n p, so this is the
    half-power root of (base, n p): the URA in SIMO shares the ULA's in MIMO.
    """
    base, n = base_layout(kind)
    return half_power_root(base, n * mode.power_exponent)


def half_power_coefficient(kind: GeometryKind, mode: ProcessingMode) -> float:
    """alpha = x_3dB / a; scales d_FA * d_ver at the half-power point."""
    return half_power_argument(kind, mode) / kind.argument_scale


def half_power_distances(d_target: float, d_fraunhofer: float,
                         coefficient: float) -> tuple[float, float]:
    """The two ranges where the power around a target at d' falls to half.

    Returns (lower, upper); upper is math.inf once the target sits at or
    beyond d_FA / alpha.
    """
    if not (0.0 < d_target < math.inf and 0.0 < d_fraunhofer < math.inf
            and 0.0 < coefficient < math.inf):
        raise ValueError("distances and coefficient must be finite and positive")
    lower = d_fraunhofer * d_target / (d_fraunhofer + coefficient * d_target)
    if d_target >= d_fraunhofer / coefficient:
        return lower, math.inf
    upper = d_fraunhofer * d_target / (d_fraunhofer - coefficient * d_target)
    return lower, upper


def beamdepth(d_target, d_fraunhofer, coefficient):
    """Radial half-power extent around a target at d'; inf past d_FA/alpha.

    Below d_FA/alpha the extent is finite; ValueError where its formula
    leaves the float range (an overflowing or underflowing square).  The
    inputs broadcast as numpy arrays and give an array of extents, and
    scalars give a float.  Squares come from the C library's pow, as
    Python's ** takes them, which can differ from x * x in the last bit.
    """
    d, fa, c = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in
                                     (d_target, d_fraunhofer, coefficient)))
    if not all(np.all((0.0 < v) & (v < math.inf)) for v in (d, fa, c)):
        raise ValueError("distances and coefficient must be finite and positive")
    with np.errstate(all="ignore"):
        d2, fa2, c2 = (np.float_power(v, 2.0) for v in (d, fa, c))
        depth = 2.0 * c * fa * d2 / (fa2 - c2 * d2)
        finite = d < fa / c
    # where a square is inf, ** raises OverflowError; numpy goes on and
    # can reach a finite quotient
    bad = finite & (np.isinf(d2) | np.isinf(fa2) | np.isinf(c2)
                    | ~np.isfinite(depth))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"beamdepth at d' = {d.flat[i]:g} m with d_FA = "
                         f"{fa.flat[i]:g} m is out of floating-point range")
    depth = np.where(finite, depth, math.inf)
    return float(depth) if depth.ndim == 0 else depth


def max_nearfield_range(d_fraunhofer: float, coefficient: float) -> float:
    """Largest target range with a finite beamdepth, d_FA / alpha."""
    if not (0.0 < d_fraunhofer < math.inf and 0.0 < coefficient < math.inf):
        raise ValueError("inputs must be finite and positive")
    return d_fraunhofer / coefficient


def _lobes(vals) -> tuple:
    """(edge, peak) grid indices on the scanned values, None if not yet seen.

    The edge is the first interior minimum; the peak the highest maximum
    beyond it, ties to the smallest index.  Both look at a point's two
    neighbours only, so on a prefix of the grid they are what the whole
    grid gives, as far as the prefix reaches.
    """
    interior = np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:]))
    if interior.size == 0:
        return None, None
    edge = int(interior[0]) + 1
    lobes = vals[edge:]
    is_max = (lobes[1:-1] > lobes[:-2]) & (lobes[1:-1] >= lobes[2:])
    candidates = np.flatnonzero(is_max) + edge + 1
    if candidates.size == 0:
        return edge, None
    return edge, int(candidates[int(np.argmax(vals[candidates]))])


@lru_cache(maxsize=None)
def lobe_scan(base: GeometryKind) -> tuple[float, float]:
    """(mainlobe edge, peak sidelobe power) of a base pattern f.

    Scans f on [0, SIDELOBE_SCAN_MAX] at step 1e-3, refined by golden
    section: the first interior minimum ends the mainlobe, and the highest
    maximum beyond it (ties to the smallest x) is the peak sidelobe.  The
    grid is evaluated in blocks of _LOBE_BLOCK points from x = 0.  Once the
    edge and a sidelobe maximum are known, the scan stops when the base's
    envelope E >= f from the closed_form pattern table, decreasing in x, is
    below the best sidelobe by _ENVELOPE_MARGIN (above the special
    functions' error) at the last point evaluated: no later point can then
    win, so the result is that of the whole grid.
    """
    f = partial(normalized_af_power, base, ProcessingMode.SIMO_MISO)
    envelope = _PATTERNS[base_layout(base)[0]][2]  # for the URA, f^2 <= f <= E
    grid = np.linspace(0.0, SIDELOBE_SCAN_MAX, 50_001)
    vals = np.empty_like(grid)
    for lo in range(0, grid.size, _LOBE_BLOCK):
        hi = min(lo + _LOBE_BLOCK, grid.size)
        vals[lo:hi] = f(grid[lo:hi])
        edge, best = _lobes(vals[:hi])
        if best is not None and (envelope(grid[hi - 1]) + _ENVELOPE_MARGIN
                                 < vals[best]):
            break
    if edge is None:
        raise RuntimeError("no mainlobe edge found in scan window")
    if best is None:
        raise RuntimeError("no sidelobe found in scan window")
    x_edge = _golden_max(lambda x: -f(x), float(grid[edge - 1]),
                         float(grid[edge + 1]), tol=1e-12)
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
