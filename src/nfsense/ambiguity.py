"""Exact narrowband ambiguity function by direct summation.

Distances are full Euclidean norms and no series approximation is applied,
so this is the ground truth for the closed forms.  A setup's power is one
sum over its aperture, |AF|^2 / M, raised to the mode's exponent: the single
element of a SIMO/MISO link has |AF|^2 = 1, and MIMO squares the power.

Every sum runs through one kernel.  It walks the probes in blocks of about
_BLOCK_PAIRS element-probe pairs.  Each coordinate difference p_a - e_a of a
block is one entry of the matrix product [p_a, 1] @ [1; -e_a]: both of its
terms are exact, so their sum rounds once, to the subtraction's value, from
any BLAS (a -0 difference comes out +0, which its square cannot tell), and
the product avoids numpy's broadcast loop, slow on many short rows.  The
squared differences are added in place and the square root taken; on the
z axis only p_z - e_z is formed, and each element's e_x^2 + e_y^2, the
same for every probe, is added to its square.  A distance d enters only
as k d, so each call divides its points by lambda once and the kernel
works in wavelengths: a sum is scale-free (bit for bit at a power-of-two
lambda), and its one proximity error is a point within _MIN_SEPARATION
of an element.  The phase in cycles, c = d_m(target) - d_m(probe), is
reduced to [-1/2, 1/2] by subtracting rint(c), which is exact, so the
phase error does not grow with range.  One tangent of the half angle,
t = tan(pi c), then gives the weighted phasor: w cos = 2w / (1 + t^2) - w
and w sin = t 2w / (1 + t^2).  On that interval numpy's tan is vectorized,
where cos and sin of the raw phase need a full range reduction each.  The
terms are summed over the elements in ascending order, so sums are
bit-reproducible run to run.  A call of more than _BLOCK_PAIRS pairs runs
on the calling thread and one pool, made on the first such call, one
thread per CPU of the affinity mask in all, each taking the next row block
when it is free; a failing block ends the walk, and a call returns, or
re-raises a block's error, once all its shares are done.  A probe's sum is
the same row sum whatever block or thread holds it, so the bits do not
depend on the split, and no setting selects it.  On the z axis an
element's distance depends only on (x^2 + y^2, z), so any sum with its
target and every probe at x = y = 0 adds one term of
ArrayGeometry.axial_terms per axial class, in index order, weighted by the
class size and normalized by the full element count; other sums add every
element with weight 1.

Where the K classes share one z (the ULA, URA and UPCA) a class's on-axis
phasor is a smooth function of s = x^2 + y^2, and where they share one
x^2 + y^2 + z^2 (the UCA's ring) of s = z.  Where K > _NODES = 48 the
layout's plan, made on its first on-axis sum and kept in _PLANS while the
layout lives, puts 48 node terms at the Chebyshev points of the second kind
on the classes' range of s, weighted by q = w L with L the (K, 48)
barycentric Lagrange matrix at the classes' s: their sum is the sum over
the classes of the phasors' interpolant.  A probe whose own z lies in the
target's node window sums them instead of the K classes, so its bits depend
only on its own z.  The plan keeps up to _TARGETS = 64 windows, each
bisected once on a ladder of vergence offsets; an end passes only if the
interpolant matches every class phasor within 8 (2 pi eps) max(d', p), the
kernel's own rounding floor, and the target and every routed probe lie
twice the array's reach or more from the origin.  Routing and certificates
use no BLAS product.  A target is one point.
"""

from __future__ import annotations

import math
import os
import weakref
from collections import namedtuple

import numpy as np

from .geometry import _CLASS_TOL, ArrayGeometry, SensingSetup, _asarray

__all__ = [
    "array_factor",
    "normalized_power",
]

# probe points closer than this (in wavelengths) to an element are rejected
_MIN_SEPARATION = 1e-6

# element-probe pairs per kernel block; two float buffers of this size stay
# in cache
_BLOCK_PAIRS = 65_536

# threads that share the blocks of a call above _BLOCK_PAIRS pairs
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# Chebyshev nodes whose terms stand in for the axial classes on a window
# around an on-axis target
_NODES = 48

# relative vergence offsets f tried as a node window's ends, t / p = 1 -+ f,
# from 2**-6.5 to 2; each side bisects the ladder, so 5 certificates find
# its end (Python floats: a numpy power here costs ~3 ms of import)
_RUNGS = tuple(2.0 ** (k / 4) for k in range(-26, 5))

# a node window holds only probes this many array reaches away or more
_REACHES = 2.0

# each layout's _Plan, or None, made on its first on-axis sum and kept
# while the layout lives, and the node windows a plan keeps
_PLANS = weakref.WeakKeyDictionary()
_TARGETS = 64

_ONE_TARGET = "target must be one finite point"
_COINCIDES = "point coincides with an array element"

# the thread pool of split calls under "pool", made on the first; a forked
# child, which has none of the parent's threads, starts without it
_SHARED = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_SHARED.clear)


def _points(points, message="points must be finite 3-vectors") -> np.ndarray:
    """(P, 3) float array of finite points; ValueError(message) otherwise."""
    pts = np.atleast_2d(_asarray(points))
    if (pts.dtype.kind not in "iuf" or pts.ndim != 2 or pts.shape[1] != 3
            or not np.all(np.isfinite(pts))):
        raise ValueError(message)
    return pts.astype(float, copy=False)


def _target(target) -> np.ndarray:
    """(3,) float array of one finite point given as (3,) or (1, 3)."""
    t = _points(target, _ONE_TARGET)
    if len(t) != 1:
        raise ValueError(_ONE_TARGET)
    return t[0]


def _phase_sum(elements, weights, target, probes, on_axis: bool) -> np.ndarray:
    """(P,) sums of w_m exp(-2 pi j c_m) over the elements, all points in
    wavelengths, with the phase in cycles c_m = d_m(target) - d_m(probe),
    and x = y = 0 at every point if on_axis.

    Raises ValueError if the target or a probe lies within _MIN_SEPARATION
    of an element.
    """
    ex, ey, ez = np.ascontiguousarray(elements.T)
    # on the axis, every probe's x and y differences square to this sum
    lateral = (target[0] - ex) ** 2 + (target[1] - ey) ** 2
    d_target = np.sqrt(lateral + (target[2] - ez) ** 2)
    if d_target.min() < _MIN_SEPARATION:
        raise ValueError(_COINCIDES)
    m, p = ex.size, len(probes)
    if not p:
        return np.empty(0, dtype=complex)
    rows = max(1, _BLOCK_PAIRS // m)
    workers = _WORKERS if m * p > _BLOCK_PAIRS else 1
    rows = min(rows, -(-p // workers))
    workers = min(workers, -(-p // rows))
    # shared, and next() is atomic: a thread that is free takes the next block
    blocks = iter(range(0, p, rows))
    out = np.empty(p, dtype=complex)
    twice = 2.0 * weights
    # p_a - e_a is the product [p_a, 1] @ [1; -e_a]: both of its products
    # are exact, so their sum rounds once, as the subtraction does
    rhs = np.ones((3, 2, m))
    rhs[:, 1] = -elements.T
    axes = (2,) if on_axis else (0, 1, 2)

    def run():
        # a pool thread starts from numpy's default errstate, not the caller's
        with np.errstate(over="ignore", invalid="ignore"):
            dist, term = np.empty((2, rows, m))
            lhs = np.ones((rows, 2))
            for lo in blocks:
                block = probes[lo:lo + rows]
                d, t, a = dist[:len(block)], term[:len(block)], lhs[:len(block)]
                a[:, 0] = block[:, axes[0]]
                np.matmul(a, rhs[axes[0]], out=d)
                np.square(d, out=d)
                for axis in axes[1:]:
                    a[:, 0] = block[:, axis]
                    np.matmul(a, rhs[axis], out=t)
                    np.square(t, out=t)
                    d += t
                if on_axis:
                    d += lateral
                np.sqrt(d, out=d)
                if d.min() < _MIN_SEPARATION:
                    for _ in blocks:  # no thread takes another block
                        pass
                    raise ValueError(_COINCIDES)
                # c - rint(c) is exact and lies in [-1/2, 1/2], so the
                # half angle pi c stays off the tangent's poles
                np.subtract(d_target, d, out=d)
                np.rint(d, out=t)
                d -= t
                d *= np.pi
                np.tan(d, out=d)
                # with t = tan(pi c): w cos = 2w / (1 + t^2) - w and
                # w sin = t 2w / (1 + t^2)
                np.square(d, out=t)
                t += 1.0
                np.divide(twice, t, out=t)
                d *= t
                out.imag[lo:lo + len(block)] = -d.sum(axis=1)
                t -= weights
                out.real[lo:lo + len(block)] = t.sum(axis=1)

    if workers == 1:
        run()
        return out
    # imported here, as it pulls in logging: ~9 ms more on `import nfsense`
    from concurrent.futures import ThreadPoolExecutor, wait
    # atomic: racing calls share one pool (an unused one starts no thread)
    pool = _SHARED.get("pool") or _SHARED.setdefault(
        "pool", ThreadPoolExecutor(_WORKERS - 1))
    futures = [pool.submit(run) for _ in range(workers - 1)]
    try:
        run()
    finally:
        wait(futures)  # every share ends before the call returns or raises
    for future in futures:
        future.result()
    return out


def _phasors(lateral, z, target: float, probe: float) -> np.ndarray:
    """exp(-2 pi j c) for points (0, 0, target) and (0, 0, probe) and
    elements of the given x^2 + y^2 and z, all in wavelengths, with c the
    difference of the distances from the difference of their squares, so
    that it keeps its digits."""
    near = np.sqrt(lateral + (target - z) ** 2)
    far = np.sqrt(lateral + (probe - z) ** 2)
    c = (target - probe) * (target + probe - 2.0 * z) / (near + far)
    c -= np.rint(c)
    return np.exp(-2j * np.pi * c)


# a layout's node quadrature, with no reference to the layout: the node
# terms' (N, 3) positions in metres and (N,) weights q = w L, the (K, N)
# Lagrange matrix, the classes' and the nodes' (x^2 + y^2, z) and the least
# |z| of a routed point, in wavelengths, and its windows by target z
_Plan = namedtuple("_Plan", "nodes lagrange classes terms floor windows")


def _plan(geometry: ArrayGeometry):
    """The layout's _Plan (see the module docstring); None where it has
    K <= _NODES axial classes or they share neither one z nor one
    x^2 + y^2 + z^2."""
    positions, weights = geometry.axial_terms
    if weights.size <= _NODES:
        return None
    lam = geometry.wavelength
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, z = positions.T / lam
        lateral = x * x + y * y
        norm = lateral + z * z
        scale = max(1.0, float(norm.max()))
        if np.ptp(z) <= _CLASS_TOL * math.sqrt(scale):
            s, height = lateral, z[0]
        elif np.ptp(norm) <= _CLASS_TOL * scale:
            s, height = z, None
        else:
            return None
        # Chebyshev points of the second kind on [min s, max s], with
        # their barycentric weights
        j = np.arange(_NODES)
        low, high = s.min(), s.max()
        nodes = np.clip(0.5 * (high + low) + 0.5 * (high - low) * np.cos(
            math.pi * j / (_NODES - 1)), low, high)
        bary = (-1.0) ** j
        bary[[0, -1]] *= 0.5
        if height is None:
            radius = np.sqrt(np.maximum(norm.mean() - nodes * nodes, 0.0))
            spots = np.column_stack([radius, np.zeros(_NODES), nodes])
        else:
            spots = np.column_stack([np.sqrt(nodes), np.zeros(_NODES),
                                     np.full(_NODES, height)])
        gap = s[:, None] - nodes
        hit = gap == 0.0
        with np.errstate(divide="ignore"):
            lagrange = bary / gap
        lagrange /= lagrange.sum(axis=1, keepdims=True)
        on_node = hit.any(axis=1)
        lagrange[on_node] = hit[on_node]
        if not (np.isfinite(spots).all() and np.isfinite(lagrange).all()):
            return None
        # q = w L, summed down the classes, with no BLAS product
        q = (weights[:, None] * lagrange).sum(axis=0)
        # the kernel and the certificates take the nodes in metres over lambda
        spots = spots * lam
        # at y = 0: a node's x^2 + y^2 is x^2
        u, _, w = spots.T / lam
        # the largest norm of a class, and so of an element
        floor = _REACHES * math.sqrt(norm.max())
    for array in (spots, q, lagrange):
        array.flags.writeable = False
    return _Plan((spots, q), lagrange, (lateral, z), (u * u, w), floor, {})


def _window(plan: _Plan, target: float):
    """(low, high): the z range, in wavelengths, of the on-axis probes whose
    sums for the target at z = target take the node terms; None if none do.
    Found once per target and kept in the plan, at most _TARGETS."""
    windows = plan.windows
    window = windows.get(target, False)
    if window is False:
        window = _bisect_window(plan, target)
        windows[target] = window
        # racing calls may each have added one: the last to add trims
        while len(windows) > _TARGETS:
            windows.clear()
            windows[target] = window
    return window


def _bisect_window(plan: _Plan, target: float):
    """_window's (low, high), uncached: each end is t / (1 -+ f) for the
    largest rung f of _RUNGS, found by bisection, that _certified passes,
    with the target and the end at or beyond the plan's floor."""
    if not abs(target) >= plan.floor:
        return None
    ends = []
    for side in (-1.0, 1.0):
        lo, hi, end = -1, len(_RUNGS), target
        while hi - lo > 1:
            mid = (lo + hi) // 2
            ratio = 1.0 + side * _RUNGS[mid]
            if (ratio > 0.0 and abs(target / ratio) >= plan.floor
                    and _certified(plan, target, target / ratio)):
                lo, end = mid, target / ratio
            else:
                hi = mid
        ends.append(end)
    return (min(ends), max(ends)) if ends[0] != ends[1] else None


def _certified(plan: _Plan, target: float, probe: float) -> bool:
    """Whether the node terms' phasors, interpolated to every class, match
    the class phasors within 8 (2 pi eps) max(|target|, |probe|); nan and
    inf do not pass."""
    lagrange = plan.lagrange
    with np.errstate(over="ignore", invalid="ignore"):
        node = _phasors(*plan.terms, target, probe)
        want = _phasors(*plan.classes, target, probe)
        error = np.hypot((lagrange * node.real).sum(axis=1) - want.real,
                         (lagrange * node.imag).sum(axis=1) - want.imag).max()
    tol = 16.0 * math.pi * np.finfo(float).eps * max(abs(target), abs(probe))
    return bool(error <= tol)


def _axial_routes(geometry: ArrayGeometry, target, probes) -> list:
    """[(positions, weights, rows)]: the terms each on-axis probe sums, the
    axial classes or, for the rows of probes in the target's node window,
    the node terms; target and probes in wavelengths."""
    terms = geometry.axial_terms
    plan = _PLANS.get(geometry, False)
    if plan is False:  # racing first calls make equal plans; one is kept
        plan = _PLANS.setdefault(geometry, _plan(geometry))
    window = None if plan is None else _window(plan, float(target[2]))
    if window is None:
        return [(*terms, slice(None))]
    z = probes[:, 2]
    routed = (window[0] <= z) & (z <= window[1])
    routes = []
    for route, rows in ((terms, ~routed), (plan.nodes, routed)):
        index = np.flatnonzero(rows)
        if index.size:
            # one run of rows, as a sorted sweep gives, is a slice: no copy
            if index[-1] - index[0] == index.size - 1:
                rows = slice(index[0], index[-1] + 1)
            routes.append((*route, rows))
    return routes


def _array_factor(geometry: ArrayGeometry, target, probes) -> np.ndarray:
    """(P,) array factors.  A target and probes all on the z axis sum one
    weighted element per axial class, whose members are equidistant from
    every point there, or the node terms for probes in the target's node
    window; the target is tested first."""
    m = geometry.n_elements
    on_axis = len(probes) and not (target[0] or target[1] or probes[:, :2].any())
    lam = geometry.wavelength
    # a squared distance that overflows (~1e154 lambda away) makes a sum nan
    with np.errstate(over="ignore", invalid="ignore"):
        target, probes = target / lam, probes / lam
        routes = (_axial_routes(geometry, target, probes) if on_axis
                  else [(geometry.elements, 1.0, slice(None))])
        parts = [_phase_sum(elements / lam, weights, target, probes[rows],
                            on_axis) for elements, weights, rows in routes]
    # one route holds every probe; two share them
    out = parts[0]
    if len(parts) > 1:
        out = np.empty(len(probes), dtype=complex)
        for (*_, rows), part in zip(routes, parts):
            out[rows] = part
    if not np.isfinite(out).all():
        raise ValueError("point too far from the array: a phase leaves the "
                         "floating-point range")
    out /= np.sqrt(m)
    return out


def array_factor(geometry: ArrayGeometry, target, probe):
    """Single-aperture factor (1/sqrt(M)) sum_m exp(-j k (d_m(target) - d_m(probe))).

    k = 2 pi / lambda.  target is one point, of shape (3,) or (1, 3).
    probe may be one 3-vector or an (P, 3) stack of probe points; returns a
    complex scalar or a (P,) complex array accordingly.  Peaks at sqrt(M)
    when probe equals target.
    """
    out = _array_factor(geometry, _target(target), _points(probe))
    return complex(out[0]) if np.ndim(probe) == 1 else out


def _power(setup: SensingSetup, target, probes) -> np.ndarray:
    """(P,) normalized power (|AF|^2 / M)^p of the setup's aperture."""
    geometry = setup.aperture
    af = _array_factor(geometry, target, probes)
    return (np.abs(af) ** 2 / geometry.n_elements) ** setup.mode.power_exponent


def normalized_power(setup: SensingSetup, target, probe):
    """|ambiguity|^2 normalized to its probe = target peak, in [0, 1].

    The setup's aperture gives |AF|^2 / M, raised to the mode's exponent p
    (MIMO's double sum over element pairs is the array factor squared).
    target is one point, of shape (3,) or (1, 3); probe may be a 3-vector
    or an (P, 3) stack.
    """
    power = _power(setup, _target(target), _points(probe))
    return float(power[0]) if np.ndim(probe) == 1 else power


def broadside_power_sweep(setup: SensingSetup, target_distance: float, probe_distances):
    """Normalized power for a target on +z and probe distances along +z.

    target_distance must be a real scalar.  On the axis the sum adds one
    element per axial class, weighted by the class size, or the node terms
    for probes in the target's node window.
    """
    distance = _asarray(target_distance)
    if distance.shape or distance.dtype.kind not in "iuf":
        raise ValueError(_ONE_TARGET)
    # probes of the given dtype, which _points checks
    probe_distances = np.ravel(_asarray(probe_distances))
    probes = np.zeros((probe_distances.size, 3), probe_distances.dtype)
    probes[:, 2] = probe_distances
    return _power(setup, _target([0.0, 0.0, distance]), _points(probes))
