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
element with weight 1.  A target is one point.
"""

from __future__ import annotations

import os

import numpy as np

from .geometry import ArrayGeometry, SensingSetup, _asarray

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


def _array_factor(geometry: ArrayGeometry, target, probes) -> np.ndarray:
    """(P,) array factors.  A target and probes all on the z axis sum one
    weighted element per axial class, whose members are equidistant from
    every point there; the target is tested first."""
    m = geometry.n_elements
    on_axis = len(probes) and not (target[0] or target[1] or probes[:, :2].any())
    elements, weights = (geometry.axial_terms if on_axis
                         else (geometry.elements, 1.0))
    lam = geometry.wavelength
    # a squared distance that overflows (~1e154 lambda away) makes a sum nan
    with np.errstate(over="ignore", invalid="ignore"):
        out = _phase_sum(elements / lam, weights, target / lam, probes / lam,
                         on_axis)
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
    element per axial class, weighted by the class size.
    """
    distance = _asarray(target_distance)
    if distance.shape or distance.dtype.kind not in "iuf":
        raise ValueError(_ONE_TARGET)
    # probes of the given dtype, which _points checks
    probe_distances = np.ravel(_asarray(probe_distances))
    probes = np.zeros((probe_distances.size, 3), probe_distances.dtype)
    probes[:, 2] = probe_distances
    return _power(setup, _target([0.0, 0.0, distance]), _points(probes))
