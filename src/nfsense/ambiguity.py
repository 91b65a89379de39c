"""Exact narrowband ambiguity function by direct summation.

Distances are full Euclidean norms and no series approximation is applied,
so this is the ground truth for the closed forms.  A setup's power is one
sum over its aperture, |AF|^2 / M, raised to the mode's exponent: the single
element of a SIMO/MISO link has |AF|^2 = 1, and MIMO squares the power.

Every sum runs through one kernel.  It walks the probes in blocks of about
_BLOCK_PAIRS element-probe pairs, adds the squared coordinate differences of
a block in place and takes the square root.  The phase in cycles,
c = (d_m(target) - d_m(probe)) / lambda, is reduced to [-1/2, 1/2] by
subtracting rint(c), which is exact, so the phase error does not grow with
range.  One tangent of the half angle, t = tan(pi c), then gives the
weighted phasor: w cos = 2w / (1 + t^2) - w and w sin = t 2w / (1 + t^2).
On that interval numpy's tan is vectorized, where cos and sin of the raw
phase need a full range reduction each.  The terms are summed over the
elements in ascending order, so sums are bit-reproducible run to run.  A
call of more than _BLOCK_PAIRS pairs runs on the calling thread and a
thread pool, one thread per CPU of the affinity mask in all, each taking
the next row block when it is free; every pool thread is joined before an
error is re-raised.  A
probe's sum is the same row sum whatever block or thread holds it, so the
bits do not depend on the split, and no setting selects it.  Off broadside
every weight is 1.  On the +z axis an element's distance depends only on
(x^2 + y^2, z), so broadside_power_sweep sums the first element of each
axial class of the geometry (ArrayGeometry.axial_class) weighted by the
class size, at its exact position, and normalizes by the full element count.
"""

from __future__ import annotations

import os

import numpy as np

from .geometry import ArrayGeometry, SensingSetup

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


def _points(points) -> np.ndarray:
    """(P, 3) float array of finite points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3 or not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite 3-vectors")
    return pts


def _phase_sum(elements, weights, inv_wavelength: float, target, probes,
               min_distance: float) -> np.ndarray:
    """(P,) sums of w_m exp(-2 pi j c_m) over the elements, with the phase
    in cycles c_m = (d_m(target) - d_m(probe)) / lambda.

    Raises ValueError if the target or a probe lies within min_distance of
    an element.
    """
    ex, ey, ez = np.ascontiguousarray(elements.T)
    d_target = np.sqrt((target[0] - ex) ** 2 + (target[1] - ey) ** 2
                       + (target[2] - ez) ** 2)
    if d_target.min() < min_distance:
        raise ValueError("point coincides with an array element")
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

    def run():
        # a pool thread starts from numpy's default errstate, not the caller's
        with np.errstate(over="ignore", invalid="ignore"):
            dist, term = np.empty((2, rows, m))
            for lo in blocks:
                block = probes[lo:lo + rows]
                d, t = dist[:len(block)], term[:len(block)]
                np.subtract(block[:, 0:1], ex, out=d)
                np.square(d, out=d)
                for axis, coord in ((1, ey), (2, ez)):
                    np.subtract(block[:, axis:axis + 1], coord, out=t)
                    np.square(t, out=t)
                    d += t
                np.sqrt(d, out=d)
                if d.min() < min_distance:
                    raise ValueError("point coincides with an array element")
                # c - rint(c) is exact and lies in [-1/2, 1/2], so the
                # half angle pi c stays off the tangent's poles
                np.subtract(d_target, d, out=d)
                d *= inv_wavelength
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
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(run) for _ in range(workers - 1)]
        run()
    for future in futures:
        future.result()
    return out


def _array_factor(geometry: ArrayGeometry, target, probes,
                  axial: bool = False) -> np.ndarray:
    """(P,) array factors; axial=True sums one weighted element per class,
    which is exact only for a target and probes on +z."""
    m = geometry.n_elements
    if axial:
        _, first, counts = np.unique(geometry.axial_class, return_index=True,
                                     return_counts=True)
        order = np.argsort(first)
        elements = geometry.elements[first[order]]
        weights = counts[order].astype(float)
    else:
        elements, weights = geometry.elements, np.ones(m)
    # a squared distance that overflows (~1e154 away) makes a sum nan
    with np.errstate(over="ignore", invalid="ignore"):
        out = _phase_sum(elements, weights, 1.0 / geometry.wavelength, target,
                         probes, _MIN_SEPARATION * geometry.wavelength)
    if not np.isfinite(out).all():
        raise ValueError("point too far from the array: a phase leaves the "
                         "floating-point range")
    out /= np.sqrt(m)
    return out


def array_factor(geometry: ArrayGeometry, target, probe):
    """Single-aperture factor (1/sqrt(M)) sum_m exp(-j k (d_m(target) - d_m(probe))).

    k = 2 pi / lambda.  probe may be one 3-vector or an (P, 3) stack of
    probe points; returns a complex scalar or a (P,) complex array
    accordingly.  Peaks at sqrt(M) when probe equals target.
    """
    probe = np.asarray(probe, dtype=float)
    out = _array_factor(geometry, _points(target)[0], _points(probe))
    if probe.ndim == 1:
        return complex(out[0])
    return out


def _power(setup: SensingSetup, target, probes, axial: bool = False) -> np.ndarray:
    """(P,) normalized power (|AF|^2 / M)^p of the setup's aperture."""
    geometry = setup.aperture
    af = _array_factor(geometry, target, probes, axial)
    return (np.abs(af) ** 2 / geometry.n_elements) ** setup.mode.power_exponent


def normalized_power(setup: SensingSetup, target, probe):
    """|ambiguity|^2 normalized to its probe = target peak, in [0, 1].

    The setup's aperture gives |AF|^2 / M, raised to the mode's exponent p
    (MIMO's double sum over element pairs is the array factor squared).
    probe may be a 3-vector or an (P, 3) stack.
    """
    probe = np.asarray(probe, dtype=float)
    power = _power(setup, _points(target)[0], _points(probe))
    if probe.ndim == 1:
        return float(power[0])
    return power


def broadside_power_sweep(setup: SensingSetup, target_distance: float, probe_distances):
    """Normalized power for a target on +z and probe distances along +z.

    Sums one element per axial class, weighted by the class size.
    """
    probe_distances = np.asarray(probe_distances, dtype=float)
    target = np.array([0.0, 0.0, target_distance])
    probes = np.zeros((probe_distances.size, 3))
    probes[:, 2] = probe_distances.ravel()
    return _power(setup, _points(target)[0], _points(probes), axial=True)
