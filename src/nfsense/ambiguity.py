"""Exact narrowband ambiguity function by direct summation.

Distances are full Euclidean norms; no series approximation is applied
anywhere in this module, which makes it the ground truth the closed forms
are validated against.  Element order is fixed (ascending index) so sums
are bit-reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from .geometry import SPEED_OF_LIGHT, ArrayGeometry, SensingSetup

__all__ = [
    "array_factor",
    "normalized_power",
]

# probe points closer than this (in wavelengths) to an element are rejected
_MIN_SEPARATION = 1e-6

# probe-sweep chunk size, in element-point pairs
_CHUNK_PAIRS = 4_000_000


def _distances(geometry: ArrayGeometry, points) -> np.ndarray:
    """(P, M) distances from each point to each element, coincidence checked."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != 3 or not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite 3-vectors")
    d = np.linalg.norm(pts[:, None, :] - geometry.elements[None, :, :], axis=2)
    if d.min() < _MIN_SEPARATION * geometry.wavelength:
        raise ValueError("point coincides with an array element")
    return d


def array_factor(geometry: ArrayGeometry, target, probe, frequency: float | None = None):
    """Single-aperture factor (1/sqrt(M)) sum_m exp(-j k (d_m(target) - d_m(probe))).

    probe may be one 3-vector or an (P, 3) stack of probe points; returns a
    complex scalar or a (P,) complex array accordingly.  Peaks at sqrt(M)
    when probe equals target.
    """
    if frequency is None:
        frequency = SPEED_OF_LIGHT / geometry.wavelength
    k = 2.0 * np.pi * frequency / SPEED_OF_LIGHT
    probe = np.asarray(probe, dtype=float)
    scalar = probe.ndim == 1
    d_target = _distances(geometry, target)[0]
    probes = np.atleast_2d(probe)
    m = geometry.n_elements
    out = np.empty(probes.shape[0], dtype=complex)
    step = max(1, _CHUNK_PAIRS // m)
    for lo in range(0, probes.shape[0], step):
        d_probe = _distances(geometry, probes[lo:lo + step])
        out[lo:lo + step] = np.exp(-1j * k * (d_target[None, :] - d_probe)).sum(axis=1)
    out /= np.sqrt(m)
    if scalar:
        return complex(out[0])
    return out


def normalized_power(setup: SensingSetup, target, probe):
    """|ambiguity|^2 normalized to its probe = target peak, in [0, 1].

    Uses the factorization into transmit and receive array factors, so a
    MIMO sweep costs one aperture evaluation (squared) rather than the
    M^2 N^2 double sum.  probe may be a 3-vector or an (P, 3) stack.
    """
    af_tx = array_factor(setup.tx, target, probe, setup.frequency)
    if setup.rx is setup.tx:
        af_rx = af_tx
    else:
        af_rx = array_factor(setup.rx, target, probe, setup.frequency)
    power = (np.abs(af_tx) ** 2 / setup.tx.n_elements) \
        * (np.abs(af_rx) ** 2 / setup.rx.n_elements)
    if np.ndim(power) == 0:
        return float(power)
    return power


def broadside_power_sweep(setup: SensingSetup, target_distance: float, probe_distances):
    """Normalized power for a target on +z and probe distances along +z."""
    probe_distances = np.asarray(probe_distances, dtype=float)
    target = np.array([0.0, 0.0, target_distance])
    probes = np.zeros((probe_distances.size, 3))
    probes[:, 2] = probe_distances.ravel()
    return normalized_power(setup, target, probes)
