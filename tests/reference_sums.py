"""Test-only reference sums: one channel's phase and the literal double sum.

Both compute their own distances, so they share no code with the exact-sum
kernel in nfsense.ambiguity that the tests check against them.
"""

import numpy as np

from nfsense.geometry import SPEED_OF_LIGHT

# points closer than this (in wavelengths) to an element are rejected
MIN_SEPARATION = 1e-6


def channel_phase(element, target, frequency: float) -> complex:
    """One-way propagation factor exp(-j 2 pi (f/c) d) between two points."""
    element = np.asarray(element, dtype=float)
    target = np.asarray(target, dtype=float)
    if not (np.all(np.isfinite(element)) and np.all(np.isfinite(target))):
        raise ValueError("points must have finite coordinates")
    d = float(np.linalg.norm(target - element))
    wavelength = SPEED_OF_LIGHT / frequency
    if d < MIN_SEPARATION * wavelength:
        raise ValueError(f"target coincides with element (distance {d:.3e})")
    return complex(np.exp(-2j * np.pi * frequency / SPEED_OF_LIGHT * d))


def _distances(geometry, point) -> np.ndarray:
    """(M,) distances from one point to each element, coincidence checked."""
    point = np.asarray(point, dtype=float)
    if point.shape != (3,) or not np.all(np.isfinite(point)):
        raise ValueError("point must be a finite 3-vector")
    d = np.linalg.norm(point - geometry.elements, axis=1)
    if d.min() < MIN_SEPARATION * geometry.wavelength:
        raise ValueError("point coincides with an array element")
    return d


def ambiguity(setup, target, probe) -> complex:
    """Matched-filter response (1/sqrt(MN)) sum_m sum_n h_mn(target) h_mn*(probe).

    Evaluated as the literal double sum over transmit-receive element pairs;
    peaks at sqrt(M N) when probe equals target.
    """
    k = 2.0 * np.pi * setup.frequency / SPEED_OF_LIGHT
    delta_tx = _distances(setup.tx, target) - _distances(setup.tx, probe)
    delta_rx = _distances(setup.rx, target) - _distances(setup.rx, probe)
    total = np.exp(-1j * k * (delta_tx[:, None] + delta_rx[None, :])).sum()
    return complex(total / np.sqrt(setup.tx.n_elements * setup.rx.n_elements))
