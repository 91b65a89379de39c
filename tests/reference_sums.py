"""Test-only reference sums: one channel's phase, the dense array factor and
the literal double sum.

They compute their own distances, so they share no code with the exact-sum
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


# probe-sweep chunk size of the dense sum, in element-point pairs
_CHUNK_PAIRS = 4_000_000


def _distances(geometry, points) -> np.ndarray:
    """(P, M) distances from each point to each element, coincidence checked."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != 3 or not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite 3-vectors")
    d = np.linalg.norm(pts[:, None, :] - geometry.elements[None, :, :], axis=2)
    if d.min() < MIN_SEPARATION * geometry.wavelength:
        raise ValueError("point coincides with an array element")
    return d


def dense_array_factor(geometry, target, probe, frequency=None):
    """(1/sqrt(M)) sum_m exp(-j k (d_m(target) - d_m(probe))) over every element.

    A (P, M, 3) difference array and a complex exponent per chunk of probes;
    probe is one 3-vector (complex result) or a (P, 3) stack ((P,) result).
    """
    if frequency is None:
        frequency = SPEED_OF_LIGHT / geometry.wavelength
    k = 2.0 * np.pi * frequency / SPEED_OF_LIGHT
    probe = np.asarray(probe, dtype=float)
    d_target = _distances(geometry, target)[0]
    probes = np.atleast_2d(probe)
    m = geometry.n_elements
    out = np.empty(probes.shape[0], dtype=complex)
    step = max(1, _CHUNK_PAIRS // m)
    for lo in range(0, probes.shape[0], step):
        d_probe = _distances(geometry, probes[lo:lo + step])
        out[lo:lo + step] = np.exp(-1j * k * (d_target[None, :] - d_probe)).sum(axis=1)
    out /= np.sqrt(m)
    if probe.ndim == 1:
        return complex(out[0])
    return out


def dense_power(setup, target, probes) -> np.ndarray:
    """Normalized power |AF_tx|^2 |AF_rx|^2 / (M N) from the dense sums."""
    af_tx = dense_array_factor(setup.tx, target, probes, setup.frequency)
    af_rx = af_tx if setup.rx is setup.tx else \
        dense_array_factor(setup.rx, target, probes, setup.frequency)
    return (np.abs(af_tx) ** 2 / setup.tx.n_elements) \
        * (np.abs(af_rx) ** 2 / setup.rx.n_elements)


def ambiguity(setup, target, probe) -> complex:
    """Matched-filter response (1/sqrt(MN)) sum_m sum_n h_mn(target) h_mn*(probe).

    Evaluated as the literal double sum over transmit-receive element pairs;
    peaks at sqrt(M N) when probe equals target.
    """
    k = 2.0 * np.pi * setup.frequency / SPEED_OF_LIGHT
    delta_tx = _distances(setup.tx, target)[0] - _distances(setup.tx, probe)[0]
    delta_rx = _distances(setup.rx, target)[0] - _distances(setup.rx, probe)[0]
    total = np.exp(-1j * k * (delta_tx[:, None] + delta_rx[None, :])).sum()
    return complex(total / np.sqrt(setup.tx.n_elements * setup.rx.n_elements))
