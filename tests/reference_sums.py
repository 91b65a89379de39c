"""Test-only reference sums: the dense array factor, the literal double sum
and the exact-sum kernel's arithmetic with broadcast coordinate differences.

They take lambda from the layout (k = 2 pi / lambda), compute their own
distances and share no code with the exact-sum kernel in
nfsense.ambiguity.  On the axis broadcast_array_factor sums each probe over
the terms nfsense.ambiguity._axial_routes gives it: geometry.axial_terms,
the library's class grouping, which test_geometry.py::TestAxialClasses
checks against its index oracle, or, in the target's node window, the node
terms of the layout's plan in nfsense.ambiguity._PLANS, which
test_ambiguity.py::TestAxialNodes checks against the dense sum.
"""

import numpy as np

from nfsense.ambiguity import _axial_routes

# points closer than this (in wavelengths) to an element are rejected
MIN_SEPARATION = 1e-6


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


def dense_array_factor(geometry, target, probe):
    """(1/sqrt(M)) sum_m exp(-j k (d_m(target) - d_m(probe))) over every element.

    A (P, M, 3) difference array and a complex exponent per chunk of probes;
    probe is one 3-vector (complex result) or a (P, 3) stack ((P,) result).
    """
    k = 2.0 * np.pi / geometry.wavelength
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
    af_tx = dense_array_factor(setup.tx, target, probes)
    af_rx = af_tx if setup.rx is setup.tx else \
        dense_array_factor(setup.rx, target, probes)
    return (np.abs(af_tx) ** 2 / setup.tx.n_elements) \
        * (np.abs(af_rx) ** 2 / setup.rx.n_elements)


def ambiguity(setup, target, probe) -> complex:
    """Matched-filter response (1/sqrt(MN)) sum_m sum_n h_mn(target) h_mn*(probe).

    Evaluated as the literal double sum over transmit-receive element pairs;
    peaks at sqrt(M N) when probe equals target.
    """
    k = 2.0 * np.pi / setup.aperture.wavelength
    delta_tx = _distances(setup.tx, target)[0] - _distances(setup.tx, probe)[0]
    delta_rx = _distances(setup.rx, target)[0] - _distances(setup.rx, probe)[0]
    total = np.exp(-1j * k * (delta_tx[:, None] + delta_rx[None, :])).sum()
    return complex(total / np.sqrt(setup.tx.n_elements * setup.rx.n_elements))


def broadcast_array_factor(geometry, target, probes) -> np.ndarray:
    """(P,) array factors by the exact-sum kernel's arithmetic, all probes
    at once on one thread, each coordinate difference a broadcast
    subtraction p_a - e_a.

    The kernel's steps in its order: every point divided by lambda, the
    class or node terms of each probe for points all on the z axis, the
    squares added in x, y, z order, the rint-reduced phase in cycles, the
    half-angle tangent and the ascending row sums.  Points are not checked.
    """
    lam = geometry.wavelength
    target = np.asarray(target, dtype=float).reshape(3)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    m = geometry.n_elements
    on_axis = len(probes) and not (target[0] or target[1] or probes[:, :2].any())
    target, probes = target / lam, probes / lam
    routes = (_axial_routes(geometry, target, probes) if on_axis
              else [(geometry.elements, np.ones(m), slice(None))])
    out = np.empty(len(probes), dtype=complex)
    for elements, weights, rows in routes:
        ex, ey, ez = np.ascontiguousarray(elements.T) / lam
        p = probes[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            d_target = np.sqrt((target[0] - ex) ** 2 + (target[1] - ey) ** 2
                               + (target[2] - ez) ** 2)
            d = np.square(p[:, 0:1] - ex)
            d += np.square(p[:, 1:2] - ey)
            d += np.square(p[:, 2:3] - ez)
            c = d_target - np.sqrt(d)
            t = np.tan((c - np.rint(c)) * np.pi)
            scale = 2.0 * weights / (np.square(t) + 1.0)
            out.imag[rows] = -(t * scale).sum(axis=1)
            out.real[rows] = (scale - weights).sum(axis=1)
    out /= np.sqrt(m)
    return out


def broadcast_power(setup, af) -> np.ndarray:
    """(P,) normalized power (|AF|^2 / M)^p from the broadcast_array_factor
    values af of the setup's aperture."""
    return (np.abs(af) ** 2 / setup.aperture.n_elements) \
        ** setup.mode.power_exponent
