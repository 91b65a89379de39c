"""Antenna array geometry builders.

All arrays are centered on the origin and use the densest allowed element
spacing (lambda/2) so the discrete layouts track their continuous-aperture
approximations as closely as possible.  A builder takes its count and its
positions in wavelengths from D / lambda alone, centres them there and
scales them to metres once: a layout is the lambda = 1 one times lambda.

Frame convention: the evaluation axis (broadside) is +z.  The ULA lies on
the x axis, the URA and UPCA span the x-y plane.  The UCA is placed in the
x-z plane (ring normal along y): a ring seen face-on has every element
equidistant from any on-axis point and therefore no range selectivity at
all, so the ring must be edge-on to the axis it resolves ranges along.

On the +z axis an element's distance depends only on (x^2 + y^2, z).
ArrayGeometry.axial_terms sorts the elements on that key, in units of the
larger of lambda and the largest coordinate, and starts a new class where
it steps by more than _CLASS_TOL; a class that such steps stretch further
from its first key is split into single elements.  This finds the ULA's
mirror pairs, the URA's and UPCA's rings and an even UCA's +-x mirror
pairs, of a built or a hand-built layout alike.  A class's term is its
lowest-index element weighted by its size; terms are kept in index order.
They are derived on a geometry's first on-axis exact sum, whichever entry
point of nfsense.ambiguity it comes through, and never for an off-axis one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "MAX_ELEMENTS",
    "GeometryKind",
    "ProcessingMode",
    "ArrayGeometry",
    "SensingSetup",
    "build_ula",
    "build_uca",
    "build_ura",
    "build_upca",
    "build_array",
    "fraunhofer_distance",
    "simo_miso_setup",
    "mimo_setup",
]

SPEED_OF_LIGHT = 299792458.0
"Speed of light in m/s."

# absolute slack on the lambda/2 spacing ceiling and on centering checks
_TOL = 1e-9

# slack on (x^2 + y^2, z) within one axial class, relative to the extent
_CLASS_TOL = 1e-12

# the smallest normal float: a product below it has lost digits
_TINY = np.finfo(float).tiny

MAX_ELEMENTS = 1_000_000
"Largest element count a builder accepts; it is checked before allocation."


class GeometryKind(Enum):
    """The four supported array layouts (closed forms: nfsense.closed_form)."""

    ULA = "ula"
    UCA = "uca"
    URA = "ura"
    UPCA = "upca"


class ProcessingMode(Enum):
    """Single aperture (SIMO/MISO) or two identical collocated apertures."""

    SIMO_MISO = 1
    MIMO = 2

    @property
    def power_exponent(self) -> int:
        """Power to raise the single-aperture |AF|^2 to: 1 or 2."""
        return self.value


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """Immutable element layout; every other value is derived from it.

    kind is a GeometryKind, or None for SensingSetup.tx's single element
    and a layout of no supported kind.  The wavelength, a finite positive
    real, is kept as a float; elements, a non-empty (M, 3) array of finite
    values, as a read-only float copy.  aperture is computed once from
    them: a ULA's length, a URA's diagonal, else twice the largest norm.
    """

    kind: GeometryKind | None
    wavelength: float
    elements: np.ndarray
    aperture: float = field(init=False)

    def __post_init__(self):
        if not (self.kind is None or isinstance(self.kind, GeometryKind)):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        object.__setattr__(self, "wavelength", _real(self.wavelength, "wavelength"))
        e = self.elements
        if not (isinstance(e, np.ndarray) and e.dtype.kind in "iuf"
                and e.ndim == 2 and e.shape[0] > 0 and e.shape[1] == 3
                and np.isfinite(e).all()):
            raise ValueError("elements must be a non-empty (M, 3) array of "
                             "finite positions")
        e = e.astype(float)
        e.setflags(write=False)
        object.__setattr__(self, "elements", e)
        # measured on the elements over 2**k, k the largest coordinate's
        # binary exponent, so no square overflows; 2**k scales back exactly
        k = math.frexp(float(np.abs(e).max()))[1]
        unit = np.ldexp(e, -k)
        if self.kind is GeometryKind.ULA:
            extent = float(np.ptp(unit[:, 0]))
        elif self.kind is GeometryKind.URA:
            extent = math.hypot(*np.ptp(unit[:, :2], axis=0))
        else:
            extent = float(2.0 * np.linalg.norm(unit, axis=1).max())
        try:
            object.__setattr__(self, "aperture", math.ldexp(extent, k))
        except OverflowError:
            raise ValueError(f"{getattr(self.kind, 'name', 'array')} aperture "
                             f"overflows at lambda = {self.wavelength:g} m") from None

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @cached_property
    def axial_terms(self) -> tuple:
        """Read-only (K, 3) positions and (K,) float weights of the K axial
        classes (see the module docstring), derived on first access: the
        first exact sum with its target and probes on the z axis, through
        any entry point.  Off-axis sums never read them."""
        unit = self.elements / max(self.wavelength,
                                   float(np.abs(self.elements).max()))
        r2, z = unit[:, 0] ** 2 + unit[:, 1] ** 2, unit[:, 2]
        order = np.argsort(r2)
        ring = np.cumsum(np.diff(r2[order], prepend=-np.inf) > _CLASS_TOL)
        within = np.lexsort((z[order], ring))
        order, ring = order[within], ring[within]
        r2, z = r2[order], z[order]
        start = ((np.diff(z, prepend=-np.inf) > _CLASS_TOL)
                 | (np.diff(ring, prepend=0) != 0))
        label = np.cumsum(start)
        first = np.flatnonzero(start)[label - 1]
        stray = np.maximum(abs(r2 - r2[first]), abs(z - z[first])) > _CLASS_TOL
        start |= np.isin(label, label[stray])
        heads = np.flatnonzero(start)
        lowest = np.minimum.reduceat(order, heads)
        rank = np.argsort(lowest)
        positions = self.elements[lowest[rank]]
        weights = np.diff(heads, append=order.size)[rank].astype(float)
        positions.flags.writeable = weights.flags.writeable = False
        return positions, weights


def _asarray(value) -> np.ndarray:
    """np.asarray(value); for a ragged sequence, where numpy raises its own
    ValueError, an object array, which every numeric check rejects."""
    try:
        return np.asarray(value)
    except ValueError:
        return np.array(value, dtype=object)


def _real(value, name: str, positive=True, scalar=True):
    """value as a float, or as a float64 array (not a copy of one) unless
    scalar; ValueError naming it unless its dtype is int or float (not bool,
    str, bytes or complex) and it is finite, and positive and scalar as asked."""
    array = _asarray(value)
    low = 0.0 if positive else -math.inf  # min and max are nan if one is
    if (array.dtype.kind not in "iuf" or scalar and array.shape
            or array.size and not low < array.min() <= array.max() < math.inf):
        rule = "finite and positive" if positive else "finite"
        raise ValueError(f"{name} must be {rule} (a real scalar), got {value!r}"
                         if scalar else f"{name} must be {rule}")
    return float(array) if scalar else array.astype(float, copy=False)


def _check_count(kind, count, aperture: float, wavelength: float) -> int:
    """Float element count (inf too) as an int; ValueError above MAX_ELEMENTS."""
    if not count <= MAX_ELEMENTS:
        raise ValueError(f"{kind.name} with D = {aperture:g} m at lambda = "
                         f"{wavelength:g} m exceeds {MAX_ELEMENTS} elements")
    return int(count)


def _finish(kind, wavelength, pos) -> ArrayGeometry:
    """The layout of pos, in wavelengths, centred there and scaled to metres."""
    return ArrayGeometry(kind, wavelength, (pos - pos.mean(axis=0)) * wavelength)


def build_ula(aperture: float, wavelength: float) -> ArrayGeometry:
    """Uniform linear array on the x axis, spacing exactly lambda/2.

    Element count is floor(2 D / lambda) + 1.
    """
    wavelength = _real(wavelength, "wavelength")
    aperture = _real(aperture, "aperture", positive=False)
    size = aperture / wavelength
    if not size >= 0.5:
        raise ValueError(f"ULA aperture must be >= lambda/2, got {aperture}")
    n = _check_count(GeometryKind.ULA, np.floor(2.0 * size + _TOL) + 1,
                     aperture, wavelength)
    pos = np.zeros((n, 3))
    pos[:, 0] = (np.arange(n) - (n - 1) / 2.0) * 0.5
    return _finish(GeometryKind.ULA, wavelength, pos)


def build_uca(diameter: float, wavelength: float) -> ArrayGeometry:
    """Uniform circular array of the given diameter, edge-on to +z.

    Elements sit in the x-z plane, equally spaced on the circle with arc
    spacing <= lambda/2 (count = ceil(pi D / (lambda/2))).
    """
    wavelength = _real(wavelength, "wavelength")
    diameter = _real(diameter, "diameter", positive=False)
    size = diameter / wavelength
    if not size >= 0.5:
        raise ValueError(f"UCA diameter must be >= lambda/2, got {diameter}")
    n = _check_count(GeometryKind.UCA, np.ceil(2.0 * math.pi * size - _TOL),
                     diameter, wavelength)
    theta = 2.0 * math.pi * np.arange(n) / n
    pos = np.column_stack([0.5 * size * np.cos(theta), np.zeros(n),
                           0.5 * size * np.sin(theta)])
    return _finish(GeometryKind.UCA, wavelength, pos)


def build_ura(diagonal: float, wavelength: float) -> ArrayGeometry:
    """Square array in the x-y plane, sized by its diagonal.

    Per-axis spacing is exactly lambda/2, per-axis count
    floor(sqrt(2) D / lambda) + 1.
    """
    wavelength = _real(wavelength, "wavelength")
    diagonal = _real(diagonal, "diagonal", positive=False)
    size = diagonal / wavelength
    if not size >= 1.0 / math.sqrt(2):
        raise ValueError(f"URA diagonal must be >= lambda/sqrt(2), got {diagonal}")
    n = float(np.floor(math.sqrt(2.0) * size + _TOL)) + 1
    _check_count(GeometryKind.URA, n * n, diagonal, wavelength)
    n = int(n)
    grid = (np.arange(n) - (n - 1) / 2.0) * 0.5
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    pos = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(n * n)])
    return _finish(GeometryKind.URA, wavelength, pos)


def build_upca(diameter: float, wavelength: float) -> ArrayGeometry:
    """Planar circular array: concentric rings in the x-y plane.

    A center element plus rings at radial pitch lambda/2 out to D/2, ring
    i at r = i lambda/2 populated with ceil(2 pi r / (lambda/2)) =
    ceil(2 pi i) elements so the arc spacing never exceeds lambda/2.
    """
    wavelength = _real(wavelength, "wavelength")
    diameter = _real(diameter, "diameter", positive=False)
    size = diameter / wavelength
    if not size >= 1.0:
        raise ValueError(f"UPCA diameter must be >= lambda, got {diameter}")
    n_rings = float(np.floor(size + _TOL))
    # ring i holds at least 2 pi i elements: bound the ring count first
    _check_count(GeometryKind.UPCA, math.pi * n_rings * n_rings, diameter,
                 wavelength)
    # 2 pi i stays 6e-5 or more from an integer for every i <= 564, the
    # bound above, and no wavelength enters it
    counts = [math.ceil(2.0 * math.pi * i - _TOL)
              for i in range(1, int(n_rings) + 1)]
    _check_count(GeometryKind.UPCA, 1 + sum(counts), diameter, wavelength)
    chunks = [np.zeros((1, 3))]
    for i, count in enumerate(counts, 1):
        r = 0.5 * i
        theta = 2.0 * math.pi * np.arange(count) / count
        chunks.append(np.column_stack([r * np.cos(theta), r * np.sin(theta),
                                       np.zeros(count)]))
    return _finish(GeometryKind.UPCA, wavelength, np.vstack(chunks))


_BUILDERS = {
    GeometryKind.ULA: build_ula,
    GeometryKind.UCA: build_uca,
    GeometryKind.URA: build_ura,
    GeometryKind.UPCA: build_upca,
}


def build_array(kind: GeometryKind, aperture: float, wavelength: float) -> ArrayGeometry:
    """Build any layout by kind; aperture is the kind's D (see builders).

    Every builder raises ValueError, before allocating, for more than
    MAX_ELEMENTS elements, a wavelength that is not finite and positive
    and an aperture that is not finite or is below the kind's minimum.
    """
    if not isinstance(kind, GeometryKind):
        raise ValueError(f"unknown geometry kind {kind!r}")
    return _BUILDERS[kind](aperture, wavelength)


def _fraunhofer(aperture: float, wavelength: float) -> float:
    """2 D^2 / lambda; D^2 is D * D on any libm.  ValueError where D^2 or
    the result is below the normal floats, with its digits lost, or where
    the result overflows."""
    square = aperture * aperture
    distance = 2.0 * square / wavelength
    if not (_TINY <= min(square, distance) and distance < math.inf):
        raise ValueError(f"2 D^2 / lambda for D = {aperture:g} m is out of "
                         "floating-point range")
    return distance


def fraunhofer_distance(geometry: ArrayGeometry) -> float:
    """Far-field boundary 2 D^2 / lambda; ValueError outside the float range."""
    return _fraunhofer(geometry.aperture, geometry.wavelength)


@dataclass(frozen=True)
class SensingSetup:
    """One aperture and the processing mode: all the exact power reads.

    The aperture receives.  Under MIMO it also transmits; under SIMO/MISO
    one element at the origin does, whose |AF|^2 is 1.  tx, rx and
    frequency are views derived from the two fields.
    """

    aperture: ArrayGeometry
    mode: ProcessingMode

    def __post_init__(self):
        if not isinstance(self.aperture, ArrayGeometry):
            raise ValueError(f"aperture must be an ArrayGeometry, got {self.aperture!r}")
        if not isinstance(self.mode, ProcessingMode):
            raise ValueError(f"unknown processing mode {self.mode!r}")

    @cached_property
    def tx(self) -> ArrayGeometry:
        """The aperture under MIMO, else one element at the origin.

        The element is built on the first access and kept with the setup.
        """
        if self.mode is ProcessingMode.MIMO:
            return self.aperture
        return ArrayGeometry(None, self.aperture.wavelength, np.zeros((1, 3)))

    @property
    def rx(self) -> ArrayGeometry:
        """The aperture."""
        return self.aperture

    @property
    def frequency(self) -> float:
        """Carrier frequency c / lambda in Hz, derived from the wavelength."""
        return SPEED_OF_LIGHT / self.aperture.wavelength


def simo_miso_setup(aperture: ArrayGeometry) -> SensingSetup:
    """Single-aperture link: one transmit element, the array on receive."""
    return SensingSetup(aperture, ProcessingMode.SIMO_MISO)


def mimo_setup(aperture: ArrayGeometry) -> SensingSetup:
    """Monostatic MIMO link: the same aperture transmits and receives."""
    return SensingSetup(aperture, ProcessingMode.MIMO)
