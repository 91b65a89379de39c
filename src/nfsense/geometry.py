"""Antenna array layouts and sensing setups.

build_array is the one layout builder.  Every layout is centred on the
origin and uses the densest allowed element spacing (lambda/2) so the
discrete layouts track their continuous-aperture approximations as
closely as possible.  Each kind is one row of _BUILDERS: the name of its
size D, its smallest D / lambda, and a function that gives its positions
in wavelengths from D / lambda alone.  build_array checks the inputs,
centres those positions and scales them to metres once: a layout is the
lambda = 1 one times lambda.

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

# the smallest normal float: a length or product below it has lost digits
_TINY = np.finfo(float).tiny

MAX_ELEMENTS = 1_000_000
"Largest element count build_array accepts; it is checked before allocation."


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
    and a layout of no supported kind.  The wavelength, a finite real no less
    than 2**-1022, is kept as a float; elements, a non-empty (M, 3) array of
    finite values, as a read-only float copy.  aperture is computed once from
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
        if self.wavelength < _TINY:  # a subnormal lambda has itself lost bits
            raise ValueError("wavelength must be a normal float, "
                             f"got {self.wavelength:g}")
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


# Each kind's positions in wavelengths from size = D / lambda.  count(n)
# returns a float count as an int, or raises above MAX_ELEMENTS, before
# anything of that size is allocated.

def _ula(size, count):
    n = count(np.floor(2.0 * size + _TOL) + 1)
    pos = np.zeros((n, 3))
    pos[:, 0] = np.arange(n) * 0.5
    return pos


def _uca(size, count):
    n = count(np.ceil(2.0 * math.pi * size - _TOL))
    theta = 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([0.5 * size * np.cos(theta), np.zeros(n),
                            0.5 * size * np.sin(theta)])


def _ura(size, count):
    n = float(np.floor(math.sqrt(2.0) * size + _TOL)) + 1
    count(n * n)
    n = int(n)
    grid = np.arange(n) * 0.5
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(n * n)])


def _upca(size, count):
    n_rings = float(np.floor(size + _TOL))
    # ring i holds at least 2 pi i elements: bound the ring count first
    count(math.pi * n_rings * n_rings)
    ring = np.arange(1, int(n_rings) + 1)
    # 2 pi i stays 6e-5 or more from an integer for every i <= 564, the
    # bound above, and no wavelength enters it
    per_ring = np.ceil(2.0 * math.pi * ring - _TOL).astype(int)
    n = count(1 + per_ring.sum())
    # element k of ring i sits at angle 2 pi k / per_ring[i], radius i / 2
    index = np.arange(n - 1) - np.repeat(
        np.cumsum(per_ring) - per_ring, per_ring)
    theta = 2.0 * math.pi * index / np.repeat(per_ring, per_ring)
    radius = 0.5 * np.repeat(ring, per_ring)
    pos = np.zeros((n, 3))
    pos[1:, 0], pos[1:, 1] = radius * np.cos(theta), radius * np.sin(theta)
    return pos


# per kind: the name of its D, the smallest D / lambda in words and as a
# number, and its positions in wavelengths from D / lambda
_BUILDERS = {
    GeometryKind.ULA: ("aperture", "lambda/2", 0.5, _ula),
    GeometryKind.UCA: ("diameter", "lambda/2", 0.5, _uca),
    GeometryKind.URA: ("diagonal", "lambda/sqrt(2)", 1.0 / math.sqrt(2), _ura),
    GeometryKind.UPCA: ("diameter", "lambda", 1.0, _upca),
}


def build_array(kind: GeometryKind, aperture: float, wavelength: float) -> ArrayGeometry:
    """Build the layout of a kind whose D is aperture, at spacing lambda/2.

    D is the ULA's aperture (its length), the UCA's and the UPCA's diameter
    and the URA's diagonal.  The layouts, in wavelengths:

    - ULA: floor(2 D / lambda) + 1 elements on the x axis, pitch exactly
      lambda/2; D >= lambda/2.
    - UCA: ceil(2 pi D / lambda) elements equally spaced on a circle of
      diameter D in the x-z plane, arc spacing <= lambda/2; D >= lambda/2.
    - URA: a square x-y grid of floor(sqrt(2) D / lambda) + 1 elements a
      side, pitch exactly lambda/2; D >= lambda/sqrt(2).
    - UPCA: a centre element and rings i = 1 .. floor(D / lambda) in the
      x-y plane, ring i at radius i lambda/2 with ceil(2 pi i) elements, so
      the arc spacing never exceeds lambda/2; D >= lambda.

    ValueError, before allocating, for a kind that is not a GeometryKind,
    a wavelength that is not finite and positive, a D that is not finite
    or is below the kind's minimum and more than MAX_ELEMENTS elements;
    ArrayGeometry then rejects a wavelength below the normal floats.
    """
    if not isinstance(kind, GeometryKind):
        raise ValueError(f"unknown geometry kind {kind!r}")
    name, least, minimum, positions = _BUILDERS[kind]
    wavelength = _real(wavelength, "wavelength")
    aperture = _real(aperture, name, positive=False)
    size = aperture / wavelength
    if not size >= minimum:
        raise ValueError(f"{kind.name} {name} must be >= {least}, got {aperture}")

    def count(n) -> int:
        """A float element count (inf too) as an int, up to MAX_ELEMENTS."""
        if not n <= MAX_ELEMENTS:
            raise ValueError(f"{kind.name} with D = {aperture:g} m at lambda = "
                             f"{wavelength:g} m exceeds {MAX_ELEMENTS} elements")
        return int(n)

    pos = positions(size, count)
    return ArrayGeometry(kind, wavelength, (pos - pos.mean(axis=0)) * wavelength)


def _fraunhofer(aperture: float, wavelength: float) -> float:
    """2 D^2 / lambda; D^2 is D * D on any libm.  ValueError unless D is
    finite and positive, where D^2, lambda or the result is below the
    normal floats, with its digits lost, or where the result overflows."""
    aperture = _real(aperture, "aperture")
    square = aperture * aperture
    distance = 2.0 * square / wavelength
    if not (_TINY <= min(square, wavelength, distance) and distance < math.inf):
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
