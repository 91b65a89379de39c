"""Antenna array geometry builders.

All arrays are centered on the origin and use the densest allowed element
spacing (lambda/2) so the discrete layouts track their continuous-aperture
approximations as closely as possible.

Frame convention: the evaluation axis (broadside) is +z.  The ULA lies on
the x axis, the URA and UPCA span the x-y plane.  The UCA is placed in the
x-z plane (ring normal along y): a ring seen face-on has every element
equidistant from any on-axis point and therefore no range selectivity at
all, so the ring must be edge-on to the axis it resolves ranges along.

On the +z axis an element's distance depends only on (x^2 + y^2, z).  Each
builder labels its elements with an integer axial class computed from their
integer indices, so that the elements of one class are equidistant from
every on-axis point: the mirror pair |2i - (n-1)| of the ULA, a^2 + b^2 of
the URA, the ring of the UPCA and the +-x mirror pair of an even UCA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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
    "single_element",
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

MAX_ELEMENTS = 1_000_000
"Largest element count a builder accepts; it is checked before allocation."


class GeometryKind(Enum):
    """The four supported array layouts."""

    ULA = "ula"
    UCA = "uca"
    URA = "ura"
    UPCA = "upca"

    @property
    def argument_scale(self) -> float:
        """Scale coefficient mapping d_FA * d_ver onto the layout's unified
        array-factor argument."""
        return _ARGUMENT_SCALE[self]


_ARGUMENT_SCALE = {
    GeometryKind.ULA: 0.25,
    GeometryKind.UCA: math.pi / 16.0,
    GeometryKind.URA: 0.125,
    GeometryKind.UPCA: 1.0 / 16.0,
}


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
    """Immutable element layout.

    kind is None for the degenerate single-element "array" used as the
    plain side of a SIMO/MISO link.  aperture is the actual end-to-end
    extent recomputed from the element positions (ULA: length, UCA/UPCA:
    outer diameter, URA: diagonal).  axial_class labels the elements (see
    the module docstring); it defaults to one class per element, and a class
    whose members differ in (x^2 + y^2, z) beyond rounding raises ValueError.
    """

    kind: GeometryKind | None
    wavelength: float
    elements: np.ndarray
    aperture: float
    axial_class: np.ndarray | None = None

    def __post_init__(self):
        self.elements.setflags(write=False)
        m = self.elements.shape[0]
        if self.axial_class is None:
            classes = np.arange(m)
        else:
            classes = np.array(self.axial_class)
            if classes.shape != (m,) or classes.dtype.kind not in "iu":
                raise ValueError("axial_class needs one integer per element")
            _check_axial_classes(self.elements, classes, self.wavelength)
        classes.setflags(write=False)
        object.__setattr__(self, "axial_class", classes)

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


def _check_axial_classes(elements, classes, wavelength: float) -> None:
    """ValueError unless each class shares (x^2 + y^2, z) to rounding."""
    scale = max(wavelength, float(np.abs(elements).max(initial=0.0)))
    unit = elements / scale
    key = np.column_stack([unit[:, 0] ** 2 + unit[:, 1] ** 2, unit[:, 2]])
    _, first, inverse = np.unique(classes, return_index=True, return_inverse=True)
    if np.abs(key - key[first[inverse]]).max(initial=0.0) > _CLASS_TOL:
        raise ValueError("axial_class groups elements at different "
                         "distances from the +z axis")


def _check_count(kind, count, aperture: float, wavelength: float) -> int:
    """Float element count (inf, NaN too) as an int; ValueError above MAX_ELEMENTS."""
    if not count <= MAX_ELEMENTS:
        raise ValueError(f"{kind.name} with D = {aperture:g} m at lambda = "
                         f"{wavelength:g} m exceeds {MAX_ELEMENTS} elements")
    return int(count)


def _finish(kind, wavelength, positions, axial_class) -> ArrayGeometry:
    pos = np.asarray(positions, dtype=float)
    # positions near the float maximum overflow the mean or the extent to
    # inf or nan, which the finiteness check below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        pos = pos - pos.mean(axis=0)
        if kind is GeometryKind.ULA:
            aperture = float(pos[:, 0].max() - pos[:, 0].min())
        elif kind is GeometryKind.URA:
            aperture = float(math.hypot(pos[:, 0].max() - pos[:, 0].min(),
                                        pos[:, 1].max() - pos[:, 1].min()))
        else:
            aperture = float(2.0 * np.linalg.norm(pos, axis=1).max())
    if not math.isfinite(aperture):
        raise ValueError(f"{kind.name} aperture overflows at lambda = "
                         f"{wavelength:g} m")
    return ArrayGeometry(kind=kind, wavelength=float(wavelength),
                         elements=pos, aperture=aperture,
                         axial_class=axial_class)


def build_ula(aperture: float, wavelength: float) -> ArrayGeometry:
    """Uniform linear array on the x axis, spacing exactly lambda/2.

    Element count is floor(2 D / lambda) + 1; the aperture field records
    the actual end-to-end extent.
    """
    if not aperture >= wavelength / 2:
        raise ValueError(f"ULA aperture must be >= lambda/2, got {aperture}")
    n = _check_count(GeometryKind.ULA,
                     np.floor(2.0 * aperture / wavelength + _TOL) + 1,
                     aperture, wavelength)
    i = np.arange(n)
    pos = np.zeros((n, 3))
    pos[:, 0] = (i - (n - 1) / 2.0) * (wavelength / 2.0)
    # elements i and n-1-i mirror each other about the axis
    return _finish(GeometryKind.ULA, wavelength, pos, np.abs(2 * i - (n - 1)))


def build_uca(diameter: float, wavelength: float) -> ArrayGeometry:
    """Uniform circular array of the given diameter, edge-on to +z.

    Elements sit in the x-z plane, equally spaced on the circle with arc
    spacing <= lambda/2 (count = ceil(pi D / (lambda/2))).
    """
    if not diameter >= wavelength / 2:
        raise ValueError(f"UCA diameter must be >= lambda/2, got {diameter}")
    n = _check_count(GeometryKind.UCA,
                     np.ceil(2.0 * math.pi * diameter / wavelength - _TOL),
                     diameter, wavelength)
    m = np.arange(n)
    theta = 2.0 * math.pi * m / n
    pos = np.zeros((n, 3))
    pos[:, 0] = 0.5 * diameter * np.cos(theta)
    pos[:, 2] = 0.5 * diameter * np.sin(theta)
    # theta and pi - theta share z and |x|: elements m and n/2 - m (mod n)
    # for even n; an odd ring has no such pairs
    classes = np.minimum(m, (n // 2 - m) % n) if n % 2 == 0 else m
    return _finish(GeometryKind.UCA, wavelength, pos, classes)


def build_ura(diagonal: float, wavelength: float) -> ArrayGeometry:
    """Square array in the x-y plane, sized by its diagonal.

    Per-axis spacing is exactly lambda/2, per-axis count
    floor(sqrt(2) D / lambda) + 1.
    """
    if not diagonal >= wavelength / math.sqrt(2):
        raise ValueError(f"URA diagonal must be >= lambda/sqrt(2), got {diagonal}")
    n = float(np.floor(math.sqrt(2.0) * diagonal / wavelength + _TOL)) + 1
    _check_count(GeometryKind.URA, n * n, diagonal, wavelength)
    n = int(n)
    grid = (np.arange(n) - (n - 1) / 2.0) * (wavelength / 2.0)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    pos = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(n * n)])
    # x = a lambda/4 and y = b lambda/4, so x^2 + y^2 = (a^2 + b^2) (lambda/4)^2
    a = 2 * np.arange(n) - (n - 1)
    classes = (a[:, None] ** 2 + a[None, :] ** 2).ravel()
    return _finish(GeometryKind.URA, wavelength, pos, classes)


def build_upca(diameter: float, wavelength: float) -> ArrayGeometry:
    """Planar circular array: concentric rings in the x-y plane.

    A center element plus rings at radial pitch lambda/2 out to D/2, each
    ring populated with max(1, ceil(2 pi r / (lambda/2))) elements so the
    arc spacing never exceeds lambda/2.
    """
    if not diameter >= wavelength:
        raise ValueError(f"UPCA diameter must be >= lambda, got {diameter}")
    n_rings = float(np.floor(diameter / wavelength + _TOL))
    # ring i holds at least 2 pi i elements: bound the ring count first
    _check_count(GeometryKind.UPCA, math.pi * n_rings * n_rings, diameter,
                 wavelength)
    radii = [0.5 * i * wavelength for i in range(1, int(n_rings) + 1)]
    counts = [max(1, int(math.ceil(4.0 * math.pi * r / wavelength - _TOL)))
              for r in radii]
    _check_count(GeometryKind.UPCA, 1 + sum(counts), diameter, wavelength)
    chunks = [np.zeros((1, 3))]
    for r, count in zip(radii, counts):
        theta = 2.0 * math.pi * np.arange(count) / count
        ring = np.zeros((count, 3))
        ring[:, 0] = r * np.cos(theta)
        ring[:, 1] = r * np.sin(theta)
        chunks.append(ring)
    rings = np.repeat(np.arange(len(counts) + 1), [1] + counts)
    return _finish(GeometryKind.UPCA, wavelength, np.vstack(chunks), rings)


_BUILDERS = {
    GeometryKind.ULA: build_ula,
    GeometryKind.UCA: build_uca,
    GeometryKind.URA: build_ura,
    GeometryKind.UPCA: build_upca,
}


def build_array(kind: GeometryKind, aperture: float, wavelength: float) -> ArrayGeometry:
    """Build any layout by kind; aperture is the kind's D (see builders).

    Every builder raises ValueError, before allocating, for a layout of
    more than MAX_ELEMENTS elements.
    """
    return _BUILDERS[kind](aperture, wavelength)


def single_element(wavelength: float) -> ArrayGeometry:
    """Degenerate one-element array at the origin (kind None, aperture 0)."""
    return ArrayGeometry(kind=None, wavelength=float(wavelength),
                         elements=np.zeros((1, 3)), aperture=0.0,
                         axial_class=np.zeros(1, dtype=int))


def fraunhofer_distance(geometry: ArrayGeometry) -> float:
    """Far-field boundary 2 D^2 / lambda; ValueError outside the float range."""
    try:
        distance = 2.0 * geometry.aperture ** 2 / geometry.wavelength
    except OverflowError:
        distance = math.inf
    if not 0.0 < distance < math.inf:
        raise ValueError(f"2 D^2 / lambda for D = {geometry.aperture:g} m is "
                         "out of floating-point range")
    return distance


@dataclass(frozen=True)
class SensingSetup:
    """Transmit and receive geometries plus the processing mode.

    MIMO requires identical collocated apertures on both sides.  SIMO/MISO
    uses one real aperture and a single element on the other side; a
    bistatic pair of multi-element apertures is not supported.  The exact
    power depends only on the aperture, its wavelength and the mode.
    """

    tx: ArrayGeometry
    rx: ArrayGeometry
    mode: ProcessingMode

    def __post_init__(self):
        if abs(self.tx.wavelength - self.rx.wavelength) > 1e-12 * self.tx.wavelength:
            raise ValueError("tx and rx wavelengths differ")
        if self.mode is ProcessingMode.MIMO:
            if self.tx is not self.rx and not (
                self.tx.elements.shape == self.rx.elements.shape
                and np.array_equal(self.tx.elements, self.rx.elements)
            ):
                raise ValueError(
                    "MIMO mode requires identical collocated tx/rx apertures"
                )
        else:
            if self.tx.n_elements > 1 and self.rx.n_elements > 1:
                raise ValueError(
                    "SIMO/MISO takes a single element on one side; separated "
                    "multi-element apertures (bistatic) are unsupported"
                )

    @property
    def aperture(self) -> ArrayGeometry:
        """The multi-element side (either side for MIMO)."""
        return self.tx if self.tx.n_elements > 1 else self.rx

    @property
    def frequency(self) -> float:
        """Carrier frequency c / lambda in Hz, derived from the wavelength."""
        return SPEED_OF_LIGHT / self.tx.wavelength


def simo_miso_setup(aperture: ArrayGeometry) -> SensingSetup:
    """Single-aperture link: one transmit element, the array on receive."""
    return SensingSetup(tx=single_element(aperture.wavelength), rx=aperture,
                        mode=ProcessingMode.SIMO_MISO)


def mimo_setup(aperture: ArrayGeometry) -> SensingSetup:
    """Monostatic MIMO link: the same aperture transmits and receives."""
    return SensingSetup(tx=aperture, rx=aperture, mode=ProcessingMode.MIMO)
