import dataclasses
import hashlib
import math
import re
from functools import cached_property

import mpmath
import numpy as np
import pytest

import nfsense
from nfsense.geometry import (ArrayGeometry, GeometryKind, ProcessingMode,
                              SensingSetup, SPEED_OF_LIGHT, build_array,
                              MAX_ELEMENTS, fraunhofer_distance, mimo_setup,
                              simo_miso_setup)
from nfsense.ambiguity import normalized_power
from nfsense.cli import main
from nfsense.geometry import _CLASS_TOL, _fraunhofer

LAM = 1.0


def nearest_neighbor_max(elements):
    """Largest nearest-neighbor distance, by brute-force pairwise check."""
    d = np.linalg.norm(elements[:, None, :] - elements[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1).max()


def per_ring_upca(size, wavelength):
    """The UPCA of D / lambda = size built one ring at a time, by the loop
    the vectorized builder replaced: its reference, bit for bit."""
    chunks = [np.zeros((1, 3))]
    for i in range(1, math.floor(size + 1e-9) + 1):
        count = math.ceil(2.0 * math.pi * i - 1e-9)
        theta = 2.0 * math.pi * np.arange(count) / count
        chunks.append(np.column_stack([0.5 * i * np.cos(theta),
                                       0.5 * i * np.sin(theta), np.zeros(count)]))
    pos = np.vstack(chunks)
    return (pos - pos.mean(axis=0)) * wavelength


def recomputed_aperture(kind, elements):
    if kind is GeometryKind.ULA:
        return elements[:, 0].max() - elements[:, 0].min()
    if kind is GeometryKind.URA:
        return math.hypot(elements[:, 0].max() - elements[:, 0].min(),
                          elements[:, 1].max() - elements[:, 1].min())
    return 2.0 * np.linalg.norm(elements, axis=1).max()


class TestUla:
    def test_fifty_lambda(self):
        g = build_array(GeometryKind.ULA, 50 * LAM, LAM)
        assert g.n_elements == 101
        assert g.aperture == pytest.approx(50 * LAM, abs=1e-12)

    def test_minimal_array(self):
        g = build_array(GeometryKind.ULA, 0.5 * LAM, LAM)
        assert g.n_elements == 2
        assert sorted(g.elements[:, 0]) == pytest.approx([-0.25, 0.25], abs=1e-12)

    def test_on_x_axis(self):
        g = build_array(GeometryKind.ULA, 10 * LAM, LAM)
        assert np.all(g.elements[:, 1] == 0)
        assert np.all(g.elements[:, 2] == 0)


class TestUca:
    def test_count_and_radius(self):
        g = build_array(GeometryKind.UCA, 50 * LAM, LAM)
        assert g.n_elements == math.ceil(100 * math.pi)
        assert g.n_elements >= 315
        radii = np.linalg.norm(g.elements, axis=1)
        assert np.max(np.abs(radii - 25 * LAM)) <= 1e-12

    def test_count_ratio_vs_ula(self):
        uca = build_array(GeometryKind.UCA, 50 * LAM, LAM)
        ula = build_array(GeometryKind.ULA, 50 * LAM, LAM)
        assert uca.n_elements / ula.n_elements == pytest.approx(math.pi, rel=0.02)

    def test_edge_on_plane(self):
        # ring in the x-z plane so the +z axis sees it edge-on
        g = build_array(GeometryKind.UCA, 10 * LAM, LAM)
        assert np.all(g.elements[:, 1] == 0)
        assert np.ptp(g.elements[:, 2]) > 0


class TestUra:
    def test_per_axis_count(self):
        g = build_array(GeometryKind.URA, 80 * LAM, LAM)
        n_axis = int(round(math.sqrt(g.n_elements)))
        assert n_axis == 114
        assert n_axis * n_axis == g.n_elements

    def test_side_extent(self):
        g = build_array(GeometryKind.URA, 80 * LAM, LAM)
        side = g.elements[:, 0].max() - g.elements[:, 0].min()
        assert abs(side - 80 * LAM / math.sqrt(2)) <= 0.5 * LAM
        assert np.all(g.elements[:, 2] == 0)


class TestUpca:
    def test_ring_radii_two_lambda(self):
        g = build_array(GeometryKind.UPCA, 2 * LAM, LAM)
        radii = np.unique(np.round(np.linalg.norm(g.elements, axis=1), 9))
        assert list(radii) == pytest.approx([0.0, 0.5, 1.0], abs=1e-9)

    def test_max_radius_is_half_aperture(self):
        g = build_array(GeometryKind.UPCA, 12 * LAM, LAM)
        assert np.linalg.norm(g.elements, axis=1).max() == pytest.approx(
            6 * LAM, abs=1e-12)

    def test_center_element_present(self):
        g = build_array(GeometryKind.UPCA, 3 * LAM, LAM)
        assert np.any(np.linalg.norm(g.elements, axis=1) < 1e-12)

    def test_nearest_neighbor_spacing(self):
        g = build_array(GeometryKind.UPCA, 8 * LAM, LAM)
        assert nearest_neighbor_max(g.elements) <= 0.5 * LAM + 1e-9

    @pytest.mark.parametrize("wavelength", [1.0, 0.0123, 3.0])
    def test_rings_match_the_per_ring_loop(self, wavelength):
        for size in (*np.linspace(1.0, 120.0, 61), 1.999999, 300.0):
            g = build_array(GeometryKind.UPCA, size * wavelength, wavelength)
            want = per_ring_upca(size, wavelength)
            assert g.elements.tobytes() == want.tobytes(), size

    @pytest.mark.parametrize("wavelength", [
        np.finfo(float).tiny, 1e-9, 0.0123, 1.0, 7.3, 1e150])
    def test_count_independent_of_wavelength(self, wavelength):
        # ring i holds ceil(2 pi i) elements at every wavelength, also the
        # smallest normal one, where i lambda / 2 is subnormal for i = 1
        for rings in (1, 2, 12, 50):
            want = 1 + sum(int(mpmath.ceil(2 * mpmath.pi * i))
                           for i in range(1, rings + 1))
            g = build_array(GeometryKind.UPCA, rings * wavelength, wavelength)
            assert g.n_elements == want, rings


@pytest.mark.parametrize("kind", list(GeometryKind))
def test_random_apertures_centered_and_consistent(kind):
    rng = np.random.default_rng(list(GeometryKind).index(kind) + 1)
    lo = {GeometryKind.ULA: 0.5, GeometryKind.UCA: 0.5,
          GeometryKind.URA: 1.0, GeometryKind.UPCA: 1.0}[kind]
    for _ in range(100):
        aperture = rng.uniform(lo, 40.0) * LAM
        g = build_array(kind, aperture, LAM)
        assert np.max(np.abs(g.elements.mean(axis=0))) <= 1e-9 * LAM
        assert g.aperture == pytest.approx(
            recomputed_aperture(kind, g.elements), abs=1e-9)


@pytest.mark.parametrize("kind", list(GeometryKind))
def test_spacing_constraint_small_arrays(kind):
    rng = np.random.default_rng(3)
    lo = {GeometryKind.ULA: 0.5, GeometryKind.UCA: 0.5,
          GeometryKind.URA: 1.0, GeometryKind.UPCA: 1.0}[kind]
    for _ in range(10):
        aperture = rng.uniform(lo, 10.0) * LAM
        g = build_array(kind, aperture, LAM)
        if g.n_elements > 1:
            assert nearest_neighbor_max(g.elements) <= 0.5 * LAM + 1e-9


# D / lambda at and just below an integer count of 2 D / lambda, 2 pi D /
# lambda and sqrt(2) D / lambda, and at and past MAX_ELEMENTS: the element
# count, or None where it exceeds the limit and is rejected before allocation
@pytest.mark.parametrize("kind, aperture, elements", [
    (GeometryKind.ULA, 1.5, 4), (GeometryKind.ULA, 1.4999999, 3),
    (GeometryKind.ULA, 499_999.5, 1_000_000), (GeometryKind.ULA, 500_000.0, None),
    (GeometryKind.ULA, 6e5, None),
    (GeometryKind.UCA, 5.0 / (2.0 * math.pi), 5),
    (GeometryKind.UCA, (7.0 - 1e-8) / (2.0 * math.pi), 7),
    (GeometryKind.UCA, 2e5, None),
    (GeometryKind.URA, 3.0 / math.sqrt(2.0), 16),
    (GeometryKind.URA, (3.0 - 1e-8) / math.sqrt(2.0), 9),
    (GeometryKind.URA, 710.0, None),
    (GeometryKind.UPCA, 564.0, None), (GeometryKind.UPCA, 1e200, None)])
def test_element_limit(kind, aperture, elements):
    # 100 lambda, the largest aperture in use, stays far below the limit
    assert build_array(kind, 100 * LAM, LAM).n_elements < MAX_ELEMENTS / 10
    if elements is not None:
        assert build_array(kind, aperture * LAM, LAM).n_elements == elements
        return
    with pytest.raises(ValueError, match="exceeds"):
        build_array(kind, aperture * LAM, LAM)


@pytest.mark.parametrize("kind", list(GeometryKind))
def test_infinite_count_exceeds_the_limit(kind):
    # D / lambda overflows, so the count is infinite
    with pytest.raises(ValueError, match="exceeds"):
        build_array(kind, 1e308, 1e-10)


def test_elements_are_immutable():
    g = build_array(GeometryKind.ULA, 5 * LAM, LAM)
    with pytest.raises(ValueError):
        g.elements[0, 0] = 1.0
    positions, weights = g.axial_terms
    with pytest.raises(ValueError):
        positions[0, 0] = 7.0
    with pytest.raises(ValueError):
        weights[0] = 7.0


# D / lambda below each kind's minimum, and exactly at it with the element
# count it builds
@pytest.mark.parametrize("kind, aperture, elements", [
    (GeometryKind.ULA, 0.3, None), (GeometryKind.ULA, 0.4, None),
    (GeometryKind.ULA, -5, None), (GeometryKind.ULA, 0.5, 2),
    (GeometryKind.UCA, 0.0, None), (GeometryKind.UCA, 0.2, None),
    (GeometryKind.UCA, 0.5, 4),
    (GeometryKind.URA, -1.0, None), (GeometryKind.URA, 0.5, None),
    (GeometryKind.URA, math.nextafter(1.0 / math.sqrt(2.0), 0.0), None),
    (GeometryKind.URA, 1.0 / math.sqrt(2.0), 4),
    (GeometryKind.UPCA, 0.9, None), (GeometryKind.UPCA, 1.0, 8)])
def test_small_aperture_keeps_its_message(kind, aperture, elements):
    if elements is not None:
        assert build_array(kind, aperture, 1.0).n_elements == elements
        return
    with pytest.raises(ValueError, match=f"^{kind.name} [a-z]+ must be >= "
                                         f"lambda(/2|/sqrt\\(2\\))?, got "):
        build_array(kind, aperture, 1.0)


def test_zero_aperture_rejected_at_subnormal_wavelength():
    # lambda/2 underflows to 0 at lambda = 5e-324, so a zero aperture is
    # compared with lambda itself
    with pytest.raises(ValueError, match=r"^ULA aperture must be >= lambda/2"):
        build_array(GeometryKind.ULA, 0.0, 5e-324)
    with pytest.raises(ValueError, match=r"^UCA diameter must be >= lambda/2"):
        build_array(GeometryKind.UCA, 0.0, 5e-324)


def test_smallest_normal_wavelength():
    # the lambda = 1 layout times lambda, to within 2**-53 lambda where a
    # position is subnormal
    tiny = np.finfo(float).tiny
    for kind in GeometryKind:
        g = build_array(kind, 12.0 * tiny, tiny)
        ref = build_array(kind, 12.0, 1.0)
        assert g.n_elements == ref.n_elements
        assert np.abs(g.elements / tiny - ref.elements).max() <= 2.0 ** -53


def test_real_aperture_types_give_the_same_array():
    want = build_array(GeometryKind.UPCA, 6.0, 1.0).elements
    for aperture in (6, np.int32(6), np.float32(6.0), np.array(6.0)):
        assert np.array_equal(
            build_array(GeometryKind.UPCA, aperture, 1.0).elements, want)


class TestFloatWavelength:
    """A wavelength of any real type is kept as a Python float."""

    LAM32 = np.float32(0.0123)

    def test_kept_as_float(self):
        g = build_array(GeometryKind.ULA, 20 * 0.0123, 0.0123)
        for wavelength in (self.LAM32, np.float64(0.5), 2, np.int32(2),
                           np.array(0.25)):
            hand = ArrayGeometry(GeometryKind.ULA, wavelength, g.elements)
            assert type(hand.wavelength) is float
            assert hand.wavelength == float(wavelength)
            built = build_array(GeometryKind.ULA, 10.0, wavelength)
            assert type(built.wavelength) is float

    def test_fraunhofer_distance_in_double(self):
        g = build_array(GeometryKind.ULA, 20 * 0.0123, 0.0123)
        hand = ArrayGeometry(GeometryKind.ULA, self.LAM32, g.elements)
        double = ArrayGeometry(GeometryKind.ULA, float(self.LAM32), g.elements)
        assert type(fraunhofer_distance(hand)) is float
        assert fraunhofer_distance(hand) == fraunhofer_distance(double)
        assert fraunhofer_distance(hand) == 9.840000324249278


def test_hand_built_elements_copied():
    mine = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    g = ArrayGeometry(kind=None, wavelength=LAM, elements=mine)
    assert mine.flags.writeable and not g.elements.flags.writeable
    mine[1, 0] = 5.0
    assert g.elements[1, 0] == 1.0


def test_constructor_takes_the_elements_only():
    assert [f.name for f in dataclasses.fields(ArrayGeometry) if f.init] == [
        "kind", "wavelength", "elements"]
    with pytest.raises(TypeError):
        ArrayGeometry(None, LAM, np.zeros((1, 3)), 0.0)
    with pytest.raises(TypeError):
        ArrayGeometry(None, LAM, np.zeros((1, 3)), axial_terms=(0, 1))


class TestDerivedAperture:
    @pytest.mark.parametrize("kind, aperture, wavelength, bits", [
        (GeometryKind.ULA, 12.0, 1.0, "0x1.8000000000000p+3"),
        (GeometryKind.ULA, 7.31, 0.0123, "0x1.60aa64c2f837bp-4"),
        (GeometryKind.UCA, 12.0, 1.0, "0x1.8000000000001p+3"),
        (GeometryKind.UCA, 50.2, 1.0, "0x1.919999999999bp+5"),
        (GeometryKind.URA, 50.2, 1.0, "0x1.8bfad401b2968p+5"),
        (GeometryKind.URA, 7.31, 0.0123, "0x1.643efd57f3ef0p-4"),
        # twice the largest norm would give ...520p-6
        (GeometryKind.URA, 2.5, 0.0123, "0x1.ab7ec99cbe521p-6"),
        (GeometryKind.UPCA, 50.2, 1.0, "0x1.9000000000001p+5"),
        (GeometryKind.UPCA, 7.31, 0.0123, "0x1.60aa64c2f837cp-4")])
    def test_builder_bits(self, kind, aperture, wavelength, bits):
        # the values the builders recorded when they measured it themselves
        g = build_array(kind, aperture * wavelength, wavelength)
        assert g.aperture.hex() == bits
        hand = ArrayGeometry(kind, wavelength, g.elements)
        assert hand.aperture.hex() == bits

    def test_single_element_is_zero(self):
        g = build_array(GeometryKind.ULA, 10 * LAM, LAM)
        assert simo_miso_setup(g).tx.aperture == 0.0

    def test_hand_built_ring_diameter(self):
        theta = 2.0 * math.pi * np.arange(7) / 7
        ring = np.column_stack([3.0 * np.cos(theta), 3.0 * np.sin(theta),
                                np.zeros(7)])
        g = ArrayGeometry(kind=None, wavelength=LAM, elements=ring)
        assert g.aperture == pytest.approx(6.0, rel=1e-15)

    def test_kind_sets_the_rule(self):
        # the same square grid measured as a ULA (x extent), a URA
        # (diagonal) and a ring (twice the largest norm)
        g = build_array(GeometryKind.URA, 10 * LAM, LAM)
        side = float(np.ptp(g.elements[:, 0]))
        assert ArrayGeometry(GeometryKind.ULA, LAM, g.elements).aperture == side
        assert g.aperture == math.hypot(side, side)
        # a URA's diagonal reads the x and y extents only
        tilted = g.elements.copy()
        tilted[:, 2] = tilted[:, 0]
        assert ArrayGeometry(GeometryKind.URA, LAM, tilted).aperture == g.aperture
        assert ArrayGeometry(None, LAM, g.elements).aperture == pytest.approx(
            math.hypot(side, side), rel=1e-15)

    @pytest.mark.parametrize("kind", [None, *GeometryKind])
    def test_overflow_rejected(self, kind):
        huge = np.array([[-1.5e308, -1.5e308, 0.0], [1.5e308, 1.5e308, 0.0]])
        with pytest.raises(ValueError, match="aperture overflows"):
            ArrayGeometry(kind=kind, wavelength=LAM, elements=huge)


class TestLayoutBits:
    """The sha256 of every built layout's element bytes, D / lambda and
    lambda given, from the per-kind builders before build_array took over
    their rules: every row of the one builder keeps the layout's bits."""

    SHA256 = {
        (GeometryKind.ULA, 3.3, 1.0):
            "4628e1510f2dc66f420ca3a086fcd55715caeb60e8095cef7d3449097a70691a",
        (GeometryKind.ULA, 3.3, 0.0123):
            "733647f7556d03527e0309a53df9d09536c428b1a06a6c024949280dedb3709a",
        (GeometryKind.ULA, 12.457, 1.0):
            "94f3cc1288bf5d4579d481d8a668fa71700f46b1867693a5c0d620c36aeb55ff",
        (GeometryKind.ULA, 12.457, 0.0123):
            "891f930743969e8258aa42371ac45e9e446d8136bd0db4601435ab1dd8642e9e",
        (GeometryKind.ULA, 50.0, 1.0):
            "ad2f0aa1b730255705b748ecc64509823d78d5e839da08722dc83b7a88f0b82a",
        (GeometryKind.ULA, 50.0, 0.0123):
            "afac78b626a712bb3b8687171d22ce18767b426da45c4dcab79fa997af0e7755",
        (GeometryKind.ULA, 100.0, 1.0):
            "ec70fe8de5e697e7bf5503b5ee9228249be7a9a0d2bafee80319dcf6086a4dff",
        (GeometryKind.ULA, 100.0, 0.0123):
            "c1458435c18d7a2cc669df85088f5ee0c16ce42ca2197fce968beab8c84b5bec",
        (GeometryKind.UCA, 3.3, 1.0):
            "ad082a5382d5c2d92bb8884194429f26091807de2f051893990fd8f8d918c10b",
        (GeometryKind.UCA, 3.3, 0.0123):
            "d06b0a93fd1af3d4d10d2b0d03f27c4a30ebdb7747ecc2f4aa455bc7592b5dc8",
        (GeometryKind.UCA, 12.457, 1.0):
            "c2b9103f05bb0b843f7f00f20dad670f89a58fa4f61b05ba5996ea9f3fd388ec",
        (GeometryKind.UCA, 12.457, 0.0123):
            "d3c92978aa4afea6986e9baf710f8e127e8836e5b35086b1b2fc955ef5d826a7",
        (GeometryKind.UCA, 50.0, 1.0):
            "66d922998e8458df561bed00a36539dea2838f4fbcfa41ef9c41f3f62bfec3a1",
        (GeometryKind.UCA, 50.0, 0.0123):
            "820edb54053f5c8ac8e370baf31b5340ad615b126ab62fee19704796a13d674c",
        (GeometryKind.UCA, 100.0, 1.0):
            "9a7a238f9cc1451f9ff8c19914f13fff899f1e64f5a3c2bf4fe562a61c9107ef",
        (GeometryKind.UCA, 100.0, 0.0123):
            "0a3defe82cfd19d4a3b22dcc9a325decb3069fb1444b02447784c0b5c08e0786",
        (GeometryKind.URA, 3.3, 1.0):
            "f97f4c399db7a5debebb7e4c820b1522db5f7ee828fcbace8f51a4d7ecb5efb1",
        (GeometryKind.URA, 3.3, 0.0123):
            "46573bdfae9054b0ac3150b26254731bab50418956aa69f3e11a7488e47a9ad6",
        (GeometryKind.URA, 12.457, 1.0):
            "76789a0030e4a195b48ac015e4990a02788e7ebc082a765da615bb4976615624",
        (GeometryKind.URA, 12.457, 0.0123):
            "9a59faf652b51bf536147427a530fe384571b46d2e9cf2ff0d98bdc5623da8ba",
        (GeometryKind.URA, 50.0, 1.0):
            "b9cdb435de259499fa973b9145b59dfdd6b4a35d3c30fd49bd746717ac8e294f",
        (GeometryKind.URA, 50.0, 0.0123):
            "0656cbfe8a9fbd825e0a9571ebaa2bc40689b87137524da332bf92bc07e106d3",
        (GeometryKind.URA, 100.0, 1.0):
            "ce4ec9f23eaf1ab2c36310d13a7623c98bec3cb3aad65e17bec6ec46ef8f1044",
        (GeometryKind.URA, 100.0, 0.0123):
            "7e27da567601ca2174a60aab07e0cada7aea30378b4ef35610d8647ddc9de1eb",
        (GeometryKind.UPCA, 3.3, 1.0):
            "c680901c35e1cc35c61a1576bb6aac94eef7e138359d6206d16ae87b97030227",
        (GeometryKind.UPCA, 3.3, 0.0123):
            "e4b6a2d23de7dd56823ba65ed799eb6c08613b3fe4d0cda4a16ca1375afeade9",
        (GeometryKind.UPCA, 12.457, 1.0):
            "5b7cfb3c67ef903911f3e827e167dc715e285458e49106dec479c7715c834381",
        (GeometryKind.UPCA, 12.457, 0.0123):
            "321eb36e24e2351a0e0ad7ca9f25938e79ba23b6378a635536d0dfd4dad9a8e5",
        (GeometryKind.UPCA, 50.0, 1.0):
            "edb95f0aa23aedfa158c250d18bd9bc45f262942b19c54d907b51dcf28325aef",
        (GeometryKind.UPCA, 50.0, 0.0123):
            "1e57a50ad03786ec364dde76d8ae06f1d16446d977dd15312534ebd09cacc1c4",
        (GeometryKind.UPCA, 100.0, 1.0):
            "aabca315af5bd962bc7f84aa4efcbc986d16efceb55da65c3a2b1a8f24d58667",
        (GeometryKind.UPCA, 100.0, 0.0123):
            "5f87eef40b7dd731c55639994304e4e95e9a6cd98b84818c5e0fafacd69ea016",

    }

    @pytest.mark.parametrize("kind, size, wavelength", list(SHA256))
    def test_elements(self, kind, size, wavelength):
        g = build_array(kind, size * wavelength, wavelength)
        digest = hashlib.sha256(g.elements.tobytes()).hexdigest()
        assert digest == self.SHA256[kind, size, wavelength]


class TestScaleFreeLayouts:
    """A layout depends on D only through D / lambda: at any lambda it is
    the lambda = 1 layout times lambda, to rounding, and bit for bit at a
    power of two; at 1e-300 and 1e-160 the squares of its coordinates in
    metres are subnormal or zero, and at 1e308 its 2 D in metres overflows."""

    GRID = [(kind, 3.0, wavelength) for kind in GeometryKind
            for wavelength in (2.0 ** -500, 1e-300, 1e-160, 0.0123, 1e300)] + [
        (GeometryKind.ULA, 1.0, 1e308), (GeometryKind.UCA, 1.0, 1e308),
        (GeometryKind.URA, 1.5, 1e308), (GeometryKind.UPCA, 1.7, 1e308)]

    @pytest.mark.parametrize("kind, size, wavelength", GRID)
    def test_lambda_one_layout_scaled(self, kind, size, wavelength):
        g = build_array(kind, size * wavelength, wavelength)
        unit = build_array(kind, size, 1.0)
        scaled = g.elements / wavelength
        if math.frexp(wavelength)[0] == 0.5:
            assert scaled.tobytes() == unit.elements.tobytes()
        else:
            largest = np.abs(unit.elements).max()
            assert scaled.shape == unit.elements.shape
            assert np.abs(scaled - unit.elements).max() <= 4 * math.ulp(largest)
        assert abs(g.aperture / wavelength - unit.aperture) <= 4 * math.ulp(
            unit.aperture)


def oracle_classes(g):
    """The axial classes of a built layout from its integer indices."""
    n = g.n_elements
    if g.kind is GeometryKind.ULA:
        # elements i and n-1-i mirror each other about the axis
        return np.abs(2 * np.arange(n) - (n - 1))
    if g.kind is GeometryKind.URA:
        # x = a lambda/4 and y = b lambda/4: x^2 + y^2 = (a^2 + b^2) (lambda/4)^2
        a = 2 * np.arange(math.isqrt(n)) - (math.isqrt(n) - 1)
        return (a[:, None] ** 2 + a[None, :] ** 2).ravel()
    if g.kind is GeometryKind.UCA:
        # theta and pi - theta share z and |x|: elements m and n/2 - m
        # (mod n) of an even ring; an odd ring has no such pairs
        m = np.arange(n)
        return np.minimum(m, (n // 2 - m) % n) if n % 2 == 0 else m
    # UPCA: the center, then ring i of max(1, ceil(2 pi i)) elements
    rings = int(np.floor(g.aperture / g.wavelength + 1e-9))
    counts = [max(1, math.ceil(2.0 * math.pi * i - 1e-9))
              for i in range(1, rings + 1)]
    return np.repeat(np.arange(rings + 1), [1] + counts)


def oracle_terms(g):
    """The lowest-index position and the size of each oracle class, in
    ascending index order."""
    _, first, counts = np.unique(oracle_classes(g), return_index=True,
                                 return_counts=True)
    order = np.argsort(first)
    return g.elements[first[order]], counts[order].astype(float)


def same_terms(a, b):
    """True if the (positions, weights) pairs a and b are equal bit for bit."""
    return all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _axial_key(points, wavelength):
    """(x^2 + y^2, z) per point, in wavelengths."""
    e = points / wavelength
    return np.column_stack([e[:, 0] ** 2 + e[:, 1] ** 2, e[:, 2]])


class TestAxialClasses:
    @pytest.mark.parametrize("kind, aperture, elements, classes", [
        (GeometryKind.ULA, 50.0, 101, 51), (GeometryKind.UPCA, 50.0, 8037, 51),
        (GeometryKind.URA, 50.0, 5041, 536), (GeometryKind.UCA, 50.2, 316, 159)])
    def test_class_count(self, kind, aperture, elements, classes):
        g = build_array(kind, aperture * LAM, LAM)
        positions, weights = g.axial_terms
        assert g.n_elements == elements
        assert positions.shape == (classes, 3) and len(weights) == classes
        assert weights.dtype == np.float64
        assert weights.sum() == g.n_elements

    @pytest.mark.parametrize("aperture", [50.0, 10.0, 3.3])
    def test_odd_uca_all_distinct(self, aperture):
        g = build_array(GeometryKind.UCA, aperture * LAM, LAM)
        assert g.n_elements % 2 == 1
        positions, weights = g.axial_terms
        assert np.array_equal(positions, g.elements)
        assert np.all(weights == 1.0)

    @pytest.mark.parametrize("kind, aperture", [
        (GeometryKind.ULA, 50.0), (GeometryKind.UCA, 50.2),
        (GeometryKind.URA, 50.0), (GeometryKind.UPCA, 50.0),
        (GeometryKind.UCA, 12.0), (GeometryKind.ULA, 0.5)])
    def test_members_share_axial_distance(self, kind, aperture):
        # every element shares (x^2 + y^2, z) with exactly one term, and a
        # term's weight is the number of elements that share it
        g = build_array(kind, aperture * LAM, LAM)
        positions, weights = g.axial_terms
        key = _axial_key(g.elements, g.wavelength)
        term_key = _axial_key(positions, g.wavelength)
        near = np.abs(key[:, None, :] - term_key[None, :, :]).max(axis=2) <= 1e-12
        assert np.all(near.sum(axis=1) == 1)
        assert np.array_equal(near.sum(axis=0), weights)

    def test_distinct_classes_differ(self):
        # classes are as coarse as the layout allows: two terms never
        # share (x^2 + y^2, z)
        for kind in GeometryKind:
            g = build_array(kind, 20.4 * LAM, LAM)
            positions, weights = g.axial_terms
            reps = np.round(_axial_key(positions, g.wavelength), 9)
            assert len(np.unique(reps, axis=0)) == len(weights)

    def test_lowest_index_in_index_order(self):
        # each term is its class's first element in index order, and the
        # terms follow that order, whatever order the elements come in
        for kind in GeometryKind:
            g = build_array(kind, 10.3 * LAM, LAM)
            shuffled = g.elements[np.random.default_rng(5).permutation(
                g.n_elements)]
            hand = ArrayGeometry(None, LAM, shuffled)
            positions, weights = hand.axial_terms
            rows = [np.flatnonzero((shuffled == p).all(axis=1))[0]
                    for p in positions]
            assert rows == sorted(rows)
            key = _axial_key(shuffled, LAM)
            for row in rows:
                # no element before a term's row belongs to its class
                same = np.abs(key[:row] - key[row]).max(axis=1) <= 1e-12
                assert not same.any()

    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_hand_built_has_builder_classes(self, kind):
        g = build_array(kind, 10.3 * LAM, LAM)
        hand = ArrayGeometry(kind=None, wavelength=g.wavelength,
                             elements=g.elements.copy())
        assert same_terms(hand.axial_terms, g.axial_terms)
        assert same_terms(hand.axial_terms, oracle_terms(g))

    @pytest.mark.parametrize("wavelength", [1.0, 0.0123, 7.1e-9])
    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_terms_equal_index_oracle(self, kind, wavelength):
        # the index formulas the builders once labeled their elements with
        for aperture in np.linspace(1.0, 100.0, 40):
            g = build_array(kind, aperture * wavelength, wavelength)
            assert same_terms(g.axial_terms, oracle_terms(g)), aperture

    def test_chain_of_small_steps_split(self):
        # four keys 0.6 tolerance apart: each step is within the tolerance,
        # the chain is not
        step = 0.6 * _CLASS_TOL
        g = ArrayGeometry(kind=None, wavelength=LAM, elements=np.array(
            [[0.0, 0.0, 0.25 + i * step] for i in range(4)]))
        positions, weights = g.axial_terms
        assert weights.tolist() == [1.0] * 4
        assert np.array_equal(positions, g.elements)
        # a step past the tolerance starts a new class on its own
        g = ArrayGeometry(kind=None, wavelength=LAM, elements=np.array(
            [[0.0, 0.0, 0.25], [0.0, 0.0, 0.25 + step],
             [0.0, 0.0, 0.25 + 3.0 * step]]))
        positions, weights = g.axial_terms
        assert weights.tolist() == [2.0, 1.0]
        assert np.array_equal(positions, g.elements[[0, 2]])

    def test_derived_on_demand_only(self, monkeypatch):
        # building, exporting and off-axis sums never derive the terms
        for kind in GeometryKind:
            g = build_array(kind, 6 * LAM, LAM)
            normalized_power(mimo_setup(g), [1.0, 2.0, 40.0], [[0.0, 1.0, 30.0]])
            assert "axial_terms" not in g.__dict__
        with monkeypatch.context() as patch:
            patch.setattr(ArrayGeometry, "axial_terms",
                          property(lambda g: pytest.fail("terms derived")))
            for kind in ("ula", "uca", "ura", "upca"):
                assert main(["dump-geometry", "--kind", kind,
                             "--aperture-lambda", "4", "--out", "-"]) == 0
        terms = g.axial_terms
        assert g.__dict__["axial_terms"] is terms and g.axial_terms is terms
        assert not any(array.flags.writeable for array in terms)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.axial_terms = terms

    def test_derived_once_per_layout(self, monkeypatch, capsys):
        # validate sums four broadside sweeps per layout on one geometry
        derived = []
        getter = ArrayGeometry.axial_terms.func

        def counted(g):
            derived.append(g.kind)
            return getter(g)

        counting = cached_property(counted)
        counting.__set_name__(ArrayGeometry, "axial_terms")
        monkeypatch.setattr(ArrayGeometry, "axial_terms", counting)
        code = main(["validate", "--kind", "ula,uca,ura,upca", "--mode", "both",
                     "--sweep", "0:0:201", "--out", "-"])
        assert code in (0, 2)  # 2 while the UPCA misses the 2% gate
        assert derived == list(GeometryKind)


class TestFraunhofer:
    def test_fifty_lambda(self):
        g = build_array(GeometryKind.ULA, 50.0, 1.0)
        assert fraunhofer_distance(g) == pytest.approx(5000.0)

    def test_eighty_lambda(self):
        g = build_array(GeometryKind.ULA, 80.0, 1.0)
        assert fraunhofer_distance(g) == pytest.approx(12800.0)

    def test_quadratic_scaling(self):
        d1 = fraunhofer_distance(build_array(GeometryKind.ULA, 20.0, 1.0))
        d2 = fraunhofer_distance(build_array(GeometryKind.ULA, 40.0, 1.0))
        assert d2 == pytest.approx(4.0 * d1)

    @pytest.mark.parametrize("wavelength", [1e-163, 1e-156])
    def test_subnormal_square_rejected(self, wavelength):
        # 101 elements, but D^2 is below the smallest normal float and has
        # lost digits: at 1e-163 the boundary would be 4.94e-160 m, not 5e-160
        g = build_array(GeometryKind.ULA, 50 * wavelength, wavelength)
        message = (f"^2 D\\^2 / lambda for D = {g.aperture:g} m is out of "
                   "floating-point range$")
        with pytest.raises(ValueError, match=message):
            fraunhofer_distance(g)
        with pytest.raises(ValueError, match=message):
            _fraunhofer(g.aperture, wavelength)

    def test_square_is_a_product(self):
        # D^2 is D * D, correctly rounded on any platform; a C library's
        # pow, which Python's ** calls, can be an ulp off
        for d in np.random.default_rng(12).uniform(1.0, 1e4, 2000).tolist():
            assert _fraunhofer(d, 0.5) == 2.0 * (d * d) / 0.5

    @pytest.mark.parametrize("aperture, wavelength, distance", [
        (1e200, 1.0, None),  # D^2 overflows
        (1e154, 1e-10, None),  # D^2 is finite, 2 D^2 / lambda is not
        (1.5e-154, 1e3, None),  # D^2 is normal, 2 D^2 / lambda is subnormal
        (1e-160, 1e-300, None),  # D^2 is subnormal, 2 D^2 / lambda is not
        (1e-120, 1e-320, None),  # lambda is subnormal, D^2 and the result not
        # D^2 and 2 D^2 / lambda are the smallest normal float
        (2.0 ** -511, 2.0, 2.0 ** -1022)])
    def test_out_of_float_range_raises(self, aperture, wavelength, distance):
        if distance is not None:
            assert _fraunhofer(aperture, wavelength) == distance
            return
        message = (f"2 D^2 / lambda for D = {aperture:g} m is out of "
                   "floating-point range")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _fraunhofer(aperture, wavelength)


def test_single_element():
    # the SIMO/MISO transmit element is a view of the setup, not an export
    g = build_array(GeometryKind.ULA, 10 * LAM, 0.5)
    s = simo_miso_setup(g)
    tx = s.tx
    assert tx.n_elements == 1 and tx.elements.tolist() == [[0.0, 0.0, 0.0]]
    assert tx.kind is None
    assert tx.aperture == 0.0
    assert tx.wavelength == g.wavelength
    assert tx.axial_terms[0].tolist() == [[0.0, 0.0, 0.0]]
    assert tx.axial_terms[1].tolist() == [1.0]
    assert s.rx is g
    assert mimo_setup(g).tx is g
    assert "single_element" not in nfsense.__all__
    assert not hasattr(nfsense.geometry, "single_element")


def test_single_element_is_built_once():
    # a SIMO setup keeps its transmit element: every access returns the
    # same object, with the element and wavelength of the first build
    g = build_array(GeometryKind.UPCA, 50 * LAM, LAM)
    s = simo_miso_setup(g)
    tx = s.tx
    assert s.tx is tx
    assert tx.elements.tolist() == [[0.0, 0.0, 0.0]]
    assert tx.wavelength == g.wavelength
    assert simo_miso_setup(g).tx is not tx
    # the kept element is not a field: equality and the fields are the two
    assert s == simo_miso_setup(g)
    assert [f.name for f in dataclasses.fields(s)] == ["aperture", "mode"]


class TestSensingSetup:
    def test_simo_factory(self):
        g = build_array(GeometryKind.ULA, 10 * LAM, LAM)
        s = simo_miso_setup(g)
        assert s.mode is ProcessingMode.SIMO_MISO
        assert s.tx.n_elements == 1
        assert s.rx is g
        assert s.frequency == pytest.approx(SPEED_OF_LIGHT / LAM)
        assert s.aperture is g

    def test_mimo_factory(self):
        g = build_array(GeometryKind.UCA, 10 * LAM, LAM)
        s = mimo_setup(g)
        assert s.mode is ProcessingMode.MIMO
        assert s.tx is g and s.rx is g

    def test_frequency_is_derived(self):
        g = build_array(GeometryKind.ULA, 10.0, 0.01)
        s = mimo_setup(g)
        assert [f.name for f in dataclasses.fields(s)] == ["aperture", "mode"]
        assert s.frequency == 299792458.0 / 0.01
        with pytest.raises(TypeError):
            SensingSetup(g, ProcessingMode.MIMO, frequency=1e9)
        with pytest.raises(TypeError):
            SensingSetup(tx=g, rx=g, mode=ProcessingMode.MIMO)


def test_mode_exponents():
    assert ProcessingMode.SIMO_MISO.power_exponent == 1
    assert ProcessingMode.MIMO.power_exponent == 2
