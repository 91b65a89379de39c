import dataclasses
import math
from functools import cached_property

import mpmath
import numpy as np
import pytest

import nfsense
from nfsense.geometry import (ArrayGeometry, GeometryKind, ProcessingMode,
                              SensingSetup, SPEED_OF_LIGHT, build_array,
                              build_uca, build_ula, build_upca, build_ura,
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


def recomputed_aperture(kind, elements):
    if kind is GeometryKind.ULA:
        return elements[:, 0].max() - elements[:, 0].min()
    if kind is GeometryKind.URA:
        return math.hypot(elements[:, 0].max() - elements[:, 0].min(),
                          elements[:, 1].max() - elements[:, 1].min())
    return 2.0 * np.linalg.norm(elements, axis=1).max()


class TestUla:
    def test_fifty_lambda(self):
        g = build_ula(50 * LAM, LAM)
        assert g.n_elements == 101
        assert g.aperture == pytest.approx(50 * LAM, abs=1e-12)

    def test_minimal_array(self):
        g = build_ula(0.5 * LAM, LAM)
        assert g.n_elements == 2
        assert sorted(g.elements[:, 0]) == pytest.approx([-0.25, 0.25], abs=1e-12)

    def test_on_x_axis(self):
        g = build_ula(10 * LAM, LAM)
        assert np.all(g.elements[:, 1] == 0)
        assert np.all(g.elements[:, 2] == 0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_ula(0.4 * LAM, LAM)


class TestUca:
    def test_count_and_radius(self):
        g = build_uca(50 * LAM, LAM)
        assert g.n_elements == math.ceil(100 * math.pi)
        assert g.n_elements >= 315
        radii = np.linalg.norm(g.elements, axis=1)
        assert np.max(np.abs(radii - 25 * LAM)) <= 1e-12

    def test_count_ratio_vs_ula(self):
        uca = build_uca(50 * LAM, LAM)
        ula = build_ula(50 * LAM, LAM)
        assert uca.n_elements / ula.n_elements == pytest.approx(math.pi, rel=0.02)

    def test_edge_on_plane(self):
        # ring in the x-z plane so the +z axis sees it edge-on
        g = build_uca(10 * LAM, LAM)
        assert np.all(g.elements[:, 1] == 0)
        assert np.ptp(g.elements[:, 2]) > 0

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_uca(0.2 * LAM, LAM)


class TestUra:
    def test_per_axis_count(self):
        g = build_ura(80 * LAM, LAM)
        n_axis = int(round(math.sqrt(g.n_elements)))
        assert n_axis == 114
        assert n_axis * n_axis == g.n_elements

    def test_side_extent(self):
        g = build_ura(80 * LAM, LAM)
        side = g.elements[:, 0].max() - g.elements[:, 0].min()
        assert abs(side - 80 * LAM / math.sqrt(2)) <= 0.5 * LAM
        assert np.all(g.elements[:, 2] == 0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_ura(0.5 * LAM, LAM)


class TestUpca:
    def test_ring_radii_two_lambda(self):
        g = build_upca(2 * LAM, LAM)
        radii = np.unique(np.round(np.linalg.norm(g.elements, axis=1), 9))
        assert list(radii) == pytest.approx([0.0, 0.5, 1.0], abs=1e-9)

    def test_max_radius_is_half_aperture(self):
        g = build_upca(12 * LAM, LAM)
        assert np.linalg.norm(g.elements, axis=1).max() == pytest.approx(
            6 * LAM, abs=1e-12)

    def test_center_element_present(self):
        g = build_upca(3 * LAM, LAM)
        assert np.any(np.linalg.norm(g.elements, axis=1) < 1e-12)

    def test_nearest_neighbor_spacing(self):
        g = build_upca(8 * LAM, LAM)
        assert nearest_neighbor_max(g.elements) <= 0.5 * LAM + 1e-9

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_upca(0.9 * LAM, LAM)

    @pytest.mark.parametrize("wavelength", [
        3.5e-323, 1e-320, 1e-9, 0.0123, 1.0, 7.3, 1e150])
    def test_count_independent_of_wavelength(self, wavelength):
        # ring i holds ceil(2 pi i) elements at every wavelength, also a
        # subnormal one, where i lambda / 2 rounds
        for rings in (1, 2, 12, 50):
            want = 1 + sum(int(mpmath.ceil(2 * mpmath.pi * i))
                           for i in range(1, rings + 1))
            g = build_upca(rings * wavelength, wavelength)
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


@pytest.mark.parametrize("kind, aperture", [
    (GeometryKind.ULA, 6e5), (GeometryKind.UCA, 2e5), (GeometryKind.URA, 710.0),
    (GeometryKind.UPCA, 564.0), (GeometryKind.UPCA, 1e200)])
def test_element_limit(kind, aperture):
    # 100 lambda, the largest aperture in use, stays far below the limit;
    # these apertures just exceed it and are rejected before allocation
    assert build_array(kind, 100 * LAM, LAM).n_elements < MAX_ELEMENTS / 10
    with pytest.raises(ValueError, match="exceeds"):
        build_array(kind, aperture * LAM, LAM)


@pytest.mark.parametrize("kind, aperture", [
    (GeometryKind.ULA, 1.0), (GeometryKind.UCA, 1.0), (GeometryKind.URA, 1.5),
    (GeometryKind.UPCA, 1.7)])
def test_count_numerator_overflow_named(kind, aperture):
    # a few elements, but 2 D, 2 pi D or sqrt(2) D overflows, or the
    # norm of a UPCA ring's positions does
    with pytest.raises(ValueError, match=f"^{kind.name} aperture overflows"):
        build_array(kind, aperture * 1e308, 1e308)
    # a count that is infinite because D / lambda is still exceeds the limit
    with pytest.raises(ValueError, match="exceeds"):
        build_array(kind, 1e308, 1e-10)


def test_elements_are_immutable():
    g = build_ula(5 * LAM, LAM)
    with pytest.raises(ValueError):
        g.elements[0, 0] = 1.0
    positions, weights = g.axial_terms
    with pytest.raises(ValueError):
        positions[0, 0] = 7.0
    with pytest.raises(ValueError):
        weights[0] = 7.0


@pytest.mark.parametrize("wavelength", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("kind", list(GeometryKind))
def test_bad_wavelength_rejected(kind, wavelength):
    with pytest.raises(ValueError, match="wavelength"):
        build_array(kind, 10.0, wavelength)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown geometry kind"):
        build_array("ula", 1.0, 1.0)


@pytest.mark.parametrize("kind", ["ula", "ULA", 1])
def test_hand_built_unknown_kind_rejected(kind):
    # a kind that is not a GeometryKind would take the ring aperture rule
    with pytest.raises(ValueError, match="unknown geometry kind"):
        ArrayGeometry(kind, LAM, build_ula(10 * LAM, LAM).elements)
    # and is named before the aperture overflows
    huge = np.array([[-1.5e308, 0.0, 0.0], [1.5e308, 0.0, 0.0]])
    with pytest.raises(ValueError, match="unknown geometry kind"):
        ArrayGeometry(kind, LAM, huge)


@pytest.mark.parametrize("elements", [
    np.empty((0, 3)), np.array([[0.0, 0.0, math.nan]]), np.zeros((2, 2)),
    np.zeros((2, 3, 1)), [[0.0, 0.0, 0.0]]], ids=["empty", "nan", "2x2",
                                                 "3d", "list"])
def test_bad_hand_built_elements_rejected(elements):
    with pytest.raises(ValueError, match="elements"):
        ArrayGeometry(kind=None, wavelength=LAM, elements=elements)


@pytest.mark.parametrize("wavelength", [0.0, -1.0, math.nan])
def test_hand_built_bad_wavelength_rejected(wavelength):
    with pytest.raises(ValueError, match="wavelength"):
        ArrayGeometry(kind=None, wavelength=wavelength,
                      elements=np.zeros((1, 3)))


@pytest.mark.parametrize("wavelength", ["1.0", b"1.0", None, 1j, [1.0],
                                        np.array([1.0]), True])
@pytest.mark.parametrize("kind", list(GeometryKind))
def test_non_real_wavelength_rejected(kind, wavelength):
    with pytest.raises(ValueError, match="wavelength must be finite and positive"):
        ArrayGeometry(kind, wavelength, build_array(kind, 10.0, 1.0).elements)
    with pytest.raises(ValueError, match="wavelength must be finite and positive"):
        build_array(kind, 10.0, wavelength)


@pytest.mark.parametrize("aperture", ["5", b"5", None, 5j, True,
                                      np.array([5.0, 6.0]), [5.0], np.nan,
                                      np.inf],
                         ids=["str", "bytes", "none", "complex", "bool",
                              "array", "list", "nan", "inf"])
@pytest.mark.parametrize("kind, name", [
    (GeometryKind.ULA, "aperture"), (GeometryKind.UCA, "diameter"),
    (GeometryKind.URA, "diagonal"), (GeometryKind.UPCA, "diameter")],
    ids=["ula", "uca", "ura", "upca"])
def test_non_real_aperture_named(kind, name, aperture):
    # named before the lambda/2 rule compares it or a count is taken from it
    with pytest.raises(ValueError, match=f"^{name} must be finite "
                                         r"\(a real scalar\), got "):
        build_array(kind, aperture, 1.0)


@pytest.mark.parametrize("kind, aperture", [
    (GeometryKind.ULA, 0.3), (GeometryKind.ULA, -5), (GeometryKind.UCA, 0.0),
    (GeometryKind.URA, -1.0), (GeometryKind.UPCA, 0.9)])
def test_small_aperture_keeps_its_message(kind, aperture):
    with pytest.raises(ValueError, match=f"^{kind.name} [a-z]+ must be >= "
                                         f"lambda(/2|/sqrt\\(2\\))?, got "):
        build_array(kind, aperture, 1.0)


def test_zero_aperture_rejected_at_subnormal_wavelength(capsys):
    # lambda/2 underflows to 0 at lambda = 5e-324, so a zero aperture is
    # compared with lambda itself
    with pytest.raises(ValueError, match=r"^ULA aperture must be >= lambda/2"):
        build_ula(0.0, 5e-324)
    with pytest.raises(ValueError, match=r"^UCA diameter must be >= lambda/2"):
        build_uca(0.0, 5e-324)
    argv = ["dump-geometry", "--kind", "uca", "--aperture-lambda", "0.5",
            "--wavelength", "5e-324"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["nfsense: error: UCA diameter must be >= "
                                "lambda/2, got 0.0"]


def test_real_aperture_types_give_the_same_array():
    want = build_array(GeometryKind.UPCA, 6.0, 1.0).elements
    for aperture in (6, np.int32(6), np.float32(6.0), np.array(6.0)):
        assert np.array_equal(
            build_array(GeometryKind.UPCA, aperture, 1.0).elements, want)


class TestFloatWavelength:
    """A wavelength of any real type is kept as a Python float."""

    LAM32 = np.float32(0.0123)

    def test_kept_as_float(self):
        g = build_ula(20 * 0.0123, 0.0123)
        for wavelength in (self.LAM32, np.float64(0.5), 2, np.int32(2),
                           np.array(0.25)):
            hand = ArrayGeometry(GeometryKind.ULA, wavelength, g.elements)
            assert type(hand.wavelength) is float
            assert hand.wavelength == float(wavelength)
            built = build_ula(10.0, wavelength)
            assert type(built.wavelength) is float

    def test_fraunhofer_distance_in_double(self):
        g = build_ula(20 * 0.0123, 0.0123)
        hand = ArrayGeometry(GeometryKind.ULA, self.LAM32, g.elements)
        double = ArrayGeometry(GeometryKind.ULA, float(self.LAM32), g.elements)
        assert type(fraunhofer_distance(hand)) is float
        assert fraunhofer_distance(hand) == fraunhofer_distance(double)
        assert fraunhofer_distance(hand) == 9.840000324249278

    def test_exact_sum_in_double(self):
        g = build_upca(6 * 0.0123, 0.0123)
        hand = ArrayGeometry(GeometryKind.UPCA, self.LAM32, g.elements)
        double = ArrayGeometry(GeometryKind.UPCA, float(self.LAM32), g.elements)
        target = [0.01, 0.02, 0.5]
        probes = [[0.0, 0.01, 0.4], [0.03, 0.0, 0.7]]
        for make in (simo_miso_setup, mimo_setup):
            assert np.array_equal(normalized_power(make(hand), target, probes),
                                  normalized_power(make(double), target, probes))


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
        (GeometryKind.UPCA, 50.2, 1.0, "0x1.9000000000001p+5"),
        (GeometryKind.UPCA, 7.31, 0.0123, "0x1.60aa64c2f837cp-4")])
    def test_builder_bits(self, kind, aperture, wavelength, bits):
        # the values the builders recorded when they measured it themselves
        g = build_array(kind, aperture * wavelength, wavelength)
        assert g.aperture.hex() == bits
        hand = ArrayGeometry(kind, wavelength, g.elements)
        assert hand.aperture.hex() == bits

    def test_single_element_is_zero(self):
        assert simo_miso_setup(build_ula(10 * LAM, LAM)).tx.aperture == 0.0

    def test_hand_built_ring_diameter(self):
        theta = 2.0 * math.pi * np.arange(7) / 7
        ring = np.column_stack([3.0 * np.cos(theta), 3.0 * np.sin(theta),
                                np.zeros(7)])
        g = ArrayGeometry(kind=None, wavelength=LAM, elements=ring)
        assert g.aperture == pytest.approx(6.0, rel=1e-15)

    def test_kind_sets_the_rule(self):
        # the same square grid measured as a ULA (x extent), a URA
        # (diagonal) and a ring (twice the largest norm)
        g = build_ura(10 * LAM, LAM)
        side = float(np.ptp(g.elements[:, 0]))
        assert ArrayGeometry(GeometryKind.ULA, LAM, g.elements).aperture == side
        assert g.aperture == math.hypot(side, side)
        assert ArrayGeometry(None, LAM, g.elements).aperture == pytest.approx(
            math.hypot(side, side), rel=1e-15)

    @pytest.mark.parametrize("kind", [None, *GeometryKind])
    def test_overflow_rejected(self, kind):
        huge = np.array([[-1.5e308, -1.5e308, 0.0], [1.5e308, 1.5e308, 0.0]])
        with pytest.raises(ValueError, match="aperture overflows"):
            ArrayGeometry(kind=kind, wavelength=LAM, elements=huge)


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
        g = build_uca(aperture * LAM, LAM)
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
        assert fraunhofer_distance(build_ula(50.0, 1.0)) == pytest.approx(5000.0)

    def test_eighty_lambda(self):
        assert fraunhofer_distance(build_ula(80.0, 1.0)) == pytest.approx(12800.0)

    def test_quadratic_scaling(self):
        d1 = fraunhofer_distance(build_ula(20.0, 1.0))
        d2 = fraunhofer_distance(build_ula(40.0, 1.0))
        assert d2 == pytest.approx(4.0 * d1)

    def test_out_of_float_range(self):
        # 21 elements, but D^2 = 1e400 overflows
        g = build_array(GeometryKind.ULA, 1e200, 1e199)
        with pytest.raises(ValueError, match="floating-point range"):
            fraunhofer_distance(g)

    @pytest.mark.parametrize("wavelength", [1e-163, 1e-156])
    def test_subnormal_square_rejected(self, wavelength):
        # 101 elements, but D^2 is below the smallest normal float and has
        # lost digits: at 1e-163 the boundary would be 4.94e-160 m, not 5e-160
        g = build_ula(50 * wavelength, wavelength)
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
        assert _fraunhofer(1e200, 1.0) == math.inf


def test_single_element():
    # the SIMO/MISO transmit element is a view of the setup, not an export
    g = build_ula(10 * LAM, 0.5)
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
    g = build_upca(50 * LAM, LAM)
    s = simo_miso_setup(g)
    tx = s.tx
    assert s.tx is tx
    assert tx.elements.tolist() == [[0.0, 0.0, 0.0]]
    assert tx.wavelength == g.wavelength
    assert simo_miso_setup(g).tx is not tx
    # the kept element is not a field: equality and the fields are the two
    assert s == simo_miso_setup(g)
    assert [f.name for f in dataclasses.fields(s)] == ["aperture", "mode"]


def test_geometry_csv_roundtrip(tmp_path):
    g = build_uca(4 * LAM, LAM)
    out = tmp_path / "uca.csv"
    assert main(["dump-geometry", "--kind", "uca", "--aperture-lambda", "4",
                 "--wavelength", str(LAM), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,x,y,z"
    assert len(lines) == g.n_elements + 1
    parsed = np.array([[float(v) for v in line.split(",")[1:]]
                       for line in lines[1:]])
    assert np.max(np.abs(parsed - g.elements)) <= 1e-9


class TestSensingSetup:
    def test_simo_factory(self):
        g = build_ula(10 * LAM, LAM)
        s = simo_miso_setup(g)
        assert s.mode is ProcessingMode.SIMO_MISO
        assert s.tx.n_elements == 1
        assert s.rx is g
        assert s.frequency == pytest.approx(SPEED_OF_LIGHT / LAM)
        assert s.aperture is g

    def test_mimo_factory(self):
        g = build_uca(10 * LAM, LAM)
        s = mimo_setup(g)
        assert s.mode is ProcessingMode.MIMO
        assert s.tx is g and s.rx is g

    def test_frequency_is_derived(self):
        g = build_ula(10.0, 0.01)
        s = mimo_setup(g)
        assert [f.name for f in dataclasses.fields(s)] == ["aperture", "mode"]
        assert s.frequency == SPEED_OF_LIGHT / 0.01
        with pytest.raises(TypeError):
            SensingSetup(g, ProcessingMode.MIMO, frequency=1e9)
        with pytest.raises(TypeError):
            SensingSetup(tx=g, rx=g, mode=ProcessingMode.MIMO)

    @pytest.mark.parametrize("aperture", [None, "ula", GeometryKind.ULA,
                                          np.zeros((1, 3))])
    @pytest.mark.parametrize("mode", list(ProcessingMode))
    def test_non_geometry_aperture_rejected(self, aperture, mode):
        # a setup that is built can be summed
        with pytest.raises(ValueError, match="^aperture must be an "
                                             "ArrayGeometry, got "):
            SensingSetup(aperture, mode)


def test_mode_exponents():
    assert ProcessingMode.SIMO_MISO.power_exponent == 1
    assert ProcessingMode.MIMO.power_exponent == 2
