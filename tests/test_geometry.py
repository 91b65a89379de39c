import dataclasses
import math

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


def test_elements_are_immutable():
    g = build_ula(5 * LAM, LAM)
    with pytest.raises(ValueError):
        g.elements[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.axial_class[0] = 7


@pytest.mark.parametrize("wavelength", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("kind", list(GeometryKind))
def test_bad_wavelength_rejected(kind, wavelength):
    with pytest.raises(ValueError, match="wavelength"):
        build_array(kind, 10.0, wavelength)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown geometry kind"):
        build_array("ula", 1.0, 1.0)


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
        ArrayGeometry(None, LAM, np.zeros((1, 3)), axial_class=[0])


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


def same_partition(a, b):
    """True if the labels a and b group the elements the same way."""
    a = np.unique(a, return_inverse=True)[1].ravel()
    b = np.unique(b, return_inverse=True)[1].ravel()
    pairs = np.unique(a * (b.max() + 1) + b)
    return len(pairs) == a.max() + 1 == b.max() + 1


def _axial_key(g):
    """(x^2 + y^2, z) per element, in wavelengths."""
    e = g.elements / g.wavelength
    return np.column_stack([e[:, 0] ** 2 + e[:, 1] ** 2, e[:, 2]])


class TestAxialClasses:
    @pytest.mark.parametrize("kind, aperture, elements, classes", [
        (GeometryKind.ULA, 50.0, 101, 51), (GeometryKind.UPCA, 50.0, 8037, 51),
        (GeometryKind.URA, 50.0, 5041, 536), (GeometryKind.UCA, 50.2, 316, 159)])
    def test_class_count(self, kind, aperture, elements, classes):
        g = build_array(kind, aperture * LAM, LAM)
        assert g.n_elements == elements
        assert g.axial_class.shape == (elements,)
        assert len(np.unique(g.axial_class)) == classes

    @pytest.mark.parametrize("aperture", [50.0, 10.0, 3.3])
    def test_odd_uca_all_distinct(self, aperture):
        g = build_uca(aperture * LAM, LAM)
        assert g.n_elements % 2 == 1
        assert len(np.unique(g.axial_class)) == g.n_elements

    @pytest.mark.parametrize("kind, aperture", [
        (GeometryKind.ULA, 50.0), (GeometryKind.UCA, 50.2),
        (GeometryKind.URA, 50.0), (GeometryKind.UPCA, 50.0),
        (GeometryKind.UCA, 12.0), (GeometryKind.ULA, 0.5)])
    def test_members_share_axial_distance(self, kind, aperture):
        g = build_array(kind, aperture * LAM, LAM)
        key = _axial_key(g)
        for c in np.unique(g.axial_class):
            members = key[g.axial_class == c]
            assert np.max(np.abs(members - members[0])) <= 1e-12

    def test_distinct_classes_differ(self):
        # classes are as coarse as the layout allows: two classes never
        # share (x^2 + y^2, z)
        for kind in GeometryKind:
            g = build_array(kind, 20.4 * LAM, LAM)
            _, first = np.unique(g.axial_class, return_index=True)
            reps = np.round(_axial_key(g)[first], 9)
            assert len(np.unique(reps, axis=0)) == len(first)

    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_hand_built_has_builder_classes(self, kind):
        g = build_array(kind, 10.3 * LAM, LAM)
        hand = ArrayGeometry(kind=None, wavelength=g.wavelength,
                             elements=g.elements.copy())
        assert same_partition(hand.axial_class, g.axial_class)
        assert same_partition(hand.axial_class, oracle_classes(g))

    @pytest.mark.parametrize("wavelength", [1.0, 0.0123, 7.1e-9])
    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_partition_equals_index_oracle(self, kind, wavelength):
        # the index formulas the builders once labeled their elements with
        for aperture in np.linspace(1.0, 100.0, 40):
            g = build_array(kind, aperture * wavelength, wavelength)
            assert same_partition(g.axial_class, oracle_classes(g)), aperture

    def test_chain_of_small_steps_split(self):
        # four keys 0.6 tolerance apart: each step is within the tolerance,
        # the chain is not
        step = 0.6 * _CLASS_TOL
        g = ArrayGeometry(kind=None, wavelength=LAM, elements=np.array(
            [[0.0, 0.0, 0.25 + i * step] for i in range(4)]))
        assert len(np.unique(g.axial_class)) == 4
        # a step past the tolerance starts a new class on its own
        g = ArrayGeometry(kind=None, wavelength=LAM, elements=np.array(
            [[0.0, 0.0, 0.25], [0.0, 0.0, 0.25 + step],
             [0.0, 0.0, 0.25 + 3.0 * step]]))
        assert g.axial_class[0] == g.axial_class[1] != g.axial_class[2]

    def test_derived_on_demand_only(self, monkeypatch):
        # building, exporting and off-axis sums never derive the classes
        for kind in GeometryKind:
            g = build_array(kind, 6 * LAM, LAM)
            normalized_power(mimo_setup(g), [1.0, 2.0, 40.0], [[0.0, 1.0, 30.0]])
            assert "axial_class" not in g.__dict__
        with monkeypatch.context() as patch:
            patch.setattr(ArrayGeometry, "axial_class",
                          property(lambda g: pytest.fail("classes derived")))
            for kind in ("ula", "uca", "ura", "upca"):
                assert main(["dump-geometry", "--kind", kind,
                             "--aperture-lambda", "4", "--out", "-"]) == 0
        classes = g.axial_class
        assert g.__dict__["axial_class"] is classes and g.axial_class is classes
        assert not classes.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.axial_class = np.arange(g.n_elements)


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
    assert tx.axial_class.tolist() == [0]
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


def test_argument_scales():
    assert GeometryKind.ULA.argument_scale == 0.25
    assert GeometryKind.UCA.argument_scale == pytest.approx(math.pi / 16)
    assert GeometryKind.URA.argument_scale == 0.125
    assert GeometryKind.UPCA.argument_scale == pytest.approx(1.0 / 16)


def test_mode_exponents():
    assert ProcessingMode.SIMO_MISO.power_exponent == 1
    assert ProcessingMode.MIMO.power_exponent == 2
