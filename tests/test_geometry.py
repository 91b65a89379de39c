import math

import numpy as np
import pytest

from nfsense.geometry import (ArrayGeometry, GeometryKind, ProcessingMode,
                              SensingSetup, SPEED_OF_LIGHT, build_array,
                              build_uca, build_ula, build_upca, build_ura,
                              MAX_ELEMENTS, fraunhofer_distance, mimo_setup,
                              simo_miso_setup, single_element)
from nfsense.cli import main

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

    def test_hand_built_all_distinct(self):
        g = build_upca(6 * LAM, LAM)
        hand = ArrayGeometry(kind=g.kind, wavelength=g.wavelength,
                             elements=g.elements.copy(), aperture=g.aperture)
        assert hand.axial_class.tolist() == list(range(g.n_elements))

    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_mislabeled_classes_rejected(self, kind):
        g = build_array(kind, 10 * LAM, LAM)
        # join the two classes of the first two distinct class ids
        ids = np.unique(g.axial_class)
        wrong = np.where(g.axial_class == ids[1], ids[0], g.axial_class)
        with pytest.raises(ValueError, match="axial_class"):
            ArrayGeometry(kind=g.kind, wavelength=g.wavelength,
                          elements=g.elements.copy(), aperture=g.aperture,
                          axial_class=wrong)

    @pytest.mark.parametrize("classes", [np.zeros(3, dtype=int),
                                         np.arange(21) * 1.0])
    def test_malformed_classes_rejected(self, classes):
        g = build_ula(10 * LAM, LAM)
        with pytest.raises(ValueError, match="axial_class"):
            ArrayGeometry(kind=g.kind, wavelength=g.wavelength,
                          elements=g.elements.copy(), aperture=g.aperture,
                          axial_class=classes)


class TestFraunhofer:
    def test_fifty_lambda(self):
        assert fraunhofer_distance(build_ula(50.0, 1.0)) == pytest.approx(5000.0)

    def test_eighty_lambda(self):
        assert fraunhofer_distance(build_ula(80.0, 1.0)) == pytest.approx(12800.0)

    def test_quadratic_scaling(self):
        d1 = fraunhofer_distance(build_ula(20.0, 1.0))
        d2 = fraunhofer_distance(build_ula(40.0, 1.0))
        assert d2 == pytest.approx(4.0 * d1)


def test_single_element():
    g = single_element(LAM)
    assert g.n_elements == 1
    assert g.aperture == 0.0
    assert g.kind is None
    assert g.axial_class.tolist() == [0]


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

    def test_mimo_rejects_different_apertures(self):
        g1 = build_ula(10 * LAM, LAM)
        g2 = build_ula(12 * LAM, LAM)
        with pytest.raises(ValueError):
            SensingSetup(tx=g1, rx=g2, mode=ProcessingMode.MIMO)

    def test_bistatic_simo_rejected(self):
        g1 = build_ula(10 * LAM, LAM)
        g2 = build_uca(10 * LAM, LAM)
        with pytest.raises(ValueError):
            SensingSetup(tx=g1, rx=g2, mode=ProcessingMode.SIMO_MISO)

    def test_wavelength_mismatch_rejected(self):
        g1 = build_ula(10.0, 1.0)
        g2 = single_element(2.0)
        with pytest.raises(ValueError):
            SensingSetup(tx=g2, rx=g1, mode=ProcessingMode.SIMO_MISO)


def test_argument_scales():
    assert GeometryKind.ULA.argument_scale == 0.25
    assert GeometryKind.UCA.argument_scale == pytest.approx(math.pi / 16)
    assert GeometryKind.URA.argument_scale == 0.125
    assert GeometryKind.UPCA.argument_scale == pytest.approx(1.0 / 16)


def test_mode_exponents():
    assert ProcessingMode.SIMO_MISO.power_exponent == 1
    assert ProcessingMode.MIMO.power_exponent == 2
