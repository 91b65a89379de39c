import math

import numpy as np
import pytest

from nfsense.ambiguity import (ambiguity, array_factor, broadside_power_sweep,
                               channel_phase, normalized_power)
from nfsense.closed_form import (af_argument, normalized_af_power,
                                 vergence_difference)
from nfsense.geometry import (SPEED_OF_LIGHT, GeometryKind, ProcessingMode,
                              build_array, build_uca, build_ula,
                              fraunhofer_distance, mimo_setup, simo_miso_setup,
                              single_element)
from nfsense.metrics import half_power_coefficient, half_power_distances

LAM = 1.0
FREQ = SPEED_OF_LIGHT / LAM
ORIGIN = np.zeros(3)


class TestChannelPhase:
    def test_full_cycle(self):
        assert channel_phase(ORIGIN, [0, 0, LAM], FREQ) == pytest.approx(1 + 0j,
                                                                         abs=1e-12)

    def test_quarter_cycle(self):
        assert channel_phase(ORIGIN, [0, 0, LAM / 4], FREQ) == pytest.approx(
            -1j, abs=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform(-30, 30, 3)
            assert abs(abs(channel_phase(ORIGIN, p, FREQ)) - 1.0) <= 1e-12

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            channel_phase(ORIGIN, [0, 0, 1e-9 * LAM], FREQ)


class TestArrayFactor:
    def test_peak_at_target(self):
        g = build_ula(20 * LAM, LAM)
        t = [0.0, 0.0, 50.0]
        af = array_factor(g, t, t)
        assert af == pytest.approx(math.sqrt(g.n_elements) + 0j, abs=1e-9)

    def test_single_element_unit_modulus(self):
        g = single_element(LAM)
        rng = np.random.default_rng(9)
        for _ in range(20):
            probe = rng.uniform(5, 50, 3)
            af = array_factor(g, [0, 0, 30.0], probe)
            assert abs(abs(af) - 1.0) <= 1e-12

    def test_modulus_bounded(self):
        g = build_uca(8 * LAM, LAM)
        rng = np.random.default_rng(13)
        probes = rng.uniform(-40, 40, (200, 3)) + np.array([0, 0, 60.0])
        af = array_factor(g, [0, 0, 50.0], probes)
        assert np.all(np.abs(af) <= math.sqrt(g.n_elements) + 1e-9)

    def test_matches_closed_form_outside_mainlobe(self):
        # probe well outside the half-power region still tracks the
        # Fresnel form within 2% of the unit peak
        g = build_ula(50 * LAM, LAM)
        d_fa = fraunhofer_distance(g)
        af = array_factor(g, [0, 0, 100.0], [0, 0, 120.0])
        exact = abs(af) ** 2 / g.n_elements
        x = af_argument(GeometryKind.ULA, d_fa, vergence_difference(100.0, 120.0))
        closed = normalized_af_power(GeometryKind.ULA, ProcessingMode.SIMO_MISO, x)
        assert abs(exact - closed) <= 0.02

    def test_batch_matches_sequential(self):
        g = build_ula(10 * LAM, LAM)
        t = [0.0, 0.0, 40.0]
        probes = np.array([[0.0, 0.0, z] for z in (30.0, 35.0, 45.0, 60.0)])
        batch = array_factor(g, t, probes)
        single = [array_factor(g, t, p) for p in probes]
        assert np.max(np.abs(batch - np.array(single))) == 0.0


class TestAmbiguity:
    def test_peak_value(self):
        g = build_ula(10 * LAM, LAM)
        s = simo_miso_setup(g)
        t = [0.0, 0.0, 25.0]
        peak = ambiguity(s, t, t)
        assert peak == pytest.approx(math.sqrt(s.tx.n_elements * s.rx.n_elements),
                                     abs=1e-9)

    def test_single_pair_unit_modulus(self):
        s = simo_miso_setup(single_element(LAM))
        val = ambiguity(s, [0, 0, 10.0], [1.0, 2.0, 20.0])
        assert abs(abs(val) - 1.0) <= 1e-12

    def test_factorization_identity(self):
        g = build_uca(12 * LAM, LAM)
        s = mimo_setup(g)
        t, p = [0.0, 0.0, 80.0], [0.0, 0.0, 95.0]
        full = ambiguity(s, t, p)
        split = array_factor(s.tx, t, p, s.frequency) \
            * array_factor(s.rx, t, p, s.frequency)
        assert abs(full - split) <= 1e-9 * abs(full)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(21)
        g = build_ula(8 * LAM, LAM)
        s = mimo_setup(g)
        for _ in range(20):
            t = rng.uniform(5, 60, 3)
            p = rng.uniform(5, 60, 3)
            assert abs(ambiguity(s, t, p) - np.conj(ambiguity(s, p, t))) <= 1e-12

    def test_degenerate_probe_rejected(self):
        g = build_ula(10 * LAM, LAM)
        s = simo_miso_setup(g)
        with pytest.raises(ValueError):
            ambiguity(s, [0, 0, 30.0], g.elements[3])


class TestNormalizedPower:
    def test_peak_is_one(self):
        g = build_ula(10 * LAM, LAM)
        t = [0.0, 0.0, 30.0]
        for s in (simo_miso_setup(g), mimo_setup(g)):
            assert normalized_power(s, t, t) == pytest.approx(1.0, abs=1e-12)

    def test_in_unit_interval(self):
        g = build_ula(6 * LAM, LAM)
        s = mimo_setup(g)
        rng = np.random.default_rng(17)
        probes = rng.uniform(-50, 50, (10_000, 3))
        probes[:, 2] = np.abs(probes[:, 2]) + 3.0
        power = normalized_power(s, [0.0, 0.0, 25.0], probes)
        assert np.all(power >= 0.0)
        assert np.all(power <= 1.0 + 1e-9)

    def test_simo_miso_reciprocity(self):
        from nfsense.geometry import SensingSetup
        g = build_uca(10 * LAM, LAM)
        point = single_element(LAM)
        simo = SensingSetup(tx=point, rx=g, mode=ProcessingMode.SIMO_MISO)
        miso = SensingSetup(tx=g, rx=point, mode=ProcessingMode.SIMO_MISO)
        t = [0.0, 0.0, 50.0]
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = [0.0, 0.0, float(rng.uniform(20, 200))]
            assert normalized_power(simo, t, p) == pytest.approx(
                normalized_power(miso, t, p), abs=1e-12)

    def test_mimo_is_squared_single_aperture(self):
        g = build_ula(12 * LAM, LAM)
        t = [0.0, 0.0, 60.0]
        p = [0.0, 0.0, 75.0]
        af = array_factor(g, t, p)
        expected = (abs(af) ** 2 / g.n_elements) ** 2
        assert normalized_power(mimo_setup(g), t, p) == pytest.approx(
            expected, abs=1e-9)

    def test_mimo_low_at_first_fresnel_minimum(self):
        # x = 4 sits at the first minimum of the ULA closed form; the
        # direct sum there is small but not exactly zero
        g = build_ula(50 * LAM, LAM)
        s = mimo_setup(g)
        d_fa = fraunhofer_distance(g)
        d_ver = 4.0 / (GeometryKind.ULA.argument_scale * d_fa)
        for d in (1.0 / (1.0 / 100.0 + d_ver), 1.0 / (1.0 / 100.0 - d_ver)):
            assert normalized_power(s, [0, 0, 100.0], [0, 0, d]) <= 0.01


class TestClosedFormConvergence:
    @pytest.mark.parametrize("kind", [GeometryKind.ULA, GeometryKind.UCA])
    def test_mainlobe_agreement(self, kind):
        g = build_array(kind, 50 * LAM, LAM)
        d_fa = fraunhofer_distance(g)
        mode = ProcessingMode.SIMO_MISO
        coeff = half_power_coefficient(kind, mode)
        d_low, d_high = half_power_distances(100.0, d_fa, coeff)
        grid = np.linspace(d_low, d_high, 201)
        exact = broadside_power_sweep(simo_miso_setup(g), 100.0, grid)
        x = kind.argument_scale * d_fa * np.abs(1.0 / 100.0 - 1.0 / grid)
        closed = normalized_af_power(kind, mode, x)
        assert np.max(np.abs(exact - closed)) <= 0.02

    def test_uca_rotation_invariance(self):
        # rotating the ring about the evaluation axis must not change the
        # on-axis response
        g = build_uca(20 * LAM, LAM)
        phi = 0.7347
        rot = np.array([[math.cos(phi), -math.sin(phi), 0.0],
                        [math.sin(phi), math.cos(phi), 0.0],
                        [0.0, 0.0, 1.0]])
        from nfsense.geometry import ArrayGeometry
        rotated = ArrayGeometry(kind=g.kind, wavelength=g.wavelength,
                                elements=g.elements @ rot.T, aperture=g.aperture)
        radii = np.sort(np.linalg.norm(g.elements, axis=1))
        radii_rot = np.sort(np.linalg.norm(rotated.elements, axis=1))
        assert np.max(np.abs(radii - radii_rot)) <= 1e-9
        t = [0.0, 0.0, 70.0]
        for d in (55.0, 70.0, 90.0):
            p0 = normalized_power(simo_miso_setup(g), t, [0, 0, d])
            p1 = normalized_power(simo_miso_setup(rotated), t, [0, 0, d])
            assert p0 == pytest.approx(p1, abs=1e-12)
