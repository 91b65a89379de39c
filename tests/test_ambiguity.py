import math
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest

from nfsense import ambiguity as ambiguity_module
from nfsense.ambiguity import (array_factor, broadside_power_sweep,
                               normalized_power)
from nfsense.cli import main
from nfsense.closed_form import (af_argument, normalized_af_power,
                                 vergence_difference)
from nfsense.geometry import (SPEED_OF_LIGHT, ArrayGeometry, GeometryKind,
                              ProcessingMode, build_array, build_uca,
                              build_ula, fraunhofer_distance, mimo_setup,
                              simo_miso_setup)
from nfsense.metrics import half_power_coefficient, half_power_distances

from reference_sums import (ambiguity, channel_phase, dense_array_factor,
                            dense_power)

LAM = 1.0
FREQ = SPEED_OF_LIGHT / LAM
ORIGIN = np.zeros(3)
# one element at the origin
POINT = ArrayGeometry(kind=None, wavelength=LAM, elements=np.zeros((1, 3)),
                      aperture=0.0)


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
        rng = np.random.default_rng(9)
        for _ in range(20):
            probe = rng.uniform(5, 50, 3)
            af = array_factor(POINT, [0, 0, 30.0], probe)
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


class TestPhasorAccuracy:
    """A single element's factor is exp(-2 pi j c) for a probe c cycles
    nearer than the target; the kernel reduces c to [-1/2, 1/2] exactly, so
    its error does not grow with c."""

    TARGET = 2e4

    @staticmethod
    def cycles():
        # integers, half-integers (the half-angle tangent's pole),
        # quarter-integers and random offsets, each exact in 2e4 - c
        k = np.array([0.0, 1.0, 2.0, 7.0, 2500.0, 9998.0, 9999.0])
        rng = np.random.default_rng(19)
        drawn = rng.uniform(0.0, 1e4, 400)
        drawn = TestPhasorAccuracy.TARGET - (TestPhasorAccuracy.TARGET - drawn)
        return np.concatenate([k, k + 0.5, k + 0.25, k + 0.75, [1e4], drawn])

    def test_against_mpmath(self):
        c = self.cycles()
        probes = np.zeros((c.size, 3))
        probes[:, 2] = self.TARGET - c
        assert np.array_equal(self.TARGET - probes[:, 2], c)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            af = array_factor(POINT, [0.0, 0.0, self.TARGET], probes)
        assert np.isfinite(af).all()
        with mpmath.workdps(40):
            exact = np.array([complex(mpmath.expjpi(-2 * mpmath.mpf(x)))
                              for x in c.tolist()])
        assert np.max(np.abs(af - exact)) <= 1e-15


class TestAmbiguity:
    def test_peak_value(self):
        g = build_ula(10 * LAM, LAM)
        s = simo_miso_setup(g)
        t = [0.0, 0.0, 25.0]
        peak = ambiguity(s, t, t)
        assert peak == pytest.approx(math.sqrt(s.tx.n_elements * s.rx.n_elements),
                                     abs=1e-9)

    def test_single_pair_unit_modulus(self):
        s = simo_miso_setup(POINT)
        val = ambiguity(s, [0, 0, 10.0], [1.0, 2.0, 20.0])
        assert abs(abs(val) - 1.0) <= 1e-12

    def test_factorization_identity(self):
        g = build_uca(12 * LAM, LAM)
        s = mimo_setup(g)
        t, p = [0.0, 0.0, 80.0], [0.0, 0.0, 95.0]
        full = ambiguity(s, t, p)
        split = array_factor(s.tx, t, p) * array_factor(s.rx, t, p)
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

    @pytest.mark.parametrize("make_setup", [simo_miso_setup, mimo_setup],
                             ids=["simo", "mimo"])
    def test_mimo_is_squared_single_aperture(self, make_setup):
        # one aperture sum raised to p, bit for bit: the single element of a
        # SIMO/MISO link adds no rounding
        g = build_ula(12 * LAM, LAM)
        s = make_setup(g)
        t = [0.0, 0.0, 60.0]
        probes = np.random.default_rng(5).uniform([-20, -20, 30], [20, 20, 120],
                                                  (50, 3))
        expected = (abs(array_factor(g, t, probes)) ** 2 / g.n_elements) \
            ** s.mode.power_exponent
        assert np.array_equal(normalized_power(s, t, probes), expected)

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


# apertures whose off-axis patch below spans at least three kernel blocks
_PATCH_APERTURES = {GeometryKind.ULA: 200.0, GeometryKind.UCA: 60.0,
                    GeometryKind.URA: 14.0, GeometryKind.UPCA: 12.0}


def _patch():
    """600 off-axis probes on a tilted 30 x 20 patch."""
    x, z = np.meshgrid(np.linspace(-15.0, 15.0, 30), np.linspace(60.0, 140.0, 20))
    return np.column_stack([x.ravel(), 5.0 + 0.1 * x.ravel(), z.ravel()])


class TestKernelMatchesDenseSum:
    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_off_axis_patch(self, kind):
        g = build_array(kind, _PATCH_APERTURES[kind] * LAM, LAM)
        probes = _patch()
        assert len(probes) * g.n_elements >= 3 * ambiguity_module._BLOCK_PAIRS
        target = [4.0, -3.0, 100.0]
        af = array_factor(g, target, probes)
        dense = dense_array_factor(g, target, probes)
        assert np.max(np.abs(af - dense)) / math.sqrt(g.n_elements) <= 1e-12
        for setup in (simo_miso_setup(g), mimo_setup(g)):
            power = normalized_power(setup, target, probes)
            assert np.max(np.abs(power - dense_power(setup, target, probes))) <= 1e-12

    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_weighted_broadside(self, kind):
        g = build_array(kind, 50 * LAM, LAM)
        grid = np.linspace(60.0, 200.0, 121)
        probes = np.column_stack([np.zeros((grid.size, 2)), grid])
        for setup in (simo_miso_setup(g), mimo_setup(g)):
            power = broadside_power_sweep(setup, 100.0, grid)
            dense = dense_power(setup, [0.0, 0.0, 100.0], probes)
            assert np.max(np.abs(power - dense)) <= 1e-12

    def test_broadside_point_on_element_rejected(self):
        # the edge-on ring of 316 elements has one on +z, at the top
        g = build_uca(50.2 * LAM, LAM)
        top = float(g.elements[:, 2].max())
        setup = simo_miso_setup(g)
        for target, probes in ((50.0, [30.0, top]), (top, [30.0, 40.0])):
            with pytest.raises(ValueError, match="coincides"):
                broadside_power_sweep(setup, target, probes)


class TestSplitBits:
    """The kernel's bits do not depend on how its probes are split into
    blocks and threads."""

    @staticmethod
    def _outputs(g, probes, grid):
        target = [4.0, -3.0, 100.0]
        out = []
        for setup in (simo_miso_setup(g), mimo_setup(g)):
            out += [normalized_power(setup, target, probes),
                    broadside_power_sweep(setup, 100.0, grid)]
        return out

    @pytest.fixture
    def fast_switching(self):
        # switch threads often, so that a block written by two threads or
        # not at all would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_same_bits_for_every_split(self, kind, monkeypatch, fast_switching):
        g = build_array(kind, _PATCH_APERTURES[kind] * LAM, LAM)
        classes = np.unique(g.axial_class).size
        # a broadside grid of at least four blocks of the serial walk
        grid = np.linspace(60.0, 300.0, 3 * (ambiguity_module._BLOCK_PAIRS
                                             // classes) + 1)
        probes = _patch()
        with monkeypatch.context() as patch:
            patch.setattr(ambiguity_module, "_WORKERS", 1)
            serial = self._outputs(g, probes, grid)
        split = [self._outputs(g, probes, grid)]
        for name, value in (("_WORKERS", 3), ("_BLOCK_PAIRS", 4099)):
            with monkeypatch.context() as patch:
                patch.setattr(ambiguity_module, name, value)
                split.append(self._outputs(g, probes, grid))
        for outputs in split:
            for got, want in zip(outputs, serial):
                assert np.array_equal(got, want)
        target = [4.0, -3.0, 100.0]
        for setup, power, sweep in zip((simo_miso_setup(g), mimo_setup(g)),
                                       serial[::2], serial[1::2]):
            for i in np.linspace(0, len(probes) - 1, 16).astype(int):
                assert normalized_power(setup, target, probes[i]) == power[i]
            for i in np.linspace(0, grid.size - 1, 16).astype(int):
                alone = broadside_power_sweep(setup, 100.0, grid[i:i + 1])
                assert alone[0] == sweep[i]


class TestThreads:
    @pytest.fixture
    def started(self, monkeypatch):
        seen = []
        start = threading.Thread.start

        def counting(thread):
            seen.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        return seen

    def test_small_call_starts_no_thread(self, started):
        g = build_array(GeometryKind.UPCA, 12 * LAM, LAM)
        normalized_power(simo_miso_setup(g), [4.0, -3.0, 100.0], [0.0, 5.0, 80.0])
        assert started == []

    def test_split_call_joins_its_threads(self, started, monkeypatch):
        # more threads than this host may have CPUs, each joined on return;
        # the pool may reuse a thread that has finished its share
        monkeypatch.setattr(ambiguity_module, "_WORKERS", 5)
        g = build_array(GeometryKind.UPCA, 12 * LAM, LAM)
        normalized_power(simo_miso_setup(g), [4.0, -3.0, 100.0], _patch())
        assert 1 <= len(started) <= ambiguity_module._WORKERS - 1
        assert not any(thread.is_alive() for thread in started)


class TestKernelRows:
    @pytest.fixture
    def rows(self, monkeypatch):
        seen = []
        kernel = ambiguity_module._phase_sum

        def counting(elements, *args):
            seen.append(len(elements))
            return kernel(elements, *args)

        monkeypatch.setattr(ambiguity_module, "_phase_sum", counting)
        return seen

    def test_validate_sums_class_representatives(self, rows, capsys):
        # 8037 UPCA elements fall into 51 rings; the single transmit element
        # of the SIMO link is never summed
        assert main(["validate", "--kind", "upca", "--aperture-lambda", "50",
                     "--target-lambda", "100", "--sweep", "0:0:201"]) == 2
        capsys.readouterr()
        assert rows and set(rows) == {51}

    def test_off_axis_sums_every_element(self, rows):
        # one M-row sum per setup, SIMO included
        g = build_array(GeometryKind.UPCA, 12 * LAM, LAM)
        for setup in (simo_miso_setup(g), mimo_setup(g)):
            normalized_power(setup, [4.0, -3.0, 100.0], _patch())
        assert rows == [g.n_elements, g.n_elements]


class TestEmptyBatch:
    @pytest.mark.parametrize("call, dtype", [
        (lambda g, t: normalized_power(simo_miso_setup(g), t, np.empty((0, 3))),
         float),
        (lambda g, t: normalized_power(mimo_setup(g), t, np.empty((0, 3))),
         float),
        (lambda g, t: array_factor(g, t, np.empty((0, 3))), complex),
        (lambda g, t: broadside_power_sweep(simo_miso_setup(g), t[2], []),
         float),
    ], ids=["normalized_power-simo", "normalized_power-mimo", "array_factor",
            "broadside_power_sweep"])
    def test_empty_result(self, call, dtype):
        out = call(build_ula(10.0, 1.0), [0.0, 0.0, 50.0])
        assert out.shape == (0,) and out.dtype == dtype

    def test_target_on_element_still_rejected(self):
        g = build_ula(10.0, 1.0)
        with pytest.raises(ValueError, match="coincides"):
            normalized_power(simo_miso_setup(g), g.elements[3], np.empty((0, 3)))


class TestFarPoints:
    # a point ~1e154 lengths away squares its distance past the float range
    @pytest.mark.parametrize("call", [
        lambda g: normalized_power(simo_miso_setup(g), [0, 0, 1e200],
                                   [0, 0, 50.0]),
        lambda g: broadside_power_sweep(simo_miso_setup(g), 50.0,
                                        [60.0, 1e155]),
        lambda g: array_factor(g, [0, 0, 50.0], [3e154, 0, 0]),
    ], ids=["normalized_power", "broadside_power_sweep", "array_factor"])
    def test_overflow_rejected(self, call):
        with pytest.raises(ValueError, match="floating-point range"):
            call(build_ula(10.0, 1.0))

    @pytest.mark.parametrize("bad, match", [
        ([0.0, 0.0, 1e155], "floating-point range"),
        (None, "coincides"),
    ], ids=["far", "on-element"])
    @pytest.mark.parametrize("row", [0, -1, [0, -1]],
                             ids=["first", "last", "both"])
    def test_error_in_a_worker_block(self, bad, match, row, monkeypatch):
        # 4000 probes of 21 elements split into two blocks on two threads;
        # either thread may take either block, and with a bad probe in both
        # the calling thread raises whichever it takes
        monkeypatch.setattr(ambiguity_module, "_WORKERS", 2)
        g = build_ula(10.0, 1.0)
        probes = np.column_stack([np.linspace(-20.0, 20.0, 4000),
                                  np.full(4000, 5.0), np.full(4000, 80.0)])
        probes[row] = g.elements[3] if bad is None else bad
        before = threading.active_count()
        with pytest.raises(ValueError, match=match):
            normalized_power(simo_miso_setup(g), [0.0, 0.0, 50.0], probes)
        assert threading.active_count() == before
