import functools
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from nfsense import ambiguity as ambiguity_module
from nfsense.ambiguity import (array_factor, broadside_power_sweep,
                               normalized_power)
from nfsense.cli import main
from nfsense.closed_form import (af_argument, normalized_af_power,
                                 vergence_difference)
from nfsense.geometry import (ArrayGeometry, GeometryKind, ProcessingMode,
                              build_array, fraunhofer_distance, mimo_setup,
                              simo_miso_setup)

from reference_sums import (ambiguity, broadcast_array_factor, broadcast_power,
                            dense_array_factor, dense_power)

LAM = 1.0
# one element at the origin
POINT = ArrayGeometry(kind=None, wavelength=LAM, elements=np.zeros((1, 3)))


def _turned(g, phi):
    """g's elements turned by phi about the z axis, of g's kind."""
    rot = np.array([[math.cos(phi), -math.sin(phi), 0.0],
                    [math.sin(phi), math.cos(phi), 0.0],
                    [0.0, 0.0, 1.0]])
    return ArrayGeometry(kind=g.kind, wavelength=g.wavelength,
                         elements=g.elements @ rot.T)


class TestArrayFactor:
    def test_peak_at_target(self):
        g = build_array(GeometryKind.ULA, 20 * LAM, LAM)
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
        g = build_array(GeometryKind.UCA, 8 * LAM, LAM)
        rng = np.random.default_rng(13)
        probes = rng.uniform(-40, 40, (200, 3)) + np.array([0, 0, 60.0])
        af = array_factor(g, [0, 0, 50.0], probes)
        assert np.all(np.abs(af) <= math.sqrt(g.n_elements) + 1e-9)

    def test_matches_closed_form_outside_mainlobe(self):
        # probe well outside the half-power region still tracks the
        # Fresnel form within 2% of the unit peak
        g = build_array(GeometryKind.ULA, 50 * LAM, LAM)
        d_fa = fraunhofer_distance(g)
        af = array_factor(g, [0, 0, 100.0], [0, 0, 120.0])
        exact = abs(af) ** 2 / g.n_elements
        x = af_argument(GeometryKind.ULA, d_fa, vergence_difference(100.0, 120.0))
        closed = normalized_af_power(GeometryKind.ULA, ProcessingMode.SIMO_MISO, x)
        assert abs(exact - closed) <= 0.02


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
        g = build_array(GeometryKind.ULA, 10 * LAM, LAM)
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
        g = build_array(GeometryKind.UCA, 12 * LAM, LAM)
        s = mimo_setup(g)
        t, p = [0.0, 0.0, 80.0], [0.0, 0.0, 95.0]
        full = ambiguity(s, t, p)
        split = array_factor(s.tx, t, p) * array_factor(s.rx, t, p)
        assert abs(full - split) <= 1e-9 * abs(full)

    def test_degenerate_probe_rejected(self):
        g = build_array(GeometryKind.ULA, 10 * LAM, LAM)
        s = simo_miso_setup(g)
        with pytest.raises(ValueError):
            ambiguity(s, [0, 0, 30.0], g.elements[3])


class TestNormalizedPower:
    def test_peak_is_one(self):
        g = build_array(GeometryKind.ULA, 10 * LAM, LAM)
        t = [0.0, 0.0, 30.0]
        for s in (simo_miso_setup(g), mimo_setup(g)):
            assert normalized_power(s, t, t) == pytest.approx(1.0, abs=1e-12)

    def test_mimo_low_at_first_fresnel_minimum(self):
        # x = 4 sits at the first minimum of the ULA closed form; the
        # direct sum there is small but not exactly zero
        g = build_array(GeometryKind.ULA, 50 * LAM, LAM)
        s = mimo_setup(g)
        d_fa = fraunhofer_distance(g)
        d_ver = 4.0 / af_argument(GeometryKind.ULA, d_fa, 1.0)
        for d in (1.0 / (1.0 / 100.0 + d_ver), 1.0 / (1.0 / 100.0 - d_ver)):
            assert normalized_power(s, [0, 0, 100.0], [0, 0, d]) <= 0.01


class TestClosedFormConvergence:
    def test_uca_rotation_invariance(self):
        # rotating the ring about the evaluation axis must not change the
        # on-axis response
        g = build_array(GeometryKind.UCA, 20 * LAM, LAM)
        rotated = _turned(g, 0.7347)
        radii = np.sort(np.linalg.norm(g.elements, axis=1))
        radii_rot = np.sort(np.linalg.norm(rotated.elements, axis=1))
        assert np.max(np.abs(radii - radii_rot)) <= 1e-9
        t = [0.0, 0.0, 70.0]
        for d in (55.0, 70.0, 90.0):
            p0 = normalized_power(simo_miso_setup(g), t, [0, 0, d])
            p1 = normalized_power(simo_miso_setup(rotated), t, [0, 0, d])
            assert p0 == pytest.approx(p1, abs=1e-12)
        # the hand-built ring keeps the mirror pairs of the built one, and
        # its broadside sweep sums them
        assert (len(rotated.axial_terms[1]) == len(g.axial_terms[1])
                == g.n_elements // 2)
        grid = [55.0, 70.0, 90.0]
        assert np.max(np.abs(
            broadside_power_sweep(simo_miso_setup(rotated), 70.0, grid)
            - broadside_power_sweep(simo_miso_setup(g), 70.0, grid))) <= 1e-12


# apertures whose off-axis patch below spans at least three kernel blocks
_PATCH_APERTURES = {GeometryKind.ULA: 200.0, GeometryKind.UCA: 60.0,
                    GeometryKind.URA: 14.0, GeometryKind.UPCA: 12.0}


def _layout(kind, lam=1.0):
    """The kind's layout whose off-axis patch spans at least three blocks."""
    return build_array(kind, _PATCH_APERTURES[kind] * lam, lam)


def _patch():
    """600 off-axis probes on a tilted 30 x 20 patch."""
    x, z = np.meshgrid(np.linspace(-15.0, 15.0, 30), np.linspace(60.0, 140.0, 20))
    return np.column_stack([x.ravel(), 5.0 + 0.1 * x.ravel(), z.ravel()])


class TestKernelMatchesDenseSum:
    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_off_axis_patch(self, kind):
        g = _layout(kind)
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
        g = build_array(GeometryKind.UCA, 50.2 * LAM, LAM)
        top = float(g.elements[:, 2].max())
        setup = simo_miso_setup(g)
        for target, probes in ((50.0, [30.0, top]), (top, [30.0, 40.0])):
            with pytest.raises(ValueError, match="coincides"):
                broadside_power_sweep(setup, target, probes)


class TestOnAxis:
    """Every entry point sums the axial class terms for a target and probes
    on the z axis, and only there."""

    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_off_axis_never_derives_terms(self, kind):
        # an off-axis target, or an on-axis target with one probe off the
        # axis, sums every element; an empty batch sums nothing
        g = build_array(kind, 12 * LAM, LAM)
        on = [[0.0, 0.0, 30.0], [0.0, 0.0, 40.0]]
        for target, probes in (([0.0, 1e-9, 40.0], on), ([1e-9, 0.0, 40.0], on),
                               ([0.0, 0.0, 40.0], on + [[1e-9, 0.0, 50.0]]),
                               ([0.0, 0.0, 40.0], np.empty((0, 3)))):
            normalized_power(mimo_setup(g), target, probes)
            array_factor(g, target, probes)
            assert "axial_terms" not in g.__dict__
        normalized_power(mimo_setup(g), [0.0, 0.0, 40.0], on)
        assert "axial_terms" in g.__dict__

    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_one_probe_off_axis_sums_every_element(self, kind):
        g = build_array(kind, 20.3 * LAM, LAM)
        target = [0.0, 0.0, 90.0]
        probes = np.column_stack([np.zeros((41, 2)), np.linspace(40, 200, 41)])
        probes[20, 1] = 0.75
        af = array_factor(g, target, probes)
        dense = dense_array_factor(g, target, probes)
        assert np.max(np.abs(af - dense)) / math.sqrt(g.n_elements) <= 1e-12
        for setup in (simo_miso_setup(g), mimo_setup(g)):
            power = normalized_power(setup, target, probes)
            assert np.max(np.abs(power - dense_power(setup, target, probes))) <= 1e-12

    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_signed_zero_on_axis_same_bits(self, kind):
        # probes with x = -0.0 on even rows and y = -0.0 on odd ones, and a
        # target at x or y = -0.0, give the bits of the +0.0 calls
        g = build_array(kind, 12 * LAM, LAM)
        axis = np.column_stack([np.zeros((901, 2)), np.linspace(20.0, 200.0, 901)])
        signed = axis.copy()
        signed[::2, 0] = signed[1::2, 1] = -0.0
        target = [0.0, 0.0, 60.0]
        for setup in (simo_miso_setup(g), mimo_setup(g)):
            assert _bits(normalized_power(setup, [-0.0, 0.0, 60.0], signed)) == \
                _bits(normalized_power(setup, target, axis))
        assert _bits(array_factor(g, [0.0, -0.0, 60.0], signed)) == \
            _bits(array_factor(g, target, axis))


def _bits(a) -> tuple:
    """dtype, shape and bytes of an array: real and imaginary parts and the
    sign of every zero."""
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _patch_hashes() -> list:
    """sha256 of normalized_power on a multi-block off-axis patch, per kind
    and setup."""
    out = []
    for kind in GeometryKind:
        g = _layout(kind)
        for setup in (simo_miso_setup(g), mimo_setup(g)):
            power = normalized_power(setup, [4.0, -3.0, 100.0], _patch())
            out.append(hashlib.sha256(power.tobytes()).hexdigest())
    return out


def _points(g) -> dict:
    """The bit test's (target, probes) on g, in wavelengths: the off-axis
    patch, a broadside grid of at least three serial blocks and two far
    lines."""
    off = np.array([4.0, -3.0, 100.0])
    rows = 3 * (ambiguity_module._BLOCK_PAIRS // len(g.axial_terms[1]))
    grid = np.linspace(60.0, 300.0, rows + 1)
    points = {"patch": (off, _patch()),
              "axis": (np.array([0.0, 0.0, 100.0]), grid[:, None] * [0, 0, 1])}
    for name, z in (("far 1e5", 1e5), ("far 1e6", 1e6)):
        points[name] = off, np.column_stack([np.linspace(-0.3 * z, 0.3 * z, 201),
                                             np.full(201, 2.5), np.full(201, z)])
    return points


# every exact entry point: (function, setup, points of _points)
_ENTRIES = [
    *((array_factor, None, points)
      for points in ("patch", "axis", "far 1e5", "far 1e6")),
    *((normalized_power, make, points) for make in (simo_miso_setup, mimo_setup)
      for points in ("patch", "axis")),
    *((broadside_power_sweep, make, "axis")
      for make in (simo_miso_setup, mimo_setup)),
]
_ENTRY_IDS = ["-".join([function.__name__,
                        *([make.__name__.removesuffix("_setup")] if make else []),
                        points.replace(" ", "-")])
              for function, make, points in _ENTRIES]


@functools.cache
def _references(kind, reference) -> tuple:
    """The reference layout of a kind, its points and every entry's result
    by the broadcast reference, computed once for the rows of that layout
    (the reference takes about three times the kernel's time)."""
    ref = reference(kind)
    points = _points(ref)
    # the reference divides every point by lambda first, as the kernel
    # does; at lambda = 0.0123 and 3 a later division would move the last
    # bits
    factors = {name: broadcast_array_factor(ref, target * ref.wavelength,
                                            probes * ref.wavelength)
               for name, (target, probes) in points.items()}
    wants = [factors[name] if make is None
             else broadcast_power(make(ref), factors[name])
             for _, make, name in _ENTRIES]
    return ref, points, wants


def _call(entry, g, points, i=None):
    """The entry point's result on g, its points scaled by g's wavelength;
    for the i-th probe alone if i is given."""
    function, make, name = entry
    target, probes = (a * g.wavelength for a in points[name])
    if i is not None:
        probes = probes[i]
    if function is array_factor:
        return array_factor(g, target, probes)
    if function is normalized_power:
        return normalized_power(make(g), target, probes)
    return broadside_power_sweep(make(g), target[2],
                                 probes[:, 2] if i is None else [probes[2]])


def _row(id, reference=_layout, called=lambda g: g, settings=None,
         switch=None, alone=False):
    """A row of the bit test: the layout it calls, made from the reference
    layout of a kind, under the given settings of nfsense.ambiguity and
    thread switch interval (s), with every probe in one call or each alone."""
    return pytest.param(reference, called, settings or {}, switch, alone,
                        id=id)


_ROWS = [
    _row("default"),
    _row("one-thread", settings={"_WORKERS": 1}),
    # threads of a fresh pool switched often, so that a block written by two
    # threads or not at all would show
    _row("three-threads", settings={"_WORKERS": 3}, switch=1e-6),
    _row("small-blocks", settings={"_BLOCK_PAIRS": 4099}),
    _row("lambda-0.0123", reference=lambda kind: _layout(kind, 0.0123)),
    _row("lambda-3", reference=lambda kind: _layout(kind, 3.0)),
    # a power-of-two wavelength scales every point exactly
    _row("lambda-2**-500", called=lambda g: _layout(g.kind, 2.0 ** -500)),
    # bare elements get the builder's classes, and so its sums
    _row("hand-built",
         called=lambda g: ArrayGeometry(None, g.wavelength, g.elements)),
    # a float32 wavelength is kept as the double of its value
    _row("float32-lambda",
         reference=lambda kind: _layout(kind, float(np.float32(0.0123))),
         called=lambda g: ArrayGeometry(g.kind, np.float32(0.0123),
                                        g.elements)),
    _row("turned", reference=lambda kind: _turned(_layout(kind), 0.4127)),
    _row("one-point-calls", alone=True),
]


class TestDifferenceProduct:
    """The kernel forms each coordinate difference p - e as the two-term
    product [p, 1] @ [1; -e], whose terms are exact and whose sum rounds
    once, and so gives the bits of the broadcast subtraction p - e."""

    @staticmethod
    def _check(got, want):
        # -0 - +0 is -0, where the product's sum gives +0; the kernel only
        # squares a difference, and the squares agree
        with np.errstate(over="ignore"):
            assert _bits(np.square(got)) == _bits(np.square(want))
        nonzero = want != 0
        assert np.array_equal(got, want)
        assert _bits(got[nonzero]) == _bits(want[nonzero])

    def _check_outer(self, p, e):
        """Every pair of p and e, in the kernel's shapes: a (P, 2) @ (2, M)
        product and single [[p, 1]] @ [[1], [-e]] products, stacked."""
        lhs = np.ones((p.size, 2))
        lhs[:, 0] = p
        rhs = np.ones((2, e.size))
        rhs[1] = -e
        with np.errstate(over="ignore"):
            want = p[:, None] - e
            got = lhs @ rhs
            pairs = np.matmul(lhs[:, None, None, :],
                              rhs.T[None, :, :, None])[..., 0, 0]
        self._check(got, want)
        self._check(pairs, want)

    def test_edge_values(self):
        tiny = np.finfo(float).smallest_subnormal
        big = np.finfo(float).max
        base = np.concatenate([
            [0.0, 1.0, 0.1, 0.3, tiny, np.finfo(float).smallest_normal, big],
            np.logspace(-300, 300, 61)])
        base = np.concatenate([base, -base])
        # equal values, neighbours one ulp apart, magnitudes from the
        # subnormals to the float maximum, and differences that overflow
        with np.errstate(over="ignore"):
            away = np.nextafter(base, np.copysign(np.inf, base))
        values = np.concatenate([base, np.nextafter(base, 0.0),
                                 away[np.isfinite(away)]])
        self._check_outer(values, values)
        with np.errstate(over="ignore"):
            assert np.isposinf(values - -values).any()
            assert np.isneginf(values - -values).any()

    def test_random_draws(self):
        rng = np.random.default_rng(4099)
        n = 100_000
        p = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        # near-equal pairs, where the difference cancels, and unrelated ones
        e = p * (1.0 + rng.standard_normal(n) * 10.0 ** rng.uniform(-17.0, 0.0, n))
        e[::2] = rng.permutation(p)[::2]
        lhs = np.column_stack([p, np.ones(n)])
        with np.errstate(over="ignore"):
            pairs = np.matmul(lhs[:, None, :],
                              np.stack([np.ones(n), -e], axis=1)[:, :, None])
            self._check(pairs[:, 0, 0], p - e)
        self._check_outer(p[:250], e[:400])

    # every entry point, in every row, gives the bits of the reference: the
    # kernel's arithmetic with the differences as broadcast subtractions
    @pytest.mark.parametrize("entry", range(len(_ENTRIES)), ids=_ENTRY_IDS)
    @pytest.mark.parametrize("reference, called, settings, switch, alone",
                             _ROWS)
    @pytest.mark.parametrize("kind", list(GeometryKind))
    def test_same_bits_as_broadcast_subtraction(self, kind, reference, called,
                                                settings, switch, alone, entry,
                                                monkeypatch, fresh_pool):
        ref, points, wants = _references(kind, reference)
        want = wants[entry]
        entry = _ENTRIES[entry]
        g = called(ref)
        for name, value in settings.items():
            monkeypatch.setattr(ambiguity_module, name, value)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(switch or interval)
        try:
            if not alone:
                assert _bits(_call(entry, g, points)) == _bits(want)
                return
            # a scalar, or a sweep of one distance
            for i in np.linspace(0, len(want) - 1, 16).astype(int):
                got = _call(entry, g, points, i)
                assert _bits(got) == _bits(want[i] if np.ndim(got) == 0
                                           else want[i:i + 1])
        finally:
            sys.setswitchinterval(interval)

    def test_entries_name_every_entry_point(self):
        assert {entry[0].__name__ for entry in _ENTRIES} == \
            {*ambiguity_module.__all__, "broadside_power_sweep"}

    def test_single_blas_thread_same_bits(self):
        # each product is at most 2 _BLOCK_PAIRS multiply-adds, so BLAS
        # threads never split one, and the bits do not depend on them
        code = ("import json; from test_ambiguity import _patch_hashes; "
                "print(json.dumps(_patch_hashes()))")
        paths = (Path(ambiguity_module.__file__).resolve().parents[1],
                 Path(__file__).resolve().parent)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(map(str, paths))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert json.loads(out) == _patch_hashes()


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool until the test's first split call, which makes one of the
    test's _WORKERS - 1 threads; it is shut down after the test."""
    monkeypatch.delitem(ambiguity_module._SHARED, "pool", raising=False)
    yield
    pool = ambiguity_module._SHARED.pop("pool", None)
    if pool is not None:
        pool.shutdown()


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

    # ten probes of 503 elements, and exactly _BLOCK_PAIRS pairs: two blocks
    # each if the call were split, which would start the fresh pool's thread
    @pytest.mark.parametrize("kind, aperture, probes", [
        (GeometryKind.UPCA, 12.0, 10), (GeometryKind.ULA, 63.5, 512)])
    def test_small_call_starts_no_thread(self, started, fresh_pool, kind,
                                         aperture, probes):
        g = build_array(kind, aperture * LAM, LAM)
        assert g.n_elements * probes <= ambiguity_module._BLOCK_PAIRS
        normalized_power(simo_miso_setup(g), [4.0, -3.0, 100.0],
                         _patch()[:probes])
        assert started == []

    @pytest.mark.parametrize("workers", [2, 5])
    def test_pool_keeps_its_threads(self, workers, started, fresh_pool,
                                    monkeypatch):
        # the pool starts a thread only when none is idle, up to
        # _WORKERS - 1 of them, and keeps them between calls: with one,
        # the second call starts none
        monkeypatch.setattr(ambiguity_module, "_WORKERS", workers)
        setup = simo_miso_setup(build_array(GeometryKind.UPCA, 12 * LAM, LAM))
        for _ in range(3):
            normalized_power(setup, [4.0, -3.0, 100.0], _patch())
            assert 1 <= len(started) <= workers - 1
        assert all(thread.is_alive() for thread in started)

    def test_two_callers_split_at_once(self, started, fresh_pool, monkeypatch):
        # both callers make the pool at once and share its threads, more of
        # them than this host may have CPUs, with threads switched often;
        # their shares, three a call, start no more than the pool's
        # _WORKERS - 1
        setup = mimo_setup(build_array(GeometryKind.URA, 14 * LAM, LAM))
        target, probes = [4.0, -3.0, 100.0], _patch()
        with monkeypatch.context() as patch:
            patch.setattr(ambiguity_module, "_WORKERS", 1)
            want = _bits(normalized_power(setup, target, probes))
        monkeypatch.setattr(ambiguity_module, "_WORKERS", 4)
        start, got = threading.Barrier(2), []

        def call():
            start.wait(timeout=60)
            for _ in range(5):
                got.append(_bits(normalized_power(setup, target, probes)))

        callers = [threading.Thread(target=call) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [want] * 10
        pool_threads = [t for t in started if t not in callers]
        assert 1 <= len(pool_threads) <= ambiguity_module._WORKERS - 1

    def test_failing_block_ends_the_walk(self, fresh_pool, monkeypatch):
        # a probe on an element in the first of 230 blocks: the thread that
        # meets it takes the blocks left, so the other starts no more
        monkeypatch.setattr(ambiguity_module, "_WORKERS", 2)
        g = build_array(GeometryKind.UPCA, 12 * LAM, LAM)
        probes = np.random.default_rng(3).uniform([-20, -20, 30],
                                                  [20, 20, 120], (30_000, 3))
        probes[0] = g.elements[5]
        rows = ambiguity_module._BLOCK_PAIRS // g.n_elements
        blocks = -(-len(probes) // rows)
        products, matmul = [], np.matmul

        def counting(*args, **kwargs):
            products.append(None)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(ambiguity_module.np, "matmul", counting)
        for _ in range(5):
            products.clear()
            with pytest.raises(ValueError, match="^point coincides with an "
                                                 "array element$"):
                normalized_power(simo_miso_setup(g), [4.0, -3.0, 100.0], probes)
            # one product per coordinate of each block run
            assert 1 <= len(products) // 3 < blocks // 10

    def test_failing_call_waits_for_every_share(self, fresh_pool, monkeypatch):
        # every block holds a probe on an element; the calling thread fails
        # on its first block while the pool's thread is inside its own, and
        # raises only once that block is done
        monkeypatch.setattr(ambiguity_module, "_WORKERS", 2)
        g = build_array(GeometryKind.UPCA, 12 * LAM, LAM)
        probes = np.tile(_patch(), (10, 1))
        probes[::100] = g.elements[5]
        matmul, entered, inside = np.matmul, threading.Event(), []

        def product(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                entered.wait(timeout=60)
            else:
                inside.append(None)
                entered.set()
                time.sleep(0.05)
                inside.pop()
            return matmul(*args, **kwargs)

        monkeypatch.setattr(ambiguity_module.np, "matmul", product)
        with pytest.raises(ValueError, match="coincides"):
            normalized_power(simo_miso_setup(g), [4.0, -3.0, 100.0], probes)
        assert entered.is_set() and inside == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_forked_child_makes_its_own_pool(self, fresh_pool, monkeypatch):
        # the child inherits the parent's pool object but none of its
        # threads: a task queued to that pool would never run
        monkeypatch.setattr(ambiguity_module, "_WORKERS", 2)
        setup = simo_miso_setup(build_array(GeometryKind.UPCA, 12 * LAM, LAM))
        target, probes = [4.0, -3.0, 100.0], _patch()
        want = _bits(normalized_power(setup, target, probes))
        assert "pool" in ambiguity_module._SHARED

        def child():
            assert _bits(normalized_power(setup, target, probes)) == want

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(timeout=60)
        if process.is_alive():
            process.kill()
            process.join(timeout=60)
        assert process.exitcode == 0


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

    def test_on_axis_sums_class_representatives(self, rows):
        # the 51 rings of 8037 UPCA elements, through each entry point
        g = build_array(GeometryKind.UPCA, 50 * LAM, LAM)
        probes = [[0.0, 0.0, 60.0], [-0.0, 0.0, 80.0]]
        normalized_power(simo_miso_setup(g), [0.0, 0.0, 100.0], probes)
        normalized_power(mimo_setup(g), [[-0.0, 0.0, 100.0]], probes[0])
        array_factor(g, [0.0, 0.0, 100.0], probes)
        assert rows == [51, 51, 51]

    def test_off_axis_sums_every_element(self, rows):
        # one M-row sum per setup, SIMO included
        g = build_array(GeometryKind.UPCA, 12 * LAM, LAM)
        for setup in (simo_miso_setup(g), mimo_setup(g)):
            normalized_power(setup, [4.0, -3.0, 100.0], _patch())
        assert rows == [g.n_elements, g.n_elements]


class TestOneTarget:
    """A target is one point: a stack of several is rejected, not cut to
    its first row."""

    @pytest.mark.parametrize("call", [
        lambda g, t: normalized_power(simo_miso_setup(g), t, [0.0, 0.0, 60.0]),
        lambda g, t: normalized_power(mimo_setup(g), t, [[0.0, 1.0, 60.0]]),
        lambda g, t: array_factor(g, t, [0.0, 0.0, 60.0]),
    ], ids=["normalized_power-simo", "normalized_power-mimo", "array_factor"])
    def test_one_row_stack_accepted(self, call):
        g = build_array(GeometryKind.ULA, 10 * LAM, LAM)
        assert call(g, [[0.0, 0.0, 50.0]]) == call(g, [0.0, 0.0, 50.0])

    def test_stacked_target_not_truncated(self):
        # the first row alone gives 0.9927864012687522
        s = simo_miso_setup(build_array(GeometryKind.ULA, 10 * LAM, LAM))
        assert normalized_power(s, [0, 0, 50], [0, 0, 60]) == 0.9927864012687522
        with pytest.raises(ValueError, match="one finite point"):
            normalized_power(s, [[0, 0, 50], [0, 0, 80]], [0, 0, 60])

    def test_broadside_real_scalars_accepted(self):
        setup = simo_miso_setup(build_array(GeometryKind.ULA, 10 * LAM, LAM))
        want = broadside_power_sweep(setup, 50.0, [60.0, 70.0])
        for distance in (50, np.float32(50.0), np.array(50.0), np.int64(50)):
            assert np.array_equal(
                broadside_power_sweep(setup, distance, [60.0, 70.0]), want)


def test_broadside_probe_dtypes_give_the_same_bits():
    setup = simo_miso_setup(build_array(GeometryKind.ULA, 10 * LAM, LAM))
    want = broadside_power_sweep(setup, 50.0, np.array([[60.0, 70.0]]))
    for distances in ([60, 70], np.array([60, 70], np.int32), (60.0, 70.0)):
        assert np.array_equal(broadside_power_sweep(setup, 50.0, distances),
                              want)


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
        out = call(build_array(GeometryKind.ULA, 10.0, 1.0), [0.0, 0.0, 50.0])
        assert out.shape == (0,) and out.dtype == dtype

    def test_target_on_element_still_rejected(self):
        g = build_array(GeometryKind.ULA, 10.0, 1.0)
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
            call(build_array(GeometryKind.ULA, 10.0, 1.0))

    @pytest.mark.parametrize("call", [
        lambda g: broadside_power_sweep(simo_miso_setup(g), 50.0, [60.0]),
        lambda g: normalized_power(mimo_setup(g), [0.0, -0.0, 50.0],
                                   [[-0.0, 0.0, 60.0]]),
        lambda g: array_factor(g, [0.0, 0.0, 50.0], [0.0, -0.0, 60.0]),
    ], ids=["broadside_power_sweep", "normalized_power", "array_factor"])
    def test_on_axis_lateral_overflow_rejected(self, call):
        # e_x^2 of the element at 1e160 overflows in the one-coordinate
        # axial distance as it did in the x difference's square
        g = ArrayGeometry(GeometryKind.ULA, 1.0,
                          np.array([[1e160, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match=r"^point too far from the array: "
                           r"a phase leaves the floating-point range$"):
            call(g)

    @pytest.mark.parametrize("bad, match", [
        ([0.0, 0.0, 1e155], "floating-point range"),
        (None, "coincides"),
    ], ids=["far", "on-element"])
    @pytest.mark.parametrize("row", [0, -1, [0, -1]],
                             ids=["first", "last", "both"])
    def test_error_in_a_worker_block(self, bad, match, row, fresh_pool,
                                     monkeypatch):
        # 4000 probes of 21 elements split into two blocks on two threads;
        # either thread may take either block, and with a bad probe in both
        # the calling thread raises whichever it takes
        setup = simo_miso_setup(build_array(GeometryKind.ULA, 10.0, 1.0))
        probes = np.column_stack([np.linspace(-20.0, 20.0, 4000),
                                  np.full(4000, 5.0), np.full(4000, 80.0)])
        target = [0.0, 0.0, 50.0]
        with monkeypatch.context() as patch:
            patch.setattr(ambiguity_module, "_WORKERS", 1)
            serial = _bits(normalized_power(setup, target, probes))
        monkeypatch.setattr(ambiguity_module, "_WORKERS", 2)
        # the first split call starts the pool's one thread
        assert _bits(normalized_power(setup, target, probes)) == serial
        before = threading.active_count()
        bad_probes = probes.copy()
        bad_probes[row] = setup.aperture.elements[3] if bad is None else bad
        with pytest.raises(ValueError, match=match):
            normalized_power(setup, target, bad_probes)
        assert threading.active_count() == before
        assert _bits(normalized_power(setup, target, probes)) == serial


class TestScaleInvariance:
    """The physics is scale-free in lambda, and so are the sums: their
    points are divided by lambda before any distance is squared."""

    # every entry on the patch and the axis; the far lines' 1e6 lambda
    # distances round by ~2e-10 cycles, past this test's bound
    @pytest.mark.parametrize("entry", [
        pytest.param(i, id=name) for i, name in enumerate(_ENTRY_IDS)
        if _ENTRIES[i][2] in ("patch", "axis")])
    @pytest.mark.parametrize("lam", [1e-163, 1e-148, 0.0123, 1e100])
    def test_any_wavelength_within_rounding(self, lam, entry):
        # distances below sqrt(tiny) ~ 1.5e-154 m at 1e-163 and 1e-148; a
        # scaled point is rounded twice, by about eps 300 lambda, so a phase
        # moves by up to ~8e-13 rad: 1e-12 of the peak, 1 or sqrt(M)
        g = build_array(GeometryKind.ULA, 6.0, 1.0)
        points = _points(g)
        exact = _call(_ENTRIES[entry], g, points)
        peak = math.sqrt(g.n_elements) if np.iscomplexobj(exact) else 1.0
        scaled = _call(_ENTRIES[entry],
                       build_array(GeometryKind.ULA, 6 * lam, lam), points)
        assert np.abs(scaled - exact).max() <= 1e-12 * peak

    @pytest.mark.parametrize("lam", [2.0 ** -500, 1e-163, 1e-148, 0.0123,
                                     1.0, 1e100])
    def test_point_on_an_element(self, lam):
        # 1e-6 lambda is the least distance from an element at any lambda
        g = build_array(GeometryKind.ULA, 6 * lam, lam)
        setup = simo_miso_setup(g)
        for target, probe in ((g.elements[3], [0.0, 0.0, 60 * lam]),
                              ([0.0, 0.0, 50 * lam], g.elements[3])):
            with pytest.raises(ValueError, match="coincides"):
                normalized_power(setup, target, probe)
        if math.frexp(lam)[0] == 0.5:
            # exactly 1e-6 lambda away, which a power-of-two lambda keeps
            near = g.elements[3] + [0.0, 0.0, 1e-6 * lam]
            for target, probe in ((near, [0.0, 0.0, 60 * lam]),
                                  ([0.0, 0.0, 50 * lam], near)):
                assert 0.0 <= normalized_power(setup, target, probe) <= 1.0
