import math
import warnings

import mpmath
import numpy as np
import pytest

from nfsense.closed_form import (GeometryKind, ProcessingMode, af_argument,
                                 normalized_af_power,
                                 quadratic_mainlobe_coefficient,
                                 vergence_difference)
from nfsense.geometry import build_array, fraunhofer_distance
from nfsense.metrics import (compute_metrics, half_power_argument,
                             half_power_coefficient, half_power_distances,
                             mainlobe_edge)

KINDS = list(GeometryKind)
SIMO = ProcessingMode.SIMO_MISO
MIMO = ProcessingMode.MIMO


def _mp_fresnel_power(x):
    """(C^2 + S^2)(sqrt x) / x in mpmath, the ULA's base pattern."""
    u = mpmath.sqrt(x)
    return (mpmath.fresnelc(u) ** 2 + mpmath.fresnels(u) ** 2) / x


class TestVergence:
    def test_identical_points(self):
        assert vergence_difference(100.0, 100.0) == 0.0

    def test_far_field_limit(self):
        assert vergence_difference(1e12, 100.0) == pytest.approx(0.01, rel=1e-9)

    def test_plain_value(self):
        assert vergence_difference(200.0, 100.0) == pytest.approx(0.005)
        probes = np.array([100.0, 200.0, 400.0, 123.4])
        out = vergence_difference(200.0, probes)
        assert out == pytest.approx([0.005, 0.0, 0.0025, 1 / 123.4 - 0.005])
        assert out.tolist() == [vergence_difference(200.0, d) for d in probes]

    def test_symmetry(self):
        assert vergence_difference(80.0, 120.0) == vergence_difference(120.0, 80.0)

    def test_list_input(self):
        probes = [50.0, 60.0, 123.4]
        out = vergence_difference(100.0, probes)
        assert out.tolist() == vergence_difference(100.0, np.array(probes)).tolist()
        assert type(vergence_difference(100.0, np.float64(50.0))) is float

    @pytest.mark.parametrize("d_target, d_probe", [
        (1e-320, 5.0), (5.0, 1e-320), (100.0, np.array([50.0, 1e-310])),
    ])
    def test_overflowing_reciprocal_rejected(self, d_target, d_probe):
        # raised without a numpy warning, which the suite makes an error
        with pytest.raises(ValueError, match="a reciprocal overflows"):
            vergence_difference(d_target, d_probe)

    def test_smallest_normal_distance_kept(self):
        tiny = np.finfo(float).tiny  # 1/tiny is finite
        assert vergence_difference(tiny, 1.0) == 1.0 / tiny - 1.0


class TestAfArgument:
    def test_zero_vergence(self):
        for kind in KINDS:
            assert af_argument(kind, 5000.0, 0.0) == 0.0

    def test_ula_value(self):
        assert af_argument(GeometryKind.ULA, 5000.0, 0.005) == pytest.approx(6.25)
        out = af_argument(GeometryKind.ULA, 5000.0, np.array([0.0, 0.005, 0.01]))
        assert out == pytest.approx([0.0, 6.25, 12.5])

    def test_uca_value(self):
        assert af_argument(GeometryKind.UCA, 5000.0, 0.005) == pytest.approx(
            25.0 * math.pi / 16.0)

    def test_list_input(self):
        vergences = [0.1, 0.2, 1 / 3]
        out = af_argument(GeometryKind.ULA, 5000.0, vergences)
        assert out.tolist() == af_argument(GeometryKind.ULA, 5000.0,
                                           np.array(vergences)).tolist()
        assert type(af_argument(GeometryKind.ULA, 5000.0, np.float64(0.1))) is float

    def test_negative_zero_vergence_kept(self):
        assert af_argument(GeometryKind.UCA, 5000.0, [-0.0]).tolist() == [0.0]

    @pytest.mark.parametrize("d_fa, vergence", [
        (1e300, 1e10), (1e300, [0.0, 1e10]), (1.7e308, 1e9)])
    def test_overflowing_argument_rejected(self, d_fa, vergence):
        # named, with no numpy overflow warning (which the suite makes an error)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^closed-form argument "
                                                 "overflows"):
                af_argument(GeometryKind.ULA, d_fa, vergence)

    def test_largest_argument_kept(self):
        assert af_argument(GeometryKind.ULA, 4e300, 1e8) == 1e308


def test_argument_scales():
    # the scale's public paths, bit for bit
    for kind, scale in ((GeometryKind.ULA, 0.25), (GeometryKind.UCA, math.pi / 16),
                        (GeometryKind.URA, 0.125), (GeometryKind.UPCA, 1.0 / 16)):
        assert af_argument(kind, 1.0, 1.0) == scale
        assert compute_metrics(kind).argument_scale == scale


class TestNormalizedPower:
    def test_ura_is_ula_squared(self):
        x = np.linspace(0.0, 20.0, 2001)
        ula = normalized_af_power(GeometryKind.ULA, SIMO, x)
        assert normalized_af_power(GeometryKind.URA, SIMO, x).tolist() == \
            (ula * ula).tolist()
        assert normalized_af_power(GeometryKind.URA, MIMO, x).tolist() == \
            ((ula * ula) * (ula * ula)).tolist()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("mode", [SIMO, MIMO])
    def test_unit_peak(self, kind, mode):
        assert normalized_af_power(kind, mode, 0.0) == 1.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_continuity_at_zero(self, kind):
        assert normalized_af_power(kind, SIMO, 1e-8) == pytest.approx(1.0,
                                                                      abs=1e-6)

    # half-power arguments as published per layout and mode
    @pytest.mark.parametrize("kind,mode,x", [
        (GeometryKind.ULA, SIMO, 1.738),
        (GeometryKind.ULA, MIMO, 1.242),
        (GeometryKind.UCA, SIMO, 1.126),
        (GeometryKind.UCA, MIMO, 0.815),
        (GeometryKind.URA, SIMO, 1.242),
        (GeometryKind.URA, MIMO, 0.884),
        (GeometryKind.UPCA, SIMO, 0.443),
        (GeometryKind.UPCA, MIMO, 0.319),
    ])
    def test_half_power_values(self, kind, mode, x):
        assert normalized_af_power(kind, mode, x) == pytest.approx(0.5, abs=5e-4)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mimo_is_exact_square(self, kind):
        x = np.linspace(0.0, 30.0, 2000)
        simo = normalized_af_power(kind, SIMO, x)
        mimo = normalized_af_power(kind, MIMO, x)
        # the closed form squares the same floats, bit for bit
        assert mimo.tobytes() == (simo * simo).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_monotone_mainlobe_decay(self, kind):
        edge = mainlobe_edge(kind, SIMO)
        x = np.linspace(0.0, edge * (1 - 1e-9), 10_000)
        vals = normalized_af_power(kind, SIMO, x)
        assert np.all(np.diff(vals) < 0.0)

    def test_null_preservation_under_squaring(self):
        # the layouts whose power actually touches zero (criterion 7 checks
        # that squaring keeps those zeros where they are)
        for kind in (GeometryKind.UCA, GeometryKind.UPCA):
            edge = mainlobe_edge(kind, SIMO)
            assert normalized_af_power(kind, SIMO, edge) <= 1e-12
        # the Fresnel-based layouts have nonzero first minima instead
        for kind in (GeometryKind.ULA, GeometryKind.URA):
            assert normalized_af_power(kind, SIMO, mainlobe_edge(kind, SIMO)) > 1e-6

    def test_array_shape(self):
        out = normalized_af_power(GeometryKind.URA, MIMO, np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)
        assert out[0] == 1.0
        # each branch's values land where the flattened call puts them
        for x in ([], [[0.0, 1e-301, 4.0], [2.0, 13.5, 60.0]]):
            x = np.array(x)
            for kind in KINDS:
                out = normalized_af_power(kind, MIMO, x)
                assert out.shape == x.shape
                flat = normalized_af_power(kind, MIMO, x.ravel())
                assert out.tobytes() == flat.tobytes()


class TestQuadraticCoefficient:
    # each layout's single-aperture power f; the URA's is the ULA's squared
    @pytest.mark.parametrize("kind, power", [
        (GeometryKind.ULA, lambda x: _mp_fresnel_power(x)),
        (GeometryKind.UCA, lambda x: mpmath.besselj(0, x) ** 2),
        (GeometryKind.URA, lambda x: _mp_fresnel_power(x) ** 2),
        (GeometryKind.UPCA, lambda x: mpmath.sinc(mpmath.pi * x) ** 2)])
    def test_curvature_against_mpmath(self, kind, power):
        # -f''(0) / 2 = (1 - f(x)) / x^2 + O(x^2), at x = 1e-12 and 60 digits
        with mpmath.workdps(60):
            x = mpmath.mpf("1e-12")
            want = float((1 - power(x)) / (x * x))
        assert quadratic_mainlobe_coefficient(kind) == pytest.approx(want,
                                                                     rel=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_positive(self, kind):
        assert quadratic_mainlobe_coefficient(kind) > 0.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_quadratic_model_residual(self, kind):
        # the 1 - c x^2 model holds to 1% over the inner mainlobe
        # (out to 42% of the half-power argument, uniformly per layout)
        c = quadratic_mainlobe_coefficient(kind)
        x_max = 0.42 * half_power_argument(kind, SIMO)
        x = np.linspace(0.0, x_max, 500)
        residual = np.abs(normalized_af_power(kind, SIMO, x) - (1.0 - c * x * x))
        assert residual.max() <= 0.01


SIZES = [25.0, 50.0, 100.0]


class TestEffectiveAperture:
    """Under the second-order phase a discrete layout's broadside pattern
    is the closed form of an aperture one element pitch longer, D_eff.

    The discrete pattern sums the layout's axial classes, lambda = 1:
    P2(d) = |sum_k w_k exp(j pi u_k (1/d' - 1/d))|^2 / M^2 with
    u_k = x_k^2 + y_k^2, on validate's SIMO window at d' = 2D in 1001
    points, against the closed form at d_FA = 2 D^2 and at 2 D_eff^2.
    """

    @staticmethod
    def misses(kind, size):
        """Max |P2 - closed form| at the measured aperture, then at D_eff."""
        geometry = build_array(kind, size, 1.0)
        aperture = geometry.aperture
        # the ULA and the UPCA half a wavelength longer, the URA's diagonal
        # n pitches long for n elements a side, the UCA as it is
        effective = {
            GeometryKind.ULA: aperture + 0.5, GeometryKind.UPCA: aperture + 0.5,
            GeometryKind.URA: math.sqrt(2.0) * math.isqrt(geometry.n_elements) / 2,
            GeometryKind.UCA: aperture}[kind]
        d_target = 2.0 * size
        low, high = half_power_distances(d_target, fraunhofer_distance(geometry),
                                         half_power_coefficient(kind, SIMO))
        vergence = vergence_difference(d_target, np.linspace(low, high, 1001))
        positions, weights = geometry.axial_terms
        u = positions[:, 0] ** 2 + positions[:, 1] ** 2
        discrete = np.abs(np.exp(1j * np.pi * np.outer(vergence, u)) @ weights) ** 2
        discrete /= geometry.n_elements ** 2
        return [np.abs(discrete - normalized_af_power(
                    kind, SIMO, af_argument(kind, 2.0 * d * d, vergence))).max()
                for d in (aperture, effective)]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", [GeometryKind.ULA, GeometryKind.URA])
    def test_miss_falls_to_second_order(self, kind, size):
        # from order lambda / D (0.0285 -> 0.00048 for the ULA at 25 lambda,
        # 0.0395 -> 0.00117 for the URA) to order (lambda / D)^2
        at_aperture, at_effective = self.misses(kind, size)
        assert at_effective <= size ** -2
        assert 20.0 * at_effective <= at_aperture

    @pytest.mark.parametrize("size", SIZES)
    def test_upca_within_its_residual(self, size):
        # 0.0301 -> 0.00006, 0.0152 -> 0.00019 and 0.0077 -> 0.00019
        assert self.misses(GeometryKind.UPCA, size)[1] <= 3e-4

    @pytest.mark.parametrize("size", SIZES)
    def test_uca_needs_none(self, size):
        assert self.misses(GeometryKind.UCA, size)[0] <= 1e-4
