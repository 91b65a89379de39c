import math
import warnings

import numpy as np
import pytest

from nfsense.closed_form import (GeometryKind, ProcessingMode, af_argument,
                                 base_layout, normalized_af_power,
                                 quadratic_mainlobe_coefficient,
                                 vergence_difference)
from nfsense.metrics import (compute_metrics, half_power_argument,
                             half_power_coefficient, mainlobe_edge,
                             peak_sidelobe_level)

KINDS = list(GeometryKind)
SIMO = ProcessingMode.SIMO_MISO
MIMO = ProcessingMode.MIMO


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

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            vergence_difference(0.0, 10.0)
        with pytest.raises(ValueError):
            vergence_difference(10.0, -1.0)
        with pytest.raises(ValueError):
            vergence_difference(10.0, np.array([5.0, 0.0]))

    @pytest.mark.parametrize("d_target, d_probe", [
        (1e-320, 5.0), (5.0, 1e-320), (100.0, np.array([50.0, 1e-310])),
    ])
    def test_overflowing_reciprocal_rejected(self, d_target, d_probe):
        # raised without a numpy warning, which the suite makes an error
        with pytest.raises(ValueError, match="a reciprocal overflows"):
            vergence_difference(d_target, d_probe)

    @pytest.mark.parametrize("d_target, d_probe", [
        (np.inf, 5.0), (-np.inf, 5.0), (5.0, np.inf), (5.0, [50.0, -np.inf]),
        (np.nan, 5.0)])
    def test_non_finite_rejected(self, d_target, d_probe):
        # 1/inf = 0 would read an infinite range as a valid one
        with pytest.raises(ValueError, match="^d_(target|probe) must be finite"):
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

    def test_invalid_fraunhofer(self):
        with pytest.raises(ValueError):
            af_argument(GeometryKind.ULA, 0.0, 0.005)

    @pytest.mark.parametrize("d_fa", [math.inf, math.nan, -math.inf])
    def test_non_finite_fraunhofer_rejected(self, d_fa):
        # inf * 0 would be a nan argument
        with pytest.raises(ValueError, match="finite and positive"):
            af_argument(GeometryKind.ULA, d_fa, 0.0)

    @pytest.mark.parametrize("vergence", [-1.0, [0.0, -1e-300]])
    def test_negative_vergence_rejected(self, vergence):
        with pytest.raises(ValueError, match="^vergence must be nonnegative$"):
            af_argument(GeometryKind.ULA, 5000.0, vergence)

    @pytest.mark.parametrize("vergence", [
        math.nan, math.inf, -math.inf, [math.nan, -0.0], [-0.0, math.inf]])
    def test_non_finite_vergence_rejected(self, vergence):
        # a NaN or infinite vergence would give a NaN or infinite argument
        with pytest.raises(ValueError, match="^vergence must be finite$"):
            af_argument(GeometryKind.UCA, 5000.0, vergence)

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


# every closed-form and metric function that takes a kind, and a mode if
# it takes one
KIND_CALLS = {
    "af_argument": lambda kind, mode: af_argument(kind, 1.0, 0.1),
    "base_layout": lambda kind, mode: base_layout(kind),
    "quadratic_mainlobe_coefficient":
        lambda kind, mode: quadratic_mainlobe_coefficient(kind),
    "compute_metrics": lambda kind, mode: compute_metrics(kind),
}
KIND_MODE_CALLS = {
    "normalized_af_power": lambda kind, mode: normalized_af_power(kind, mode, 1.0),
    "half_power_argument": half_power_argument,
    "half_power_coefficient": half_power_coefficient,
    "mainlobe_edge": mainlobe_edge,
    "peak_sidelobe_level": peak_sidelobe_level,
}
NON_KINDS = ["ula", None, 2, [1], ProcessingMode.MIMO]
NON_MODES = ["simo", None, 2, [1], GeometryKind.ULA]


class TestNonMembers:
    @pytest.mark.parametrize("call", [*KIND_CALLS.values(),
                                      *KIND_MODE_CALLS.values()],
                             ids=[*KIND_CALLS, *KIND_MODE_CALLS])
    @pytest.mark.parametrize("kind", NON_KINDS, ids=repr)
    def test_kind(self, call, kind):
        with pytest.raises(ValueError) as error:
            call(kind, SIMO)
        assert str(error.value) == f"unknown geometry kind {kind!r}"

    @pytest.mark.parametrize("call", KIND_MODE_CALLS.values(),
                             ids=list(KIND_MODE_CALLS))
    @pytest.mark.parametrize("mode", NON_MODES, ids=repr)
    def test_mode_named_before_kind(self, call, mode):
        with pytest.raises(ValueError) as error:
            call("ura", mode)
        assert str(error.value) == f"unknown processing mode {mode!r}"


class TestBaseLayout:
    def test_ura_is_ula_squared(self):
        assert base_layout(GeometryKind.URA) == (GeometryKind.ULA, 2)
        x = np.linspace(0.0, 20.0, 2001)
        ula = normalized_af_power(GeometryKind.ULA, SIMO, x)
        assert normalized_af_power(GeometryKind.URA, SIMO, x).tolist() == \
            (ula * ula).tolist()
        assert normalized_af_power(GeometryKind.URA, MIMO, x).tolist() == \
            ((ula * ula) * (ula * ula)).tolist()

    @pytest.mark.parametrize("kind", [GeometryKind.ULA, GeometryKind.UCA,
                                      GeometryKind.UPCA])
    def test_other_layouts_are_their_own_base(self, kind):
        assert base_layout(kind) == (kind, 1)


class TestNormalizedPower:
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
        assert np.max(np.abs(mimo - simo ** 2)) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_monotone_mainlobe_decay(self, kind):
        edge = mainlobe_edge(kind, SIMO)
        x = np.linspace(0.0, edge * (1 - 1e-9), 10_000)
        vals = normalized_af_power(kind, SIMO, x)
        assert np.all(np.diff(vals) < 0.0)

    def test_null_preservation_under_squaring(self):
        # layouts whose power actually touches zero keep the same zero
        # locations when squared
        for kind in (GeometryKind.UCA, GeometryKind.UPCA):
            x_simo = mainlobe_edge(kind, SIMO)
            x_mimo = mainlobe_edge(kind, MIMO)
            assert normalized_af_power(kind, SIMO, x_simo) <= 1e-12
            assert abs(x_simo - x_mimo) <= 1e-9
        # the Fresnel-based layouts have nonzero first minima instead
        for kind in (GeometryKind.ULA, GeometryKind.URA):
            assert normalized_af_power(kind, SIMO, mainlobe_edge(kind, SIMO)) > 1e-6

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            normalized_af_power(GeometryKind.ULA, SIMO, -0.1)
        with pytest.raises(ValueError):
            normalized_af_power(GeometryKind.UCA, MIMO, np.array([0.5, -2.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            normalized_af_power(GeometryKind.UPCA, SIMO, float("nan"))

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
    def test_uca_series_value(self):
        # J0(x)^2 = 1 - x^2/2 + O(x^4)
        assert quadratic_mainlobe_coefficient(GeometryKind.UCA) == pytest.approx(
            0.5, abs=1e-7)

    def test_upca_series_value(self):
        # sinc(x)^2 = 1 - (pi x)^2/3 + O(x^4)
        assert quadratic_mainlobe_coefficient(GeometryKind.UPCA) == pytest.approx(
            math.pi ** 2 / 3.0, abs=1e-6)

    def test_ura_doubles_ula(self):
        c_ula = quadratic_mainlobe_coefficient(GeometryKind.ULA)
        c_ura = quadratic_mainlobe_coefficient(GeometryKind.URA)
        assert c_ura == pytest.approx(2.0 * c_ula, rel=1e-6)

    def test_ula_series_value(self):
        # (C^2 + S^2)/x = 1 - pi^2 x^2 / 45 + O(x^4)
        assert quadratic_mainlobe_coefficient(GeometryKind.ULA) == pytest.approx(
            math.pi ** 2 / 45.0, abs=1e-7)

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
