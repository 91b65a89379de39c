import math

import numpy as np
import pytest

from nfsense import metrics
from nfsense.ambiguity import broadside_power_sweep
from nfsense.cli import main
from nfsense.closed_form import (af_argument, normalized_af_power,
                                 vergence_difference)
from nfsense.geometry import (GeometryKind, ProcessingMode, build_ula,
                              fraunhofer_distance, simo_miso_setup)
from nfsense.metrics import (SIDELOBE_SCAN_MAX, beamdepth, compute_metrics, half_power_argument,
                             half_power_coefficient, half_power_distances,
                             lobe_scan, mainlobe_edge, max_nearfield_range,
                             peak_sidelobe_level, quadratic_gain_analysis)

SIMO = ProcessingMode.SIMO_MISO
MIMO = ProcessingMode.MIMO
KINDS = list(GeometryKind)

# published half-power arguments and alpha values per layout and mode
X3DB_PUBLISHED = {
    (GeometryKind.ULA, SIMO): 1.738, (GeometryKind.ULA, MIMO): 1.242,
    (GeometryKind.UCA, SIMO): 1.126, (GeometryKind.UCA, MIMO): 0.815,
    (GeometryKind.URA, SIMO): 1.242, (GeometryKind.URA, MIMO): 0.884,
    (GeometryKind.UPCA, SIMO): 0.443, (GeometryKind.UPCA, MIMO): 0.319,
}
ALPHA_PUBLISHED = {
    (GeometryKind.ULA, SIMO): 6.952, (GeometryKind.ULA, MIMO): 4.969,
    (GeometryKind.UCA, SIMO): 5.737, (GeometryKind.UCA, MIMO): 4.148,
    (GeometryKind.URA, SIMO): 9.937, (GeometryKind.URA, MIMO): 7.068,
    (GeometryKind.UPCA, SIMO): 7.087, (GeometryKind.UPCA, MIMO): 5.103,
}
RATIO_PUBLISHED = {GeometryKind.ULA: 1.399, GeometryKind.UCA: 1.383,
                   GeometryKind.URA: 1.406, GeometryKind.UPCA: 1.389}
PSL_PUBLISHED = {
    (GeometryKind.ULA, SIMO): -8.78, (GeometryKind.ULA, MIMO): -17.57,
    (GeometryKind.UCA, SIMO): -7.90, (GeometryKind.UCA, MIMO): -15.80,
    (GeometryKind.URA, SIMO): -17.57, (GeometryKind.URA, MIMO): -35.13,
    (GeometryKind.UPCA, SIMO): -13.26, (GeometryKind.UPCA, MIMO): -26.52,
}


class TestHalfPower:
    @pytest.mark.parametrize("kind,mode", list(X3DB_PUBLISHED))
    def test_published_arguments(self, kind, mode):
        assert half_power_argument(kind, mode) == pytest.approx(
            X3DB_PUBLISHED[(kind, mode)], abs=1e-3)

    @pytest.mark.parametrize("kind,mode", list(X3DB_PUBLISHED))
    def test_residual(self, kind, mode):
        x = half_power_argument(kind, mode)
        assert abs(normalized_af_power(kind, mode, x) - 0.5) <= 1e-6

    @pytest.mark.parametrize("kind,mode", list(ALPHA_PUBLISHED))
    def test_published_alpha(self, kind, mode):
        assert half_power_coefficient(kind, mode) == pytest.approx(
            ALPHA_PUBLISHED[(kind, mode)], abs=0.005)

    @pytest.mark.parametrize("kind,mode", list(X3DB_PUBLISHED))
    def test_alpha_identity(self, kind, mode):
        coeff = half_power_coefficient(kind, mode)
        assert abs(coeff * kind.argument_scale
                   - half_power_argument(kind, mode)) <= 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_ratio_band(self, kind):
        ratio = (half_power_coefficient(kind, SIMO)
                 / half_power_coefficient(kind, MIMO))
        assert 1.38 <= ratio <= 1.41 < math.sqrt(2.0)
        assert ratio == pytest.approx(RATIO_PUBLISHED[kind], abs=0.01)


class TestHalfPowerDistances:
    def test_worked_example(self):
        low, high = half_power_distances(100.0, 5000.0, 6.952)
        assert low == pytest.approx(87.80, abs=0.01)
        assert high == pytest.approx(116.15, abs=0.01)

    def test_upper_infinite_at_boundary(self):
        low, high = half_power_distances(5000.0 / 6.952, 5000.0, 6.952)
        assert math.isinf(high)
        assert low > 0

    def test_close_target_limit(self):
        low, high = half_power_distances(0.1, 5000.0, 6.952)
        assert low == pytest.approx(0.1, abs=1e-4)
        assert high == pytest.approx(0.1, abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            half_power_distances(-1.0, 5000.0, 6.952)
        with pytest.raises(ValueError):
            half_power_distances(100.0, 0.0, 6.952)


class TestBeamdepth:
    def test_worked_example(self):
        assert beamdepth(100.0, 5000.0, 6.952) == pytest.approx(28.36, abs=0.01)

    def test_infinite_branch(self):
        boundary = 5000.0 / 6.952
        assert math.isinf(beamdepth(boundary, 5000.0, 6.952))
        assert math.isinf(beamdepth(boundary * 2, 5000.0, 6.952))
        assert math.isfinite(beamdepth(boundary * 0.999, 5000.0, 6.952))

    def test_quadratic_growth_well_inside(self):
        bd1 = beamdepth(10.0, 5000.0, 6.952)
        bd2 = beamdepth(20.0, 5000.0, 6.952)
        assert bd2 / bd1 == pytest.approx(4.0, rel=0.01)

    def test_matches_distance_difference(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d_fa = rng.uniform(100.0, 1e5)
            coeff = rng.uniform(1.0, 20.0)
            d = rng.uniform(0.01, 0.99) * d_fa / coeff
            low, high = half_power_distances(d, d_fa, coeff)
            bd = beamdepth(d, d_fa, coeff)
            assert bd == pytest.approx(high - low, rel=1e-9)

    def test_crossings_sit_at_half_power(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            kind = KINDS[rng.integers(0, 4)]
            mode = SIMO if rng.uniform() < 0.5 else MIMO
            coeff = half_power_coefficient(kind, mode)
            d_fa = rng.uniform(500.0, 5e4)
            d = rng.uniform(0.02, 0.95) * d_fa / coeff
            for crossing in half_power_distances(d, d_fa, coeff):
                x = af_argument(kind, d_fa, vergence_difference(d, crossing))
                assert abs(normalized_af_power(kind, mode, x) - 0.5) <= 1e-6


class TestMaxRange:
    def test_worked_example(self):
        assert max_nearfield_range(5000.0, 6.952) == pytest.approx(719.2, abs=0.1)

    def test_boundary_consistency(self):
        r = max_nearfield_range(5000.0, 6.952)
        assert math.isfinite(beamdepth(0.999 * r, 5000.0, 6.952))
        assert math.isinf(beamdepth(r, 5000.0, 6.952))

    @pytest.mark.parametrize("kind", KINDS)
    def test_mimo_extends_range_by_about_1p4(self, kind):
        r_simo = max_nearfield_range(5000.0, half_power_coefficient(kind, SIMO))
        r_mimo = max_nearfield_range(5000.0, half_power_coefficient(kind, MIMO))
        assert r_mimo / r_simo == pytest.approx(1.4, abs=0.03)

    def test_inverse_proportionality(self):
        assert max_nearfield_range(5000.0, 13.904) == pytest.approx(
            max_nearfield_range(5000.0, 6.952) / 2.0)


class TestSidelobes:
    @pytest.mark.parametrize("kind,mode", list(PSL_PUBLISHED))
    def test_published_levels(self, kind, mode):
        assert peak_sidelobe_level(kind, mode) == pytest.approx(
            PSL_PUBLISHED[(kind, mode)], abs=0.05)

    @pytest.mark.parametrize("kind", KINDS)
    def test_db_doubling(self, kind):
        assert peak_sidelobe_level(kind, MIMO) == pytest.approx(
             2.0 * peak_sidelobe_level(kind, SIMO), abs=1e-6)

    @pytest.mark.parametrize("kind,mode", [
        pytest.param(kind, mode, id=str(kind) + ("-MIMO" if mode is MIMO else ""))
        for mode in (SIMO, MIMO) for kind in KINDS])
    def test_window_holds_global_maximum(self, kind, mode):
        # the mode's own pattern, scanned four times wider than the search
        # window, peaks at the reported level beyond the mainlobe edge
        level = 10.0 ** (peak_sidelobe_level(kind, mode) / 10.0)
        edge = mainlobe_edge(kind, mode)
        x = np.linspace(edge, 4.0 * SIDELOBE_SCAN_MAX, 400_000)
        peak = normalized_af_power(kind, mode, x).max()
        assert peak <= level + 1e-9
        assert peak >= level - 1e-6

    @pytest.mark.parametrize("kind", KINDS)
    def test_edge_below_half_power(self, kind):
        edge = mainlobe_edge(kind, SIMO)
        assert normalized_af_power(kind, SIMO, edge) < 0.5
        assert edge > half_power_argument(kind, SIMO)


class TestMainlobeEdge:
    def test_uca_edge_is_bessel_zero(self):
        assert mainlobe_edge(GeometryKind.UCA, SIMO) == pytest.approx(
            2.404826, abs=1e-5)

    def test_upca_edge_is_first_sinc_zero(self):
        assert mainlobe_edge(GeometryKind.UPCA, SIMO) == pytest.approx(
            1.0, abs=1e-6)

    def test_fresnel_layouts_share_edge(self):
        assert mainlobe_edge(GeometryKind.ULA, SIMO) == pytest.approx(
            mainlobe_edge(GeometryKind.URA, SIMO), abs=1e-9)
        # the URA is the ULA squared: URA SIMO is ULA MIMO, bit for bit
        for solver in (half_power_argument, mainlobe_edge, peak_sidelobe_level):
            assert solver(GeometryKind.URA, SIMO) == solver(GeometryKind.ULA, MIMO)


def _clear_caches():
    # the only two caches, as test_two_public_caches pins
    half_power_argument.cache_clear()
    lobe_scan.cache_clear()


class TestSolverCaches:
    def test_two_public_caches(self):
        cached = {name for name in dir(metrics) if not name.startswith("_")
                  and hasattr(getattr(metrics, name), "cache_clear")}
        assert cached == {"half_power_argument", "lobe_scan"}

    def test_one_lobe_scan_per_base_pattern(self, monkeypatch):
        # ULA, UCA and UPCA are the base patterns; the URA reuses the ULA's
        grids = []

        def counting(kind, mode, x):
            if np.size(x) == 50_001:
                grids.append(kind)
            return normalized_af_power(kind, mode, x)

        _clear_caches()
        monkeypatch.setattr(metrics, "normalized_af_power", counting)
        for kind in KINDS:
            compute_metrics(kind)
        assert sorted(grids, key=KINDS.index) == [
            GeometryKind.ULA, GeometryKind.UCA, GeometryKind.UPCA]

    @pytest.mark.parametrize("argv", [
        ["af-curve", "--sweep", "50:400:201"],
        ["beamdepth-sweep", "--sweep", "10:1200:201"],
    ])
    def test_curves_scan_no_lobes(self, argv, capsys):
        _clear_caches()
        assert main(argv) == 0
        assert lobe_scan.cache_info().currsize == 0


class TestQuadraticGainAnalysis:
    @pytest.mark.parametrize("kind", KINDS)
    def test_predicted_ratio_is_sqrt2(self, kind):
        assert quadratic_gain_analysis(kind).predicted_ratio == math.sqrt(2.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_true_ratio_band(self, kind):
        assert 1.38 <= quadratic_gain_analysis(kind).true_ratio <= 1.41

    def test_worst_case_ratio_error(self):
        worst = max(quadratic_gain_analysis(k).ratio_rel_error for k in KINDS)
        assert worst <= 0.0227

    @pytest.mark.parametrize("kind", KINDS)
    def test_model_arguments_from_curvature(self, kind):
        qa = quadratic_gain_analysis(kind)
        assert qa.x3db_quad_simo == pytest.approx(
            math.sqrt(2.0) / (2.0 * math.sqrt(qa.curvature)), rel=1e-12)
        assert qa.x3db_quad_mimo == pytest.approx(
            1.0 / (2.0 * math.sqrt(qa.curvature)), rel=1e-12)
        assert qa.x3db_quad_simo / qa.x3db_quad_mimo == pytest.approx(
            math.sqrt(2.0), rel=1e-12)
        assert qa.rel_error_simo == pytest.approx(
            abs(qa.x3db_quad_simo - half_power_argument(kind, SIMO))
            / half_power_argument(kind, SIMO), rel=1e-9)


class TestComputeMetrics:
    def test_row_consistency(self):
        for kind in KINDS:
            m = compute_metrics(kind)
            assert m.alpha_ratio == pytest.approx(m.alpha_simo / m.alpha_mimo,
                                                  rel=1e-12)
            assert m.alpha_ratio > 1.0
            assert m.psl_mimo_db == pytest.approx(2.0 * m.psl_simo_db, abs=1e-6)
            assert m.argument_scale == kind.argument_scale


def test_exact_sum_crosscheck_ula():
    # half-power argument implied by the direct element summation stays
    # within 3% of the closed-form root (aperture 50 lam, target 100 lam)
    g = build_ula(50.0, 1.0)
    d_fa = fraunhofer_distance(g)
    setup = simo_miso_setup(g)
    x3 = half_power_argument(GeometryKind.ULA, SIMO)
    coeff = half_power_coefficient(GeometryKind.ULA, SIMO)
    d_low, d_high = half_power_distances(100.0, d_fa, coeff)
    grid = np.linspace(0.9 * d_low, 1.1 * d_high, 6000)
    power = broadside_power_sweep(setup, 100.0, grid)
    above = power >= 0.5
    for upper in (False, True):
        if upper:
            i = int(np.where((grid[:-1] > 100.0) & above[:-1] & ~above[1:])[0][0])
        else:
            i = int(np.where((grid[1:] < 100.0) & ~above[:-1] & above[1:])[0][-1])
        d_cross = grid[i] + (0.5 - power[i]) / (power[i + 1] - power[i]) \
            * (grid[i + 1] - grid[i])
        x_exact = af_argument(GeometryKind.ULA, d_fa,
                              vergence_difference(100.0, d_cross))
        assert abs(x_exact - x3) / x3 <= 0.03
