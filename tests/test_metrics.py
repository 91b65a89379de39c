import json
import math
import re
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from nfsense import cli, closed_form, metrics, specfun
from nfsense.ambiguity import broadside_power_sweep
from nfsense.cli import main
from nfsense.closed_form import (af_argument, normalized_af_power,
                                 vergence_difference)
from nfsense.geometry import (GeometryKind, ProcessingMode, build_array,
                              fraunhofer_distance, simo_miso_setup)
from nfsense.metrics import (beamdepth, compute_metrics, half_power_argument,
                             half_power_coefficient, half_power_distances,
                             mainlobe_edge, max_nearfield_range,
                             peak_sidelobe_level)

import reference_metrics

SIMO = ProcessingMode.SIMO_MISO
MIMO = ProcessingMode.MIMO
KINDS = list(GeometryKind)

# every (kind, mode) pair
PAIRS = [(kind, mode) for kind in KINDS for mode in (SIMO, MIMO)]


class TestHalfPower:
    @pytest.mark.parametrize("kind,mode", PAIRS)
    def test_alpha_identity(self, kind, mode):
        coeff = half_power_coefficient(kind, mode)
        assert abs(coeff * af_argument(kind, 1.0, 1.0)
                   - half_power_argument(kind, mode)) <= 1e-9


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

    @pytest.mark.parametrize("args", [
        (1e192, 5e193, 6.95),  # d_FA d' overflows, d' well inside d_FA/alpha
        (1e300, 1e10, 1.0),  # d_FA d' and the lower distance overflow, d' past it
        (1e-200, 1e-200, 1.0),  # d_FA d' underflows to zero
        (6e-160, 5e-158, 6.95),  # d_FA d' is subnormal
        (1.0, 1e-10, 1e300),  # the lower distance is subnormal
        # one ulp below d_FA/alpha, where alpha d' rounds to d_FA
        (110.5308754512692, 293.06884588646074, 2.6514658885124707),
    ], ids=["overflow", "overflow-past-range", "underflow", "subnormal-product",
            "subnormal-lower", "rounded-gap"])
    def test_out_of_float_range(self, args):
        with pytest.raises(ValueError, match="out of floating-point range"):
            half_power_distances(*args)

    @pytest.mark.parametrize("args", [(100.0, 5000.0, 7.0),
                                      (np.float64(100.0), 5000, np.array(7.0)),
                                      (110.5308754512692, 293.06884588646074,
                                       2.6),
                                      # d_FA d' is the smallest normal float
                                      (2.0 ** -511, 2.0 ** -511, 0.5)])
    def test_scalars_keep_their_bits(self, args):
        floats = [float(v) for v in args]
        product = floats[1] * floats[0]
        low, high = half_power_distances(*args)
        assert (type(low), type(high)) == (float, float)
        assert low == product / (floats[1] + floats[2] * floats[0])
        assert high == product / (floats[1] - floats[2] * floats[0])


class TestBeamdepth:
    @pytest.mark.parametrize("args, depth", [
        ((100.0, 5000.0, 6.952), pytest.approx(28.36, abs=0.01)),
        # d'^2 is the smallest normal float, and kept
        ((2.0 ** -511, 1.0, 1.0), 2.0 ** -1021)])
    def test_worked_example(self, args, depth):
        assert beamdepth(*args) == depth

    def test_infinite_branch(self):
        boundary = 5000.0 / 6.952
        assert math.isinf(beamdepth(boundary, 5000.0, 6.952))
        assert math.isinf(beamdepth(boundary * 2, 5000.0, 6.952))
        assert math.isfinite(beamdepth(boundary * 0.999, 5000.0, 6.952))

    def test_rounded_gap_raises(self):
        # one ulp below d_FA/alpha the rounded d_FA^2 - alpha^2 d'^2 is < 0
        with pytest.raises(ValueError, match="out of floating-point range"):
            beamdepth(56.31967387950216, 160.08963235498462, 2.842517034056372)

    def test_one_ulp_below_divergence(self):
        # the target sits inside d_FA/alpha, so its depth is finite and
        # positive or out of the float range, never zero or negative (pair
        # 271 of this seed gave a negative depth before the gap check)
        rng = np.random.default_rng(52)
        d_fa, coeff = rng.uniform(100.0, 1e5, 2000), rng.uniform(1.0, 20.0, 2000)
        raised = 0
        for fa, c in zip(d_fa.tolist(), coeff.tolist()):
            d = np.nextafter(fa / c, 0.0)
            try:
                depth = beamdepth(d, fa, c)
            except ValueError as exc:
                assert "out of floating-point range" in str(exc)
                raised += 1
            else:
                assert 0.0 < depth < math.inf
        assert 0 < raised < 2000

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


class TestBeamdepthArray:
    """beamdepth on arrays against the scalar one in tests/reference_metrics.py."""

    @staticmethod
    def reference(targets, d_fa, coeff):
        return np.array([reference_metrics.beamdepth(t, d_fa, coeff)
                         for t in np.asarray(targets).tolist()])

    def test_equals_reference_across_crossing(self):
        coeff = half_power_coefficient(GeometryKind.ULA, SIMO)
        targets = np.linspace(10.0, 1200.0, 997)  # crosses d_FA/alpha ~ 719 m
        depths = beamdepth(targets, 5000.0, coeff)
        assert np.isinf(depths).any() and np.isfinite(depths).any()
        assert np.array_equal(depths, self.reference(targets, 5000.0, coeff))

    def test_squares_are_products(self):
        # squares are x * x, correctly rounded on any platform, where the C
        # library's pow that Python's ** calls can be an ulp off
        targets = np.random.default_rng(12).uniform(1.0, 700.0, 20_000)
        coeff = half_power_coefficient(GeometryKind.UPCA, MIMO)
        d2 = targets * targets
        products = 2.0 * coeff * 3e5 * d2 / (3e5 * 3e5 - coeff * coeff * d2)
        depths = beamdepth(targets, 3e5, coeff)
        assert np.array_equal(depths, products)
        assert np.array_equal(depths, self.reference(targets, 3e5, coeff))

    def test_broadcasts(self):
        coeffs = np.array([[1.0], [6.952]])
        depths = beamdepth([100.0, 800.0], 5000.0, coeffs)
        assert depths.shape == (2, 2)
        assert depths[1, 0] == reference_metrics.beamdepth(100.0, 5000.0, 6.952)
        assert math.isinf(depths[1, 1])

    @pytest.mark.parametrize("d_fa,coeff,targets", [
        # the inputs of the four beamdepth-sweep argvs that exit 1 in
        # test_cli.py, for ULA in SIMO
        (2.0 * 5e153 ** 2, None, (1.0, 1e300)),     # d_FA^2 overflows
        (2.0 * 1e-100 ** 2, None, (1e-300, 1e300)),  # both squares underflow
        (2.0 * 7e74 ** 2, None, (1e99, 1e100)),     # the numerator overflows
        (5e-107, None, (1e-109, 1.2e-107)),  # the numerator underflows
        (5e-158, 6.95, (6e-160, 6e-160)),  # d'^2 and d_FA^2 are subnormal
        (1e100, 1.0, (1e-150, 1e-150)),    # the extent underflows
        (1.0, 1e-160, (1.0, 2.0)),         # alpha^2 underflows
        # a square overflows, and numpy's inf gives a finite quotient
        (2e200, None, (1.0, 10.0)),
        (1.0, 1e160, (1e-161, 1e-160)),
    ])
    def test_out_of_range_message(self, d_fa, coeff, targets):
        coeff = coeff or half_power_coefficient(GeometryKind.ULA, SIMO)
        targets = np.linspace(*targets, 3)
        with pytest.raises(ValueError) as scalar:
            self.reference(targets, d_fa, coeff)
        assert "out of floating-point range" in str(scalar.value)
        with pytest.raises(ValueError) as array:
            beamdepth(targets, d_fa, coeff)
        assert str(array.value) == str(scalar.value)

    def test_rounded_gap_raises_like_reference(self):
        # one ulp below d_FA/alpha the rounded gap is negative
        args = (56.31967387950216, 160.08963235498462, 2.842517034056372)
        with pytest.raises(ValueError) as scalar:
            reference_metrics.beamdepth(*args)
        assert "out of floating-point range" in str(scalar.value)
        with pytest.raises(ValueError) as array:
            beamdepth(*args)
        assert str(array.value) == str(scalar.value)

    def test_rejects_any_bad_element(self):
        targets = np.array([100.0, -1.0])
        with pytest.raises(ValueError) as scalar:
            self.reference(targets, 5000.0, 6.952)
        with pytest.raises(ValueError) as array:
            beamdepth(targets, 5000.0, 6.952)
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("d_target", [100.0, np.float64(100.0),
                                          np.array(100.0), 800.0])
    def test_scalar_gives_float(self, d_target):
        depth = beamdepth(d_target, 5000.0, 6.952)
        assert type(depth) is float
        assert depth == reference_metrics.beamdepth(float(d_target), 5000.0, 6.952)


class TestMaxRange:
    def test_worked_example(self):
        assert max_nearfield_range(5000.0, 6.952) == pytest.approx(719.2, abs=0.1)

    def test_boundary_consistency(self):
        r = max_nearfield_range(5000.0, 6.952)
        assert math.isfinite(beamdepth(0.999 * r, 5000.0, 6.952))
        assert math.isinf(beamdepth(r, 5000.0, 6.952))

    def test_inverse_proportionality(self):
        assert max_nearfield_range(5000.0, 13.904) == pytest.approx(
            max_nearfield_range(5000.0, 6.952) / 2.0)

    def test_scalar_quotient(self):
        assert max_nearfield_range(5000.0, 6.952) == 5000.0 / 6.952
        assert type(max_nearfield_range(np.float64(5000.0), 7)) is float
        # the smallest and a large quotient that are normal floats
        tiny = np.finfo(float).tiny
        assert max_nearfield_range(2.0 * tiny, 2.0) == tiny
        assert max_nearfield_range(1.7e308, 1.0) == 1.7e308

    @pytest.mark.parametrize("args", [
        (1e10, 1e-300),  # d_FA / alpha overflows
        (4.5e-308, 6.952),  # d_FA / alpha is subnormal
        (1e-300, 1e300),  # d_FA / alpha underflows to zero
    ], ids=["overflow", "subnormal", "underflow"])
    def test_out_of_float_range(self, args):
        message = (f"maximum near-field range with d_FA = {args[0]:g} m is "
                   "out of floating-point range")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            max_nearfield_range(*args)


SIDELOBE_SCAN_MAX = 200.0
"Upper end in x of the scan past the mainlobe edge for the peak sidelobe."


class TestSidelobes:
    @pytest.mark.parametrize("kind,mode", [
        pytest.param(kind, mode, id=str(kind) + ("-MIMO" if mode is MIMO else ""))
        for mode in (SIMO, MIMO) for kind in KINDS])
    def test_window_holds_global_maximum(self, kind, mode):
        # the mode's own pattern peaks at the reported level beyond the
        # mainlobe edge
        level = 10.0 ** (peak_sidelobe_level(kind, mode) / 10.0)
        edge = mainlobe_edge(kind, mode)
        x = np.linspace(edge, SIDELOBE_SCAN_MAX, 400_000)
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


class TestSolverCaches:
    def test_public_caches(self):
        cached = {name for name in dir(metrics) if not name.startswith("_")
                  and hasattr(getattr(metrics, name), "cache_clear")}
        assert cached == {"half_power_argument"}


BASES = [GeometryKind.ULA, GeometryKind.UCA, GeometryKind.UPCA]


class TestFigureTable:
    """The table of base-pattern figures against a 40-digit solve, and the
    library's own float pattern at the solve's points."""

    def test_committed_figures_match_the_solve(self, constants):
        start = time.perf_counter()
        figures = constants.solve()
        assert constants.check({}, figures) == []
        assert time.perf_counter() - start < 1.0
        # one ulp off in one figure is caught
        roots, edge, peak = figures["UCA"]
        nudged = (roots, edge, float(np.nextafter(peak, 1.0)))
        assert constants.check({}, {**figures, "UCA": nudged}) == ["UCA"]

    def test_printed_table_is_the_committed_source(self, constants, capsys):
        # each printed block is verbatim in its module: the coefficient
        # tuples in specfun, then the _FIGURES table in closed_form
        assert constants.main([]) == 0
        blocks = capsys.readouterr().out.rstrip("\n").split("\n\n")
        assert [b.split(" = ")[0] for b in blocks] == [*constants.fit(), "_FIGURES"]
        for block in blocks:
            module = closed_form if block.startswith("_FIGURES") else specfun
            assert block in Path(module.__file__).read_text()

    def test_check_exit_code(self, constants, monkeypatch, capsys):
        assert constants.main(["--check"]) == 0
        roots, edge, peak = closed_form._FIGURES[GeometryKind.ULA]
        monkeypatch.setitem(closed_form._FIGURES, GeometryKind.ULA,
                            ({**roots, 4: math.nextafter(roots[4], 0.0)},
                             edge, peak))
        assert constants.main(["--check"]) == 1
        assert capsys.readouterr().out.startswith("ULA:")
        # one line per stale table, a specfun tuple as well
        last = specfun._J0_P[-1]
        monkeypatch.setattr(specfun, "_J0_P",
                            (*specfun._J0_P[:-1], math.nextafter(last, 1.0)))
        assert constants.main(["--check"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["_J0_P", "ULA"]

    def test_tables_state_the_accuracy(self, constants, tmp_path):
        out = tmp_path / "tables.json"
        assert main(["tables", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["figure_accuracy"] == (
            f"correctly rounded from {constants.FIGURE_DIGITS} digits")

    @pytest.mark.parametrize("argv", [
        ["tables"], ["beamdepth-sweep", "--sweep", "10:1200:201"]])
    def test_figures_evaluate_no_pattern(self, argv, monkeypatch, capsys):
        def refuse(x):
            raise AssertionError("a closed form was evaluated")

        half_power_argument.cache_clear()
        for base, (_, curvature) in list(closed_form._PATTERNS.items()):
            monkeypatch.setitem(closed_form._PATTERNS, base, (refuse, curvature))
        assert main(argv) == 0

    @pytest.mark.parametrize("kind,mode", PAIRS)
    def test_root_matches_reference(self, kind, mode):
        # the float pattern crosses 1/2 within 1e-12 of the table's root
        x = half_power_argument(kind, mode)
        above, below = normalized_af_power(kind, mode,
                                           [x * (1 - 1e-12), x * (1 + 1e-12)])
        assert above > 0.5
        assert below < 0.5

    @pytest.mark.parametrize("kind,mode", PAIRS)
    def test_pattern_is_half_at_root(self, kind, mode):
        x = half_power_argument(kind, mode)
        assert abs(normalized_af_power(kind, mode, x) - 0.5) <= 1e-14

    @pytest.mark.parametrize("base", BASES)
    def test_lobes_match_reference(self, base, constants):
        # the float pattern has its minimum within 1e-8 of the table's edge
        # (the ULA's is flat: 1e-8 off, it rises by 7 or 8 ulps), and at the
        # 40-digit sidelobe peak it is the table's peak power to 1e-14
        _, edge, peak = closed_form._FIGURES[base]
        with mpmath.workdps(constants.FIGURE_DIGITS):
            x_peak = float(constants.BASES[base.name][1]()[1])
        f = normalized_af_power(base, SIMO, [edge * (1 - 1e-8), edge,
                                             edge * (1 + 1e-8), x_peak])
        assert f[0] > f[1] < f[2]
        assert f[3] == pytest.approx(peak, rel=1e-14, abs=0)


class TestQuadraticGainAnalysis:
    """The quadratic mainlobe model's columns of the compute_metrics row."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_columns_are_their_formulas(self, kind):
        # each quadratic column is the expression it is defined by, bit for bit
        m = compute_metrics(kind)
        c = closed_form.quadratic_mainlobe_coefficient(kind)
        x_simo = half_power_argument(kind, SIMO)
        x_mimo = half_power_argument(kind, MIMO)
        assert m.curvature == c
        assert m.x3db_quad_simo == math.sqrt(2.0) / (2.0 * math.sqrt(c))
        assert m.x3db_quad_mimo == 1.0 / (2.0 * math.sqrt(c))
        assert m.quad_rel_error_simo == abs(m.x3db_quad_simo - x_simo) / x_simo
        assert m.quad_rel_error_mimo == abs(m.x3db_quad_mimo - x_mimo) / x_mimo
        assert m.alpha_ratio == x_simo / x_mimo
        assert m.quad_ratio_rel_error == (abs(math.sqrt(2.0) - m.alpha_ratio)
                                          / m.alpha_ratio)


class TestComputeMetrics:
    def test_row_consistency(self):
        for kind in KINDS:
            m = compute_metrics(kind)
            assert m.alpha_ratio == pytest.approx(m.alpha_simo / m.alpha_mimo,
                                                  rel=1e-12)
            assert m.alpha_ratio > 1.0
            assert m.psl_mimo_db == peak_sidelobe_level(kind, MIMO)
            assert m.psl_mimo_db == 2.0 * m.psl_simo_db
            assert m.argument_scale == af_argument(kind, 1.0, 1.0)


def test_exact_sum_crosscheck_ula():
    # half-power argument implied by the direct element summation stays
    # within 3% of the closed-form root (aperture 50 lam, target 100 lam)
    g = build_array(GeometryKind.ULA, 50.0, 1.0)
    d_fa = fraunhofer_distance(g)
    setup = simo_miso_setup(g)
    x3 = half_power_argument(GeometryKind.ULA, SIMO)
    coeff = half_power_coefficient(GeometryKind.ULA, SIMO)
    d_low, d_high = half_power_distances(100.0, d_fa, coeff)
    grid = np.linspace(0.9 * d_low, 1.1 * d_high, 6000)
    power = broadside_power_sweep(setup, 100.0, grid)
    for upper in (False, True):
        d_cross = cli._crossing(grid, power, 100.0, upper)
        assert math.isfinite(d_cross)
        x_exact = af_argument(GeometryKind.ULA, d_fa,
                              vergence_difference(100.0, d_cross))
        assert abs(x_exact - x3) / x3 <= 0.03
