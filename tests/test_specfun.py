import math

import numpy as np
import pytest
from scipy import integrate

from nfsense.specfun import bessel_j0, fresnel_c, fresnel_s, fresnel_cs, sinc


def quad_fresnel(u):
    """Independent adaptive-quadrature oracle for C(u) and S(u)."""
    c, _ = integrate.quad(lambda t: math.cos(0.5 * math.pi * t * t), 0.0, u,
                          limit=500, epsabs=1e-13, epsrel=1e-13)
    s, _ = integrate.quad(lambda t: math.sin(0.5 * math.pi * t * t), 0.0, u,
                          limit=500, epsabs=1e-13, epsrel=1e-13)
    return c, s


def j0_series_oracle(x, terms=40):
    """Truncated power series oracle for J0, valid for small |x|."""
    acc = 0.0
    term = 1.0
    for k in range(terms):
        acc += term
        term *= -(x * x) / (4.0 * (k + 1) ** 2)
    return acc


class TestFresnel:
    def test_zero(self):
        assert fresnel_c(0.0) == 0.0
        assert fresnel_s(0.0) == 0.0

    def test_unit_argument(self):
        # frozen from the quadrature oracle below
        assert fresnel_c(1.0) == pytest.approx(0.7798934003768228, abs=1e-10)
        assert fresnel_s(1.0) == pytest.approx(0.4382591473903547, abs=1e-10)
        c_q, s_q = quad_fresnel(1.0)
        assert fresnel_c(1.0) == pytest.approx(c_q, abs=1e-10)
        assert fresnel_s(1.0) == pytest.approx(s_q, abs=1e-10)

    def test_asymptotic_half(self):
        assert fresnel_c(50.0) == pytest.approx(0.5, abs=0.01)
        assert fresnel_s(50.0) == pytest.approx(0.5, abs=0.01)

    def test_quadrature_oracle_grid(self):
        for u in np.linspace(0.0, 10.0, 200):
            c_q, s_q = quad_fresnel(float(u))
            assert fresnel_c(float(u)) == pytest.approx(c_q, abs=1e-8)
            assert fresnel_s(float(u)) == pytest.approx(s_q, abs=1e-8)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(-10.0, 10.0, 1000)
        assert np.max(np.abs(fresnel_c(u) + fresnel_c(-u))) <= 1e-12
        assert np.max(np.abs(fresnel_s(u) + fresnel_s(-u))) <= 1e-12

    def test_branch_crossover_continuity(self):
        # series and continued fraction must agree where they meet
        left = fresnel_cs(2.0 - 1e-12)
        right = fresnel_cs(2.0 + 1e-12)
        assert left[0] == pytest.approx(right[0], abs=1e-11)
        assert left[1] == pytest.approx(right[1], abs=1e-11)

    def test_array_shape_and_scalar_type(self):
        out = fresnel_c(np.array([0.1, 0.2, 5.0]))
        assert out.shape == (3,)
        assert isinstance(fresnel_c(0.3), float)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            fresnel_c(bad)
        with pytest.raises(ValueError):
            fresnel_s(bad)


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_half_power_argument(self):
        assert bessel_j0(1.126) ** 2 == pytest.approx(0.5, abs=5e-4)

    def test_first_zero_against_series_oracle(self):
        # bisection on the independent series oracle
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if j0_series_oracle(mid) > 0:
                lo = mid
            else:
                hi = mid
        zero_oracle = 0.5 * (lo + hi)
        assert zero_oracle == pytest.approx(2.404826, abs=1e-5)
        assert abs(bessel_j0(zero_oracle)) < 1e-9

    def test_series_oracle_grid(self):
        for x in np.linspace(0.0, 4.0, 100):
            assert bessel_j0(float(x)) == pytest.approx(
                j0_series_oracle(float(x)), abs=1e-10)

    def test_even_symmetry(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-10.0, 10.0, 1000)
        assert np.max(np.abs(bessel_j0(x) - bessel_j0(-x))) <= 1e-12

    def test_bounded_by_one(self):
        x = np.linspace(-50.0, 50.0, 20001)
        assert np.all(np.abs(bessel_j0(x)) <= 1.0 + 1e-12)

    def test_wide_range_against_scipy(self):
        from scipy import special
        x = np.linspace(0.0, 50.0, 5001)
        assert np.max(np.abs(bessel_j0(x) - special.j0(x))) <= 1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            bessel_j0(float("nan"))


class TestSinc:
    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0

    def test_integer_zero(self):
        assert abs(sinc(1.0)) < 1e-15

    def test_half_power_argument(self):
        assert sinc(0.443) ** 2 == pytest.approx(0.5, abs=5e-4)

    def test_tiny_argument_continuity(self):
        assert sinc(1e-9) == pytest.approx(1.0, abs=1e-15)
        assert sinc(2e-7) == pytest.approx(1.0 - (math.pi * 2e-7) ** 2 / 6.0,
                                           abs=1e-15)

    def test_matches_direct_formula(self):
        x = np.linspace(0.01, 40.0, 4001)
        assert np.max(np.abs(sinc(x) - np.sin(np.pi * x) / (np.pi * x))) <= 1e-15

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sinc(float("inf"))


def test_huge_arguments_stay_finite():
    # pi x and pi x^2 / 2 overflow up here; the limits are C = S = 1/2
    # and J0 = sinc = 0 to double precision
    huge = np.array([1e17, 1e155, 1e300, 5.7e307, 1.7e308, np.finfo(float).max])
    for sign in (1.0, -1.0):
        c, s = fresnel_cs(sign * huge)
        assert c.tolist() == s.tolist() == [sign * 0.5] * huge.size
        assert np.all(np.abs(bessel_j0(sign * huge)) <= 1.0 / np.sqrt(huge))
        assert np.all(np.abs(sinc(sign * huge)) <= 1.0 / huge)
    assert fresnel_cs(1e300) == (0.5, 0.5)
    assert sinc(1e308) == 0.0


def test_fresnel_wide_range_against_scipy():
    from scipy import special
    u = np.linspace(-10.0, 10.0, 4001)
    s_ref, c_ref = special.fresnel(u)
    assert np.max(np.abs(fresnel_c(u) - c_ref)) <= 1e-10
    assert np.max(np.abs(fresnel_s(u) - s_ref)) <= 1e-10
