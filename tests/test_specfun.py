import math
import time

import mpmath
import numpy as np
import pytest
from scipy import integrate

from nfsense import specfun
from nfsense.closed_form import normalized_af_power
from nfsense.geometry import GeometryKind, ProcessingMode
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


def mp_fresnel(u):
    """C(u) and S(u) at 50 digits: (1 + i)/2 erf(sqrt(pi)/2 (1 - i) u).

    A&S 7.3.22; it agrees with mpmath.fresnelc / fresnels to 1e-48 and is
    ten times faster for |u| > 10.
    """
    with mpmath.workdps(50):
        w = (1 + 1j) / 2 * mpmath.erf(mpmath.sqrt(mpmath.pi) / 2 * (1 - 1j)
                                      * mpmath.mpf(u))
        return float(w.real), float(w.imag)


def mp_j0(x):
    with mpmath.workdps(50):
        return float(mpmath.besselj(0, mpmath.mpf(x)))


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
        # the u^4 series and the auxiliary functions must agree where they meet
        left = fresnel_cs(2.0 - 1e-12)
        right = fresnel_cs(2.0 + 1e-12)
        assert left[0] == pytest.approx(right[0], abs=1e-11)
        assert left[1] == pytest.approx(right[1], abs=1e-11)

    @pytest.mark.parametrize("lo, hi, n", [(0.0, 2.0, 201), (2.0, 10.0, 201),
                                           (10.0, 100.0, 201),
                                           (100.0, 1000.0, 201)])
    def test_against_mpmath(self, lo, hi, n):
        # both sides of the crossover, random points and some negatives
        rng = np.random.default_rng(int(hi))
        u = np.concatenate([np.linspace(lo, hi, n), rng.uniform(lo, hi, n),
                            -rng.uniform(lo, hi, 10)])
        c, s = fresnel_cs(u)
        ref = np.array([mp_fresnel(float(v)) for v in u])
        assert np.max(np.abs(c - ref[:, 0])) <= 1e-15
        assert np.max(np.abs(s - ref[:, 1])) <= 1e-15

    def test_array_shape_and_scalar_type(self):
        # each branch's values land where the flattened call puts them
        for u in ([0.1, 0.2, 5.0], [], [[0.1, -2.0, 2.0], [3.0, 1e17, 0.0]]):
            u = np.array(u)
            for out, flat in zip(fresnel_cs(u), fresnel_cs(u.ravel())):
                assert out.shape == u.shape
                assert out.tobytes() == flat.tobytes()
        assert isinstance(fresnel_c(0.3), float)


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

    # [0, 13] is the x^2 series, (13, 50] the Hankel envelope's
    @pytest.mark.parametrize("lo, hi, bound", [
        (0.0, 13.0, 1e-14), (np.nextafter(13.0, 14.0), 50.0, 1e-15)],
        ids=["0.0-13.0-1e-14", "13.0-50.0-1e-15"])
    def test_against_mpmath(self, lo, hi, bound):
        rng = np.random.default_rng(int(hi))
        x = np.concatenate([np.linspace(lo, hi, 501),
                            rng.uniform(lo, hi, 500)])
        ref = np.array([mp_j0(float(v)) for v in x])
        assert np.max(np.abs(bessel_j0(x) - ref)) <= bound

    def test_phase_far_from_the_origin(self):
        # the Hankel phase is taken from x itself, not from a rounded
        # x - pi/4, so the error does not grow with x
        rng = np.random.default_rng(1)
        x = np.exp(rng.uniform(math.log(13.0), math.log(1e6), 400))
        ref = np.array([mp_j0(float(v)) for v in x])
        assert np.max(np.abs(bessel_j0(x) - ref)) <= 2e-16

    def test_branch_crossover_continuity(self):
        # the x^2 series (x <= 13) and the Hankel envelope's meet at x = 13
        below, above = np.nextafter(13.0, 0.0), np.nextafter(13.0, 14.0)
        for x in (13.0 - 1e-9, below, 13.0, above, 13.0 + 1e-9):
            assert bessel_j0(x) == pytest.approx(mp_j0(x), abs=1e-13)
        assert bessel_j0(below) == pytest.approx(bessel_j0(above), abs=2e-13)


class TestSinc:
    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0

    def test_integer_zero(self):
        assert abs(sinc(1.0)) < 1e-15

    def test_half_power_argument(self):
        assert sinc(0.443) ** 2 == pytest.approx(0.5, abs=5e-4)

    # |x| < 1e-7 takes 1 - (pi x)^2 / 6, the rest sin(pi x) / (pi x)
    @pytest.mark.parametrize("x", [1e-9, 9e-8, -9e-8, 2e-7])
    def test_tiny_argument_continuity(self, x):
        assert sinc(x) == pytest.approx(1.0 - (math.pi * x) ** 2 / 6.0,
                                        abs=2e-16)

    def test_matches_direct_formula(self):
        x = np.linspace(0.01, 40.0, 4001)
        assert np.max(np.abs(sinc(x) - np.sin(np.pi * x) / (np.pi * x))) <= 1e-15


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


# [0, 50] in shuffled order, with both neighbours of the Fresnel crossover
# u = 2 (x = 4 in the ULA pattern) and of the J0 crossover x = 13.  At
# some points glibc's pow (Python's float **) rounds a closed-form square
# otherwise than a product: J0(8.4)^2, sinc(0.863)^2, and the MIMO squares
# of J0(1.888)^2, sinc(0.19)^2 and of the URA pattern at 0.337.
_MIXED = np.random.default_rng(5).permutation(np.concatenate([
    np.linspace(0.0, 50.0, 1001), [0.863, 0.19, 0.337, 1.888],
    [np.nextafter(b, b + d) for b in (2.0, 4.0, 13.0) for d in (-1.0, 1.0)]]))

_MODES = {"": ProcessingMode.SIMO_MISO, "-mimo": ProcessingMode.MIMO}


def _pattern(kind, mode):
    return lambda v: normalized_af_power(kind, mode, v)


@pytest.mark.parametrize("evaluate", [
    lambda v: np.stack(fresnel_cs(v), axis=-1),
    bessel_j0,
    sinc,
    *(_pattern(k, m) for m in _MODES.values() for k in GeometryKind),
], ids=["fresnel_cs", "bessel_j0", "sinc",
        *(k.value + s for s in _MODES for k in GeometryKind)])
def test_value_does_not_depend_on_its_batch(evaluate):
    batch = np.asarray(evaluate(_MIXED))
    alone = np.array([evaluate(float(v)) for v in _MIXED])
    assert alone.shape == batch.shape
    assert np.array_equal(alone.view(np.uint64), batch.view(np.uint64))


def test_committed_coefficients_match_the_fit(constants):
    start = time.perf_counter()
    fitted = constants.fit()
    assert constants.check(fitted, {}) == []
    assert time.perf_counter() - start < 2.0
    # one ulp off in any coefficient tuple, the first or the last entry, is
    # caught
    for name, coef in fitted.items():
        for k in (0, -1):
            nudged = list(coef)
            nudged[k] = float(np.nextafter(coef[k], np.inf))
            assert constants.check({**fitted, name: tuple(nudged)}, {}) == [name]


def test_every_coefficient_tuple_is_fitted(constants):
    # no table of floats in specfun escapes the fit check
    tables = {name for name, value in vars(specfun).items()
              if isinstance(value, tuple) and value
              and all(isinstance(c, float) for c in value)}
    assert tables == set(constants.fit())
    assert {"_J0_P", "_J0_XQ"} <= tables
    # nor does a float array built from them
    arrays = [name for name, value in vars(specfun).items()
              if isinstance(value, np.ndarray) and value.dtype.kind == "f"]
    assert arrays == []
