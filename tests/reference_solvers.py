"""Test-only bisection, the oracle for validate's half-power crossings.

validate interpolates each crossing between two points of its grid;
TestValidate in tests/test_cli.py bisects the same crossing on the exact
power instead.
"""


def bisect(f, lo: float, hi: float, tol: float) -> float:
    """A root of f between lo and hi, where f changes sign, to within tol."""
    above = f(lo) > 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == above:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) < tol:
            break
    return 0.5 * (lo + hi)
