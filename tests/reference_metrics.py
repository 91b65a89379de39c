"""Test-only reference beamdepth: the scalar function on Python floats.

This is nfsense.metrics.beamdepth as it was before it took arrays, with
squares taken as x * x; tests require the array form to give its bits and
its ValueError messages.
"""

import math


def beamdepth(d_target: float, d_fraunhofer: float, coefficient: float) -> float:
    """Radial half-power extent around a target at d'; inf past d_FA/alpha.

    Below d_FA/alpha the extent is finite; ValueError where its formula
    leaves the float range (an overflowing or underflowing square).
    """
    if not (0.0 < d_target < math.inf and 0.0 < d_fraunhofer < math.inf
            and 0.0 < coefficient < math.inf):
        raise ValueError("distances and coefficient must be finite and positive")
    if d_target >= d_fraunhofer / coefficient:
        return math.inf
    d2 = d_target * d_target
    fa2 = d_fraunhofer * d_fraunhofer
    c2 = coefficient * coefficient
    try:
        depth = 2.0 * coefficient * d_fraunhofer * d2 / (fa2 - c2 * d2)
    except ZeroDivisionError:
        depth = math.inf
    # an overflowing square can still leave a finite quotient
    if math.inf in (d2, fa2, c2) or not math.isfinite(depth):
        raise ValueError(f"beamdepth at d' = {d_target:g} m with d_FA = "
                         f"{d_fraunhofer:g} m is out of floating-point range")
    return depth
