"""Every public numeric function takes real numbers only.

A string, bytes, a bool, a complex number or a ragged sequence raises a
ValueError that names the argument, rather than being converted, computed on
or passed to numpy.
"""

import numpy as np
import pytest

from nfsense import (GeometryKind, ProcessingMode, af_argument, beamdepth,
                     bessel_j0, build_array, fresnel_c, fresnel_cs, fresnel_s,
                     half_power_distances, max_nearfield_range,
                     normalized_af_power, normalized_power, simo_miso_setup,
                     sinc, vergence_difference)
from nfsense.ambiguity import broadside_power_sweep
from nfsense.geometry import _real

ULA = GeometryKind.ULA
SIMO = ProcessingMode.SIMO_MISO

# (id, the call on one bad value, the name its message starts with)
CALLS = [
    ("fresnel_cs", fresnel_cs, "u"),
    ("fresnel_c", fresnel_c, "u"),
    ("fresnel_s", fresnel_s, "u"),
    ("bessel_j0", bessel_j0, "x"),
    ("sinc", sinc, "x"),
    ("vergence_difference-target", lambda v: vergence_difference(v, 5.0),
     "d_target"),
    ("vergence_difference-probe", lambda v: vergence_difference(5.0, v),
     "d_probe"),
    ("af_argument-fraunhofer", lambda v: af_argument(ULA, v, 0.1),
     "d_fraunhofer"),
    ("af_argument-vergence", lambda v: af_argument(ULA, 5000.0, v), "vergence"),
    ("normalized_af_power", lambda v: normalized_af_power(ULA, SIMO, v), "x"),
    ("beamdepth", lambda v: beamdepth(100.0, 5000.0, v),
     "distances and coefficient"),
    ("half_power_distances", lambda v: half_power_distances(v, 5000.0, 7.0),
     "d_target"),
    ("max_nearfield_range", lambda v: max_nearfield_range(5000.0, v),
     "coefficient"),
    ("build_array-aperture", lambda v: build_array(ULA, v, 1.0), "aperture"),
    ("build_array-wavelength", lambda v: build_array(ULA, 10.0, v),
     "wavelength"),
]


@pytest.mark.parametrize("bad", ["0.5", True, 1j, b"1", [0.5, [0.5]]],
                         ids=["str", "bool", "complex", "bytes", "ragged"])
@pytest.mark.parametrize("call, name", [c[1:] for c in CALLS],
                         ids=[c[0] for c in CALLS])
def test_non_real_named(call, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(bad)


_SETUP = simo_miso_setup(build_array(ULA, 12.0, 1.0))


@pytest.mark.parametrize("call, message", [
    (lambda: normalized_power(_SETUP, [0, 0, 50.0], [[0, 0, 10.0], [0, 0]]),
     "points must be finite 3-vectors"),
    (lambda: normalized_power(_SETUP, [0, 0, [50.0]], [0, 0, 10.0]),
     "target must be one finite point"),
    (lambda: broadside_power_sweep(_SETUP, 50.0, [10.0, [20.0]]),
     "points must be finite 3-vectors"),
    (lambda: broadside_power_sweep(_SETUP, [50.0, [60.0]], [10.0]),
     "target must be one finite point"),
], ids=["normalized_power-probe", "normalized_power-target",
        "broadside_power_sweep-probe", "broadside_power_sweep-target"])
def test_ragged_points_named(call, message):
    # numpy makes no array of a ragged sequence; the exact sums report it
    # under their own message, as test_non_real_named's ragged case does
    # for every other function
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestReal:
    def test_messages(self):
        with pytest.raises(ValueError, match=r"^d must be finite and positive "
                                             r"\(a real scalar\), got '1'$"):
            _real("1", "d")
        with pytest.raises(ValueError, match=r"^d must be finite \(a real "
                                             r"scalar\), got 1j$"):
            _real(1j, "d", positive=False)
        with pytest.raises(ValueError, match="^d must be finite and positive$"):
            _real([1.0, 0.0], "d", scalar=False)
        with pytest.raises(ValueError, match="^d must be finite$"):
            _real([1.0, np.nan], "d", positive=False, scalar=False)

    def test_float64_array_not_copied(self):
        values = np.array([0.0, -1.5, 3.0])
        assert _real(values, "d", positive=False, scalar=False) is values

    def test_conversions(self):
        assert type(_real(np.int64(3), "d")) is float
        assert type(_real(np.float32(0.5), "d")) is float
        ints = _real([0, -1, 2], "d", positive=False, scalar=False)
        assert ints.dtype == np.float64 and ints.tolist() == [0.0, -1.0, 2.0]
        assert _real(0.0, "d", positive=False) == 0.0
