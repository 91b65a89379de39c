"""Every input rule of the public API, one table per rule.

A value that is not a real number, a number out of its domain, a kind or
mode that is not a member, or a point that is not one finite 3-vector raises
one ValueError that names the argument.  A row is (id, function, argument
tuples, exact message formatted with the arguments: "{1!r}" is the second's
repr); test_every_function_has_rows fails for a public function with none.
"""

import math

import numpy as np
import pytest

import nfsense
from nfsense import (ArrayGeometry, GeometryKind, ProcessingMode, SensingSetup,
                     af_argument, array_factor, beamdepth, bessel_j0,
                     build_array, compute_metrics, fresnel_c, fresnel_cs,
                     fresnel_s, half_power_argument, half_power_coefficient,
                     half_power_distances, mainlobe_edge, max_nearfield_range,
                     mimo_setup, normalized_af_power, normalized_power,
                     peak_sidelobe_level, quadratic_mainlobe_coefficient,
                     simo_miso_setup, sinc, vergence_difference)
from nfsense.ambiguity import broadside_power_sweep
from nfsense.geometry import _real

ULA, UCA, URA, UPCA = GeometryKind
SIMO, MIMO = ProcessingMode
NAN, INF = math.nan, math.inf

# the name build_array gives each kind's D
D_NAMES = {ULA: "aperture", UCA: "diameter", URA: "diagonal", UPCA: "diameter"}
G10 = build_array(ULA, 10.0, 1.0)
SIMO10, MIMO10 = simo_miso_setup(G10), mimo_setup(G10)

# not a real number, for any argument that takes one or many
NON_REAL = ["0.5", True, 1j, b"1", [0.5, [0.5]]]
# not a real scalar, for the wavelength and D
NON_REAL_SCALARS = ["1.0", b"1.0", None, 1j, [1.0], np.array([1.0]), True]
NON_REAL_APERTURES = ["5", b"5", None, 5j, True, np.array([5.0, 6.0]), [5.0]]

# _scalar(name, i): the message for the i-th argument, a real scalar
_scalar = "{} must be finite and positive (a real scalar), got {{{}!r}}".format

NON_REAL_ROWS = [
    *[(f.__name__, f, [(v,) for v in NON_REAL], f"{name} must be finite")
      for f, name in ((fresnel_cs, "u"), (fresnel_c, "u"), (fresnel_s, "u"),
                      (bessel_j0, "x"), (sinc, "x"))],
    ("vergence_difference-d_target", vergence_difference,
     [(v, 5.0) for v in NON_REAL], "d_target must be finite and positive"),
    ("vergence_difference-d_probe", vergence_difference,
     [(5.0, v) for v in NON_REAL], "d_probe must be finite and positive"),
    ("af_argument-d_fraunhofer", af_argument,
     [(ULA, v, 0.1) for v in NON_REAL], _scalar("d_fraunhofer", 1)),
    ("af_argument-vergence", af_argument,
     [(ULA, 5000.0, v) for v in NON_REAL], "vergence must be finite"),
    ("normalized_af_power", normalized_af_power,
     [(ULA, SIMO, v) for v in NON_REAL], "x must be finite"),
    ("beamdepth", beamdepth, [(100.0, 5000.0, v) for v in NON_REAL],
     "distances and coefficient must be finite and positive"),
    ("half_power_distances-d_target", half_power_distances,
     [(v, 5000.0, 7.0) for v in [*NON_REAL, np.array([100.0, 200.0]),
                                 np.array([100.0])]], _scalar("d_target", 0)),
    ("half_power_distances-d_fraunhofer", half_power_distances,
     [(100.0, [5000.0], 7.0)], _scalar("d_fraunhofer", 1)),
    ("half_power_distances-coefficient", half_power_distances,
     [(100.0, 5000.0, v) for v in ("7", True, 7j)], _scalar("coefficient", 2)),
    ("max_nearfield_range-d_fraunhofer", max_nearfield_range,
     [(np.array([1.0]), 2.0)], _scalar("d_fraunhofer", 0)),
    ("max_nearfield_range-coefficient", max_nearfield_range,
     [(5000.0, v) for v in NON_REAL] + [(1.0, np.array([2.0, 3.0])), (1.0, "2")],
     _scalar("coefficient", 1)),
    # D is named before the lambda/2 rule compares it or a count is taken
    *[(f"build_array-{kind.name}-{name}", build_array,
       [(kind, v, 1.0) for v in NON_REAL_APERTURES
        + (["0.5", 1j, b"1", [0.5, [0.5]]] if kind is ULA else [])],
       f"{name} must be finite (a real scalar), got {{1!r}}")
      for kind, name in D_NAMES.items()],
    ("build_array-wavelength", build_array,
     [(kind, 10.0, v) for kind in GeometryKind for v in NON_REAL_SCALARS]
     + [(ULA, 10.0, v) for v in ("0.5", b"1", [0.5, [0.5]])],
     _scalar("wavelength", 2)),
    ("ArrayGeometry-wavelength", ArrayGeometry,
     [(kind, v, build_array(kind, 10.0, 1.0).elements)
      for kind in GeometryKind for v in NON_REAL_SCALARS],
     _scalar("wavelength", 1)),
]

# positive floats below the normal ones, the largest and the smallest among them
SUBNORMALS = (np.nextafter(np.finfo(float).tiny, 0.0), 1e-320, 3.5e-323, 5e-324)

OUT_OF_DOMAIN_ROWS = [
    ("fresnel_c", fresnel_c, [(v,) for v in (NAN, INF, -INF)], "u must be finite"),
    ("fresnel_s", fresnel_s, [(v,) for v in (NAN, INF, -INF)], "u must be finite"),
    ("bessel_j0", bessel_j0, [(NAN,)], "x must be finite"),
    ("sinc", sinc, [(INF,)], "x must be finite"),
    # 1/inf = 0 would read an infinite range as a valid one
    ("vergence_difference-d_target", vergence_difference,
     [(0.0, 10.0), (INF, 5.0), (-INF, 5.0), (NAN, 5.0)],
     "d_target must be finite and positive"),
    ("vergence_difference-d_probe", vergence_difference,
     [(10.0, -1.0), (10.0, np.array([5.0, 0.0])), (5.0, INF), (5.0, [50.0, -INF])],
     "d_probe must be finite and positive"),
    # inf * 0 would be a nan argument
    ("af_argument-d_fraunhofer", af_argument,
     [(ULA, 0.0, 0.005), (ULA, INF, 0.0), (ULA, NAN, 0.0), (ULA, -INF, 0.0)],
     _scalar("d_fraunhofer", 1)),
    ("af_argument-negative-vergence", af_argument,
     [(ULA, 5000.0, -1.0), (ULA, 5000.0, [0.0, -1e-300])],
     "vergence must be nonnegative"),
    # a NaN or infinite vergence would give a NaN or infinite argument
    ("af_argument-vergence", af_argument,
     [(UCA, 5000.0, v) for v in (NAN, INF, -INF, [NAN, -0.0], [-0.0, INF])],
     "vergence must be finite"),
    ("normalized_af_power-negative", normalized_af_power,
     [(ULA, SIMO, -0.1), (UCA, MIMO, np.array([0.5, -2.0]))],
     "x must be nonnegative"),
    ("normalized_af_power", normalized_af_power, [(UPCA, SIMO, NAN)],
     "x must be finite"),
    ("half_power_distances-d_target", half_power_distances,
     [(-1.0, 5000.0, 6.952), (INF, 5000.0, 0.5)], _scalar("d_target", 0)),
    ("half_power_distances-d_fraunhofer", half_power_distances,
     [(100.0, 0.0, 6.952), (100.0, INF, 0.5)], _scalar("d_fraunhofer", 1)),
    ("half_power_distances-coefficient", half_power_distances,
     [(100.0, 5000.0, NAN)], _scalar("coefficient", 2)),
    # d_FA + alpha d' rounds to d_FA: a window of zero width around d'
    ("half_power_distances-collapsed", half_power_distances,
     [(1e-17, 2.0, 6.952)],
     "half-power distances at d' = {0:g} m with d_FA = {1:g} m are out of "
     "floating-point range"),
    ("beamdepth", beamdepth, [(100.0, INF, 0.5), (INF, 5000.0, 0.5)],
     "distances and coefficient must be finite and positive"),
    ("max_nearfield_range-d_fraunhofer", max_nearfield_range, [(INF, 0.5)],
     _scalar("d_fraunhofer", 0)),
    ("max_nearfield_range-coefficient", max_nearfield_range, [(5000.0, INF)],
     _scalar("coefficient", 1)),
    *[(f"build_array-{kind.name}-{name}", build_array,
       [(kind, NAN, 1.0), (kind, INF, 1.0)],
       f"{name} must be finite (a real scalar), got {{1!r}}")
      for kind, name in D_NAMES.items()],
    ("build_array-wavelength", build_array,
     [(kind, 10.0, v) for kind in GeometryKind for v in (0.0, -1.0, NAN, INF)],
     _scalar("wavelength", 2)),
    # a subnormal lambda has lost bits itself, in a built or a hand-built
    # layout; build_array checks D before it
    ("build_array-subnormal-wavelength", build_array,
     [(kind, 12.0 * v, v) for kind, v in zip(GeometryKind, SUBNORMALS)],
     "wavelength must be a normal float, got {2:g}"),
    ("ArrayGeometry-wavelength", ArrayGeometry,
     [(None, v, np.zeros((1, 3))) for v in (0.0, -1.0, NAN)],
     _scalar("wavelength", 1)),
    ("ArrayGeometry-subnormal-wavelength", ArrayGeometry,
     [(None, v, np.zeros((1, 3))) for v in SUBNORMALS],
     "wavelength must be a normal float, got {1:g}"),
]

NON_KINDS = ["ula", None, 2, [1], MIMO]
NON_MODES = ["simo", "MIMO", None, 2, ULA, [1], {}]
KIND = "unknown geometry kind {0!r}"
MODE = "unknown processing mode {1!r}"
SETUP = "aperture must be an ArrayGeometry, got {0!r}"
# a kind that is not a GeometryKind is named before this aperture overflows
HUGE = np.array([[-1.5e308, 0.0, 0.0], [1.5e308, 0.0, 0.0]])

NON_MEMBER_ROWS = [
    ("af_argument-kind", af_argument, [(k, 1.0, 0.1) for k in NON_KINDS], KIND),
    ("quadratic_mainlobe_coefficient-kind", quadratic_mainlobe_coefficient,
     [(k,) for k in NON_KINDS], KIND),
    ("compute_metrics-kind", compute_metrics, [(k,) for k in NON_KINDS], KIND),
    ("normalized_af_power-kind", normalized_af_power,
     [(k, SIMO, 1.0) for k in NON_KINDS], KIND),
    *[(f"{f.__name__}-kind", f, [(k, SIMO) for k in NON_KINDS], KIND)
      for f in (half_power_argument, half_power_coefficient, mainlobe_edge,
                peak_sidelobe_level)],
    # the mode is checked first: a bad kind beside it is not named
    ("normalized_af_power-mode", normalized_af_power,
     [(kind, m, 1.0) for kind in (ULA, "ura") for m in NON_MODES], MODE),
    *[(f"{f.__name__}-mode", f, [(k, m) for k in (kind, "ura") for m in NON_MODES],
       MODE)
      for f, kind in ((half_power_argument, URA), (half_power_coefficient, UCA),
                      (mainlobe_edge, ULA), (peak_sidelobe_level, UPCA))],
    ("build_array-kind", build_array, [("ula", 1.0, 1.0)], KIND),
    ("ArrayGeometry-kind", ArrayGeometry,
     [(k, 1.0, e) for e in (G10.elements, HUGE) for k in ("ula", "ULA", 1)],
     KIND),
    # a setup that is built can be summed
    ("SensingSetup-aperture", SensingSetup,
     [(a, m) for a in (None, "ula", ULA, np.zeros((1, 3))) for m in ProcessingMode],
     SETUP),
    ("SensingSetup-mode", SensingSetup,
     [(build_array(ULA, 5.0, 1.0), m) for m in NON_MODES], MODE),
    ("simo_miso_setup", simo_miso_setup, [(None,), (ULA,)], SETUP),
    ("mimo_setup", mimo_setup, [(None,), (ULA,)], SETUP),
]

TARGET = "target must be one finite point"
POINTS = "points must be finite 3-vectors"
# a target is one point: a stack of several is rejected, not cut to a row
TARGETS = [
    [[0.0, 0.0, 50.0], [0.0, 0.0, 80.0]], [[[0.0, 0.0, 50.0]]], [0.0, 50.0],
    [[0.0], [0.0], [50.0]], [0.0, 0.0, INF], 50.0, [0.0, 0.0, 50.0 + 1j],
    ["0", "0", "50"], [True, False, True], np.empty((0, 3)),
    [[0.0, 0.0, 50.0], [0.0, 50.0]]]
# only int and float dtypes are points: a string is not converted
PROBES = [
    [0.0, NAN, 60.0], [[0.0, 60.0], [1.0, 70.0]], [0, 0, 5 + 1j],
    [["0", "0", "60"]], [True, False, True], [b"0", b"0", b"6"]]

POINT_ROWS = [
    ("normalized_power-target", normalized_power,
     [(SIMO10, t, [0.0, 0.0, 60.0]) for t in TARGETS]
     + [(MIMO10, t, [[0.0, 1.0, 60.0]]) for t in TARGETS]
     + [(SIMO10, [0, 0, [50.0]], [0, 0, 10.0])], TARGET),
    ("array_factor-target", array_factor,
     [(G10, t, [0.0, 0.0, 60.0]) for t in TARGETS], TARGET),
    ("normalized_power-probe", normalized_power,
     [(s, [0.0, 0.0, 50.0], p) for s in (SIMO10, MIMO10) for p in PROBES]
     + [(SIMO10, [0, 0, 50.0], [[0, 0, 10.0], [0, 0]])], POINTS),
    ("array_factor-probe", array_factor,
     [(G10, [0.0, 0.0, 50.0], p) for p in PROBES], POINTS),
    ("broadside_power_sweep-target", broadside_power_sweep,
     [(SIMO10, d, [60.0, 70.0]) for d in ([50.0, 80.0], [50.0], np.array([50.0]),
                                          50.0 + 0j, NAN, "50", True)]
     + [(SIMO10, [50.0, [60.0]], [10.0])], TARGET),
    # numpy makes no array of a ragged sequence; the sums name it as points
    ("broadside_power_sweep-probe", broadside_power_sweep,
     [(SIMO10, 50.0, p) for p in ([60.0, NAN], [60.0 + 1j], ["60"], [True, False],
                                  np.array([b"6"]), [10.0, [20.0]])], POINTS),
    ("ArrayGeometry-elements", ArrayGeometry,
     [(None, 1.0, e) for e in (np.empty((0, 3)), np.array([[0.0, 0.0, NAN]]),
                               np.zeros((2, 2)), np.zeros((2, 3, 1)),
                               [[0.0, 0.0, 0.0]])],
     "elements must be a non-empty (M, 3) array of finite positions"),
]

TABLES = [NON_REAL_ROWS, OUT_OF_DOMAIN_ROWS, NON_MEMBER_ROWS, POINT_ROWS]


def _rule(rows):
    """A test that each argument tuple of each row raises a ValueError with
    exactly the row's message."""
    @pytest.mark.parametrize("function, args, message", [
        pytest.param(function, args, message.format(*args), id=f"{name}-{i}")
        for name, function, calls, message in rows for i, args in enumerate(calls)])
    def test(function, args, message):
        with pytest.raises(ValueError) as error:
            function(*args)
        assert str(error.value) == message
    return test


test_non_real = _rule(NON_REAL_ROWS)
test_out_of_domain = _rule(OUT_OF_DOMAIN_ROWS)
test_non_member = _rule(NON_MEMBER_ROWS)
test_malformed_points = _rule(POINT_ROWS)


# public names with no rows, each with its reason
EXEMPT = {
    "GeometryKind": "an enum, the kinds the kind rows are checked against",
    "ProcessingMode": "an enum, the modes the mode rows are checked against",
    "GeometryMetrics": "compute_metrics' record, never built from user input",
    "MAX_ELEMENTS": "a constant",
    "SPEED_OF_LIGHT": "a constant",
    "fraunhofer_distance": "takes only an ArrayGeometry, whose rows check it",
}


def test_every_function_has_rows():
    assert set(EXEMPT) <= set(nfsense.__all__)
    named = {row[1] for rows in TABLES for row in rows}
    functions = [getattr(nfsense, name) for name in nfsense.__all__
                 if name not in EXEMPT] + [broadside_power_sweep]
    assert [f.__name__ for f in functions if f not in named] == []


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
