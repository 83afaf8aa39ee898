"""One finite-number rule for every real parameter, and one real rule for every array.

Each entry point checks its real parameters once, by `reports.check_finite`:
a finite Python, numpy or `Fraction` real passes as the float of equal
value, and NaN, an infinity, a bool (numpy's too), text or anything else
raises one ValueError naming the parameter.  The domain bounds (lam > 2,
d > 0, h > 0, ...) run after the rule, with their own wordings.  Each
real array goes through `maps._real`, which rejects complex input instead
of dropping its imaginary part.
"""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from detdiff import (
    BilliardState,
    LatticeDensity,
    MarkovPartition,
    PiecewiseLinearLiftMap,
    TransitionMatrixSet,
    approximate_step,
    build_transition_matrices,
    characteristic_matrix,
    compute_route,
    estimate_stats,
    eval_map,
    exact_step,
    fractional_part,
    gaussian_profile,
    heuristic_d,
    ks_normal,
    linear_map,
    nearest_integer,
    omega_approx_d,
    omega_factor,
    position_from_kicks,
    sawtooth_kick,
    scan_lambda,
    shift_function,
    tangent_kick,
    theoretical_variance,
    zigzag_map,
)
from detdiff.errors import MapDefinitionError, PartitionError
from detdiff.reports import check_finite

_UNIT = (-0.5, 0.5)
_HALF = (-0.5, 0.0, 0.5)
_TSET = build_transition_matrices(linear_map(3.0), MarkovPartition.unit())
_X = np.linspace(-1.0, 1.0, 11)
_SAMPLES = np.random.default_rng(5).normal(size=200)


def _tilt(x):
    return 0.1 * np.sin(2.0 * np.pi * np.asarray(x, dtype=float))


# entry point and parameter: (name in the message, a valid value, call).  Each
# valid value is exact in float32, and stays valid when truncated to an integer.
_ENTRIES = {
    "heuristic_d-lam": ("lam", 3.5, heuristic_d),
    "omega_factor-lam": ("lam", 3.5, omega_factor),
    "omega_approx_d-lam": ("lam", 3.5, omega_approx_d),
    "sawtooth_kick-lam": ("lam", 3.5, lambda v: sawtooth_kick(v)(_X)),
    "theoretical_variance-lam": ("lam", 3.5, lambda v: theoretical_variance(10, v)),
    "gaussian_profile-d": ("d", 1.5, lambda v: gaussian_profile(v, 0.0, [1.0], _UNIT, 10)),
    "gaussian_profile-drift": ("drift", 0.5,
                               lambda v: gaussian_profile(1 / 3, v, [1.0], _UNIT, 10)),
    "ks_normal-mean": ("mean", 0.5, lambda v: ks_normal(_SAMPLES, v, 1.0)),
    "ks_normal-std": ("std", 1.5, lambda v: ks_normal(_SAMPLES, 0.0, v)),
    "BilliardState-h": ("h", 1.5, lambda v: exact_step(BilliardState(0.0, 0.1, v, _tilt))),
    "BilliardState-x_prev": ("x_prev", 0.5,
                             lambda v: exact_step(BilliardState(v, 0.1, 1.0, _tilt))),
    "BilliardState-x_curr": ("x_curr", 0.5,
                             lambda v: exact_step(BilliardState(0.0, v, 1.0, _tilt))),
    "tangent_kick-h": ("h", 1.5, lambda v: tangent_kick(v, _tilt)(_X)),
    "position_from_kicks-x1": ("x1", 0.5,
                               lambda v: position_from_kicks(v, [0.25, -0.5, 0.125])),
    "characteristic_matrix-t": ("t", 0.75, lambda v: characteristic_matrix(_TSET, v)),
    "compute_route-x0": ("x0", 0.25, lambda v: compute_route(linear_map(3.0), v, 4)),
    "linear_map-lam": ("lam", 3.5, lambda v: linear_map(v)(_X)),
    "PiecewiseLinearLiftMap-values": ("map value", 3.5,
                                      lambda v: PiecewiseLinearLiftMap(_UNIT, [(-0.5, v)])(_X)),
}
# parameters inside (0, 1/2), where no integer is valid, so their numpy and
# Fraction reals are checked in float32 and Fraction only
_HALF_INTERVAL_ENTRIES = {
    "zigzag_map-xi": ("xi", 0.25, lambda v: zigzag_map(1, v)(_X)),
    "MarkovPartition.symmetric-positive_breakpoints": (
        "positive breakpoint", 0.25, lambda v: MarkovPartition.symmetric([v], False)),
}


def _plain(result):
    if dataclasses.is_dataclass(result):
        return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    return result


@pytest.mark.parametrize("entry", [*_ENTRIES, *_HALF_INTERVAL_ENTRIES])
def test_each_entry_point_rejects_what_is_no_finite_number(entry):
    name, good, call = {**_ENTRIES, **_HALF_INTERVAL_ENTRIES}[entry]
    for bad in (math.nan, math.inf, -math.inf, np.float64(np.nan), True, False, np.True_,
                str(good), None):
        message = f"^{re.escape(name)} must be a finite number, not {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(np.nan)],
                         ids=["nan", "inf", "-inf", "numpy-nan"])
def test_approximate_step_rejects_a_non_finite_kick(value):
    # the wording of `simulate_channel`, whose kicks obey the same rule
    with pytest.raises(ValueError, match="^the kick returned a non-finite value$"):
        approximate_step(BilliardState(0.0, 0.1), lambda x: value)


@pytest.mark.parametrize("convert", [np.float32, np.int64, Fraction])
@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_each_entry_point_takes_a_numpy_or_fraction_real_as_the_float(entry, convert):
    good, call = _ENTRIES[entry][1:]
    value = convert(good)
    np.testing.assert_equal(_plain(call(value)), _plain(call(float(value))))


@pytest.mark.parametrize("convert", [np.float32, Fraction])
@pytest.mark.parametrize("entry", list(_HALF_INTERVAL_ENTRIES))
def test_each_half_interval_entry_takes_a_numpy_or_fraction_real_as_the_float(entry, convert):
    good, call = _HALF_INTERVAL_ENTRIES[entry][1:]
    value = convert(good)
    np.testing.assert_equal(_plain(call(value)), _plain(call(float(value))))


# a billiard step and the callable whose value it reads: (name in the message, call)
_CALLABLES = {
    "approximate_step-kick": ("the kick", lambda f: approximate_step(BilliardState(0.0, 0.1), f)),
    "exact_step-normal_angle": ("the normal angle",
                                lambda f: exact_step(BilliardState(0.0, 0.1, 1.0, f))),
}


@pytest.mark.parametrize("entry", list(_CALLABLES))
def test_each_billiard_step_reads_its_callable_by_the_rule(entry):
    what, call = _CALLABLES[entry]
    for bad in (True, False, np.True_, "0.5", None, 1j, np.complex128(0.5), np.array([0.5])):
        message = f"^{re.escape(what)} must be a finite number, not {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(lambda x: bad)
    # a non-finite value keeps the wording of `simulate_channel`
    for bad in (math.nan, np.float32(-np.inf), np.array(math.inf)):
        with pytest.raises(ValueError, match=f"^{re.escape(what)} returned a non-finite value$"):
            call(lambda x: bad)
    # a numpy or Fraction real, or a 0-d array, steps as its float
    for good in (np.float32(0.125), Fraction(1, 8), np.array(0.125), np.int64(0)):
        assert call(lambda x: good).x_curr == call(lambda x: float(good)).x_curr


@pytest.mark.parametrize("bad", [1j, True, "3", None, math.inf, np.float64(np.nan)],
                         ids=["complex", "bool", "text", "none", "inf", "numpy-nan"])
def test_scan_lambda_records_a_lambda_that_is_no_finite_number_as_a_failed_point(bad):
    bad_row, good_row = scan_lambda([bad, 3.0], 50, 5, 1)
    assert good_row == scan_lambda([3.0], 50, 5, 1)[0]
    assert bad_row.pop("error") == f"ValueError: lam must be a finite number, not {bad!r}"
    assert bad_row.pop("exit_code") == 2
    # the point as given, a real one as its float
    assert repr(bad_row.pop("lambda")) == repr(float(bad) if isinstance(bad, float) else bad)
    assert all(math.isnan(v) for v in bad_row.values())


# entry point taking breakpoints: (what breakpoints, error, call on a breakpoint list)
_BREAKPOINT_ENTRIES = {
    "PiecewiseLinearLiftMap": ("map", MapDefinitionError,
                               lambda bp: PiecewiseLinearLiftMap(bp, [(-1.5, 1.5)] * 2)),
    "MarkovPartition": ("partition", PartitionError, MarkovPartition),
    "LatticeDensity": ("lattice density", PartitionError,
                       lambda bp: LatticeDensity(0, [[1.0, 1.0]], bp)),
    "TransitionMatrixSet": ("transition matrix set", PartitionError,
                            lambda bp: TransitionMatrixSet((0,), [np.eye(2)], bp)),
}


@pytest.mark.parametrize("entry", list(_BREAKPOINT_ENTRIES))
def test_each_breakpoint_entry_takes_real_numbers_only(entry):
    what, error, call = _BREAKPOINT_ENTRIES[entry]
    for bad in ((-0.5, "0", 0.5), (-0.5, False, 0.5), (-0.5, np.False_, 0.5),
                (-0.5, 0j, 0.5), (-0.5, None, 0.5), 0.5):
        message = f"^{re.escape(what)} breakpoints must be real numbers, not {re.escape(repr(bad))}"
        with pytest.raises(error, match=message + "$"):
            call(bad)
    call((np.float32(-0.5), Fraction(0), 0.5))      # numpy and Fraction reals pass


@pytest.mark.parametrize("value,expected", [
    (3, 3.0), (np.int64(-3), -3.0), (np.float32(0.5), 0.5), (Fraction(1, 3), 1 / 3),
    (-0.0, -0.0), (1 << 1000, 2.0**1000), (np.finfo(float).max, np.finfo(float).max),
])
def test_check_finite_takes_a_finite_real(value, expected):
    got = check_finite(value, "q")
    assert (type(got), got) == (float, expected)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, np.float32(np.inf), np.float64(np.nan),
    1 << 1024, Fraction(-(1 << 1030), 3),        # beyond the double range
    True, False, np.True_, np.False_, "3", b"3", None, complex(1.0, 0.0), [1.0],
])
def test_check_finite_rejects_everything_else(value):
    message = f"^q must be a finite number, not {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        check_finite(value, "q")


# entry point taking a real array: (name in the message, call on a 1-d array)
_ARRAY_ENTRIES = {
    "fractional_part": ("fractional_part", fractional_part),
    "nearest_integer": ("nearest_integer", nearest_integer),
    "eval_map": ("map evaluation", lambda a: eval_map(linear_map(3.0), a)),
    "shift_function": ("shift evaluation", lambda a: shift_function(linear_map(3.0), a)),
    "estimate_stats": ("estimate_stats", lambda a: estimate_stats(a, 5)),
    "ks_normal": ("ks_normal", lambda a: ks_normal(a, 0.0, 1.0)),
    "position_from_kicks": ("position_from_kicks", lambda a: position_from_kicks(0.5, a)),
    "tangent_kick": ("tangent kick", lambda a: tangent_kick(1.0, lambda x: a)(_X)),
    "LatticeDensity": ("lattice density", lambda a: LatticeDensity(0, [a], _HALF)),
    "gaussian_profile": ("alpha", lambda a: gaussian_profile(1 / 3, 0.0, a, _HALF, 10)),
    "TransitionMatrixSet": ("transition matrix set",
                            lambda a: TransitionMatrixSet((0,), [[a, a]], _HALF)),
}


@pytest.mark.parametrize("entry", list(_ARRAY_ENTRIES))
def test_each_array_entry_point_rejects_complex_input(entry):
    what, call = _ARRAY_ENTRIES[entry]
    message = f"^{re.escape(what)} requires real input, not complex$"
    for bad in (np.array([0.25 + 1j, 0.125]), np.array([0.25 + 0j, 0.125]),
                [0.25 + 1j, 0.125]):
        with pytest.raises(ValueError, match=message):
            call(bad)
    call(np.array([0.25, 0.125]))       # the real parts pass
