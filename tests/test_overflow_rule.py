"""One failure contract for the billiard model and the analytic estimates.

As in `simulate_channel`, every billiard function has three outcomes
besides a finite result: a kick or normal angle that returns a non-finite
value raises ValueError (exit code 2); arithmetic that overflows from
finite input raises OverflowError "<what> overflows double precision"
(exit code 3), with no RuntimeWarning on the way; and a grazing reflection
raises GrazingReflectionError (exit code 3).
"""

import math
import re
import warnings

import numpy as np
import pytest

from detdiff import (
    BilliardState,
    GrazingReflectionError,
    approximate_step,
    exact_step,
    heuristic_d,
    omega_approx_d,
    position_from_kicks,
    sawtooth_kick,
    simulate_channel,
    tangent_kick,
    theoretical_variance,
)
from detdiff.errors import exit_code


def _constant(value):
    return lambda x: np.full_like(np.asarray(x, dtype=float), value)


# call with extreme finite input: (what overflows, call)
_OVERFLOWS = {
    "approximate_step": ("billiard position",
                         lambda: approximate_step(BilliardState(0.0, 1e308), lambda x: 0.0)),
    "exact_step": ("billiard position", lambda: exact_step(BilliardState(0.0, 1.5e308))),
    # the incoming slope itself overflows, and the next position turns NaN
    "exact_step-slope": ("billiard position",
                         lambda: exact_step(BilliardState(-1.5e308, 1.5e308))),
    "exact_step-angle": ("doubled normal angle",
                         lambda: exact_step(BilliardState(0.0, 0.1, 1.0, _constant(1e308)))),
    "tangent_kick": ("tangent kick", lambda: tangent_kick(1e308, lambda x: 0.7)(0.1)),
    "tangent_kick-angle": ("tangent kick",
                           lambda: tangent_kick(1.0, _constant(1e308))(np.array([0.1, 0.2]))),
    "position_from_kicks": ("billiard position",
                            lambda: position_from_kicks(1e308, [1e308, 1e308])),
    # inf - inf: the sum turns NaN
    "position_from_kicks-nan": ("billiard position",
                                lambda: position_from_kicks(1e308, [-1e308, -1e308])),
    # a product that gives inf, a float power that raises, an n beyond the doubles
    "theoretical_variance-product": ("theoretical variance",
                                     lambda: theoretical_variance(10**103, 3.0)),
    "theoretical_variance-power": ("theoretical variance",
                                   lambda: theoretical_variance(10**200, 3.0)),
    "theoretical_variance-lam": ("theoretical variance",
                                 lambda: theoretical_variance(10, 1e200)),
    "theoretical_variance-huge-n": ("theoretical variance",
                                    lambda: theoretical_variance(10**400, 3.0)),
    "simulate_channel": ("channel variance",
                         lambda: simulate_channel(sawtooth_kick(1e160), 2000, 50, seed=0)),
    "simulate_channel-tangent": ("tangent kick",
                                 lambda: simulate_channel(tangent_kick(1e308, _constant(0.7)),
                                                          100, 10, seed=0)),
    "heuristic_d": ("heuristic estimate of D", lambda: heuristic_d(1e160)),
    "omega_approx_d": ("omega estimate of D", lambda: omega_approx_d(1e160)),
}


@pytest.mark.parametrize("case", list(_OVERFLOWS))
def test_an_overflow_from_finite_input_is_an_overflow_error(case):
    what, call = _OVERFLOWS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError,
                           match=f"^{re.escape(what)} overflows double precision$") as info:
            call()
    assert exit_code(info.value) == 3


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(np.nan)],
                         ids=["nan", "inf", "-inf", "numpy-nan"])
def test_a_non_finite_kick_or_angle_is_a_value_error(value):
    # `simulate_channel`'s own kick check is in test_billiard
    kick_calls = [lambda: approximate_step(BilliardState(0.0, 0.1), lambda x: value)]
    angle_calls = [
        lambda: exact_step(BilliardState(0.0, 0.1, 1.0, lambda x: value)),
        lambda: tangent_kick(1.0, lambda x: value)(0.1),
        lambda: tangent_kick(1.0, _constant(value))(np.array([0.1, 0.2])),
        lambda: simulate_channel(tangent_kick(1.0, _constant(value)), 100, 10, seed=0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for who, calls in (("kick", kick_calls), ("normal angle", angle_calls)):
            for call in calls:
                with pytest.raises(ValueError,
                                   match=f"^the {who} returned a non-finite value$") as info:
                    call()
                assert exit_code(info.value) == 2


def test_grazing_stays_a_grazing_reflection_error():
    # tan(2a) * u = 1: the outgoing ray runs along the wall
    state = BilliardState(-1.0, 0.0, h=1.0, normal_angle=lambda x: math.pi / 8)
    with pytest.raises(GrazingReflectionError) as info:
        exact_step(state)
    assert exit_code(info.value) == 3


@pytest.mark.parametrize("state,exact,approximate", [
    (BilliardState(0.0, 0.3), "0x1.3333333333333p-1", "0x1.599999999999ap+0"),
    (BilliardState(-0.2, 0.37, 1.5, lambda x: 0.1),
     "0x1.5127c8cfb9af2p+0", "0x1.dd70a3d70a3d7p+0"),
    (BilliardState(0.25, -1.75, 0.5, lambda x: -0.05),
     "-0x1.4b2c6c15c7e7cp+2", "-0x1.9000000000000p+1"),
], ids=["flat", "tilted", "tilted-back"])
def test_finite_steps_keep_their_bits(state, exact, approximate):
    # pinned next abscissas: the overflow check changes no bit of a finite step
    assert exact_step(state).x_curr.hex() == exact
    assert approximate_step(state, sawtooth_kick(2.5)).x_curr.hex() == approximate
