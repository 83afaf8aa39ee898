import math
import warnings

import numpy as np
import pytest

from detdiff import (
    DEFAULT_SEED,
    BilliardState,
    GrazingReflectionError,
    approximate_step,
    exact_step,
    position_from_kicks,
    sawtooth_kick,
    simulate_channel,
    tangent_kick,
    theoretical_variance,
    uniform_stream,
)
from detdiff.montecarlo import _CHUNK
from test_montecarlo import _traced_peak


def test_state_validation():
    with pytest.raises(ValueError):
        BilliardState(0.0, 1.0, h=0.0)
    for x_curr in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^x_curr must be a finite number, not {x_curr}$"):
            BilliardState(0.0, x_curr)
    # finite ends whose difference overflows: an overflow, as in `simulate_channel`
    with pytest.raises(OverflowError, match="^billiard position overflows double precision$"):
        exact_step(BilliardState(-1.5e308, 1.5e308))


def test_exact_step_flat_wall_conserves_slope():
    state = BilliardState(0.0, 0.3, h=1.0)
    nxt = exact_step(state)
    assert nxt.x_curr == 0.6
    assert nxt.slope == state.slope


def test_exact_step_zero_incoming_slope():
    alpha = 0.1
    state = BilliardState(0.5, 0.5, h=2.0, normal_angle=lambda x: alpha)
    nxt = exact_step(state)
    assert nxt.x_curr == pytest.approx(0.5 + 2.0 * math.tan(2 * alpha), abs=1e-15)


def test_exact_step_rotation_involution():
    a = 0.17
    fwd = exact_step(BilliardState(0.0, 0.4, normal_angle=lambda x: a))
    # undo the rotation at the new reflection point
    state2 = BilliardState(fwd.x_prev - (fwd.x_curr - fwd.x_prev), fwd.x_prev,
                           normal_angle=lambda x: -a)
    # rebuild with the outgoing slope reversed through -alpha instead
    u = fwd.slope
    t = math.tan(-2 * a)
    back = (u + t) / (1 - t * u)
    assert back == pytest.approx(0.4, abs=1e-13)


def test_exact_step_grazing_raises():
    # tan(2a) * u = 1 exactly: outgoing ray parallel to the wall
    state = BilliardState(-1.0, 0.0, h=1.0, normal_angle=lambda x: math.pi / 8)
    with pytest.raises(GrazingReflectionError):
        exact_step(state)


def test_approximate_step_uniform_motion():
    state = BilliardState(0.0, 0.2)
    for i in range(10):
        state = approximate_step(state, lambda x: 0.0)
    assert state.x_curr == pytest.approx(0.2 * 11, abs=1e-12)


def test_approximate_step_hand_example():
    # x2 = 2*0.2 - 0 + frac(0.2) = 0.6 with the unit-slope sawtooth
    state = approximate_step(BilliardState(0.0, 0.2), sawtooth_kick(1.0))
    assert state.x_curr == pytest.approx(0.6, abs=1e-15)


def test_sawtooth_kick_non_finite_input():
    kick = sawtooth_kick(2.0)
    np.testing.assert_array_equal(kick(np.array([0.25, -1.75])), [0.5, 0.5])
    for x in (float("nan"), np.array([0.25, np.inf]), np.array([-1.75, np.nan])):
        with pytest.raises(ValueError, match="^fractional_part requires finite input$"):
            kick(x)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_sawtooth_kick_rejects_a_non_finite_slope(lam):
    with pytest.raises(ValueError, match=f"^lam must be a finite number, not {lam!r}$"):
        sawtooth_kick(lam)


@pytest.mark.parametrize("kick", [
    sawtooth_kick(1.0),
    sawtooth_kick(2.5),
    tangent_kick(3.0, lambda x: 0.05 * np.sin(2 * np.pi * np.asarray(x))),
])
def test_sum_form_matches_iteration(kick):
    state = BilliardState(0.0, 0.37)
    kicks = []
    for _ in range(100):
        kicks.append(float(kick(state.x_curr)))
        state = approximate_step(state, kick)
    assert abs(position_from_kicks(0.37, kicks) - state.x_curr) <= 1e-9


def test_small_angle_exact_vs_approximate():
    h = 1.0
    worst_small_u = 0.0
    for a in (1e-3, -7e-4):
        angle = lambda x: a
        kick = tangent_kick(h, angle)
        t = math.tan(2 * a)
        for u in (-1.0, -0.5, -0.2, 0.1, 0.2, 0.5, 1.0):
            state = BilliardState(-u * h, 0.0, h=h, normal_angle=angle)
            diff = abs(exact_step(state).x_curr - approximate_step(state, kick).x_curr)
            # sharp bound h*|t u (u + t) / (1 - t u)|
            bound = h * abs(t * u * (u + t) / (1 - t * u))
            assert diff <= bound * (1 + 1e-9) + 1e-15
            if abs(u) <= 0.2:
                worst_small_u = max(worst_small_u, diff)
    # for moderate incoming slopes the linearisation is 1e-4 h accurate
    assert worst_small_u <= 1e-4 * h


def test_theoretical_variance_values():
    assert theoretical_variance(0, 3.0) == 0.0
    assert theoretical_variance(1, 1.0) == pytest.approx(1 / 6)
    n = 400
    ratio = theoretical_variance(2 * n, 2.0) / theoretical_variance(n, 2.0)
    assert ratio == pytest.approx(8.0, rel=2e-2)
    with pytest.raises(ValueError, match="^n must be an integer >= 0, not -1$"):
        theoretical_variance(-1, 3.0)


def test_theoretical_variance_monotonicity():
    vals = [theoretical_variance(n, 2.0) for n in range(0, 50)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    lams = [theoretical_variance(100, lam) for lam in (0.0, 1.0, 2.0, 3.0)]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_simulate_channel_flat_kick():
    rep = simulate_channel(sawtooth_kick(0.0), 20_000, 200, seed=7)
    # uniform motion: var(x_c) = c^2 / 12 and exponent 2
    for c, v in zip(rep.checkpoints, rep.variances):
        assert v == pytest.approx(c * c / 12.0, rel=0.05)
    assert rep.growth_exponent == pytest.approx(2.0, abs=0.05)
    assert rep.discarded == 0


def test_simulate_channel_cubic_band():
    # the independent-kick theory misses by about 1/c at checkpoint c; the
    # estimate adds 4 sigma = 4 sqrt(2/N)
    n_samples = 100_000
    for lam in (3.0, 5.0):
        for seed in (DEFAULT_SEED, 101, 102, 103, 104):
            rep = simulate_channel(sawtooth_kick(lam), n_samples, 200, seed=seed)
            assert 2.5 <= rep.growth_exponent <= 3.5
            cps = np.asarray(rep.checkpoints, dtype=float)
            band = 1.0 / cps + 4.0 * math.sqrt(2.0 / n_samples)
            ratio = np.asarray(rep.variances) / np.asarray(rep.theoretical)
            assert np.all(np.abs(ratio - 1.0) <= band), (lam, seed, ratio)


def test_simulate_channel_deterministic(ensemble_constants):
    a = simulate_channel(sawtooth_kick(3.0), 5000, 100, seed=11)
    b = simulate_channel(sawtooth_kick(3.0), 5000, 100, seed=11)
    assert a.variances == b.variances
    assert a.growth_exponent == b.growth_exponent
    # threads only change the execution schedule, not the reduction order
    with ensemble_constants(chunk=701):
        c = simulate_channel(sawtooth_kick(3.0), 5000, 100, seed=11, threads=4)
        d = simulate_channel(sawtooth_kick(3.0), 5000, 100, seed=11)
    assert c == d
    # different chunkings reorder the accumulation at rounding level only
    np.testing.assert_allclose(a.variances, c.variances, rtol=1e-12)


def _same_report(a, b):
    return (a.variances == b.variances and a.growth_exponent == b.growth_exponent
            and a.discarded == b.discarded)


@pytest.mark.parametrize("lam", [2.5, 3.0, 5.0])
def test_sawtooth_step_equals_generic_kick_bit_for_bit(lam):
    # the wrapper has no `lam`, so the channel calls it like any other kick
    kick = sawtooth_kick(lam)
    for n in (_CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 1):
        for threads in (None, 2):
            fast = simulate_channel(kick, n, 20, seed=13, threads=threads)
            generic = simulate_channel(lambda u: kick(u), n, 20, seed=13, threads=threads)
            assert _same_report(fast, generic), (n, threads)
            assert fast.theoretical is not None and generic.theoretical is None


def test_sawtooth_step_keeps_the_kick_beyond_2_to_52():
    # with lam = 2^50 velocities pass 2^52 within 40 steps, where the
    # carry can leave a fraction of -1 whose sawtooth is 0, not -lam
    kick = sawtooth_kick(2.0**50)
    fast = simulate_channel(kick, 2000, 40, seed=13)
    generic = simulate_channel(lambda u: kick(u), 2000, 40, seed=13)
    assert _same_report(fast, generic)


def test_simulate_channel_checkpoint_validation():
    # a zero, a fraction and a float are no step counts; an empty list and
    # one past n_steps hold none, or not only, of the steps taken
    for bad, message in (([0, 10], r"checkpoints\[0\] must be an integer >= 1, not 0"),
                         ([3.7, 10], r"checkpoints\[0\] must be an integer >= 1, not 3.7"),
                         ([10.0], r"checkpoints\[0\] must be an integer >= 1, not 10.0"),
                         ([], r"checkpoints must be nonempty and lie in \[1, n_steps = 50\]"),
                         ([10, 51], r"checkpoints must be nonempty and lie in \[1, "
                          r"n_steps = 50\]")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_channel(sawtooth_kick(1.0), 100, 50, seed=0, checkpoints=bad)
    rep = simulate_channel(sawtooth_kick(1.0), 100, 50, seed=0, checkpoints=np.array([20, 10]))
    assert rep.checkpoints == (10, 20) and all(type(c) is int for c in rep.checkpoints)


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_channel_raises_on_a_non_finite_kick(threads):
    def half_explode(u):
        return np.where(u > 0, np.inf, 0.0)

    calls = []

    def one_nan(u):
        # a single NaN kick, between two checkpoints of one chunk
        calls.append(None)
        return np.full_like(u, np.nan) if len(calls) == 17 else np.zeros_like(u)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kick in (half_explode, one_nan):
            with pytest.raises(ValueError, match="the kick returned a non-finite value"):
                simulate_channel(kick, 2 * _CHUNK + 1, 20, seed=0, threads=threads)


def test_simulate_channel_needs_two_finite_samples():
    with pytest.raises(ValueError, match="^n_samples must be an integer >= 2, not 1$"):
        simulate_channel(sawtooth_kick(3.0), 1, 10, seed=0)
    # an inf kick makes every sample NaN
    with pytest.raises(ValueError, match="the kick returned a non-finite value"):
        simulate_channel(lambda u: np.full_like(u, np.inf), 3 * _CHUNK // 2, 10, seed=0)


def test_simulate_channel_stops_at_its_last_checkpoint():
    # checkpoint 50 lies 49 steps from x_1, so no kick is made past step 49
    calls = []

    def counting(u):
        calls.append(u.size)
        return 3.0 * u

    rep = simulate_channel(counting, 100, 200, seed=4, checkpoints=[10, 50])
    assert len(calls) == 49
    assert rep == simulate_channel(counting, 100, 50, seed=4, checkpoints=[10, 50])


def test_simulate_channel_memory_does_not_grow_with_samples():
    # only per-chunk moments are kept: four times the chunks, no higher
    # peak beyond a few small Python objects; numpy's first bit generator
    # of a process allocates its own tables, so one small run goes first
    kick = sawtooth_kick(3.0)
    simulate_channel(kick, 100, 20, seed=1)
    peaks = [_traced_peak(simulate_channel, kick, k * _CHUNK, 20, seed=1, threads=1)
             for k in (2, 8)]
    assert peaks[1] <= peaks[0] + 8192, peaks


def test_simulate_channel_large_mean_variance_exact():
    # a constant kick C moves every sample alike: x_c = c x_1 + C c (c - 1) / 2,
    # so Var(x_c) = c^2 Var(x_1) however far the ensemble has travelled
    n_samples = 20_000
    rep = simulate_channel(lambda u: np.full_like(u, 1e4), n_samples, 200,
                           seed=DEFAULT_SEED, checkpoints=[50, 200])
    var_x1 = np.var(uniform_stream(DEFAULT_SEED, 0, n_samples), ddof=1)
    for c, v in zip(rep.checkpoints, rep.variances):
        assert v == pytest.approx(c * c * var_x1, rel=1e-9)


def test_channel_report_rows():
    rep = simulate_channel(sawtooth_kick(2.0), 3000, 80, seed=2)
    rows = list(rep.rows())
    assert [r[0] for r in rows] == list(rep.checkpoints)
    assert math.isnan(rows[0][3])
    assert rows[-1][3] == pytest.approx(rep.growth_exponent)
