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


def test_state_validation():
    with pytest.raises(ValueError):
        BilliardState(0.0, 1.0, h=0.0)


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


def test_simulate_channel_deterministic():
    a = simulate_channel(sawtooth_kick(3.0), 5000, 100, seed=11)
    b = simulate_channel(sawtooth_kick(3.0), 5000, 100, seed=11)
    assert a.variances == b.variances
    assert a.growth_exponent == b.growth_exponent
    # threads only change the execution schedule, not the reduction order
    c = simulate_channel(sawtooth_kick(3.0), 5000, 100, seed=11, chunk_size=701,
                         threads=4)
    d = simulate_channel(sawtooth_kick(3.0), 5000, 100, seed=11, chunk_size=701)
    assert c == d
    # different chunkings reorder the accumulation at rounding level only
    np.testing.assert_allclose(a.variances, c.variances, rtol=1e-12)


def test_simulate_channel_checkpoint_validation():
    with pytest.raises(ValueError):
        simulate_channel(sawtooth_kick(1.0), 100, 50, seed=0, checkpoints=[0, 10])


def test_simulate_channel_discards_non_finite():
    def half_explode(u):
        return np.where(u > 0, np.inf, 0.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = simulate_channel(half_explode, 2000, 20, seed=0)
    assert rep.discarded > 0
    assert rep.discard_warning
    assert rep.stats.sample_count == 2000 - rep.discarded
    assert np.all(np.isfinite(rep.variances))


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
