import hashlib
import math

import numpy as np
import pytest

from detdiff import (
    CASES,
    DEFAULT_SEED,
    PiecewiseLinearLiftMap,
    build_transition_matrices,
    diffusion_spectral,
    estimate_d_increment,
    estimate_stats,
    evolve,
    ks_normal,
    linear_map,
    sawtooth_kick,
    scan_lambda,
    simulate_channel,
    simulate_ensemble,
    uniform_stream,
    unit_pulse,
    zigzag_map,
)
from detdiff.montecarlo import _ndtr

N = 100_000
STEPS = 50


def test_uniform_stream_chunk_invariance():
    full = uniform_stream(11, 0, 257)
    parts = [uniform_stream(11, s, min(41, 257 - s)) for s in range(0, 257, 41)]
    np.testing.assert_array_equal(full, np.concatenate(parts))


def test_uniform_stream_is_scaled_philox_words():
    low, high = -1.3, 2.9
    words = np.random.Generator(np.random.Philox(key=11)).random(300)
    np.testing.assert_array_equal(uniform_stream(11, 45, 255, low, high),
                                  low + (high - low) * words[45:])


def test_same_seed_bitwise_identical():
    a = simulate_ensemble(linear_map(3.0), 20_000, STEPS, seed=123)
    b = simulate_ensemble(linear_map(3.0), 20_000, STEPS, seed=123)
    np.testing.assert_array_equal(a, b)


def test_chunking_and_threads_do_not_change_samples():
    a = simulate_ensemble(linear_map(3.0), 30_000, 20, seed=5, chunk_size=30_000)
    b = simulate_ensemble(linear_map(3.0), 30_000, 20, seed=5, chunk_size=4321)
    c = simulate_ensemble(linear_map(3.0), 30_000, 20, seed=5, chunk_size=7000,
                          threads=4)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_identity_shift_map_is_exact():
    ident = PiecewiseLinearLiftMap([-0.5, 0.5], [(-0.5, 0.5)])
    x0 = uniform_stream(77, 0, 5000)
    final = simulate_ensemble(ident, 5000, 9, seed=77)
    np.testing.assert_array_equal(final, x0)


def test_lambda3_within_three_stderr():
    samples = simulate_ensemble(linear_map(3.0), N, STEPS, seed=DEFAULT_SEED)
    stats = estimate_stats(samples, STEPS)
    assert abs(stats.d_estimate - 1.0 / 3.0) <= 3.0 * stats.d_stderr
    assert stats.sample_count == N


def test_drift_vanishes_for_odd_map():
    samples = simulate_ensemble(linear_map(3.0), N, STEPS, seed=DEFAULT_SEED)
    stats = estimate_stats(samples, STEPS)
    bound = 3.0 * np.sqrt(stats.variance / stats.sample_count) / STEPS
    assert abs(stats.drift_estimate) <= bound


def test_single_horizon_transient_bias():
    """The estimator Var(x_n)/(2n) is biased by an O(1/n) transient.

    Exact density evolution gives Var(x_n) = 2 D n + c with c of order
    one, so at n = 50 the deterministic bias c/(2n) exceeds the purely
    statistical 3-sigma band of an N = 1e5 ensemble for most reference
    slopes.  This pins down why the single-horizon cross-method check
    cannot sit inside 3 stderr at this horizon, independent of any
    sampling noise.
    """
    over = {}
    for name in ("one-plus-sqrt3", "even-4", "quartic-3p98"):
        case = CASES[name]
        tset = build_transition_matrices(case.lift_map(), case.partition())
        dens = evolve(tset, unit_pulse(tset.breakpoints), STEPS)
        _, var_exact = dens.continuous_moments()
        bias = var_exact / (2.0 * STEPS) - case.d
        stderr = case.d * np.sqrt(2.0 / (N - 1))
        over[name] = bias / (3.0 * stderr)
        assert bias > 0
    # the bias alone exceeds the whole 3-sigma allowance
    assert all(ratio > 1.0 for ratio in over.values()), over


def test_increment_estimator_unbiased_cross_check():
    for name in ("one-plus-sqrt3", "even-4", "quartic-3p98"):
        case = CASES[name]
        tset = build_transition_matrices(case.lift_map(), case.partition())
        d_spec = diffusion_spectral(tset).d
        d_mc, stderr = estimate_d_increment(case.lift_map(), N, STEPS,
                                            seed=DEFAULT_SEED)
        assert abs(d_mc - d_spec) <= 3.0 * stderr, (name, d_mc, d_spec, stderr)


def test_power_of_two_slopes_do_not_freeze():
    # exact binary arithmetic would halt the spread of lam = 4 orbits;
    # the automatic dither keeps the variance growing
    samples = simulate_ensemble(linear_map(4.0), 20_000, STEPS, seed=3)
    stats = estimate_stats(samples, STEPS)
    assert stats.d_estimate > 0.2


def test_increment_estimator_long_horizon_power_of_two_slopes():
    # at n = 1000 most orbits sit far beyond |x| = 16, where a dither added
    # to the whole position would round away; the cell + fraction state
    # keeps it, so lam = 4 and the drifting map (slopes 4 and 2, drift 1/4)
    # reach their exact centred D
    drift = PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-0.5, 1.5), (-0.5, 0.5)])
    for lift_map, d_exact in ((linear_map(4.0), 0.25), (drift, 3.0 / 32.0)):
        d, stderr = estimate_d_increment(lift_map, 20_000, 1000, seed=DEFAULT_SEED)
        assert stderr > 0
        assert abs(d - d_exact) <= 4.0 * stderr, (d, d_exact, stderr)


def test_estimate_stats_validation():
    with pytest.raises(ValueError):
        estimate_stats(np.array([1.0]), 10)
    with pytest.warns(UserWarning):
        stats = estimate_stats(np.full(100, 2.5), 10)
    assert stats.variance == 0.0
    assert np.isnan(stats.ks_statistic)


def test_ks_calibration_against_normal_generator():
    # the 1% critical value 1.63/sqrt(N) should be exceeded rarely
    rng = np.random.default_rng(1234)
    n = 2000
    crit = 1.63 / np.sqrt(n)
    ok = 0
    trials = 40
    for _ in range(trials):
        samples = rng.normal(size=n)
        stats = estimate_stats(samples, 10)
        if stats.ks_statistic < crit:
            ok += 1
    assert ok >= 0.95 * trials


def test_ks_normal_basic():
    s = np.linspace(-3, 3, 1001)
    assert ks_normal(s, 0.0, 1e9) > 0.4     # flat cdf against spread data
    assert ks_normal(np.sort(np.random.default_rng(0).normal(size=4000)),
                     0.0, 1.0) < 0.03


def test_far_shift_map_keeps_its_fraction():
    # f(x) = x + J moves every sample 30*J away; the fraction is rounded
    # once, at the first step, and the position is the cell plus it
    for jump in (1e8, -1e8):
        jumper = PiecewiseLinearLiftMap([-0.5, 0.5], [(jump - 0.5, jump + 0.5)])
        samples = simulate_ensemble(jumper, 100, 30, seed=0)
        x0 = uniform_stream(0, 0, 100)
        assert np.all(np.isfinite(samples))
        np.testing.assert_array_equal(samples, 30 * jump + ((x0 + jump) - jump))


def test_scan_lambda_columns_and_values():
    rows = scan_lambda([3.0, 3.5, 4.0], 20_000, STEPS, seed=DEFAULT_SEED)
    assert [r["lambda"] for r in rows] == [3.0, 3.5, 4.0]
    for r in rows:
        assert set(r) == {"lambda", "d_mc", "stderr", "d_heuristic", "d_omega", "ks"}
    assert rows[1]["d_omega"] == pytest.approx(0.3125)
    assert rows[0]["d_omega"] == pytest.approx(1 / 3)
    assert not np.isnan(rows[0]["d_heuristic"])
    # 3 stderr plus the documented 1/(2n) transient allowance
    assert abs(rows[0]["d_mc"] - 1 / 3) <= 3 * rows[0]["stderr"] + 0.5 / STEPS
    assert abs(rows[2]["d_mc"] - 1 / 4) <= 3 * rows[2]["stderr"] + 0.5 / STEPS


def test_scan_lambda_empty_and_failures():
    assert scan_lambda([], 100, 10, seed=1) == []
    with pytest.warns(UserWarning, match="MapDefinitionError"):
        rows = scan_lambda([0.0, 3.0], 1000, 10, seed=1)
    assert np.isnan(rows[0]["d_mc"])
    assert not np.isnan(rows[1]["d_mc"])


def test_thread_env_cap(monkeypatch):
    from detdiff.rng import resolve_threads

    monkeypatch.delenv("DETDIFF_THREADS", raising=False)
    assert resolve_threads() == 1
    monkeypatch.setenv("DETDIFF_THREADS", "3")
    assert resolve_threads() == 3
    assert resolve_threads(2) == 2
    # worker count set through the environment leaves the samples unchanged
    a = simulate_ensemble(linear_map(3.0), 10_000, 10, seed=8)
    b = simulate_ensemble(linear_map(3.0), 10_000, 10, seed=8, chunk_size=999)
    np.testing.assert_array_equal(a, b)


# sha256 of the output bytes, recorded from the integer cell + fraction
# ensemble state that the lifting maps and the billiard channel share; a
# change that alters samples on purpose must update them
GOLDEN_DIGESTS = {
    "ensemble_lambda3": "53209d6066ea6202305cfea3b7a89c67e773f1d2ebc734c6baf3efe48717b717",
    "ensemble_lambda4_dithered": "d2fcc5522a7a5b3a22c56eae35b41e2679095d747c0ba51c2e985198d347794c",
    "ensemble_multichunk": "f468788b6c63272ab65a0b408d03982e2f0cdce59a01eccb861f1292a4b6772a",
    "ensemble_threads2": "3cd395bf10f3cedee78a7a1cf91f2aef022e3c1ea95377bd05350b7ade48ae44",
    "ensemble_far_jumps": "0cb1cafbed8a45ce5f65b08a0cd7964797bdecb3db5e66a759f4d471b3b1bf43",
    "increment_drift": "e1bb2e6bd1d51befb19f3f51ca4db26acad8e4625683b571a757252badc52e0f",
    "increment_far_jumps": "a8f93f20a7ed3d1ddd29b003bb46ad725fedac877fff1dd8b0027c0022b7f85a",
    "channel_lambda3": "518ec4fc01cc8aeb827fd4d2a03c936e338224f66fe3123cd7825f51d39ff26b",
}


def _digest(values):
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


def test_ensemble_outputs_match_golden_digests():
    drift = PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-0.5, 1.5), (-0.5, 0.5)])
    # a walk in jumps of +-1e8: a sixth of the samples end beyond +-1e9,
    # both ways, with their fractions intact
    jumper = PiecewiseLinearLiftMap([-0.5, -1 / 6, 1 / 6, 0.5],
                                    [(-1e8 - 0.5, -1e8 + 0.5), (-0.5, 0.5),
                                     (1e8 - 0.5, 1e8 + 0.5)])
    rep = simulate_channel(sawtooth_kick(3.0), 3000, 40, seed=11, chunk_size=1100)
    got = {
        "ensemble_lambda3": simulate_ensemble(linear_map(3.0), 3000, 25, seed=123),
        "ensemble_lambda4_dithered": simulate_ensemble(linear_map(4.0), 3000, 40, seed=7),
        "ensemble_multichunk": simulate_ensemble(zigzag_map(1, 0.25), 5000, 30, seed=5,
                                                 chunk_size=1234),
        "ensemble_threads2": simulate_ensemble(linear_map(3.0), 5000, 30, seed=5,
                                               chunk_size=1234, threads=2),
        "ensemble_far_jumps": simulate_ensemble(jumper, 3000, 80, seed=3,
                                                chunk_size=1100),
        "increment_drift": estimate_d_increment(drift, 4000, 40, seed=9, batches=10,
                                                chunk_size=1500),
        "increment_far_jumps": estimate_d_increment(jumper, 3000, 80, seed=3,
                                                    batches=5, chunk_size=1100),
        "channel_lambda3": [*rep.variances, rep.growth_exponent, rep.stats.mean,
                            rep.stats.variance, rep.stats.sample_count, rep.discarded],
    }
    assert {k: _digest(v) for k, v in got.items()} == GOLDEN_DIGESTS


def test_normal_cdf_matches_erfc():
    pts = np.array([0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 40.0])
    pts = np.concatenate([pts, -pts])
    z = np.concatenate([np.linspace(-40.0, 40.0, 160_001), pts,
                        np.nextafter(pts, np.inf), np.nextafter(pts, -np.inf)])
    ref = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])
    assert np.max(np.abs(_ndtr(z) - ref)) <= 4.4e-16
    np.testing.assert_array_equal(_ndtr(np.array([-np.inf, np.inf, -1e300, 1e300])),
                                  [0.0, 1.0, 0.0, 1.0])
    assert np.isnan(_ndtr(np.array([np.nan]))[0])


def test_ks_normal_matches_pointwise_reference():
    rng = np.random.default_rng(77)
    # sizes on both sides of the CDF block length
    for n in (10, 1000, 65536, 70001):
        s = rng.standard_t(5, size=n) * 2.0 + 0.3
        mean, std = float(s.mean()), float(s.std())
        srt = np.sort(s)
        cdf = np.array([0.5 * math.erfc(-(v - mean) / std / math.sqrt(2.0)) for v in srt])
        i = np.arange(n)
        ref = max(np.max((i + 1) / n - cdf), np.max(cdf - i / n))
        assert ks_normal(s, mean, std) == pytest.approx(ref, abs=1e-12)
