import hashlib
import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from detdiff import (
    CASES,
    DEFAULT_SEED,
    MarkovPartition,
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
from detdiff import montecarlo
from detdiff.montecarlo import _ndtr
from detdiff.rng import _lanes, _words

N = 100_000
STEPS = 50

_HALF_SPLIT = MarkovPartition((-0.5, 0.0, 0.5))
_ZIGZAG = zigzag_map(1, 0.25)
#: slopes 4 and 2, drift 1/4
_DRIFT = PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-0.5, 1.5), (-0.5, 0.5)])
#: maps with integer slopes, one even, each with a Markov partition and
#: the horizon of its wide ensemble; lambda = 4096 evolves its lattice
#: only 4 steps, as each step spreads it over 4097 shifts
_DITHERED_MAPS = {
    **{f"linear-{lam}": (linear_map(lam), _HALF_SPLIT, 4 if lam == 4096 else 40)
       for lam in (4, 8, 16, 256, 4096, 6)},
    "zigzag": (_ZIGZAG, MarkovPartition(tuple(_ZIGZAG.breakpoints)), 40),
    "drift": (_DRIFT, _HALF_SPLIT, 40),
}


def test_uniform_stream_chunk_invariance():
    full = uniform_stream(11, 0, 257)
    parts = [uniform_stream(11, s, min(41, 257 - s)) for s in range(0, 257, 41)]
    np.testing.assert_array_equal(full, np.concatenate(parts))


def test_uniform_stream_is_shifted_philox_doubles():
    doubles = np.random.Generator(np.random.Philox(key=11)).random(300)
    np.testing.assert_array_equal(uniform_stream(11, 45, 255), doubles[45:] - 0.5)


@pytest.mark.parametrize("seed,valid", [
    (-1, False), (0, True), ((1 << 128) - 1, True), (1 << 128, False),
])
def test_seed_must_be_a_philox_key(seed, valid):
    lam4 = linear_map(4.0)
    # lambda = 4 is dithered, so its dither key seed ^ _DITHER_KEY_SALT is read too
    assert montecarlo._dither_period(lam4) > 0
    runs = [
        lambda: uniform_stream(seed, 0, 5),
        lambda: simulate_ensemble(lam4, 100, 30, seed),
        lambda: estimate_d_increment(lam4, 100, 30, seed),
        lambda: simulate_channel(sawtooth_kick(3.0), 100, 20, seed),
        # a bad seed belongs to the whole scan, not to one failed row per lambda
        lambda: scan_lambda([3.0, 4.0], 100, 5, seed),
    ]
    for call in runs:
        if valid:
            call()
        else:
            message = ("seed must be an integer >= 0, not -1" if seed < 0
                       else r"seed must be in \[0, 2\*\*128\), not ")
            with pytest.raises(ValueError, match=f"^{message}"):
                call()


def test_same_seed_bitwise_identical():
    a = simulate_ensemble(linear_map(3.0), 20_000, STEPS, seed=123)
    b = simulate_ensemble(linear_map(3.0), 20_000, STEPS, seed=123)
    np.testing.assert_array_equal(a, b)


def test_chunking_and_threads_do_not_change_samples(ensemble_constants):
    with ensemble_constants(chunk=30_000):
        a = simulate_ensemble(linear_map(3.0), 30_000, 20, seed=5)
    with ensemble_constants(chunk=4321):
        b = simulate_ensemble(linear_map(3.0), 30_000, 20, seed=5)
    with ensemble_constants(chunk=7000):
        c = simulate_ensemble(linear_map(3.0), 30_000, 20, seed=5, threads=4)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_stream_reads_words_in_any_order():
    words = np.random.Philox(key=11).random_raw(3000)
    doubles = np.random.Generator(np.random.Philox(key=11)).random(3000)
    # in any order: forwards, backwards, overlapping, from every offset in a
    # block, as words or as doubles
    for i, (start, count) in enumerate(((0, 5), (1024, 250), (3, 1), (1, 4), (1500, 1),
                                        (10, 0), (2997, 3), (2, 1750), (7, 9))):
        if i % 2:
            np.testing.assert_array_equal(_words(11, start, count, doubles=True),
                                          doubles[start:start + count])
        else:
            np.testing.assert_array_equal(_words(11, start, count), words[start:start + count])

    # lane 2k + j is bits 32j .. 32j + 31 of word k; a word holds lanes
    # 2k and 2k + 1 and a block of 4 words lanes 8c .. 8c + 7, so these
    # start on odd lanes, straddle words and blocks, or read one lane
    lanes = np.stack([words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)], axis=1).ravel()
    reads = ((0, 1), (1, 1), (3, 2), (7, 2), (5, 12), (9, 0), (15, 3), (1001, 999),
             (4000, 1), (5997, 3), (6, 5000))
    for start, count in reads:
        got = _lanes(11, start, count)
        assert got.dtype == np.dtype("<u4")
        np.testing.assert_array_equal(got, lanes[start:start + count])

    # two threads reading ranges at once share no reader state
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(lambda r: _lanes(11, *r), reads * 20))
    for (start, count), g in zip(reads * 20, got):
        np.testing.assert_array_equal(g, lanes[start:start + count])


def test_dither_reads_little_endian_half_words(ensemble_constants):
    # reference: lane 2k + m of the dither stream is bits 32m .. 32m + 31 of
    # word k on any host, and sample i reads lane (t // P) n + i at the steps
    # t = 0 mod P; the drift map's slopes 4 and 2 give P = 28 // 2 = 14, the
    # horizon 31 is no multiple of it, and chunks of 999 samples start
    # mid-word and mid-block
    n, steps, seed, period = 2001, 31, 17, 14
    key = seed ^ montecarlo._DITHER_KEY_SALT
    words = np.random.Philox(key=key).random_raw((n * 3 + 1) // 2)
    lanes = (words[:, None] >> np.array([0, 32], dtype=np.uint64)) & np.uint64(0xFFFFFFFF)
    lanes = lanes.ravel()
    u, cell = uniform_stream(seed, 0, n), np.zeros(n)
    for t in range(steps):
        u = np.where(u < 0.0, u * 4.0 + 1.5, u * 2.0 - 0.5)
        if t % period == 0:
            w = lanes[t // period * n:(t // period + 1) * n]
            u = u + (w + 0.5 - 2.0**31) * 2.0**-53
        carry = np.floor(u + 0.5)
        u -= carry
        cell += carry
    assert montecarlo._dither_period(_DRIFT) == period
    with ensemble_constants(chunk=999):
        np.testing.assert_array_equal(simulate_ensemble(_DRIFT, n, steps, seed), cell + u)


def test_dither_period_follows_the_bit_budget():
    # a slope 2^k m, m odd, drops k bits a step, and a 32-bit lane may lose
    # 28 of its bits before the next one; maps whose slopes are odd,
    # fractional or not stretching get no dither
    period = montecarlo._dither_period
    assert [period(linear_map(lam)) for lam in (4, 6, 16, 256, 4096, 2.0**28)] == \
        [14, 28, 7, 3, 2, 1]
    assert [period(linear_map(lam)) for lam in (3, 5, 2.5, 2 + 3**0.5, 1.0)] == [0] * 5
    assert period(zigzag_map(1, 0.25)) == 14
    # past the budget's edge P stays 1, and even integers as large as
    # 1e160 = 2^k m keep their error classes: their positions stay finite
    for lam in (2.0**29, 6.0 * 2.0**40, 1e160):
        assert period(linear_map(lam)) == 1
    assert np.isfinite(simulate_ensemble(linear_map(2.0**29), 1000, 8, seed=1)).all()


def test_lane_dither_does_not_depend_on_chunks_or_threads(ensemble_constants):
    # chunks that start at 999, 1234 or 2468 begin mid-word and mid-block
    with ensemble_constants(chunk=65536):
        ref = simulate_ensemble(linear_map(4.0), 5000, 30, seed=17)
    for chunk_size, threads in ((999, None), (1234, None), (999, 2)):
        with ensemble_constants(chunk=chunk_size):
            np.testing.assert_array_equal(
                simulate_ensemble(linear_map(4.0), 5000, 30, seed=17, threads=threads), ref)
    # a short last chunk leaves gaps of a few lanes between the reads of the first
    with ensemble_constants(chunk=65536):
        ref = simulate_ensemble(linear_map(4.0), 1010, 5, seed=17)
    with ensemble_constants(chunk=1000):
        np.testing.assert_array_equal(simulate_ensemble(linear_map(4.0), 1010, 5, seed=17), ref)


@pytest.mark.parametrize("lift_map", [zigzag_map(1, 0.25), linear_map(4.0)],
                         ids=["zigzag", "dithered-4"])
@pytest.mark.parametrize("threads", [1, 2])
def test_each_horizon_is_written_as_simulated_alone(lift_map, threads, ensemble_constants):
    # chunks write every horizon straight into their slice of its output, the
    # last slice doubling as their cells; 2500 samples end in a short chunk
    with ensemble_constants(chunk=1000):
        early, late = montecarlo._lift_ensemble(lift_map, 2500, [13, 30], 9, threads)
        np.testing.assert_array_equal(early, simulate_ensemble(lift_map, 2500, 13, 9))
        np.testing.assert_array_equal(late, simulate_ensemble(lift_map, 2500, 30, 9))


@pytest.mark.parametrize("n", [montecarlo._CHUNK - 1, montecarlo._CHUNK + 1,
                               2 * montecarlo._CHUNK + 1])
def test_chunk_edges_do_not_change_samples(n, ensemble_constants):
    # 1000 samples per chunk against the default, whose last chunk is short
    drift = PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-0.5, 1.5), (-0.5, 0.5)])
    for lift_map in (zigzag_map(1, 0.25), linear_map(4.0), drift):
        with ensemble_constants(chunk=1000, batches=5):
            ref = simulate_ensemble(lift_map, n, 3, seed=21)
            ref_increment = estimate_d_increment(lift_map, n, 4, seed=21)
        assert simulate_ensemble(lift_map, n, 3, seed=21).tobytes() == ref.tobytes()
        with ensemble_constants(batches=5):
            assert estimate_d_increment(lift_map, n, 4, seed=21) == ref_increment


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
    for seed in (DEFAULT_SEED, 101, 102):
        for lift_map, d_exact in ((linear_map(4.0), 0.25), (drift, 3.0 / 32.0)):
            d, stderr = estimate_d_increment(lift_map, 20_000, 1000, seed=seed)
            assert stderr > 0
            assert abs(d - d_exact) <= 4.0 * stderr, (seed, d, d_exact, stderr)


@pytest.mark.parametrize("name", list(_DITHERED_MAPS))
def test_dithered_ensembles_reach_the_exact_d(name):
    # P = max(1, 28 // k) steps between dithers keeps every even slope
    # diffusing: wide, against the lattice's exact Var(x_n)/(2n), and long,
    # against the spectral D.  A dither too small to survive the
    # rounding of f(u) shows as 6-10 sigma at lambda = 16 even at n = 200,
    # and zigzag(1, 1/4) and lambda = 6 freeze outright without one
    lift_map, partition, wide_n = _DITHERED_MAPS[name]
    tset = build_transition_matrices(lift_map, partition)
    _, var = evolve(tset, unit_pulse(partition.breakpoints), wide_n).continuous_moments()
    rep = diffusion_spectral(tset)
    for seed in range(1, 6):
        stats = estimate_stats(simulate_ensemble(lift_map, 20_000, wide_n, seed), wide_n)
        d, stderr = estimate_d_increment(lift_map, 4000, 200, seed)
        for got, sigma, exact in ((stats.d_estimate, stats.d_stderr, var / (2.0 * wide_n)),
                                  (d, stderr, rep.d)):
            assert sigma > 0 and abs(got - exact) <= 4.0 * sigma, (seed, got, exact, sigma)


def _lattice_cdf(dens, x):
    """The CDF of lattice density `dens` at sorted points x: exact, linear inside each cell."""
    bp = np.asarray(dens.breakpoints)
    # every cell's left end, unit by unit, then the right end of the last one
    ends = np.append((np.arange(dens.k_min, dens.k_max + 1)[:, None] + bp[:-1]).ravel(),
                     dens.k_max + 0.5)
    return np.interp(x, ends, np.concatenate([[0.0], np.cumsum(dens.masses.ravel())]))


# seven Markov maps, each with the partition on which `evolve` is exact;
# even-4 is lambda = 4 on the half split again, as the catalog builds it
_LAW_MAPS = {
    "linear-3": (linear_map(3.0), MarkovPartition.unit()),
    "linear-4": (linear_map(4.0), _HALF_SPLIT),
    "drift": (_DRIFT, _HALF_SPLIT),
    "zigzag": (_ZIGZAG, MarkovPartition(tuple(_ZIGZAG.breakpoints))),
    **{name: (CASES[name].lift_map(), CASES[name].partition())
       for name in ("two-plus-sqrt3", "even-4", "cubic-4p71")},
}


@pytest.mark.parametrize("n", [1, 20, 50])
@pytest.mark.parametrize("name", list(_LAW_MAPS))
def test_ensemble_follows_the_exact_law_of_its_lattice_density(name, n, ensemble_constants):
    # from the uniform start, `evolve`'s lattice density after n steps is the
    # exact law of x_n, so the KS statistic of the whole ensemble path (start
    # law, stream, map step, dither, chunk seams) against its CDF has sqrt(N) KS
    # Kolmogorov-distributed; the bound is that law's 0.1% point, fixed in
    # advance.  Chunks of 1000 samples put 99 seams into the ensemble
    lift_map, partition = _LAW_MAPS[name]
    tset = build_transition_matrices(lift_map, partition)
    law = evolve(tset, unit_pulse(tset.breakpoints), n)
    with ensemble_constants(chunk=1000):
        samples = simulate_ensemble(lift_map, N, n, DEFAULT_SEED)
    f = _lattice_cdf(law, np.sort(samples))
    i = np.arange(N)
    ks = max(np.max((i + 1) / N - f), np.max(f - i / N))
    assert math.sqrt(N) * ks < 1.95


def _traced_peak(f, *args, **kwargs):
    """Peak traced memory, in bytes, while f runs."""
    tracemalloc.start()
    try:
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_stats_copies_finite_samples_nowhere():
    # all finite: no copy of the finite samples, so only the one N-sized
    # temporary of the variance or of the sorted KS copy is alive at a time
    samples = np.random.default_rng(4).normal(size=500_000)
    assert _traced_peak(estimate_stats, samples, 20) < 1.3 * samples.nbytes


def test_ensemble_step_loop_allocates_nothing_per_step(ensemble_constants):
    # the chunk's scratch is allocated once: ten times the steps, no
    # higher peak (the slack covers a few small Python objects); numpy's
    # first bit generator of a process allocates its own tables, so one
    # small run goes first
    lift_map = zigzag_map(1, 0.25)
    simulate_ensemble(lift_map, 100, 2, seed=1)
    with ensemble_constants(chunk=65536):
        peaks = [_traced_peak(simulate_ensemble, lift_map, 65536, steps, seed=1)
                 for steps in (20, 200)]
    assert peaks[1] <= peaks[0] + 4096, peaks


@pytest.mark.parametrize("n_samples", [0, -5])
def test_lifting_estimators_reject_empty_ensembles(n_samples):
    # the channel too, with its kick in place of the map, and its variance needs two
    for estimator, system, least in ((simulate_ensemble, linear_map(3.0), 1),
                                     (estimate_d_increment, linear_map(3.0), 1),
                                     (simulate_channel, sawtooth_kick(3.0), 2)):
        with pytest.raises(ValueError,
                           match=f"^n_samples must be an integer >= {least}, not {n_samples}$"):
            estimator(system, n_samples, 4, seed=1)


@pytest.mark.parametrize("call,message", [
    (lambda: ks_normal(np.array([]), 0.0, 1.0), "need at least one sample"),
    (lambda: ks_normal(np.array([0.0, 1.0]), 0.0, -1.0), "std must be >= 0, not -1.0"),
    (lambda: ks_normal(np.array([0.0, 1.0]), 0.0, math.nan),
     "std must be a finite number, not nan"),
    (lambda: ks_normal(np.array([0.0, np.nan, 1.0]), 0.0, 1.0), "samples must be finite"),
    (lambda: estimate_d_increment(linear_map(3.0), 100, 1, seed=1),
     "n_steps must be an integer >= 2, not 1"),
    # 50 batches of 3 samples hold one sample each
    (lambda: estimate_d_increment(linear_map(3.0), 3, 4, seed=1),
     "not enough batches of two samples for a stderr estimate"),
    (lambda: uniform_stream(11, -1, 5), "start must be an integer >= 0, not -1"),
], ids=["ks-no-samples", "ks-negative-std", "ks-nan-std", "ks-nan-sample",
        "increment-one-step", "increment-one-batch", "stream-negative-start"])
def test_estimator_arguments_at_fault_raise(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_estimate_stats_validation():
    with pytest.raises(ValueError):
        estimate_stats(np.array([1.0]), 10)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^samples must be finite$"):
            estimate_stats(np.array([0.0, 1.0, bad, 2.0]), 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # the NaN KS statistic says it all
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


def test_ks_normal_of_a_zero_std_is_nan_without_a_warning():
    # RuntimeWarning is an error under the suite's filter
    for samples in ([0.0, 0.0, 0.0], [-1.0, 0.0, 2.0]):
        for std in (0.0, -0.0):
            assert math.isnan(ks_normal(np.array(samples), 0.0, std))
    # a negative or NaN std is no normal law: it raises
    for std, message in ((-1.0, "^std must be >= 0, not -1.0$"),
                         (math.nan, "^std must be a finite number, not nan$")):
        with pytest.raises(ValueError, match=message):
            ks_normal(np.array([-1.0, 0.0, 2.0]), 0.0, std)


def test_far_shift_map_keeps_its_fraction():
    # f(x) = x + J moves every sample 30*J away; the fraction is rounded
    # once, at the first step, and the position is the cell plus it
    for jump in (1e8, -1e8):
        jumper = PiecewiseLinearLiftMap([-0.5, 0.5], [(jump - 0.5, jump + 0.5)])
        samples = simulate_ensemble(jumper, 100, 30, seed=0)
        x0 = uniform_stream(0, 0, 100)
        assert np.all(np.isfinite(samples))
        np.testing.assert_array_equal(samples, 30 * jump + ((x0 + jump) - jump))


@pytest.mark.parametrize("threads", [1, 2])
def test_overflowing_positions_raise_in_every_lifting_estimator(threads, ensemble_constants):
    # the cells pass 1.8e308 within about 18 steps; several chunks, so two
    # threads overflow on pool workers, each under its own error state
    huge = PiecewiseLinearLiftMap([-0.5, 0.5], [(9.9e306, 1.01e307)])
    with ensemble_constants(chunk=1000):
        for estimator in (simulate_ensemble, estimate_d_increment):
            with pytest.raises(OverflowError,
                               match="^ensemble position overflows double precision$"):
                estimator(huge, 3500, 40, seed=1, threads=threads)


def test_an_overflowing_increment_raises():
    # the positions stay finite, but their batch variances overflow
    with pytest.raises(OverflowError, match="^ensemble moments overflow double precision$"):
        estimate_d_increment(linear_map(1.7e308), 2000, 200, 1)


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


def test_scan_lambda_empty_and_failures(monkeypatch):
    assert scan_lambda([], 100, 10, seed=1) == []
    rows = scan_lambda([0.0, 3.0], 1000, 10, seed=1)
    assert np.isnan(rows[0]["d_mc"])
    assert rows[0]["error"].startswith("MapDefinitionError: ")
    assert rows[0]["exit_code"] == 2
    assert not np.isnan(rows[1]["d_mc"])
    assert "error" not in rows[1]

    # an error that no exit code classifies is a bug: it ends the scan
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(montecarlo, "simulate_ensemble", broken)
    with pytest.raises(TypeError, match="bug"):
        scan_lambda([3.0], 1000, 10, seed=1)


def test_scan_lambda_records_overflowing_estimates_as_nan():
    rows = scan_lambda([3.0, 1e160], 1000, 10, seed=1)
    assert rows[1].pop("error") == "OverflowError: ensemble moments overflow double precision"
    assert rows[1].pop("exit_code") == 3
    assert all(np.isnan(v) for k, v in rows[1].items() if k != "lambda")
    assert rows[0] == scan_lambda([3.0], 1000, 10, seed=1)[0]


def test_thread_env_cap(monkeypatch, ensemble_constants):
    from detdiff.rng import resolve_threads

    monkeypatch.delenv("DETDIFF_THREADS", raising=False)
    assert resolve_threads() == 1
    monkeypatch.setenv("DETDIFF_THREADS", "3")
    assert resolve_threads() == 3
    assert resolve_threads(2) == 2
    # worker count set through the environment leaves the samples unchanged
    a = simulate_ensemble(linear_map(3.0), 10_000, 10, seed=8)
    with ensemble_constants(chunk=999):
        b = simulate_ensemble(linear_map(3.0), 10_000, 10, seed=8)
    np.testing.assert_array_equal(a, b)


def test_bad_thread_env_is_reported(monkeypatch):
    from detdiff.rng import resolve_threads

    monkeypatch.setenv("DETDIFF_THREADS", "abc")
    with pytest.raises(ValueError, match="^DETDIFF_THREADS must be an integer >= 1, not 'abc'$"):
        resolve_threads()
    assert resolve_threads(2) == 2
    # resolved before the first point: the scan fails, it leaves no NaN rows
    with pytest.raises(ValueError, match="DETDIFF_THREADS"):
        scan_lambda([3.0, 3.5], 1000, 10, seed=1)


# sha256 of the output bytes, recorded from the integer cell + fraction
# ensemble state that the lifting maps and the billiard channel share; a
# change that alters samples on purpose must update them
GOLDEN_DIGESTS = {
    "ensemble_lambda3": "53209d6066ea6202305cfea3b7a89c67e773f1d2ebc734c6baf3efe48717b717",
    "ensemble_lambda4_dithered": "2b8ec07c3c7b44717d9b464abdc025d3e6c2b83ae2042c1c0097b9baec76eebb",
    "ensemble_multichunk": "20c6378013804429e9482629f5bfcecfd5d6c3fdf89ab8b9aa3520cf3a3010db",
    "ensemble_threads2": "3cd395bf10f3cedee78a7a1cf91f2aef022e3c1ea95377bd05350b7ade48ae44",
    "ensemble_far_jumps": "0cb1cafbed8a45ce5f65b08a0cd7964797bdecb3db5e66a759f4d471b3b1bf43",
    "increment_drift": "4b778fe3b8872ed6e91716f41cf53fc28197c5e80e1341f7096a91f8ec6d2535",
    "increment_far_jumps": "a8f93f20a7ed3d1ddd29b003bb46ad725fedac877fff1dd8b0027c0022b7f85a",
    "channel_lambda3": "c2871a2ee1eccc95eeea57ad35a0a490df88387fa1b76c07b81edebd10b5634c",
}


def _digest(values):
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


def test_ensemble_outputs_match_golden_digests(ensemble_constants):
    drift = PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-0.5, 1.5), (-0.5, 0.5)])
    # a walk in jumps of +-1e8: a sixth of the samples end beyond +-1e9,
    # both ways, with their fractions intact
    jumper = PiecewiseLinearLiftMap([-0.5, -1 / 6, 1 / 6, 0.5],
                                    [(-1e8 - 0.5, -1e8 + 0.5), (-0.5, 0.5),
                                     (1e8 - 0.5, 1e8 + 0.5)])
    got = {
        "ensemble_lambda3": simulate_ensemble(linear_map(3.0), 3000, 25, seed=123),
        "ensemble_lambda4_dithered": simulate_ensemble(linear_map(4.0), 3000, 40, seed=7),
    }
    with ensemble_constants(chunk=1234):
        got["ensemble_multichunk"] = simulate_ensemble(zigzag_map(1, 0.25), 5000, 30, seed=5)
        got["ensemble_threads2"] = simulate_ensemble(linear_map(3.0), 5000, 30, seed=5,
                                                     threads=2)
    with ensemble_constants(chunk=1100):
        got["ensemble_far_jumps"] = simulate_ensemble(jumper, 3000, 80, seed=3)
    with ensemble_constants(chunk=1500, batches=10):
        got["increment_drift"] = estimate_d_increment(drift, 4000, 40, seed=9)
    with ensemble_constants(chunk=1100, batches=5):
        got["increment_far_jumps"] = estimate_d_increment(jumper, 3000, 80, seed=3)
    with ensemble_constants(chunk=1100):
        rep = simulate_channel(sawtooth_kick(3.0), 3000, 40, seed=11)
    got["channel_lambda3"] = [*rep.variances, rep.growth_exponent, rep.discarded]
    assert {k: _digest(v) for k, v in got.items()} == GOLDEN_DIGESTS


def _masked_ratio(scale, x, num, den):
    p = np.full_like(x, num[0])
    for c in num[1:]:
        p *= x
        p += c
    q = x + den[0]
    for c in den[1:]:
        q *= x
        q += c
    p *= scale
    p /= q
    return p


def _masked_ndtr(a):
    """Reference normal CDF: every branch gathered and scattered through a mask."""
    def erf(v):
        return _masked_ratio(v, v * v, montecarlo._ERF_T, montecarlo._ERF_U)

    def erfc(v):
        v = np.minimum(v, montecarlo._ERFC_ZERO)
        out = np.exp(-v * v)
        near = v < 8.0
        out[near] = _masked_ratio(out[near], v[near], montecarlo._ERFC_P, montecarlo._ERFC_Q)
        out[~near] = _masked_ratio(out[~near], v[~near], montecarlo._ERFC_R,
                                   montecarlo._ERFC_S)
        return out

    x = a * montecarlo._SQRTH
    z = np.abs(x)
    y = np.empty_like(z)
    inner = z < montecarlo._SQRTH
    y[inner] = 0.5 + 0.5 * erf(x[inner])
    outer = ~inner
    zo = z[outer]
    tail = np.empty_like(zo)
    small = zo < 1.0
    tail[small] = 1.0 - erf(zo[small])
    tail[~small] = erfc(zo[~small])
    tail *= 0.5
    y[outer] = np.where(x[outer] > 0, 1.0 - tail, tail)
    return y


def test_normal_cdf_skips_empty_branches_bit_for_bit():
    # |a| < 1, 1 <= |a| < sqrt(2), up to 8 sqrt(2), beyond it: one Cephes
    # branch each, on one side or both, then all of them mixed
    inner = np.linspace(0.0, 0.999, 2001)
    mid = np.linspace(1.0, 1.414, 2001)
    near = np.linspace(1.415, 11.3, 2001)
    far = np.concatenate([np.linspace(11.4, 60.0, 2001), [1e300, np.inf]])
    parts = [inner, mid, near, far]
    cases = [np.empty(0), np.array([np.nan]), np.concatenate(parts + [[np.nan]])]
    for part in parts:
        cases += [part, -part, np.concatenate([part, -part])]
    cases.append(-cases[-1][::-1])
    # _ndtr takes ascending input, NaN last
    for a in map(np.sort, cases):
        np.testing.assert_array_equal(_ndtr(a).view(np.uint64),
                                      _masked_ndtr(a).view(np.uint64))


def test_normal_cdf_matches_erfc():
    pts = np.array([0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 40.0])
    pts = np.concatenate([pts, -pts])
    z = np.sort(np.concatenate([np.linspace(-40.0, 40.0, 160_001), pts,
                                np.nextafter(pts, np.inf), np.nextafter(pts, -np.inf)]))
    ref = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])
    assert np.max(np.abs(_ndtr(z) - ref)) <= 4.4e-16
    np.testing.assert_array_equal(_ndtr(np.array([-np.inf, -1e300, 1e300, np.inf])),
                                  [0.0, 0.0, 1.0, 1.0])
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


def _ks_full(samples, mean, std):
    """ks_normal without pruning: the normal CDF at every sorted sample."""
    s = np.sort(samples)
    n = s.size
    cdf = _ndtr((s - mean) / std)
    i = np.arange(n)
    return float(np.max([np.max((i + 1) / n - cdf), np.max(cdf - i / n)]))


_BLOCK = montecarlo._KS_BLOCK


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 8191, 8192, 8193, 16_385,
                               20_000, 70_001, 100_000, 500_000])
def test_pruned_ks_normal_equals_full_evaluation(n, monkeypatch):
    evaluated = []

    def counting_ndtr(a):
        # the CDF's precondition: ascending input, and after the pass over
        # the block ends no more than one group of blocks
        assert np.all(a[:-1] <= a[1:])
        assert not evaluated or a.size <= montecarlo._KS_SLICE
        evaluated.append(a.size)
        return _ndtr(a)

    monkeypatch.setattr(montecarlo, "_ndtr", counting_ndtr)
    rng = np.random.default_rng(77)
    heavy = rng.standard_t(3, size=n) * 2.0 + 0.3
    cost = {}
    for kind, s in (("heavy", heavy), ("near_normal", rng.normal(size=n))):
        mean, std = float(s.mean()), float(s.std()) if n > 1 else 1.0
        evaluated.clear()
        assert ks_normal(s, mean, std) == _ks_full(s, mean, std), kind
        cost[kind] = sum(evaluated)
        # one call for the block ends, then one per group of candidate blocks
        blocks = -(-sum(evaluated[1:]) // _BLOCK)
        assert len(evaluated) <= 1 + -(-blocks // (montecarlo._KS_SLICE // _BLOCK))
    if n == 100_000:
        # the blocks are narrower than the gaps of a near-normal sample, so
        # most of them are skipped
        assert cost["near_normal"] < n / 4
    if n >= 20_000:
        # heavy tails: few blocks are candidates, and the largest gap lies
        # inside a block, where only the block's full evaluation finds it
        assert cost["heavy"] < n / 2
        srt = np.sort(heavy)
        cdf = _ndtr((srt - heavy.mean()) / heavy.std())
        i = np.arange(n)
        worst = int(np.argmax(np.maximum((i + 1) / n - cdf, cdf - i / n)))
        assert worst % _BLOCK not in (0, _BLOCK - 1)


def test_pruned_ks_normal_edge_inputs():
    # a non-finite sample sorts to an end of the sorted copy, where it is caught
    for bad in (np.nan, np.inf, -np.inf):
        s = np.random.default_rng(3).normal(size=3000)
        s[17] = bad
        with pytest.raises(ValueError, match="^samples must be finite$"):
            ks_normal(s, 0.0, 1.0)
