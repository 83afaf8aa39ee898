"""Ensemble trajectory simulation and diffusion-coefficient estimation.

Trajectories start uniformly on the fundamental interval and are
iterated with the exact piecewise-linear map, kept as an integer cell
plus a fraction in [-1/2, 1/2): by the lift identity f(k + u) = k + f(u)
the map acts on the fraction only; an overflow raises OverflowError, so
no sample is non-finite.  Individual orbits lose pointwise accuracy at
the rate min|slope|^n, but the ensemble distribution remains statistically
faithful; only distribution-level quantities are reported.

The single-horizon estimator D = Var(x_n) / (2n) mandated by
`estimate_stats` carries a finite-n transient: Var(x_n) = 2 D n + c with
a map-dependent constant c of order one (initial-condition spread plus
relaxation of the cell distribution), so its bias c/(2n) only vanishes
as the horizon grows.  `estimate_d_increment` removes the constant by
differencing two horizons and is the recommended cross-method check.

A stretching map whose slopes are all integers, one of them even, is
iterated exactly in binary floating point: a slope 2^k m, m odd, drops k
bits of the fraction per step, so its orbits would freeze on the dyadic
lattice after about 53/k steps.  For those maps (only) a seeded dither is
added to each image fraction every P steps, where 2^k is the largest
power of two dividing any slope; it plays the role of the rounding noise
that every other slope generates naturally.  The budget: a W-bit lane
puts W fresh bits at resolution 2^-54 into the fraction, and the P steps
until the next dither drop k P of them, so P = max(1, floor((W - 4)/k))
with W = 32 leaves four.  Measured edges: k P = W fails at both W = 16
and W = 32, while k P <= W - 2 passes.  A slope divisible by 2^29 drops
more bits per step than a lane holds; it gets P = 1 and is under budget.
Sample i of N reads its dither at step t = 0 mod P from lane (t // P) N + i
of `rng._lanes` of the key seed ^ `_DITHER_KEY_SALT`: a pure function of
key and index, whatever chunk or thread reads it.

`simulate_ensemble`, `estimate_d_increment` and the billiard channel
share one chunk runner, which cuts the sample range into chunks of
`_CHUNK` = 32768 samples iterated independently, optionally on a thread
pool, and one carry loop, which moves each fraction's whole part into
its cell after a step function: the lifting map (plus dither) or the
channel's kick and velocity.  A chunk is small enough for its fractions,
cells and scratch to stay in cache across steps.  The normal CDF behind
`ks_normal` is a numpy port of the Cephes rational approximations, so
the package needs only numpy; `ks_normal` evaluates it on ascending
input, only on the blocks of 64 sorted samples where the gap can peak.

Memory is bounded by the outputs, plus one N-sized temporary, plus
per-chunk scratch.  A chunk allocates its fractions and its carry, map
and dither buffers once, and writes each horizon straight into its slice
of that horizon's output, the last slice holding its cells; a dithered
step then allocates only a bit generator and half-size raw dither lanes.
`estimate_stats` rejects non-finite samples instead of copying the rest: the
centred copy inside the variance and then the sorted copy of
`ks_normal` are the N-sized temporaries, never alive together, and the
CDF sees N/32 block ends, then gathered groups of at most 8192 samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import failure_record
from .maps import PiecewiseLinearLiftMap, _finite_result, _label, _real, linear_map
from .reports import _as_real, check_count, check_finite, check_seed
from .rng import _lanes, resolve_threads, uniform_stream

__all__ = _EXPORTS["montecarlo"]

#: samples per chunk: the unit of scheduling, of the step loop and of
#: the channel's reduction
_CHUNK = 1 << 15
#: contiguous sample batches behind the standard error of `estimate_d_increment`
_BATCHES = 50
#: sorted samples per block of the pruned KS statistic, and the margin a
#: block's bound must clear before it is skipped
_KS_BLOCK = 64
_KS_MARGIN = 1e-12
#: most sorted samples the normal CDF sees at once after the block ends:
#: one group of _KS_SLICE // _KS_BLOCK = 128 candidate blocks
_KS_SLICE = 1 << 13

#: bits of a dither lane of `rng._lanes`
_LANE_BITS = 32
# a lane w gives the dither (w + 1/2 - 2^31) 2^-53: w 2^-53, the offset
# and their sum are multiples of 2^-54 below 2^-21, so it is exact
_LANE_SCALE = 2.0**-53
_LANE_OFFSET = (0.5 - 2.0**31) * _LANE_SCALE
_DITHER_KEY_SALT = 0x9E3779B97F4A7C15


def _dither_period(lift_map):
    """Steps P between dithers; 0 unless a stretching map has integer slopes, one even."""
    slopes = np.abs(lift_map.slopes)
    if lift_map.min_slope() <= 1.0 or np.any(slopes != np.floor(slopes)):
        return 0
    # the slope 2^k m, m odd, that drops the most bits per step
    k = max((v & -v).bit_length() - 1 for v in map(int, slopes))
    return max(1, (_LANE_BITS - 4) // k) if k else 0


@dataclass(frozen=True)
class EnsembleStats:
    """Summary statistics of an ensemble of final positions."""

    sample_count: int
    step_count: int
    mean: float
    variance: float
    d_estimate: float
    drift_estimate: float
    d_stderr: float
    ks_statistic: float


def _run_chunks(run, n_samples, threads):
    """Call run(start, stop) on each chunk of [0, n_samples); results in chunk order.

    The one chunk runner of every ensemble simulator.  A chunk holds
    `_CHUNK` samples, few enough for its state to stay in cache.  Chunks
    share no state, so the worker count changes only the schedule, never
    a sample.
    """
    ranges = [(s, min(s + _CHUNK, n_samples)) for s in range(0, n_samples, _CHUNK)]
    workers = min(resolve_threads(threads), len(ranges))
    if workers <= 1:
        return [run(*r) for r in ranges]
    # imported here: concurrent.futures loads logging and traceback, which
    # a single-worker run, the CLI's default, never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: run(*r), ranges))


def _iterate_chunk(step, u, cell, horizons, outs):
    """Write cell + u into outs[i] after horizons[i] steps, then yield it; u and cell move in place.

    Each step, `step(u, t)` moves the fractions in place, then the whole
    part `maps._label(u)` of each goes into its integer-valued cell through
    one reused carry buffer.  The last of `outs` may be the cell itself, as
    no step follows.  This is the overflow rule of every simulator: an
    overflow raises OverflowError, and a non-finite fraction, which only a
    caller's kick can make, turns NaN (carry inf - inf) for the caller to reject.
    """
    carry = np.empty_like(u)
    for done, horizon, out in zip([0, *horizons], horizons, outs):
        try:
            with np.errstate(over="raise", invalid="ignore"):
                for t in range(done, horizon):
                    step(u, t)
                    _label(u, out=carry)
                    u -= carry
                    cell += carry
                np.add(cell, u, out=out)
        except FloatingPointError:
            raise OverflowError("ensemble position overflows double precision") from None
        yield out


def _lift_ensemble(lift_map, n_samples, horizons, seed, threads):
    """Positions of n_samples lifting-map orbits after each step count in `horizons`.

    Each chunk runs `_iterate_chunk` on its slices of the outputs, the last one its
    cells, with a step that maps each fraction through its piece and, at the steps
    t = 0 mod P of a dithered map, adds the dither made from lane w = (t // P) n_samples
    + i of `rng._lanes` of its key for sample i, so results do not depend on the
    chunking: d = (w + 1/2 - 2^31) 2^-53, exact.  The callers check the horizons.
    """
    n_samples = check_count(n_samples, 1, "n_samples")
    seed = check_seed(seed)
    period = _dither_period(lift_map)
    dither_key = seed ^ _DITHER_KEY_SALT
    outs = [np.empty(n_samples) for _ in horizons[1:]] + [np.zeros(n_samples)]

    def run(start, stop):
        u = uniform_stream(seed, start, stop - start)
        scratch = lift_map._fraction_scratch(u.size)
        if period:
            dither = np.empty_like(u)

        def step(u, t):
            lift_map._map_fraction(u, scratch)
            if period and t % period == 0:
                lanes = _lanes(dither_key, t // period * n_samples + start, u.size)
                np.multiply(lanes, _LANE_SCALE, out=dither)
                u += np.add(dither, _LANE_OFFSET, out=dither)

        chunk = [out[start:stop] for out in outs]      # the last holds the cells
        for _ in _iterate_chunk(step, u, chunk[-1], horizons, chunk):
            pass

    _run_chunks(run, n_samples, threads)
    return outs


def simulate_ensemble(lift_map: PiecewiseLinearLiftMap,
                      n_samples: int, n_steps: int, seed: int,
                      threads=None) -> np.ndarray:
    """Final positions of n_samples trajectories after n_steps iterations.

    Starting points are uniform on [-1/2, 1/2), drawn from per-index
    counter-based substreams of `seed`, so the output is bitwise
    reproducible for any thread count or chunk size.  Stretching maps
    whose slopes are all integers, one of them even, get the dither of
    32-bit lanes every P = max(1, floor(28/k)) steps, 2^k the largest
    power of two dividing a slope.  A position that
    overflows raises OverflowError, so every position is finite.  Integer counts >= 1.
    """
    n_steps = check_count(n_steps, 1, "n_steps")
    out, = _lift_ensemble(lift_map, n_samples, [n_steps], seed, threads)
    return out


# Cephes `ndtr` (S. L. Moshier) rational approximations to erf and erfc,
# after Cody, Math. Comp. 23 (1969); the leading 1 of each *_Q, *_S and *_U
# denominator is implicit.
_SQRTH = 7.07106781186547524401e-1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
#: erfc(x) is below the smallest subnormal double for x >= 28
_ERFC_ZERO = 28.0


def _ratio(scale, x, num, den):
    """scale * num(x) / den(x) by Horner's rule; den has an implicit leading 1."""
    p = x * num[0]
    p += num[1]
    for c in num[2:]:
        p *= x
        p += c
    q = x + den[0]
    for c in den[1:]:
        q *= x
        q += c
    p *= scale
    p /= q
    return p


def _ndtr(a):
    """Standard normal CDF of an ascending array (NaN last), branch for branch as Cephes `ndtr`.

    With x = a/sqrt(2): 0.5 + 0.5 erf(x) for |x| < 1/sqrt(2), otherwise
    0.5 erfc(|x|), reflected for x > 0; erfc is 1 - erf below |x| = 1 and
    one of two rational approximations times exp(-x^2) below and above 8.
    On ascending input these seven cases are index ranges, found by two
    searches and evaluated on slices, so a range no sample takes costs nothing.
    """
    x = a * _SQRTH
    y = np.empty_like(x)

    def erf(v):                 # |v| <= 1
        return _ratio(v, v * v, _ERF_T, _ERF_U)

    def erfc(num, den):         # erfc(z) for z >= 1: exp(-z^2) times a ratio
        return lambda z: _ratio(np.exp(-z * z), z, num, den)

    # Cephes' cases, one per range of x: the branch of erfc(|x|) and
    # whether 0.5 erfc(|x|) is reflected; None is 0.5 + 0.5 erf(x)
    far, near, mid = erfc(_ERFC_R, _ERFC_S), erfc(_ERFC_P, _ERFC_Q), lambda z: 1.0 - erf(z)
    cases = ((far, False), (near, False), (mid, False), (None, False),
             (mid, True), (near, True), (far, True))
    edges = (0, *np.searchsorted(x, (-8.0, -1.0, -_SQRTH), "right"),
             *np.searchsorted(x, (_SQRTH, 1.0, 8.0)), x.size)
    for (branch, reflect), lo, hi in zip(cases, edges, edges[1:]):
        if lo == hi:
            continue
        if branch is None:
            y[lo:hi] = 0.5 + 0.5 * erf(x[lo:hi])
        else:
            tail = branch(np.minimum(np.abs(x[lo:hi]), _ERFC_ZERO))
            tail *= 0.5
            y[lo:hi] = 1.0 - tail if reflect else tail
    return y


def ks_normal(samples: np.ndarray, mean: float, std: float) -> float:
    """Kolmogorov statistic of the empirical CDF against Normal(mean, std^2).

    The largest of (i + 1)/n - F(s_i) and F(s_i) - i/n over the sorted
    samples s_i.  F is evaluated only where the maximum can be, and always
    on ascending input: first at both ends of each block of 64 sorted
    samples, then on the blocks whose bound could beat the best gap found
    there (on normal-like samples, blocks drop out from about 2e4 samples
    on), gathered in groups of 128 blocks.  The sorted copy is the one
    N-sized temporary, the others hold a group or N/32 block ends, and the
    result is == to evaluating F at every sample.  A zero `std` leaves the
    law undefined: the statistic is then NaN, with no warning; a negative
    one, a non-finite mean or std (`reports.check_finite`) or a non-finite
    sample raises ValueError.
    """
    mean, std = check_finite(mean, "mean"), check_finite(std, "std")
    if std < 0:
        raise ValueError(f"std must be >= 0, not {std!r}")
    s = np.sort(_real(samples, "ks_normal"))
    n = s.size
    if n == 0:
        raise ValueError("need at least one sample")
    if not (math.isfinite(s[0]) and math.isfinite(s[-1])):     # NaN sorts last
        raise ValueError("samples must be finite")
    if std == 0:
        return float("nan")

    def cdf(x):                 # x: a gathered copy, standardised in place
        x -= mean
        x /= std
        return _ndtr(x)

    def largest_gap(f, i):
        return np.maximum(np.max((i + 1) / n - f), np.max(f - i / n))

    first = np.arange(0, n, _KS_BLOCK)
    # each block's first and last sample, interleaved, so F sees them ascending
    ends = np.stack([first, np.minimum(first + _KS_BLOCK, n) - 1], axis=1).ravel()
    f = cdf(s[ends])
    found = [largest_gap(f, ends)]
    # F rises with s (its rounding wobbles by 4.4e-16, far inside the
    # margin), so no gap in a block exceeds the block's bound
    bound = np.maximum((ends[1::2] + 1) / n - f[::2], f[1::2] - first / n)
    # never empty: the block of the best end gap is always a candidate
    todo = np.flatnonzero(bound + _KS_MARGIN > found[0])
    group = _KS_SLICE // _KS_BLOCK
    for lo in range(0, todo.size, group):
        i = (todo[lo:lo + group, None] * _KS_BLOCK + np.arange(_KS_BLOCK)).ravel()
        np.minimum(i, n - 1, out=i)     # a short last block repeats its last sample
        found.append(largest_gap(cdf(s[i]), i))
    return float(np.max(found))


def estimate_stats(samples: np.ndarray, n_steps: int) -> EnsembleStats:
    """Moment and normality statistics for a set of final positions.

    Non-finite samples raise ValueError; a mean or variance that
    overflows raises OverflowError.  D is the single-horizon estimate
    variance/(2n), its standard error that of a normal sample variance;
    the KS statistic is against a normal law of the estimated moments.
    A zero variance leaves that law undefined: the KS statistic is then
    NaN, and no warning is issued.  `n_steps` must be an integer >= 1.
    """
    n_steps = check_count(n_steps, 1, "n_steps")
    samples = _real(samples, "estimate_stats")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    n = samples.size
    if n < 2:
        raise ValueError("variance undefined: need at least two finite samples")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(samples))
        var = float(np.var(samples, ddof=1))
    stderr = var * math.sqrt(2.0 / (n - 1)) / (2.0 * n_steps)
    # the stderr is finite only if the variance is
    _finite_result((mean, stderr), "ensemble moments overflow")
    ks = ks_normal(samples, mean, np.sqrt(var))
    return EnsembleStats(
        sample_count=n,
        step_count=n_steps,
        mean=mean,
        variance=var,
        d_estimate=var / (2.0 * n_steps),
        drift_estimate=mean / n_steps,
        d_stderr=stderr,
        ks_statistic=ks,
    )


def estimate_d_increment(lift_map: PiecewiseLinearLiftMap,
                         n_samples: int, n_steps: int, seed: int, threads=None):
    """Transient-free D estimate from the variance increment between n/2 and n.

    D = (Var(x_n) - Var(x_{n/2})) / (2 (n - n/2)) cancels the O(1)
    constant in Var(x_n) = 2 D n + c.  The variance is taken about the
    ensemble mean, so this estimates the D of `diffusion_spectral` and
    `closed_form_d`, the same on drifting maps.  The standard error is
    taken across the 50 contiguous batches (`_BATCHES`) of two or more
    samples.  Integer counts n_samples >= 1 and n_steps >= 2; an
    overflowing position or moment raises OverflowError.

    Returns
    -------
    (d, stderr)
    """
    n_steps = check_count(n_steps, 2, "n_steps")
    half = n_steps // 2
    out_half, out_full = _lift_ensemble(lift_map, n_samples, [half, n_steps], seed, threads)

    edges = np.linspace(0, n_samples, _BATCHES + 1, dtype=int)
    batches = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi - lo >= 2]
    if len(batches) < 2:
        raise ValueError("not enough batches of two samples for a stderr estimate")
    with np.errstate(over="ignore", invalid="ignore"):
        ds = np.array([(np.var(out_full[lo:hi], ddof=1) - np.var(out_half[lo:hi], ddof=1))
                       / (2.0 * (n_steps - half)) for lo, hi in batches])
        d, stderr = np.mean(ds), np.std(ds, ddof=1) / np.sqrt(ds.size)
    _finite_result((d, stderr), "ensemble moments overflow")
    return float(d), float(stderr)


def scan_lambda(lams, n_samples: int, n_steps: int, seed: int,
                threads=None) -> list:
    """Monte Carlo D(lam) scan for linear maps, with analytic comparisons.

    Returns one dict per grid point with keys lambda, d_mc, stderr,
    d_heuristic, d_omega, ks.  The same seed (hence the same initial
    ensemble) is reused across grid points.  A failed point is a NaN row
    with the `error` and `exit_code` of its `errors.failure_record`; an
    unclassified error ends the scan, as do a bad seed or thread count and
    counts other than integers n_samples >= 2 and n_steps >= 1, all checked first.
    """
    # imported here: the other simulators never need the density module
    from .density import heuristic_d, omega_approx_d

    check_count(n_samples, 2, "n_samples")
    check_count(n_steps, 1, "n_steps")
    check_seed(seed)
    threads = resolve_threads(threads)
    rows = []
    for lam in lams:
        real = _as_real(lam)        # a lambda that is no real number fails, shown as given
        row = {"lambda": lam if real is None else real,
               **dict.fromkeys(("d_mc", "stderr", "d_heuristic", "d_omega", "ks"), math.nan)}
        try:
            samples = simulate_ensemble(linear_map(lam), n_samples, n_steps,
                                        seed, threads=threads)
            stats = estimate_stats(samples, n_steps)
            row.update(d_mc=stats.d_estimate, stderr=stats.d_stderr,
                       ks=stats.ks_statistic)
        except Exception as exc:
            code, error = failure_record(exc)
            row.update(error=error, exit_code=code)
        for column, estimate in (("d_heuristic", heuristic_d), ("d_omega", omega_approx_d)):
            try:
                row[column] = estimate(row["lambda"])
            except (ValueError, OverflowError):
                pass
        rows.append(row)
    return rows
