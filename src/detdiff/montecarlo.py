"""Ensemble trajectory simulation and diffusion-coefficient estimation.

Trajectories start uniformly on the fundamental interval and are
iterated with the exact piecewise-linear map, kept as an integer cell
plus a fraction in [-1/2, 1/2): by the lift identity f(k + u) = k + f(u)
the map acts on the fraction only, so positions are non-finite only if
the map's own arithmetic overflows.  Individual orbits lose pointwise
accuracy at the rate min|slope|^n, but the ensemble distribution remains
statistically faithful; only distribution-level quantities are reported.

The single-horizon estimator D = Var(x_n) / (2n) mandated by
`estimate_stats` carries a finite-n transient: Var(x_n) = 2 D n + c with
a map-dependent constant c of order one (initial-condition spread plus
relaxation of the cell distribution), so its bias c/(2n) only vanishes
as the horizon grows.  `estimate_d_increment` removes the constant by
differencing two horizons and is the recommended cross-method check.

Maps whose slopes are all exact powers of two are iterated exactly in
binary floating point, so orbits exhaust their 52 fractional bits and
freeze on the dyadic lattice after ~26 steps.  For those maps (only) a
seeded dither of 2^-48 is added to each image fraction every step, above
its rounding floor; it plays the role of the rounding noise that every
other slope generates naturally and keeps the ensemble statistics
faithful.

`simulate_ensemble`, `estimate_d_increment` and the billiard channel
share one chunk runner, which cuts the sample range into chunks iterated
independently, optionally on a thread pool, and one carry loop, which
moves each fraction's whole part into its cell after a step function:
the lifting map (plus dither) or the channel's kick and velocity.  The
normal CDF behind `ks_normal` is a numpy port of the Cephes rational
approximations, so the package needs only numpy.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .density import heuristic_d, omega_approx_d
from .maps import PiecewiseLinearLiftMap, linear_map
from .rng import resolve_threads, uniform_stream

__all__ = [
    "EnsembleStats",
    "simulate_ensemble",
    "estimate_stats",
    "estimate_d_increment",
    "ks_normal",
    "scan_lambda",
]

_CHUNK = 1 << 16

#: dither amplitude, above the rounding floor of a fraction in [-1/2, 1/2)
DITHER_AMPLITUDE = 2.0**-48
_DITHER_KEY_SALT = 0x9E3779B97F4A7C15


def _dither_key(lift_map, seed):
    """Key of the dither stream; None unless a stretching map has only power-of-two slopes."""
    slopes = np.abs(lift_map.slopes)
    if lift_map.min_slope() > 1.0 and all(math.frexp(s)[0] == 0.5 for s in slopes):
        return int(seed) ^ _DITHER_KEY_SALT
    return None


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


def _run_chunks(run, n_samples, chunk_size, threads):
    """Call run(start, stop) on each chunk of [0, n_samples); results in chunk order.

    The one chunk runner of every ensemble simulator.  Chunks share no
    state, so the worker count changes only the schedule, never a sample.
    """
    ranges = [(s, min(s + chunk_size, n_samples)) for s in range(0, n_samples, chunk_size)]
    workers = min(resolve_threads(threads), len(ranges))
    if workers <= 1:
        return [run(*r) for r in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: run(*r), ranges))


def _iterate_chunk(step, u, cell, horizons):
    """Yield cell + u after each step count in `horizons`; u and cell move in place.

    `step(u, t)` moves the fractions in place, then the whole part
    floor(u + 1/2) of each goes into its integer-valued cell through one
    reused carry buffer.
    """
    carry = np.empty_like(u)
    done = 0
    for horizon in horizons:
        for t in range(done, horizon):
            step(u, t)
            np.floor(np.add(u, 0.5, out=carry), out=carry)
            u -= carry
            cell += carry
        done = horizon
        yield cell + u


def _lift_chunk(lift_map, seed, start, stop, total, horizons):
    """`_iterate_chunk` of samples start .. stop-1 of `total` under a lifting map.

    A step maps each fraction through its piece and adds the dither: word
    t*total + i of its keyed stream for sample i at step t, so results do
    not depend on the chunking.
    """
    key = _dither_key(lift_map, seed)

    def step(u, t):
        lift_map._map_fraction(u)
        if key is not None:
            u += uniform_stream(key, t * total + start, u.size,
                                low=-DITHER_AMPLITUDE / 2, high=DITHER_AMPLITUDE / 2)

    u = uniform_stream(seed, start, stop - start)
    return _iterate_chunk(step, u, np.zeros_like(u), horizons)


def simulate_ensemble(lift_map: PiecewiseLinearLiftMap,
                      n_samples: int, n_steps: int, seed: int,
                      threads=None, chunk_size: int = _CHUNK) -> np.ndarray:
    """Final positions of n_samples trajectories after n_steps iterations.

    Starting points are uniform on [-1/2, 1/2), drawn from per-index
    counter-based substreams of `seed`, so the output is bitwise
    reproducible for any thread count or chunk size.  Maps whose slopes
    are all powers of two get the 2^-48 dither.  Positions are
    non-finite only if the map's own arithmetic overflows.
    """
    if n_samples < 1 or n_steps < 1:
        raise ValueError("n_samples and n_steps must be >= 1")
    out = np.empty(n_samples)

    def run(start, stop):
        out[start:stop], = _lift_chunk(lift_map, seed, start, stop, n_samples, [n_steps])

    _run_chunks(run, n_samples, chunk_size, threads)
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


def _erf(x):
    """erf(x) for |x| <= 1."""
    return _ratio(x, x * x, _ERF_T, _ERF_U)


def _erfc(x):
    """erfc(x) for x >= 1 (NaN stays NaN)."""
    x = np.minimum(x, _ERFC_ZERO)
    out = np.exp(-x * x)
    near = x < 8.0
    out[near] = _ratio(out[near], x[near], _ERFC_P, _ERFC_Q)
    out[~near] = _ratio(out[~near], x[~near], _ERFC_R, _ERFC_S)
    return out


def _ndtr(a):
    """Standard normal CDF of an array, branch for branch as Cephes `ndtr`.

    With x = a/sqrt(2): 0.5 + 0.5 erf(x) for |x| < 1/sqrt(2), otherwise
    0.5 erfc(|x|), reflected for x > 0; erfc is 1 - erf below |x| = 1 and
    one of two rational approximations times exp(-x^2) below and above 8.
    """
    x = a * _SQRTH
    z = np.abs(x)
    y = np.empty_like(z)
    inner = z < _SQRTH
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    outer = ~inner
    zo = z[outer]
    tail = np.empty_like(zo)
    small = zo < 1.0
    tail[small] = 1.0 - _erf(zo[small])
    tail[~small] = _erfc(zo[~small])
    tail *= 0.5
    y[outer] = np.where(x[outer] > 0, 1.0 - tail, tail)
    return y


def ks_normal(samples: np.ndarray, mean: float, std: float) -> float:
    """Kolmogorov statistic of the empirical CDF against Normal(mean, std^2).

    The normal CDF is evaluated over the sorted samples in fixed-size
    blocks, so no temporary beyond the sorted copy spans all samples.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise ValueError("need at least one sample")
    gaps = []
    for lo in range(0, n, _CHUNK):
        cdf = _ndtr((s[lo:lo + _CHUNK] - mean) / std)
        i = np.arange(lo, lo + cdf.size)
        gaps += [np.max((i + 1) / n - cdf), np.max(cdf - i / n)]
    return float(np.max(gaps))


def estimate_stats(samples: np.ndarray, n_steps: int) -> EnsembleStats:
    """Moment and normality statistics for a set of final positions.

    NaN entries (aborted samples) are dropped.  D is the single-horizon
    estimate variance/(2n) with standard error from the normal
    variance-of-variance formula; the KS statistic is measured against a
    normal law with the estimated mean and variance.
    """
    arr = np.asarray(samples, dtype=float)
    finite = arr[np.isfinite(arr)]
    n = finite.size
    if n < 2:
        raise ValueError("variance undefined: need at least two finite samples")
    mean = float(np.mean(finite))
    var = float(np.var(finite, ddof=1))
    d = var / (2.0 * n_steps)
    stderr = np.sqrt(2.0 * var**2 / ((n - 1) * (2.0 * n_steps) ** 2))
    if var == 0.0:
        warnings.warn("degenerate sample set: variance is zero, KS undefined")
        ks = float("nan")
    else:
        ks = ks_normal(finite, mean, np.sqrt(var))
    return EnsembleStats(
        sample_count=n,
        step_count=n_steps,
        mean=mean,
        variance=var,
        d_estimate=d,
        drift_estimate=mean / n_steps,
        d_stderr=float(stderr),
        ks_statistic=ks,
    )


def estimate_d_increment(lift_map: PiecewiseLinearLiftMap,
                         n_samples: int, n_steps: int, seed: int,
                         batches: int = 50, threads=None,
                         chunk_size: int = _CHUNK):
    """Transient-free D estimate from the variance increment between n/2 and n.

    D = (Var(x_n) - Var(x_{n/2})) / (2 (n - n/2)) cancels the O(1)
    constant in Var(x_n) = 2 D n + c.  The variance is taken about the
    ensemble mean, so this estimates the centred D = d - drift^2/2, where
    d and drift are those of `diffusion_spectral`.  The standard error is
    taken across `batches` contiguous sample batches.

    Returns
    -------
    (d, stderr)
    """
    if n_steps < 2:
        raise ValueError("need n_steps >= 2 for a variance increment")
    half = n_steps // 2
    out_half = np.empty(n_samples)
    out_full = np.empty(n_samples)

    def run(start, stop):
        out_half[start:stop], out_full[start:stop] = _lift_chunk(
            lift_map, seed, start, stop, n_samples, [half, n_steps])

    _run_chunks(run, n_samples, chunk_size, threads)

    edges = np.linspace(0, n_samples, batches + 1, dtype=int)
    ds = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        a = out_half[lo:hi]
        b = out_full[lo:hi]
        keep = np.isfinite(a) & np.isfinite(b)
        if keep.sum() < 2:
            continue
        dv = np.var(b[keep], ddof=1) - np.var(a[keep], ddof=1)
        ds.append(dv / (2.0 * (n_steps - half)))
    ds = np.asarray(ds)
    if ds.size < 2:
        raise ValueError("not enough surviving batches for a stderr estimate")
    return float(np.mean(ds)), float(np.std(ds, ddof=1) / np.sqrt(ds.size))


def scan_lambda(lams, n_samples: int, n_steps: int, seed: int,
                threads=None) -> list:
    """Monte Carlo D(lam) scan for linear maps, with analytic comparisons.

    Returns one dict per grid point with keys lambda, d_mc, stderr,
    d_heuristic, d_omega, ks.  The same seed (hence the same initial
    ensemble) is reused across grid points; per-point failures are
    recorded as NaN rows and the scan continues.
    """
    rows = []
    for lam in lams:
        row = {"lambda": float(lam), "d_mc": float("nan"), "stderr": float("nan"),
               "d_heuristic": float("nan"), "d_omega": float("nan"),
               "ks": float("nan")}
        try:
            samples = simulate_ensemble(linear_map(lam), n_samples, n_steps,
                                        seed, threads=threads)
            stats = estimate_stats(samples, n_steps)
            row.update(d_mc=stats.d_estimate, stderr=stats.d_stderr,
                       ks=stats.ks_statistic)
        except Exception as exc:  # per-point failures must not kill the scan
            warnings.warn(f"scan point lambda={lam}: {type(exc).__name__}: {exc}")
        try:
            row["d_heuristic"] = heuristic_d(lam)
        except ValueError:
            pass
        try:
            row["d_omega"] = omega_approx_d(lam)
        except ValueError:
            pass
        rows.append(row)
    return rows
