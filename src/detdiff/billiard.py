"""Transport in a long billiard channel with a periodically distorted wall.

A trajectory is tracked by the abscissas of consecutive wall
reflections.  The exact step rotates the chord slope by twice the local
normal tilt; for wide channels the rotation linearises to a second-order
difference equation driven by a 1-periodic kick,

    x_{n+1} - x_n = x_n - x_{n-1} + f(x_n),

whose variance grows cubically when the kicks decorrelate.  The ensemble
simulator keeps each position as an integer cell plus a fraction in
[-1/2, 1/2), like the lifting-map ensembles, and calls the kick with
the fraction only; positions have no size limit, and a sample
is discarded only when the kick's own arithmetic makes it non-finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GrazingReflectionError
from .maps import fractional_part
from .montecarlo import EnsembleStats, _iterate_chunk, _run_chunks, estimate_stats
from .rng import uniform_stream

__all__ = [
    "BilliardState",
    "exact_step",
    "approximate_step",
    "tangent_kick",
    "sawtooth_kick",
    "position_from_kicks",
    "theoretical_variance",
    "ChannelReport",
    "simulate_channel",
]

_GRAZE_TOL = 1e-12


def _zero_angle(x):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class BilliardState:
    """Two consecutive reflection abscissas plus the channel geometry.

    `normal_angle` is the 1-periodic tilt alpha(x) of the wall normal in
    radians; |2 alpha| must stay below pi/2 for the tangent to exist.
    """

    x_prev: float
    x_curr: float
    h: float = 1.0
    normal_angle: Callable = field(default=_zero_angle)

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("channel half-width h must be positive")

    @property
    def slope(self) -> float:
        """Incoming chord slope (x_curr - x_prev) / h."""
        return (self.x_curr - self.x_prev) / self.h


def exact_step(state: BilliardState) -> BilliardState:
    """Ideal reflection at x_curr: rotate the chord slope by 2 alpha.

    With u the incoming slope and t = tan(2 alpha(x_curr)), the outgoing
    slope is (u + t) / (1 - t u); the next abscissa follows as
    x_curr + h * u'.  A denominator within 1e-12 of zero means the
    outgoing ray grazes the wall and raises GrazingReflectionError.
    """
    u = state.slope
    if not math.isfinite(u):
        raise ValueError("incoming slope must be finite")
    t = math.tan(2.0 * float(state.normal_angle(state.x_curr)))
    denom = 1.0 - t * u
    if abs(denom) < _GRAZE_TOL:
        raise GrazingReflectionError(
            f"grazing reflection at x = {state.x_curr!r} (1 - t*u = {denom:.3g})")
    u_out = (u + t) / denom
    return BilliardState(x_prev=state.x_curr,
                         x_curr=state.x_curr + state.h * u_out,
                         h=state.h, normal_angle=state.normal_angle)


def approximate_step(state: BilliardState, kick: Callable) -> BilliardState:
    """Wide-channel step x_next = 2 x_curr - x_prev + kick(x_curr)."""
    x_next = 2.0 * state.x_curr - state.x_prev + float(kick(state.x_curr))
    return BilliardState(x_prev=state.x_curr, x_curr=x_next,
                         h=state.h, normal_angle=state.normal_angle)


def tangent_kick(h: float, normal_angle: Callable) -> Callable:
    """Kick induced by the wall tilt: f(x) = h * tan(2 alpha(x))."""
    def kick(x):
        return h * np.tan(2.0 * np.asarray(normal_angle(x), dtype=float))
    return kick


def sawtooth_kick(lam: float) -> Callable:
    """Piecewise-linear kick f(x) = lam * {x) with {x) the signed fractional part."""
    lam = float(lam)

    def kick(x):
        f = fractional_part(x)
        f *= lam  # in place: the channel calls the kick every step
        return f

    kick.lam = lam
    return kick


def position_from_kicks(x1: float, kicks: Sequence[float]) -> float:
    """Closed sum form of the second-order recurrence with x_0 = 0.

    After n recorded kicks f(x_1), ..., f(x_n),

        x_{n+1} = (n + 1) x_1 + sum_{k=1..n} (n + 1 - k) f(x_k),

    which reproduces the iteration exactly.
    """
    n = len(kicks)
    weights = np.arange(n, 0, -1, dtype=float)
    return float((n + 1) * x1 + weights @ np.asarray(kicks, dtype=float))


def theoretical_variance(n: int, lam: float) -> float:
    """Independent-kick variance after n sawtooth kicks.

    sigma^2 = n^2/12 + (lam^2/12) * n(n+1)(2n+1)/6: the quadratic term
    comes from the spread of the initial slope, the cubic one from the
    linearly growing weights of the kicks.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    n = float(n)
    return n**2 / 12.0 + lam**2 / 12.0 * n * (n + 1.0) * (2.0 * n + 1.0) / 6.0


@dataclass(frozen=True)
class ChannelReport:
    """Checkpointed variances and the fitted growth exponent."""

    stats: EnsembleStats
    growth_exponent: float
    checkpoints: tuple                 # step counts
    variances: tuple                   # ensemble Var(x_c) per checkpoint
    theoretical: Optional[tuple]       # independent-kick prediction, if lam known
    discarded: int
    discard_warning: bool

    def rows(self):
        """(checkpoint, variance, theoretical_variance, exponent_so_far) rows."""
        cps = np.asarray(self.checkpoints, dtype=float)
        vs = np.asarray(self.variances, dtype=float)
        for i, (c, v) in enumerate(zip(self.checkpoints, self.variances)):
            theo = self.theoretical[i] if self.theoretical is not None else float("nan")
            if i >= 1:
                expo = float(np.polyfit(np.log(cps[:i + 1]), np.log(vs[:i + 1]), 1)[0])
            else:
                expo = float("nan")
            yield c, v, theo, expo


def simulate_channel(kick: Callable, n_samples: int, n_steps: int, seed: int,
                     checkpoints: Optional[Sequence[int]] = None, threads=None,
                     chunk_size: int = 1 << 16) -> ChannelReport:
    """Ensemble of channel trajectories driven by a 1-periodic kick.

    Starts at x_0 = 0 with x_1 uniform on [-1/2, 1/2) and iterates
    v_{n+1} = v_n + f(x_n), x_{n+1} = x_n + v_{n+1} on the carry loop of
    `montecarlo`, calling the kick with the fraction of x_n in [-1/2, 1/2).
    Records the position variance at the checkpoints (defaults: n/8, n/4,
    n/2, n).  The growth exponent is the least-squares slope of log
    variance against log step count.  Samples the kick makes non-finite
    are discarded and counted; losing more than 1% flags a warning.
    """
    if n_samples < 1 or n_steps < 1:
        raise ValueError("n_samples and n_steps must be >= 1")
    if checkpoints is None:
        checkpoints = [max(1, n_steps // 8), max(1, n_steps // 4),
                       max(1, n_steps // 2), n_steps]
    cps = sorted(set(int(c) for c in checkpoints))
    if any(c < 1 or c > n_steps for c in cps):
        raise ValueError("checkpoints must lie in [1, n_steps]")

    lam = getattr(kick, "lam", None)
    # checkpoint c lies c - 1 steps from x_1; the finals, n_steps - 1 steps on, sort last
    horizons = sorted({c - 1 for c in cps} | {n_steps - 1})
    finals = np.empty(n_samples)

    def run(start, stop):
        u = uniform_stream(seed, start, stop - start)
        v = u.copy()

        def step(u, t):
            np.add(v, kick(u), out=v)
            u += v

        moments = []
        # a non-finite kick makes the carry inf - inf: a NaN sample, discarded below
        with np.errstate(invalid="ignore"):
            for x in _iterate_chunk(step, u, np.zeros_like(u), horizons):
                alive = x[np.isfinite(x)]
                mean = alive.mean() if alive.size else 0.0
                moments.append((alive.size, mean, ((alive - mean) ** 2).sum()))
        finals[start:stop] = x
        return moments

    counts, means, m2s = np.transpose(_run_chunks(run, n_samples, chunk_size, threads))
    # raises unless two samples stay finite, so every checkpoint pools at least two
    stats = estimate_stats(finals, n_steps)
    # Chan et al.: pool the per-chunk counts, means and centred sums of squares
    cnt = counts.sum(axis=1)
    mean = (counts * means).sum(axis=1) / cnt
    pooled = (m2s + counts * (means - mean[:, None]) ** 2).sum(axis=1) / (cnt - 1)
    variances = pooled[:len(cps)].tolist()

    usable = [(c, v) for c, v in zip(cps, variances) if np.isfinite(v) and v > 0]
    if len(usable) >= 2:
        ls = np.log([c for c, _ in usable])
        lv = np.log([v for _, v in usable])
        exponent = float(np.polyfit(ls, lv, 1)[0])
    else:
        exponent = float("nan")

    theo = tuple(theoretical_variance(c, lam) for c in cps) if lam is not None else None
    discarded = n_samples - stats.sample_count
    return ChannelReport(
        stats=stats,
        growth_exponent=exponent,
        checkpoints=tuple(cps),
        variances=tuple(variances),
        theoretical=theo,
        discarded=discarded,
        discard_warning=discarded / n_samples > 0.01,
    )
