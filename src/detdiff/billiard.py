"""Transport in a long billiard channel with a periodically distorted wall.

A trajectory is tracked by the abscissas of consecutive wall
reflections.  The exact step rotates the chord slope by twice the local
normal tilt; for wide channels the rotation linearises to a second-order
difference equation driven by a 1-periodic kick,

    x_{n+1} - x_n = x_n - x_{n-1} + f(x_n),

whose variance grows cubically when the kicks decorrelate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GrazingReflectionError
from .maps import fractional_part
from .montecarlo import EnsembleStats, _run_chunks, estimate_stats
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
OVERFLOW_LIMIT = 1e9


def _mark_overflow(x, dead):
    """Flag samples beyond +-OVERFLOW_LIMIT or non-finite in `dead`; park them at 0.

    The common step costs one read-only min/max test, which NaN fails
    too; the masked bookkeeping runs only when some sample is out of range.
    """
    if x.min() >= -OVERFLOW_LIMIT and x.max() <= OVERFLOW_LIMIT:
        return
    dead |= ~np.isfinite(x) | (np.abs(x) > OVERFLOW_LIMIT)
    x[dead] = 0.0


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
        return lam * fractional_part(x)

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
                     checkpoints: Optional[Sequence[int]] = None,
                     x1_cell: int = 0, threads=None,
                     chunk_size: int = 1 << 16) -> ChannelReport:
    """Ensemble of channel trajectories driven by a 1-periodic kick.

    Starts at x_0 = 0 with x_1 uniform on the unit interval around
    `x1_cell`, iterates the second-order recurrence vectorised over the
    ensemble and records the position variance at the checkpoints
    (defaults: n/8, n/4, n/2, n).  The growth exponent is the
    least-squares slope of log variance against log step count.
    Overflowing samples are discarded and counted; losing more than 1%
    flags a warning.
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
    # accumulate sum, sum of squares and counts per checkpoint, in chunk order
    acc = {c: [0.0, 0.0, 0] for c in cps}
    finals = np.empty(n_samples)
    discarded = 0

    def run(start, stop):
        x_prev = np.zeros(stop - start)
        x = float(x1_cell) + uniform_stream(seed, start, stop - start)
        dead = np.zeros(stop - start, dtype=bool)
        partial = {}
        for step in range(1, n_steps + 1):
            if step > 1:
                x_next = 2.0 * x
                x_next -= x_prev
                x_next += kick(x)
                _mark_overflow(x_next, dead)
                x_prev, x = x, x_next
            if step in acc:
                alive = x[~dead]
                partial[step] = (float(alive.sum()), float((alive**2).sum()),
                                 int(alive.size))
        finals[start:stop] = np.where(dead, np.nan, x)
        return partial, int(dead.sum())

    for partial, n_dead in _run_chunks(run, n_samples, chunk_size, threads):
        discarded += n_dead
        for c, (s1, s2, cnt) in partial.items():
            acc[c][0] += s1
            acc[c][1] += s2
            acc[c][2] += cnt

    variances = []
    for c in cps:
        s1, s2, cnt = acc[c]
        if cnt < 2:
            variances.append(float("nan"))
        else:
            variances.append((s2 - s1 * s1 / cnt) / (cnt - 1))

    usable = [(c, v) for c, v in zip(cps, variances) if np.isfinite(v) and v > 0]
    if len(usable) >= 2:
        ls = np.log([c for c, _ in usable])
        lv = np.log([v for _, v in usable])
        exponent = float(np.polyfit(ls, lv, 1)[0])
    else:
        exponent = float("nan")

    theo = tuple(theoretical_variance(c, lam) for c in cps) if lam is not None else None
    stats = estimate_stats(finals, n_steps)
    frac = discarded / n_samples
    return ChannelReport(
        stats=stats,
        growth_exponent=exponent,
        checkpoints=tuple(cps),
        variances=tuple(variances),
        theoretical=theo,
        discarded=discarded,
        discard_warning=frac > 0.01,
    )
