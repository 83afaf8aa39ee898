"""Transport in a long billiard channel with a periodically distorted wall.

A trajectory is tracked by the abscissas of consecutive wall
reflections.  The exact step rotates the chord slope by twice the local
normal tilt; for wide channels the rotation linearises to a second-order
difference equation driven by a 1-periodic kick,

    x_{n+1} - x_n = x_n - x_{n-1} + f(x_n),

whose variance grows cubically when the kicks decorrelate.  The ensemble
simulator keeps each position as an integer cell plus a fraction in
[-1/2, 1/2), like the lifting-map ensembles, and calls the kick with
the fraction only.  Every function fails alike: a kick or normal angle
that is no finite number raises ValueError, an overflow of finite input
OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import _EXPORTS
from .errors import GrazingReflectionError
from .maps import _finite, _finite_result, _real, fractional_part
from .montecarlo import _iterate_chunk, _run_chunks
from .reports import _as_real, check_count, check_finite
from .rng import uniform_stream

__all__ = _EXPORTS["billiard"]

_GRAZE_TOL = 1e-12


def _zero_angle(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _returned(value, what: str) -> float:
    """A kick's or normal angle's value by `check_finite`; "<what> returned a non-finite value"."""
    value = value[()] if isinstance(value, np.ndarray) else value      # 0-d: its scalar
    if (real := _as_real(value)) is not None and not math.isfinite(real):
        raise ValueError(f"{what} returned a non-finite value")
    return check_finite(value, what)


@dataclass(frozen=True)
class BilliardState:
    """Two consecutive reflection abscissas plus the channel geometry.

    `normal_angle` is the 1-periodic tilt alpha(x) of the wall normal in
    radians; |2 alpha| must stay below pi/2 for the tangent to exist.
    `x_prev`, `x_curr` and the half-width `h` > 0 are finite
    (`reports.check_finite`) and kept as floats.
    """

    x_prev: float
    x_curr: float
    h: float = 1.0
    normal_angle: Callable = field(default=_zero_angle)

    def __post_init__(self):
        for name in ("x_prev", "x_curr", "h"):      # frozen: each set once
            object.__setattr__(self, name, check_finite(getattr(self, name), name))
        if self.h <= 0:
            raise ValueError("channel half-width h must be positive")

    @property
    def slope(self) -> float:
        """Incoming chord slope (x_curr - x_prev) / h."""
        return (self.x_curr - self.x_prev) / self.h


def _advance(state: BilliardState, x_next: float) -> BilliardState:
    """The state one reflection on, at x_next; OverflowError unless x_next is finite."""
    x_next = _finite_result(x_next, "billiard position overflows")
    return replace(state, x_prev=state.x_curr, x_curr=x_next)


def exact_step(state: BilliardState) -> BilliardState:
    """Ideal reflection at x_curr: rotate the chord slope by 2 alpha.

    With u the incoming slope and t = tan(2 alpha(x_curr)), the outgoing slope is
    (u + t) / (1 - t u); the next abscissa follows as x_curr + h * u'.  A denominator
    within 1e-12 of zero means the outgoing ray grazes the wall and raises
    GrazingReflectionError; every other failure follows the module's rule.
    """
    u = state.slope
    alpha = _returned(state.normal_angle(state.x_curr), "the normal angle")
    t = math.tan(_finite_result(2.0 * alpha, "doubled normal angle overflows"))
    denom = 1.0 - t * u
    if abs(denom) < _GRAZE_TOL:
        raise GrazingReflectionError(
            f"grazing reflection at x = {state.x_curr!r} (1 - t*u = {denom:.3g})")
    return _advance(state, state.x_curr + state.h * ((u + t) / denom))


def approximate_step(state: BilliardState, kick: Callable) -> BilliardState:
    """Wide-channel step x_next = 2 x_curr - x_prev + f(x_curr); fails by the module's rule."""
    kicked = _returned(kick(state.x_curr), "the kick")
    return _advance(state, 2.0 * state.x_curr - state.x_prev + kicked)


def tangent_kick(h: float, normal_angle: Callable) -> Callable:
    """Tilt kick f(x) = h tan(2 alpha(x)), finite h (`check_finite`); fails by the module's rule."""
    h = check_finite(h, "h")

    def kick(x):
        alpha = _real(normal_angle(x), "tangent kick")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("the normal angle returned a non-finite value")
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite_result(h * np.tan(2.0 * alpha), "tangent kick overflows")
    return kick


def sawtooth_kick(lam: float) -> Callable:
    """Piecewise-linear kick f(x) = lam * {x) with {x) the signed fractional part.

    ValueError unless lam is a finite number (`reports.check_finite`), and
    from the kick for a NaN or infinite x, scalar or array.
    """
    lam = check_finite(lam, "lam")

    def kick(x):
        return lam * fractional_part(x)

    kick.lam = lam
    return kick


def position_from_kicks(x1: float, kicks: Sequence[float]) -> float:
    """Closed sum form of the second-order recurrence with x_0 = 0.

    After n recorded kicks f(x_1), ..., f(x_n),

        x_{n+1} = (n + 1) x_1 + sum_{k=1..n} (n + 1 - k) f(x_k),

    the iteration exactly, for a finite x1 (`reports.check_finite`) and kicks, or OverflowError.
    """
    n, x1 = len(kicks), check_finite(x1, "x1")
    weights = np.arange(n, 0, -1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x = (n + 1) * x1 + weights @ _finite(kicks, "position_from_kicks")
    return float(_finite_result(x, "billiard position overflows"))


def theoretical_variance(n: int, lam: float) -> float:
    """Independent-kick variance after n sawtooth kicks.

    sigma^2 = n^2/12 + (lam^2/12) * n(n+1)(2n+1)/6: the quadratic term
    comes from the spread of the initial slope, the cubic one from the
    linearly growing weights of the kicks.  Integer n >= 0, finite lam (`check_finite`);
    OverflowError when sigma^2 is not a finite double.
    """
    n, lam = check_count(n, 0, "n"), check_finite(lam, "lam")
    try:
        var = float(n)**2 / 12.0 + lam**2 / 12.0 * n * (n + 1.0) * (2.0 * n + 1.0) / 6.0
    except OverflowError:     # a float power, or an int n past the doubles, raises, not inf
        var = math.inf
    return _finite_result(var, "theoretical variance overflows")


def _loglog_slope(steps, variances) -> float:
    """Least-squares slope of log variance on log steps where variance is finite and > 0."""
    usable = [(c, v) for c, v in zip(steps, variances) if np.isfinite(v) and v > 0]
    if len(usable) < 2:
        return float("nan")
    ls, lv = np.log(np.transpose(usable))
    return float(np.polyfit(ls, lv, 1)[0])


@dataclass(frozen=True)
class ChannelReport:
    """Checkpointed variances and the fitted growth exponent."""

    growth_exponent: float
    checkpoints: tuple                 # step counts
    variances: tuple                   # ensemble Var(x_c) per checkpoint
    theoretical: Optional[tuple]       # independent-kick prediction, if lam known
    discarded: int = 0                 # always 0: every sample is finite or the run raises

    def rows(self):
        """(checkpoint, variance, theoretical_variance, exponent_so_far) rows."""
        for i, (c, v) in enumerate(zip(self.checkpoints, self.variances)):
            theo = self.theoretical[i] if self.theoretical is not None else float("nan")
            yield c, v, theo, _loglog_slope(self.checkpoints[:i + 1], self.variances[:i + 1])


def simulate_channel(kick: Callable, n_samples: int, n_steps: int, seed: int,
                     checkpoints: Optional[Sequence[int]] = None, threads=None) -> ChannelReport:
    """Ensemble of channel trajectories driven by a 1-periodic kick.

    Starts at x_0 = 0 with x_1 uniform on [-1/2, 1/2) and iterates
    v_{n+1} = v_n + f(x_n), x_{n+1} = x_n + v_{n+1} on the carry loop of
    `montecarlo`, calling the kick with the fraction of x_n in [-1/2, 1/2)
    chunk by chunk, up to the last checkpoint.  A kick with a `lam`
    attribute is taken to be `sawtooth_kick(lam)`: its step adds lam times
    the fraction to the velocity through one chunk buffer, bit for bit the
    sawtooth, without calling it.  Records the position variance at the
    checkpoints, a nonempty list of integer step counts in [1, n_steps]
    (defaults: n/8, n/4, n/2, n).  The growth exponent is the
    least-squares slope of log variance against log step count.  Every
    sample is finite: a kick that returns a non-finite value raises
    ValueError, any overflow OverflowError.  Integers n_samples >= 2, n_steps >= 1.
    """
    n_samples = check_count(n_samples, 2, "n_samples")
    n_steps = check_count(n_steps, 1, "n_steps")
    if checkpoints is None:
        checkpoints = [max(1, n_steps // 8), max(1, n_steps // 4),
                       max(1, n_steps // 2), n_steps]
    cps = sorted({check_count(c, 1, f"checkpoints[{i}]") for i, c in enumerate(checkpoints)})
    if not cps or cps[-1] > n_steps:
        raise ValueError(f"checkpoints must be nonempty and lie in [1, n_steps = {n_steps}]")

    lam = getattr(kick, "lam", None)
    # The sawtooth of a fraction u is lam * {u) = lam * (u - [u)).  The
    # carry gets x = u + v with |x| < 1 + n_steps |lam| / 2.  Below 2^52,
    # x and 1/2 are multiples of ulp(x) unless |x| < 1/2, so the carry
    # leaves a fraction u with 0 <= fl(u + 1/2) < 1, as uniform_stream
    # does; then [u) = 0 and the kick is exactly lam * u.
    sawtooth = lam is not None and n_steps * abs(lam) < 2.0**52

    def run(start, stop):
        u = uniform_stream(seed, start, stop - start)
        v = u.copy()
        kicked = np.empty_like(u) if sawtooth else None

        def step(u, t):
            np.add(v, np.multiply(u, lam, out=kicked) if sawtooth else kick(u), out=v)
            u += v

        moments, pos = [], np.empty_like(u)
        # checkpoint c lies c - 1 steps from x_1; each is reduced from the one buffer
        for x in _iterate_chunk(step, u, np.zeros_like(u), [c - 1 for c in cps], [pos] * len(cps)):
            # NaN is sticky through the carry loop, so every earlier non-finite kick shows here
            if not np.isfinite(x).all():
                raise ValueError("the kick returned a non-finite value")
            # huge finite positions can sum to inf - inf, caught after the pooling
            with np.errstate(over="ignore", invalid="ignore"):
                mean = x.mean()
                dev = x - mean
                dev *= dev
                moments.append((x.size, mean, dev.sum()))
        return moments

    counts, means, m2s = np.transpose(_run_chunks(run, n_samples, threads))
    # Chan et al.: pool the per-chunk counts, means and centred sums of squares
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (counts * means).sum(axis=1) / n_samples
        variances = _finite_result(((m2s + counts * (means - mean[:, None]) ** 2).sum(axis=1)
                                    / (n_samples - 1)).tolist(), "channel variance overflows")

    theo = tuple(theoretical_variance(c, lam) for c in cps) if lam is not None else None
    return ChannelReport(
        growth_exponent=_loglog_slope(cps, variances),
        checkpoints=tuple(cps),
        variances=tuple(variances),
        theoretical=theo,
    )
