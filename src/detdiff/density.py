"""Lattice densities, their evolution, and closed-form diffusion constants.

Densities are piecewise constant over the translated partition cells:
value P[k, j] is the density on cell j of unit interval k.  Masses are
densities times cell lengths.  Evolution applies the shift-indexed
transfer matrices as a discrete convolution; the long-time profile is a
Gaussian in k modulated per cell by the stationary density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import _EXPORTS
from .errors import HalfIntegerValueError, PartitionError
from .maps import PiecewiseLinearLiftMap, _finite_result, _real
from .reports import _unit_breakpoints, check_count, check_finite

if TYPE_CHECKING:   # annotations only: `scan` does not need `transfer`
    from .transfer import TransitionMatrixSet

__all__ = _EXPORTS["density"]

_PROFILE_FLOOR = 1e-16


@dataclass(frozen=True)
class LatticeDensity:
    """Piecewise-constant finite density >= 0 on cells I_{k,j}, by the breakpoint rule."""

    k_min: int                    # any integer, by `reports.check_count`
    values: np.ndarray            # (n_units, m) nonnegative densities
    breakpoints: tuple            # cell boundaries inside one unit interval
    step_count: int = 0           # an integer >= 0

    def __post_init__(self):
        object.__setattr__(self, "k_min", check_count(self.k_min, None, "k_min"))
        object.__setattr__(self, "step_count", check_count(self.step_count, 0, "step_count"))
        object.__setattr__(self, "breakpoints", _unit_breakpoints(
            self.breakpoints, "lattice density", PartitionError))
        vals = np.atleast_2d(_real(self.values, "lattice density"))
        object.__setattr__(self, "values", vals)
        if vals.shape[1] != len(self.breakpoints) - 1:
            raise ValueError("values width must match the number of cells")
        if not np.all(np.isfinite(vals) & (vals >= 0)):
            raise ValueError("densities must be finite and nonnegative")

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def k_max(self) -> int:
        return self.k_min + self.values.shape[0] - 1

    @property
    def cell_lengths(self) -> np.ndarray:
        return np.diff(np.asarray(self.breakpoints))

    @property
    def masses(self) -> np.ndarray:
        """Per-cell masses, shape (n_units, m)."""
        return self.values * self.cell_lengths[None, :]

    @property
    def mass(self) -> float:
        return float(self.masses.sum())

    def unit_masses(self) -> np.ndarray:
        """Mass per unit interval k."""
        return self.masses.sum(axis=1)

    def lattice_moments(self):
        """Mean and variance of the unit-interval label k; ValueError for a zero mass."""
        w = self.unit_masses()
        ks = np.arange(self.k_min, self.k_max + 1, dtype=float)
        if not (total := float(w.sum())):
            raise ValueError("a density of zero mass has no moments")
        mean = float(ks @ w) / total
        var = float(((ks - mean) ** 2) @ w) / total
        return mean, var

    def continuous_moments(self):
        """Mean and variance of the position x (exact cell integrals); ValueError as above."""
        bp = np.asarray(self.breakpoints)
        ks = np.arange(self.k_min, self.k_max + 1, dtype=float)
        lo = ks[:, None] + bp[None, :-1]
        hi = ks[:, None] + bp[None, 1:]
        m0 = self.masses
        m1 = self.values * (hi**2 - lo**2) / 2.0
        m2 = self.values * (hi**3 - lo**3) / 3.0
        if not (total := m0.sum()):
            raise ValueError("a density of zero mass has no moments")
        mean = float(m1.sum()) / total
        var = float(m2.sum()) / total - mean**2
        return mean, var

    def rows(self):
        """Yield (k, j, density, mass) in (k, j) order, for CSV export."""
        lengths = self.cell_lengths
        for idx in range(self.values.shape[0]):
            k = self.k_min + idx
            for j in range(self.m):
                d = float(self.values[idx, j])
                yield k, j + 1, d, d * float(lengths[j])


def unit_pulse(breakpoints) -> LatticeDensity:
    """Unit density on the fundamental interval, zero elsewhere."""
    return LatticeDensity(k_min=0, values=np.ones((1, len(breakpoints) - 1)),
                          breakpoints=breakpoints)


def _require_same_partition(a, b):
    """Raise ValueError unless breakpoints a and b are equal, so the cells are the same."""
    if tuple(a) != tuple(b):
        raise ValueError(f"different partitions: {list(a)} and {list(b)}")


def evolve(tset: TransitionMatrixSet, initial: LatticeDensity, n: int) -> LatticeDensity:
    """Apply the matrix convolution P_k(t+1) = sum_j p_j P_{k-j}(t), n times.

    Each step grows the array by smax = max|shift| rows on each side, the
    support the convolution can reach, so the result spans
    k_min - smax*n .. k_max + smax*n; mass is conserved to rounding
    accuracy.  `n` must be an integer >= 0.
    """
    n = check_count(n, 0, "n")
    _require_same_partition(initial.breakpoints, tset.breakpoints)
    if n == 0:
        return initial

    smax = max(abs(shift) for shift in tset.shifts)
    transposed = [mat.T.copy() for mat in tset.matrices]
    vals = initial.values
    for _ in range(n):
        new = np.zeros((vals.shape[0] + 2 * smax, initial.m))
        for shift, matT in zip(tset.shifts, transposed):
            new[smax + shift:smax + shift + vals.shape[0]] += vals @ matT
        vals = new

    return LatticeDensity(k_min=initial.k_min - smax * n, values=vals,
                          breakpoints=initial.breakpoints,
                          step_count=initial.step_count + n)


def gaussian_profile(d: float, drift: float, alpha, breakpoints, n: int) -> LatticeDensity:
    """Cell-modulated Gaussian limit profile after n steps.

    P[k, j] = alpha_j / (2 sqrt(pi D n)) * exp(-(k - drift*n)^2 / (4 D n)),
    evaluated at integer k, truncated below 1e-16 and renormalised to unit
    mass.  Finite d > 0 and drift (`reports.check_finite`), n an integer >= 1,
    and every alpha_j finite and > 0, large enough that some value reaches
    the floor.
    """
    d, drift = check_finite(d, "d"), check_finite(drift, "drift")
    if d <= 0:
        raise ValueError(f"d must be > 0, not {d!r}")
    n = check_count(n, 1, "n")
    alpha = _real(alpha, "alpha")
    if not np.all(np.isfinite(alpha) & (alpha > 0)):
        raise ValueError(f"alpha must be finite and > 0, not {alpha.tolist()}")
    center = drift * n
    spread = math.sqrt(4.0 * d * n)
    # e^-40 ~ 4e-18 is safely below the floor we renormalise away
    half_width = int(math.ceil(spread * math.sqrt(40.0))) + 1
    k_lo = int(math.floor(center)) - half_width
    ks = np.arange(k_lo, k_lo + 2 * half_width + 1, dtype=float)
    peak = 1.0 / (2.0 * math.sqrt(math.pi * d * n))
    profile = peak * np.exp(-((ks - center) ** 2) / (4.0 * d * n))
    vals = alpha[None, :] * profile[:, None]
    vals[vals < _PROFILE_FLOOR] = 0.0
    if not vals.any():
        raise ValueError(f"alpha {alpha.tolist()} puts the whole profile below "
                         f"the {_PROFILE_FLOOR:g} floor")
    dens = LatticeDensity(k_min=k_lo, values=vals, breakpoints=breakpoints, step_count=n)
    np.divide(dens.values, dens.mass, out=dens.values)
    return dens


def kolmogorov_distance(a: LatticeDensity, b: LatticeDensity) -> float:
    """Sup-norm distance between the two cumulative distributions.

    CDFs are accumulated cell by cell in (k, j) order and compared at
    every cell boundary; both densities must live on the same partition.
    """
    _require_same_partition(a.breakpoints, b.breakpoints)
    k_lo = min(a.k_min, b.k_min)
    k_hi = max(a.k_max, b.k_max)
    ca, cb = (np.cumsum(np.pad(d.masses, ((d.k_min - k_lo, k_hi - d.k_max), (0, 0))))
              for d in (a, b))
    return float(np.max(np.abs(ca - cb)))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _half_integer_integrals(lift_map: PiecewiseLinearLiftMap):
    """Exact integrals of f and f^2 over one period, in one pass over the pieces.

    HalfIntegerValueError unless every piece end value is exactly some
    k + 1/2, the condition of both closed forms.  A piece of width w whose
    values sweep the integers c = a .. b - 1 splits at the preimages of
    half-integers into b - a subsegments of length L = w/(b - a), each
    adding c * L and (c^2 + 1/12) * L, with the sums over c in closed
    form, so the cost does not grow with the slopes.
    """
    if not lift_map.has_half_integer_values():
        raise HalfIntegerValueError(
            "closed form requires half-integer values at all piece endpoints")

    def squares_below(n):       # sum of c^2 over the integers 0 <= c < n
        return (n - 1) * n * (2 * n - 1) // 6

    bp, first, second = lift_map.breakpoints, Fraction(0), Fraction(0)
    for j in range(lift_map.n_pieces):
        # the integers just above the two end values
        a, b = sorted(int(float(v) + 0.5)
                      for v in (lift_map.left_values[j], lift_map.right_values[j]))
        width = Fraction(float(bp[j + 1])) - Fraction(float(bp[j]))
        first += width * (a + b - 1) / 2
        second += (squares_below(b) - squares_below(a) + Fraction(b - a, 12)) * width / (b - a)
    return first, second


def closed_form_d(lift_map: PiecewiseLinearLiftMap) -> float:
    """Exact diffusion coefficient for half-integer-valued piecewise maps.

    Requires every piece end value to be exactly some k + 1/2;
    HalfIntegerValueError is raised otherwise.  Then

        D = (1/2) * integral_{-1/2}^{1/2} |f(x)|^2 dx - 1/24 - drift^2/2,

    the spread lim Var(x_n)/(2n) about the mean that every method
    reports, with the drift of `closed_form_drift`.  D is summed exactly
    over the breakpoints as given and rounded once.
    """
    drift, square = _half_integer_integrals(lift_map)
    return float(square / 2 - Fraction(1, 24) - drift * drift / 2)


def closed_form_drift(lift_map: PiecewiseLinearLiftMap) -> float:
    """Exact drift of a half-integer-valued piecewise map.

    Under the condition of `closed_form_d`, each piece covers whole unit
    cells modulo 1, so the invariant density is uniform on [-1/2, 1/2)
    and the drift is the mean jump, integral_{-1/2}^{1/2} f(x) dx, summed
    exactly over the breakpoints as given and rounded once;
    HalfIntegerValueError is raised when an end value is off the grid.
    """
    return float(_half_integer_integrals(lift_map)[0])


def second_moment(tset: TransitionMatrixSet):
    """First and second moments (sigma1, sigma2) of the scalar jump law.

    Only defined for the unit partition (m = 1), where the matrices
    degenerate to the jump probabilities p_k.
    """
    if tset.m != 1:
        raise ValueError("second_moment needs the unit partition (m = 1)")
    ks = np.asarray(tset.shifts, dtype=float)
    ps = tset.matrices[:, 0, 0]
    return float(ks @ ps), float((ks**2) @ ps)


def heuristic_d(lam: float) -> float:
    """Independent-fractional-parts estimate D = (lam - 1)^2 / 24 (approximate).

    ValueError unless lam is a finite number (`reports.check_finite`)
    above 2, OverflowError when D is not a finite double.
    """
    lam = check_finite(lam, "lam")
    if lam <= 2.0:
        raise ValueError("the heuristic needs a stretching slope lam > 2")
    try:
        d = (lam - 1.0) ** 2 / 24.0
    except OverflowError:     # a float power raises where a product gives inf
        d = math.inf
    return _finite_result(d, "heuristic estimate of D")


def omega_factor(lam: float) -> float:
    """Correction factor 2 - 3|lam - 4| on [3, 5], period 2; finite lam >= 3 (`check_finite`)."""
    lam = check_finite(lam, "lam")
    if lam < 3.0:
        raise ValueError("omega correction is defined for lam >= 3")
    folded = 3.0 + math.fmod(lam - 3.0, 2.0)
    return 2.0 - 3.0 * abs(folded - 4.0)


def omega_approx_d(lam: float) -> float:
    """First-approximation D(lam) = (lam - 1)(lam - omega(lam)) / 24.

    ValueError unless lam is a finite number (`reports.check_finite`)
    >= 3, OverflowError when D is not a finite double.
    """
    lam = check_finite(lam, "lam")
    return _finite_result((lam - 1.0) * (lam - omega_factor(lam)) / 24.0, "omega estimate of D")
