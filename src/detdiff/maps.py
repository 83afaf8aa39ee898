"""Piecewise-linear lifting maps on the real line.

A lifting map is defined by its restriction to the fundamental interval
I0 = [-1/2, 1/2) and extended to the whole line through the lift-1
identity f(k + x) = k + f(x) for every integer k.  The restriction is
piecewise linear: finite, strictly increasing breakpoints x_0 = -1/2 <
... < x_m = 1/2, by the rule that partition cells share, and, for each
piece, the pair of endpoint values (f(x_{j-1}+), f(x_j-)).  Pieces may
be mutually discontinuous, but every piece must have nonzero slope.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import _EXPORTS
from .errors import MapDefinitionError
from .reports import _as_real, _unit_breakpoints, check_count, check_finite

__all__ = _EXPORTS["maps"]

_HALF = 0.5

# Interval indices are exact in doubles only below 2**53.
_MAX_INDEX = float(2**53)


def _label(x, out=None):
    """floor(x + 1/2), unchecked, into `out` if given: the one rule of [x) and {x), as doubles."""
    return np.floor(np.add(x, _HALF, out=out), out=out)


def _real(x, what: str):
    """x as a float array by `reports._as_real`: integer and float arrays pass, an object
    array entry by entry; else ValueError "<what> requires real input, not <kind>"."""
    if (arr := np.asarray(x)).dtype.kind in "iuf":
        return arr.astype(float, copy=False)
    if arr.dtype.kind == "O" and None not in (reals := [_as_real(v) for v in arr.flat]):
        return np.array(reals, dtype=float).reshape(arr.shape)
    kind = {"b": "bool", "U": "text", "S": "bytes", "c": "complex"}.get(arr.dtype.kind, arr.dtype)
    raise ValueError(f"{what} requires real input, not {kind}")


def _finite(x, what: str, dtype=float):
    """x as a `dtype` array (by `_real` if float); ValueError "<what> requires finite input"."""
    arr = _real(x, what) if dtype is float else np.asarray(x, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} requires finite input")
    return arr


def _finite_result(value, what: str):
    """value itself if all finite; else OverflowError "<what> double precision" ("x overflows")."""
    if not np.all(np.isfinite(value)):
        raise OverflowError(f"{what} double precision")
    return value


def nearest_integer(x):
    """Nearest-integer label [x): the k with x in [k - 1/2, k + 1/2).

    Ties at half-integers round up, consistent with the half-open cells.
    Scalars return ``int``, arrays return an int64 array; OverflowError
    for an array label outside the int64 range [-2^63, 2^63).
    """
    arr = _finite(x, "nearest_integer")
    k = _label(arr)
    if arr.ndim == 0:
        return int(k)
    if k.size and not (-2.0**63 <= k.min() and k.max() < 2.0**63):
        raise OverflowError("nearest_integer of an array needs labels in the "
                            "int64 range [-2^63, 2^63); pass scalars for larger ones")
    return k.astype(np.int64)


def fractional_part(x):
    """Signed fractional part {x) = x - [x), lying in [-1/2, 1/2)."""
    arr = _finite(x, "fractional_part")
    k = _label(arr)
    if arr.ndim == 0:
        return float(arr - k)
    return np.subtract(arr, k, out=k)


class Interval(NamedTuple):
    """Closed interval; empty when hi < lo."""

    lo: float
    hi: float

    @property
    def is_empty(self) -> bool:
        return self.hi < self.lo

    @property
    def width(self) -> float:
        return 0.0 if self.is_empty else self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return (not self.is_empty) and (self.lo - slack <= x <= self.hi + slack)


EMPTY_INTERVAL = Interval(math.inf, -math.inf)


class PiecewiseLinearLiftMap:
    """Piecewise-linear map on I0 = [-1/2, 1/2) with its lift-1 extension.

    Parameters
    ----------
    breakpoints : sequence of float
        Finite and strictly increasing, first -1/2 and last +1/2 (ends
        within 1e-12 are snapped): the rule of `MarkovPartition` too.
    values : sequence of (float, float)
        One pair of finite numbers (`check_finite`) per piece: the value at
        the left end and the value approached at the right end of the piece.
        Equal endpoint values (zero slope) are rejected.
    """

    def __init__(self, breakpoints: Sequence[float], values: Sequence[Sequence[float]]):
        bp = np.array(_unit_breakpoints(breakpoints, "map", MapDefinitionError))
        try:
            vals = [(a, b) for a, b in values]
        except (TypeError, ValueError) as exc:
            raise MapDefinitionError(f"map values must be number pairs ({exc})") from None
        if len(vals) != bp.size - 1:
            raise MapDefinitionError(
                f"{bp.size - 1} pieces require {bp.size - 1} value pairs, got {len(vals)}")

        self.breakpoints = bp
        self.left_values, self.right_values = (
            np.array([check_finite(v, "map value") for v in side]) for side in zip(*vals))
        with np.errstate(over="ignore", invalid="ignore"):
            self.slopes = (self.right_values - self.left_values) / np.diff(bp)
            self.intercepts = self.left_values - self.slopes * bp[:-1]
        # an infinite slope makes its intercept infinite or NaN
        if np.any(self.slopes == 0.0) or not np.isfinite(self.intercepts).all():
            raise MapDefinitionError("every piece needs a nonzero finite slope and intercept")

    # -- basic queries ------------------------------------------------

    @property
    def n_pieces(self) -> int:
        return self.slopes.size

    def min_slope(self) -> float:
        """Minimum of |slope| over the pieces (the stretching constant)."""
        return float(np.min(np.abs(self.slopes)))

    def is_stretching(self) -> bool:
        return self.min_slope() > 1.0

    def has_half_integer_values(self) -> bool:
        """True when every piece endpoint value v is exactly some k + 1/2.

        Below 2^52, K - 1/2 is exact for K = [v), so v is on the grid when
        K - 1/2 == v (v + 1/2 == K would pass 0.5 + 2^-53, as 1 + 2^-53 rounds
        to 1); no double of magnitude 2^52 or more is k + 1/2.
        """
        v = np.concatenate([self.left_values, self.right_values])
        return bool(np.all(np.abs(v) < 2.0**52) and np.all(_label(v) - _HALF == v))

    # -- evaluation ---------------------------------------------------

    def _fraction_scratch(self, shape):
        """Buffers of `_map_fraction` for fractions of `shape`; None for one-piece maps.

        Per fraction they hold the piece index, its count in the narrowest
        type that fits it, one comparison and one coefficient, so a caller
        that steps the same fractions many times allocates them once.
        """
        if self.n_pieces == 1:
            return None
        return (np.empty(shape, dtype=np.intp),
                np.empty(shape, dtype=np.min_scalar_type(self.n_pieces - 1)),
                np.empty(shape, dtype=bool), np.empty(shape))

    def _map_fraction(self, u, scratch=None):
        """f on I0 in place, u <- slopes[j]*u + intercepts[j]: the ensemble map step.

        `scratch` comes from `_fraction_scratch(u.shape)`; without it the
        step allocates its own.  The piece index j is the number of
        interior breakpoints <= u.
        """
        if self.n_pieces == 1:
            u *= self.slopes[0]
            # outputs are cell + u, and no cell is -0.0, so skipping the
            # + 0.0 that would turn a -0.0 fraction into 0.0 changes no bit
            if self.intercepts[0] != 0.0:
                u += self.intercepts[0]
            return u
        j, count, hit, coef = self._fraction_scratch(np.shape(u)) if scratch is None else scratch
        # counting in a byte, not in the index, halves the counting time
        count[...] = 0
        for b in self.breakpoints[1:-1]:
            count += np.greater_equal(u, b, out=hit)
        np.copyto(j, count)
        # mode="clip" writes straight into `out`; "raise" would buffer
        u *= np.take(self.slopes, j, out=coef, mode="clip")
        u += np.take(self.intercepts, j, out=coef, mode="clip")
        return u

    def _eval_array(self, x):
        """Vectorised evaluation without finiteness checks: k + f(x - k), k the cell of x."""
        k = _label(x)
        return k + self._map_fraction(x - k)

    def __call__(self, x):
        arr = _finite(x, "map evaluation")
        out = self._eval_array(arr)
        return float(out) if arr.ndim == 0 else out

    def shift(self, x):
        """Shift function s(x) = f(x) - x; 1-periodic by construction."""
        arr = _finite(x, "shift evaluation")
        out = self._eval_array(arr) - arr
        return float(out) if arr.ndim == 0 else out

    # -- serialisation ------------------------------------------------

    def to_spec(self) -> dict:
        return {
            "type": "pieces",
            "breakpoints": [float(b) for b in self.breakpoints],
            "values": [[float(a), float(b)]
                       for a, b in zip(self.left_values, self.right_values)],
        }

    def __repr__(self):
        return (f"PiecewiseLinearLiftMap({self.n_pieces} pieces, "
                f"min|slope|={self.min_slope():.4g})")


# -- constructors -----------------------------------------------------


def linear_map(lam: float) -> PiecewiseLinearLiftMap:
    """The single-piece map f(x) = lam * x on I0, for a finite (`check_finite`) lam != 0."""
    lam = check_finite(lam, "lam")
    if lam == 0.0:
        raise MapDefinitionError("linear map needs a nonzero slope")
    return PiecewiseLinearLiftMap([-_HALF, _HALF], [(-lam / 2, lam / 2)])


def zigzag_map(p: int, xi: float) -> PiecewiseLinearLiftMap:
    """Odd three-piece map with f(0)=0, f(xi)=p+1/2 and f(1/2)=1/2.

    The rising middle piece carries [-xi, xi] to [-(p+1/2), p+1/2]; the
    outer pieces fall back to +-1/2 at the interval ends.  p is an integer
    >= 1 (`check_count`) and xi a finite number (`check_finite`).
    """
    p, xi = check_count(p, 1, "p"), check_finite(xi, "xi")
    if not 0.0 < xi < _HALF:
        raise MapDefinitionError("zigzag map needs 0 < xi < 1/2")
    peak = p + _HALF
    return PiecewiseLinearLiftMap(
        [-_HALF, -xi, xi, _HALF],
        [(-_HALF, -peak), (-peak, peak), (peak, _HALF)],
    )


def map_from_spec(spec: dict) -> PiecewiseLinearLiftMap:
    """Build a map from its JSON-style description.

    Three forms are accepted::

        {"type": "linear", "lambda": 3.0}
        {"type": "zigzag", "p": 1, "xi": 0.25}
        {"type": "pieces", "breakpoints": [...], "values": [[a, b], ...]}
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise MapDefinitionError("map spec must be an object with a 'type' field")
    kind = spec["type"]
    try:
        if kind == "linear":
            return linear_map(spec["lambda"])
        if kind == "zigzag":
            return zigzag_map(spec["p"], spec["xi"])
        if kind == "pieces":
            return PiecewiseLinearLiftMap(spec["breakpoints"], spec["values"])
    except KeyError as exc:
        raise MapDefinitionError(f"map spec is missing field {exc}") from exc
    raise MapDefinitionError(f"unknown map type {kind!r}")


# -- spec-named operation aliases ------------------------------------


def eval_map(lift_map: PiecewiseLinearLiftMap, x):
    """Evaluate the lifted map anywhere on the line."""
    return lift_map(x)


def shift_function(lift_map: PiecewiseLinearLiftMap, x):
    return lift_map.shift(x)


def validate_stretching(lift_map: PiecewiseLinearLiftMap) -> float:
    """Return min |slope| over the pieces; the caller compares with 1."""
    return lift_map.min_slope()


# -- routes -----------------------------------------------------------


def compute_route(lift_map: PiecewiseLinearLiftMap, x0: float, n: int) -> tuple:
    """Labels [x) of x0, ..., f^(n-1)(x0); finite x0 (`check_finite`), integer n >= 1."""
    n, x = check_count(n, 1, "n"), check_finite(x0, "x0")
    route = []
    for _ in range(n):
        if abs(x) >= _MAX_INDEX:
            raise OverflowError("interval index exceeded the exact-integer range")
        route.append(int(_label(x)))
        x = float(lift_map._eval_array(np.asarray(x)))
    return tuple(route)


def _preimages_in_cell(lift_map, segments, cell):
    """Preimages of the given closed segments inside unit cell `cell`.

    Returns a merged list of closed segments.  Pieces are handled one by
    one, so non-monotone maps produce several branches.
    """
    bp = lift_map.breakpoints
    out = []
    for j in range(lift_map.n_pieces):
        s, t = lift_map.slopes[j], lift_map.intercepts[j]
        d0, d1 = bp[j], bp[j + 1]
        for lo, hi in segments:
            # in cell coordinates: f(cell + u) = cell + s*u + t
            a = (lo - cell - t) / s
            b = (hi - cell - t) / s
            if a > b:
                a, b = b, a
            a, b = max(a, d0), min(b, d1)
            if a <= b:
                out.append((cell + a, cell + b))
    if not out:
        return []
    out.sort()
    merged = [out[0]]
    for lo, hi in out[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def reconstruct_initial(lift_map: PiecewiseLinearLiftMap, route) -> Interval:
    """Interval of starting points whose route begins with the given labels.

    Built by nesting preimages backwards from the last visited cell.  The
    result is the closed hull of all admissible branches; its width is at
    most min|slope|^-(n-1) for maps that are injective on each unit cell.
    An empty interval signals an inadmissible route; each label is an
    integer by `reports.check_count`, or ValueError.
    """
    route = tuple(check_count(k, None, "route label") for k in route)
    if not route:
        raise ValueError("route must be nonempty")
    if not lift_map.is_stretching():
        raise MapDefinitionError("route reconstruction requires min |slope| > 1")
    segments = [(route[-1] - _HALF, route[-1] + _HALF)]
    for cell in reversed(route[:-1]):
        segments = _preimages_in_cell(lift_map, segments, cell)
        if not segments:
            return EMPTY_INTERVAL
    return Interval(segments[0][0], segments[-1][1])
