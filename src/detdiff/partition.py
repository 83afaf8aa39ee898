"""Markov partitions and the solvers that make a slope consistent with one.

A partition of the line is described by its cell boundaries inside
I0 = [-1/2, 1/2); integer translates tile the rest of the axis.  For the
linear map f(x) = lam * x, requiring every cell image to be an exact
union of cells turns the boundary conditions into a small linear system
whose coefficients are either integers or lam.  Its solvability
condition is a polynomial R(lam) = 0 with integer coefficients; the
slope is the largest real root.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import PartitionError, RootSolveError, SystemStructureError
from .maps import PiecewiseLinearLiftMap

__all__ = [
    "MarkovPartition",
    "Equation",
    "PartitionEquationSystem",
    "SolvedPartition",
    "solve_three_interval",
    "solve_partition_system",
    "largest_real_root",
    "ConsistencyReport",
    "validate_consistency",
]

_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovPartition:
    """Cell boundaries -1/2 = y_0 < y_1 < ... < y_m = 1/2 inside I0."""

    breakpoints: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        if len(bp) < 2:
            raise PartitionError("a partition needs at least two breakpoints")
        if abs(bp[0] + 0.5) > 1e-12 or abs(bp[-1] - 0.5) > 1e-12:
            raise PartitionError("partition must span exactly [-1/2, 1/2]")
        bp = (-0.5,) + bp[1:-1] + (0.5,)
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise PartitionError("partition breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)

    @classmethod
    def symmetric(cls, positive_breakpoints: Sequence[float], include_zero: bool):
        """Partition symmetric about 0 from its positive interior breakpoints."""
        pos = sorted(float(p) for p in positive_breakpoints)
        if any(not 0.0 < p < 0.5 for p in pos):
            raise PartitionError("positive breakpoints must lie strictly in (0, 1/2)")
        neg = [-p for p in reversed(pos)]
        mid = [0.0] if include_zero else []
        return cls(tuple([-0.5] + neg + mid + pos + [0.5]))

    @classmethod
    def unit(cls):
        return cls((-0.5, 0.5))

    @classmethod
    def half_integer(cls):
        return cls((-0.5, 0.0, 0.5))

    @property
    def m(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def cell_lengths(self) -> np.ndarray:
        return np.diff(np.asarray(self.breakpoints))

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        bp = np.asarray(self.breakpoints)
        return bool(np.all(np.abs(bp + bp[::-1]) <= tol))


# ---------------------------------------------------------------------------
# minimal exact polynomial arithmetic (Fraction coefficients, low -> high)
# ---------------------------------------------------------------------------


def _ptrim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return tuple(p)


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim(tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ))


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _ptrim(tuple(out))


def _pscale(a, c):
    return _ptrim(tuple(ai * c for ai in a))


def _peval(p, x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + float(c)
    return acc


def _pderiv(p):
    if len(p) <= 1:
        return (Fraction(0),)
    return _ptrim(tuple(i * p[i] for i in range(1, len(p))))


_PZERO = (Fraction(0),)


def _det_poly(rows):
    """Determinant of a small matrix of polynomials by cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = _PZERO
    for j in range(n):
        if rows[0][j] == _PZERO:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = _pmul(rows[0][j], _det_poly(minor))
        if j % 2:
            term = _pscale(term, -1)
        acc = _padd(acc, term)
    return acc


def _to_primitive_int(poly):
    """Clear denominators, divide the content, make the leading term positive."""
    denom = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * denom) for c in poly]
    content = math.gcd(*(abs(c) for c in ints)) or 1
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# root finding: descending bracket scan + bisection + Newton polish
# ---------------------------------------------------------------------------


def largest_real_root(int_coeffs, lower: float = 1.0, residual_tol: float = 1e-13):
    """Largest real root above `lower` of an integer-coefficient polynomial.

    Scans downward from the Cauchy bound for a sign change, bisects the
    bracket and polishes with Newton steps until |R| < residual_tol.
    Raises RootSolveError when no admissible root exists.
    """
    p = tuple(Fraction(c) for c in int_coeffs)
    p = _ptrim(p)
    if len(p) < 2:
        raise RootSolveError("polynomial is constant; no root to solve for")
    dp = _pderiv(p)
    lead = float(p[-1])
    hi = lower + 1.0 + max(abs(float(c) / lead) for c in p[:-1])

    steps = 4000
    grid = np.linspace(hi, lower, steps).tolist()
    vals = [_peval(p, x) for x in grid]
    a = b = None
    for i in range(steps - 1):
        if vals[i] == 0.0:
            a = b = grid[i]
            break
        if vals[i] * vals[i + 1] < 0:
            a, b = grid[i + 1], grid[i]
            break
    if a is None:
        raise RootSolveError(
            f"no real root in ({lower}, {hi:.3g}] for coefficients {tuple(int_coeffs)}")

    fa = _peval(p, a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = _peval(p, mid)
        if fm == 0.0:
            a = b = mid
            break
        if fa * fm < 0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a < 1e-12:
            break
    x = 0.5 * (a + b)
    for _ in range(60):
        fx = _peval(p, x)
        dfx = _peval(dp, x)
        if dfx == 0.0:
            break
        step = fx / dfx
        x -= step
        if abs(step) < 1e-17 * max(1.0, abs(x)):
            break
    if abs(_peval(p, x)) >= residual_tol:
        raise RootSolveError(
            f"root polish stalled at |R({x!r})| = {abs(_peval(p, x)):.3g}")
    return float(x)


# ---------------------------------------------------------------------------
# equation systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Equation:
    """One boundary condition: lam * lhs = const + coef * ref.

    `lhs` is an unknown name or the literal "half" standing for the fixed
    boundary 1/2.  `const` is an integer or half-integer, `coef` is -1, 0
    or +1 and `ref` names another (or the same) unknown.
    """

    lhs: str
    const: Fraction
    coef: int = 0
    ref: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "const", Fraction(self.const))
        if self.const.denominator not in (1, 2):
            raise SystemStructureError(
                f"constant {self.const} is neither integer nor half-integer")
        if self.coef not in (-1, 0, 1):
            raise SystemStructureError(f"coefficient {self.coef} must be -1, 0 or +1")
        if (self.coef == 0) != (self.ref is None):
            raise SystemStructureError("ref must be given exactly when coef is nonzero")


@dataclass(frozen=True)
class PartitionEquationSystem:
    """Boundary equations for the positive breakpoints of a symmetric partition."""

    unknowns: tuple
    equations: tuple

    def __post_init__(self):
        object.__setattr__(self, "unknowns", tuple(self.unknowns))
        object.__setattr__(self, "equations", tuple(self.equations))
        names = set(self.unknowns)
        if len(names) != len(self.unknowns):
            raise SystemStructureError("duplicate unknown names")
        lhs_counts = {n: 0 for n in names}
        halves = 0
        for eq in self.equations:
            if eq.lhs == "half":
                halves += 1
            elif eq.lhs in lhs_counts:
                lhs_counts[eq.lhs] += 1
            else:
                raise SystemStructureError(f"equation lhs {eq.lhs!r} is not an unknown")
            if eq.ref is not None and eq.ref != "half" and eq.ref not in names:
                raise SystemStructureError(f"equation ref {eq.ref!r} is not an unknown")
        if halves != 1:
            raise SystemStructureError("exactly one equation must have lhs 'half'")
        if any(c != 1 for c in lhs_counts.values()):
            raise SystemStructureError("every unknown needs exactly one defining equation")

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionEquationSystem":
        try:
            unknowns = tuple(str(u) for u in data["unknowns"])
            eqs = []
            for raw in data["equations"]:
                target = raw["target"]
                coef = Fraction(target.get("coef", 0))
                if coef.denominator != 1:
                    raise SystemStructureError(f"coefficient {target['coef']} is not an integer")
                eqs.append(Equation(
                    lhs=str(raw["lhs"]),
                    const=Fraction(target.get("const", 0)),
                    coef=int(coef),
                    ref=target.get("ref"),
                ))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SystemStructureError(f"malformed partition system: {exc}") from exc
        return cls(unknowns, tuple(eqs))

    def to_dict(self) -> dict:
        eqs = []
        for eq in self.equations:
            target = {"const": (int(eq.const) if eq.const.denominator == 1
                                else float(eq.const))}
            if eq.coef:
                target["coef"] = eq.coef
                target["ref"] = eq.ref
            eqs.append({"lhs": eq.lhs, "target": target})
        return {"unknowns": list(self.unknowns), "equations": eqs}


@dataclass(frozen=True)
class SolvedPartition:
    lam: float
    breakpoints: tuple          # solved positive breakpoints, ascending
    polynomial: tuple           # integer coefficients, low -> high
    residual: float             # |R(lam)| at the returned root


def _system_rows(system: PartitionEquationSystem):
    """Rows of the homogeneous linear system M(lam) . (s_1..s_k, 1) = 0.

    Entries are polynomials in lam.  One row per equation; the last
    column carries the affine part.
    """
    names = list(system.unknowns)
    index = {n: i for i, n in enumerate(names)}
    k = len(names)
    lam_poly = (Fraction(0), Fraction(1))

    rows = []
    for eq in system.equations:
        row = [_PZERO] * (k + 1)
        if eq.lhs == "half":
            row[k] = _padd(row[k], _pscale(lam_poly, _HALF))
        else:
            row[index[eq.lhs]] = _padd(row[index[eq.lhs]], lam_poly)
        row[k] = _padd(row[k], (Fraction(-eq.const),))
        if eq.coef:
            if eq.ref == "half":
                row[k] = _padd(row[k], (Fraction(-eq.coef) * _HALF,))
            else:
                row[index[eq.ref]] = _padd(row[index[eq.ref]], (Fraction(-eq.coef),))
        rows.append(row)
    return rows, names


def solve_partition_system(system: PartitionEquationSystem,
                           residual_tol: float = 1e-13) -> SolvedPartition:
    """Eliminate the breakpoints, solve R(lam) = 0, back-substitute.

    The solvability condition of the linear boundary system is the
    vanishing of its determinant, a polynomial in lam; denominators are
    cleared (a factor 2 from the half-integer constants) to give integer
    coefficients.  The returned slope is the largest real root above 1,
    with |R| below `residual_tol` after Newton polishing.  The system has
    one defining equation per unknown plus the `half` equation, so lam
    enters the k + 1 rows in distinct columns and R has degree k + 1.
    """
    rows, names = _system_rows(system)
    poly = _to_primitive_int(_det_poly(rows))
    lam = largest_real_root(poly, lower=1.0, residual_tol=residual_tol)

    k = len(names)
    if k:
        A = np.array([[_peval(rows[i][j], lam) for j in range(k)]
                      for i in range(len(rows))])
        b = -np.array([_peval(rows[i][k], lam) for i in range(len(rows))])
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        resid = float(np.max(np.abs(A @ sol - b)))
        if resid > 1e-8:
            raise SystemStructureError(
                f"back-substitution residual {resid:.3g}; system inconsistent at lam={lam!r}")
        values = [float(s) for s in sol]
    else:
        values = []

    for name, v in zip(names, values):
        if not 0.0 < v < 0.5:
            raise PartitionError(
                f"solved breakpoint {name} = {v!r} lies outside (0, 1/2)")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise PartitionError(
            f"inconsistent system: solved breakpoints are not strictly ordered: {values}")
    return SolvedPartition(
        lam=lam,
        breakpoints=tuple(values),
        polynomial=poly,
        residual=abs(_peval(tuple(Fraction(c) for c in poly), lam)),
    )


def solve_three_interval(m: int, n: int, eps1: int, eps2: int):
    """Closed-form slope and breakpoint of the symmetric three-cell family.

    Solves lam * xi = m + eps2 * xi together with lam / 2 = n + eps1 * xi
    for integers 0 < m < n and signs eps1, eps2 in {-1, +1}:

        lam = (2n + eps2 + sqrt((2n - eps2)^2 + 8 m eps1)) / 2
        xi  = 2m / (2n - eps2 + sqrt((2n - eps2)^2 + 8 m eps1))

    Returns (lam, xi).  Combinations with nonpositive discriminant,
    lam <= 1 or xi outside (0, 1/2) are rejected.
    """
    m, n = int(m), int(n)
    if not 0 < m < n:
        raise PartitionError(f"need integers 0 < m < n, got m={m}, n={n}")
    if eps1 not in (-1, 1) or eps2 not in (-1, 1):
        raise PartitionError("eps1 and eps2 must be +1 or -1")
    disc = (2 * n - eps2) ** 2 + 8 * m * eps1
    if disc <= 0:
        raise PartitionError(f"discriminant {disc} is not positive")
    root = math.sqrt(disc)
    lam = (2 * n + eps2 + root) / 2
    xi = 2 * m / (2 * n - eps2 + root)
    if lam <= 1.0:
        raise PartitionError(f"solved slope lam = {lam!r} is not above 1")
    if not 0.0 < xi < 0.5:
        raise PartitionError(f"solved breakpoint xi = {xi!r} is not interior to (0, 1/2)")
    for resid in (lam * xi - m - eps2 * xi, lam / 2 - n - eps1 * xi):
        if abs(resid) > 1e-12:
            raise PartitionError(f"defining equations violated by {resid:.3g}")
    return lam, xi


# ---------------------------------------------------------------------------
# consistency of a map with a partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    passed: bool
    worst_violation: float
    messages: tuple

    def __bool__(self):
        return self.passed


def _cell_images(lift_map: PiecewiseLinearLiftMap, partition: MarkovPartition):
    """The Markov rule, one maximal linear segment of the map at a time.

    The segments [lo, hi) are the map pieces refined by the cell
    boundaries.  Cell i of unit interval k is numbered k * m + i, so grid
    point g is the boundary k + y_i.  Each end of a segment's image is
    matched to its nearest grid point: the image covers cells
    first .. stop - 1, and `miss` is the larger distance of an end from
    its grid point (inf when the image covers no cell).  Yields
    (lo, hi, src, weight, first, stop, miss), with src the cell that
    holds the segment and weight = 1/|slope| the density it deposits on
    each covered cell.
    """
    bp = partition.breakpoints
    m = partition.m

    def grid_point(value):
        k = math.floor(value + 0.5)
        off = value - k
        dist, i = min((abs(b - off), i) for i, b in enumerate(bp))
        return k * m + i, dist

    cuts = np.union1d(bp, lift_map.breakpoints).tolist()
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        src = bisect.bisect_left(bp, mid) - 1
        piece = int(lift_map._piece_of(mid))
        slope = float(lift_map.slopes[piece])
        icpt = float(lift_map.intercepts[piece])
        (first, miss_lo), (stop, miss_hi) = map(
            grid_point, sorted((slope * lo + icpt, slope * hi + icpt)))
        miss = max(miss_lo, miss_hi) if stop > first else math.inf
        yield lo, hi, src, 1.0 / abs(slope), first, stop, miss


def validate_consistency(lift_map: PiecewiseLinearLiftMap,
                         partition: MarkovPartition,
                         tol: float = 1e-9) -> ConsistencyReport:
    """Check that the map sends each linear segment of a cell onto whole cells.

    The segments are the map pieces refined by the cell boundaries, so a
    cell may hold several whole pieces.  Each segment whose image ends
    lie more than `tol` from the integer-translated cell-boundary grid
    gets a message; `worst_violation` is the largest such distance, 0.0
    on a pass and inf when an image is too short to cover a single cell.
    This is the rule `build_transition_matrices` enforces; here it is
    diagnostics only and nothing is raised.
    """
    messages = []
    worst = 0.0
    for lo, hi, _, _, _, _, miss in _cell_images(lift_map, partition):
        if miss > tol:
            worst = max(worst, miss)
            messages.append(f"image of cell segment [{lo!r}, {hi!r}) "
                            f"misses the cell-boundary grid by {miss:.3g}")
    return ConsistencyReport(passed=not messages, worst_violation=worst,
                             messages=tuple(messages))
