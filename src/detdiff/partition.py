"""Markov partitions and the solvers that make a slope consistent with one.

A partition of the line is described by its cell boundaries inside
I0 = [-1/2, 1/2); integer translates tile the rest of the axis.  For the
linear map f(x) = lam * x, requiring every cell image to be an exact
union of cells turns the boundary conditions into an eigenproblem
lam * v = B v for v = (s_1..s_k, 1), and C = 2B has integer entries.
The solvability condition R(lam) = det(lam I - B) = 0 is computed
exactly, as primitive integer coefficients, from the characteristic
polynomial of C.  The slope is its largest real root, rounded to the
nearest double with integer Sturm counts at dyadic points, and the
breakpoints, three-cell family included, solve the defining rows exactly
at that double.  This exact layer loads no numpy and, of the package,
imports only `errors` and `reports`; the Markov rule, its report and
`validate_consistency` are in `transfer`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _EXPORTS
from .errors import PartitionError, RootSolveError, SystemStructureError
from .reports import _unit_breakpoints, check_finite

__all__ = _EXPORTS["partition"]

_RESIDUAL_TOL = 1e-13   # |R(lam)| at the solved slope must be below this


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovPartition:
    """Cell boundaries -1/2 = y_0 < y_1 < ... < y_m = 1/2 inside I0, by the map breakpoint rule."""

    breakpoints: tuple

    def __post_init__(self):
        object.__setattr__(self, "breakpoints",
                           _unit_breakpoints(self.breakpoints, "partition", PartitionError))

    @classmethod
    def symmetric(cls, positive_breakpoints: Sequence[float], include_zero: bool):
        """Partition symmetric about 0 from its positive interior breakpoints, finite numbers."""
        pos = sorted(check_finite(p, "positive breakpoint") for p in positive_breakpoints)
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

    def is_symmetric(self) -> bool:
        return self.breakpoints == tuple(-b for b in reversed(self.breakpoints))


# ---------------------------------------------------------------------------
# integer polynomials (coefficients low -> high) and their root
# ---------------------------------------------------------------------------


def _as_int(value):
    """value as an int, or None when it is not an integral number."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == value else None


def _peval(p, x):
    """Horner's rule: exact for an int x, one rounding per step for a float x."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _primitive(p):
    """p divided by its positive content."""
    g = math.gcd(*p)
    return [c // g for c in p]


def _pdivmod(a, b):
    """Pseudo-division |lead(b)|^e a = q b + r, so q and r keep the signs of a / b."""
    s, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    a, q = list(a), []
    while len(a) >= len(b):
        t = sign * a[-1]
        q = [t] + [s * c for c in q]
        a = [s * x - t * y for x, y in zip(a, [0] * (len(a) - len(b)) + list(b))][:-1]
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _sturm_chain(p):
    """Sturm chain of the square-free part of p, each member divided by its content."""
    chain = [_primitive(p), _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        rem = _pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            return _sturm_chain(_pdivmod(p, chain[-1])[0])   # chain[-1] = gcd(p, p')
        chain.append(_primitive([-c for c in rem]))
    return chain


def largest_real_root(int_coeffs):
    """Largest real root above 1 of an integer-coefficient polynomial.

    Returns the double nearest that root, certified in exact arithmetic.
    The Sturm chain counts the distinct roots above a point x = n / d,
    evaluated as integers p(x) * d^deg.  Bisection over doubles keeps the
    largest root in (lo, hi] until lo and hi are adjacent doubles; the
    count at their exact midpoint then picks the nearer one; hi starts
    above the exact Cauchy bound, capped at the largest double.  Raises
    ValueError for a non-integer coefficient, RootSolveError for a constant
    polynomial or no root above 1, PartitionError for a root above the cap.
    """
    p = [_as_int(c) for c in int_coeffs]
    if None in p:
        raise ValueError(f"coefficients {tuple(int_coeffs)} are not all integers")
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    if len(p) < 2:
        raise RootSolveError("polynomial is constant; no root to solve for")
    bound = 2 + Fraction(max(map(abs, p[:-1])), abs(p[-1]))        # every root is below it
    hi = min(math.nextafter(float(min(bound, sys.float_info.max)), math.inf), sys.float_info.max)
    chain = _sturm_chain(p)

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_infinity = changes([q[-1] > 0 for q in chain])

    def roots_above(x):
        n, d = x.as_integer_ratio()
        # q(n / d) * d^deg(q), an integer with the sign of q(n / d)
        values = (_peval([c * d ** (len(q) - 1 - i) for i, c in enumerate(q)], n) for q in chain)
        return changes([v > 0 for v in values if v]) - at_infinity

    lo = 1.0
    if not roots_above(lo):
        raise RootSolveError(
            f"no real root in ({lo}, {hi:.3g}] for coefficients {tuple(int_coeffs)}")
    if hi < bound and roots_above(hi):
        raise PartitionError("the largest real root exceeds the largest double")
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:      # lo + hi may overflow
        lo, hi = (mid, hi) if roots_above(mid) else (lo, mid)
    return hi if roots_above((Fraction(lo) + Fraction(hi)) / 2) else lo


# ---------------------------------------------------------------------------
# equation systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Equation:
    """One boundary condition: lam * lhs = const + coef * ref.

    `lhs` is an unknown name or the literal "half" standing for the fixed
    boundary 1/2.  `const` is an integer or half-integer, `coef` is -1, 0
    or +1, numbers (not strings or bools), and `ref` names another (or the same) unknown.
    """

    lhs: str
    const: Fraction
    coef: int = 0
    ref: str | None = None

    def __post_init__(self):
        try:
            const = None if isinstance(self.const, (str, bool)) else Fraction(self.const)
        except (TypeError, ValueError, OverflowError):
            const = None
        if const is None or const.denominator not in (1, 2):
            raise SystemStructureError(
                f"constant {self.const!r} is neither integer nor half-integer")
        coef = None if isinstance(self.coef, bool) else _as_int(self.coef)
        if coef not in (-1, 0, 1):
            raise SystemStructureError(f"coefficient {self.coef!r} must be -1, 0 or +1")
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "coef", coef)
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
        def name(value):
            if not isinstance(value, str):
                raise SystemStructureError(f"unknown names must be strings, got {value!r}")
            return value

        try:
            if not isinstance(data["unknowns"], list):    # a string would split into letters
                raise SystemStructureError(
                    f"unknowns must be a list of names, got {data['unknowns']!r}")
            unknowns = tuple(name(u) for u in data["unknowns"])
            eqs = []
            for raw in data["equations"]:
                target = raw["target"]
                if not isinstance(target, dict):
                    raise SystemStructureError(
                        f"equation target must be an object, got {target!r}")
                ref = target.get("ref")
                eqs.append(Equation(
                    lhs=name(raw["lhs"]),
                    const=target.get("const", 0),
                    coef=target.get("coef", 0),
                    ref=None if ref is None else name(ref),
                ))
        except (KeyError, TypeError) as exc:
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


def _matrix(system: PartitionEquationSystem):
    """The integer matrix C = 2B of the equations as lam * v = B v, v = (s_1..s_k, 1).

    Column j is unknown j and column k the constant 1, of which "half" is
    half.  Row `lhs` of C is 2 * const in column k and 2 * coef in the
    `ref` column; for lhs "half" the factors are 4, as lam * v_k = 2 * lam / 2.
    """
    k = len(system.unknowns)
    column = {name: j for j, name in enumerate(system.unknowns)}
    column["half"] = k
    c = [[0] * (k + 1) for _ in range(k + 1)]
    for eq in system.equations:
        i = column[eq.lhs]
        f = 4 if i == k else 2
        c[i][k] = int(f * eq.const)
        if eq.coef:
            j = column[eq.ref]
            c[i][j] += f * eq.coef // (2 if j == k else 1)
    return c


def _det_polynomial(c):
    """R(lam) = det(lam I - C / 2) as primitive integer coefficients, low -> high.

    The characteristic polynomial of the integer matrix C comes from the
    Faddeev-LeVerrier recursion M_k = C M_(k-1) + c_(n-k+1) I,
    c_(n-k) = -tr(C M_k) / k, whose divisions are exact, in O(n^3) with
    the zeros of C skipped; each row has at most two nonzeros, the `ref`
    and the affine column.  mu = 2 lam scales coefficient i by 2^i.
    """
    n = len(c)
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in c]
    m, poly = [[0] * n for _ in range(n)], [1]      # M_0 = 0, c_n = 1
    for k in range(1, n + 1):
        m = [[sum(v * m[j][col] for j, v in row) for col in range(n)] for row in rows]
        for i in range(n):
            m[i][i] += poly[-1]
        poly.append(-sum(v * m[j][i] for i, row in enumerate(rows) for j, v in row) // k)
    return tuple(_primitive([x << i for i, x in enumerate(reversed(poly))]))


def _solve(system: PartitionEquationSystem):
    """The root of R, the breakpoints at it, each rounded once, and R itself; no residual."""
    c = _matrix(system)
    poly = _det_polynomial(c)
    lam = largest_real_root(poly)
    k = len(system.unknowns)
    n, d = lam.as_integer_ratio()
    # the defining rows [2d (lam I - C / 2) | d C_k] hold integers: eliminate fraction-free
    a = [[(2 * n if i == j else 0) - d * x for j, x in enumerate(row[:k])] + [d * row[k]]
         for i, row in enumerate(c[:k])]
    steps = [(p, r) for p in range(k) for r in range(p + 1, k)]         # forward elimination
    steps += [(p, r) for p in reversed(range(k)) for r in range(p)]     # back-substitution
    for p, r in steps:
        if f := a[r][p]:
            a[r] = [a[p][p] * x - f * y for x, y in zip(a[r], a[p])]
    values = [row[k] / row[i] for i, row in enumerate(a)]       # int / int rounds once
    for name, v in zip(system.unknowns, values):
        if not 0.0 < v < 0.5:
            raise PartitionError(f"solved breakpoint {name} = {v!r} lies outside (0, 1/2)")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise PartitionError(
            f"inconsistent system: solved breakpoints are not strictly ordered: {values}")
    return lam, tuple(values), poly


def solve_partition_system(system: PartitionEquationSystem) -> SolvedPartition:
    """Eliminate the breakpoints, solve R(lam) = 0, back-substitute.

    The boundary system is lam * v = B v in v = (s_1..s_k, 1), C = 2B;
    R(lam) = det(lam I - B) comes exactly from the characteristic
    polynomial of C, as primitive integer coefficients of degree k + 1,
    and the slope is the double nearest its largest real root above 1.
    The k defining rows form lam I - B on the unknowns, each row with at
    most one +-1 in B, so for lam > 1 they have one solution, and at a
    root of R it satisfies the `half` row too.
    PartitionError is raised for a slope beyond the largest double and
    unless the breakpoints increase strictly inside (0, 1/2), then
    RootSolveError unless the float `residual` |R(lam)| is below 1e-13,
    an overflowing one included.
    """
    lam, breakpoints, poly = _solve(system)
    try:
        residual = abs(_peval(poly, lam))
    except OverflowError:       # a coefficient of R beyond the double range
        residual = math.inf
    if not residual < _RESIDUAL_TOL:
        raise RootSolveError(f"|R({lam!r})| = {residual:.3g} is not below {_RESIDUAL_TOL:g}")
    return SolvedPartition(lam, breakpoints, poly, residual)


def solve_three_interval(m: int, n: int, eps1: int, eps2: int):
    """Slope and breakpoint (lam, xi) of the symmetric three-cell family.

    The one-unknown system lam * xi = m + eps2 * xi, lam / 2 = n + eps1 * xi
    for integers 0 < m < n and eps1, eps2 in {-1, +1}, solved like
    `solve_partition_system` but without its residual gate.  In closed form,
    with d = (2n - eps2)^2 + 8 m eps1 >= (2n - 3)^2 > 0,
    lam = (2n + eps2 + sqrt(d)) / 2 and xi = 2m / (2n - eps2 + sqrt(d)).
    PartitionError is raised for m or n that are not such integers, for
    a slope beyond the largest double, and when xi is outside (0, 1/2).
    """
    ints = _as_int(m), _as_int(n)
    if None in ints or not 0 < ints[0] < ints[1]:
        raise PartitionError(f"need integers 0 < m < n, got m={m}, n={n}")
    m, n = ints
    if eps1 not in (-1, 1) or eps2 not in (-1, 1):
        raise PartitionError("eps1 and eps2 must be +1 or -1")
    lam, (xi,), _ = _solve(PartitionEquationSystem(
        ("xi",), (Equation("xi", m, eps2, "xi"), Equation("half", n, eps1, "xi"))))
    return lam, xi

