"""Transfer-operator matrices over a consistent Markov partition.

For a map that is linear on every partition cell, one application of the
Perron-Frobenius operator sends a density that is constant per cell to
another such density.  The action is encoded by finitely many m x m
matrices p_j indexed by the integer shift j: entry (i, l) of p_j is the
density deposited into cell i of the j-th translated unit interval by a
unit density on cell l of the fundamental interval.

The characteristic matrix P(t) = sum_j p_j e^(i j t) governs the lattice
dynamics; its leading eigenvalue z(t) carries the transport
coefficients: drift = Im z'(0) and D = -Re (ln z)''(0) / 2 = lim
Var(x_n) / (2n), the one D every method reports.  The z(t)
curve comes from the dense spectrum of P(t); D, the drift and the
stationary density come from one bordered linear system at t = 0
(second-order eigenvalue perturbation), with no step size, no
iteration and no eigensolve: irreducibility is decided on the support
graph of E = P(0).
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _EXPORTS
from .errors import ConsistencyError, EigenConvergenceError, IrreducibilityError, PartitionError
from .maps import PiecewiseLinearLiftMap, _finite, _label
from .partition import ConsistencyReport, MarkovPartition
from .reports import _unit_breakpoints, check_finite

__all__ = _EXPORTS["transfer"]

_GRID_TOL = 1e-9        # Markov rule: how far an image end may miss the cell-boundary grid
_SPAN_MAX = 100_000     # Markov rule: how many cells one segment's image may cover
_MASS_TOL = 1e-12       # Markov rule: how far the matrices may change a cell's mass


@dataclass(frozen=True)
class TransitionMatrixSet:
    """Shift-indexed transfer matrices plus the cells they act on, by the breakpoint rule."""

    shifts: tuple                 # distinct integers, ascending
    matrices: np.ndarray          # (n_shifts, m, m), finite and nonnegative
    breakpoints: tuple            # partition breakpoints inside I0

    def __post_init__(self):
        bp = _unit_breakpoints(self.breakpoints, "transition matrix set", PartitionError)
        shifts = tuple(self.shifts)
        integral = all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in shifts)
        if not integral or any(a >= b for a, b in zip(shifts, shifts[1:])):
            raise ValueError(f"shifts must be distinct integers in ascending order, not {shifts}")
        matrices = np.asarray(self.matrices, dtype=float)
        want = (len(shifts), len(bp) - 1, len(bp) - 1)
        if matrices.shape != want:
            raise ValueError(f"matrices must have the shape (shifts, cells, cells) = {want}, "
                             f"not {matrices.shape}")
        if not np.all((matrices >= 0) & (matrices < np.inf)):      # NaN fails both
            raise ValueError("matrix entries must be finite and nonnegative")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "shifts", tuple(map(int, shifts)))
        object.__setattr__(self, "matrices", matrices)

    @property
    def m(self) -> int:
        return self.matrices.shape[1]

    @property
    def cell_lengths(self) -> np.ndarray:
        return np.diff(np.asarray(self.breakpoints))

    def matrix(self, shift: int) -> np.ndarray:
        try:
            return self.matrices[self.shifts.index(shift)]
        except ValueError:
            return np.zeros((self.m, self.m))

    def total(self) -> np.ndarray:
        """E = sum_j p_j, the transfer matrix of the compactified system."""
        return self.matrices.sum(axis=0)

    def mass_residual(self) -> float:
        """Worst violation of per-cell mass conservation."""
        lengths = self.cell_lengths
        col_mass = np.einsum("sij,i->j", self.matrices, lengths)
        return float(np.max(np.abs(col_mass - lengths)))

    def to_json_dict(self) -> dict:
        """Shift -> row-major entries, for golden tests and reports."""
        return {str(s): [float(v) for v in mat.ravel()]
                for s, mat in zip(self.shifts, self.matrices)}


def _markov_verdict(lift_map: PiecewiseLinearLiftMap, partition: MarkovPartition):
    """The Markov rule, whole: (transfer matrices or None, ConsistencyReport).

    The segments [lo, hi) are the map pieces refined by the cell
    boundaries.  Cell i of unit interval k is numbered k * m + i, so grid
    point g is the boundary k + y_i.  Each end of a segment's image is
    matched to its nearest grid point, and the image covers cells
    first .. stop - 1.  Both ends must lie within _GRID_TOL of their grid
    points (the miss is inf when the image covers no cell) and the image
    may cover at most _SPAN_MAX cells; each covered cell then gets
    density 1/|slope| from the segment's cell, in the shift matrix of its
    unit interval.  When every segment passes, the matrices must also
    keep each cell's mass to _MASS_TOL.  Each failure is one message; the
    matrices come back only with a passing report.
    """
    bp = partition.breakpoints
    m = partition.m

    def grid_point(value):
        k = int(_label(value))
        off = value - k
        dist, i = min((abs(b - off), i) for i, b in enumerate(bp))
        return k * m + i, dist

    pieces = lift_map.breakpoints.tolist()
    cuts = sorted({*bp, *pieces})   # np.union1d imports numpy.ma
    matrices: dict[int, np.ndarray] = {}
    messages, worst = [], 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        src = bisect.bisect_left(bp, mid) - 1
        piece = bisect.bisect_right(pieces, mid) - 1
        slope = float(lift_map.slopes[piece])
        icpt = float(lift_map.intercepts[piece])
        (first, miss_lo), (stop, miss_hi) = map(
            grid_point, sorted((slope * lo + icpt, slope * hi + icpt)))
        miss = max(miss_lo, miss_hi) if stop > first else math.inf
        segment = f"image of cell segment [{lo!r}, {hi!r})"
        if miss > _GRID_TOL:
            worst = max(worst, miss)
            messages.append(f"{segment} misses the cell-boundary grid by {miss:.3g}")
        elif stop - first > _SPAN_MAX:
            messages.append(f"{segment} spans {stop - first} cells, more than {_SPAN_MAX}")
        else:
            weight = 1.0 / abs(slope)
            for g in range(first, stop):
                k, i = divmod(g, m)
                matrices.setdefault(k, np.zeros((m, m)))[i, src] += weight
    tset = None
    if not messages:
        shifts = tuple(sorted(matrices))
        tset = TransitionMatrixSet(shifts, np.stack([matrices[s] for s in shifts]), bp)
        if (resid := tset.mass_residual()) > _MASS_TOL:
            messages.append(f"mass conservation violated by {resid:.3g}")
            tset = None
    return tset, ConsistencyReport(not messages, worst, tuple(messages))


def build_transition_matrices(lift_map: PiecewiseLinearLiftMap,
                              partition: MarkovPartition) -> TransitionMatrixSet:
    """Transfer matrices of a map over a consistent partition.

    Every maximal linear segment of the map inside a cell must map onto
    an exact union of (integer-translated) cells; each covered cell
    receives density 1/|slope|.  The one Markov rule, grid miss, span
    limit and mass check, is `_markov_verdict`, whose report
    `validate_consistency` returns; here its first message is raised as
    ConsistencyError.

    Parameters
    ----------
    lift_map : PiecewiseLinearLiftMap
    partition : MarkovPartition
        Cell boundaries; usually every map breakpoint is one of them, in
        which case each cell carries a single slope.  Cells containing
        several whole pieces are also accepted.
    """
    tset, report = _markov_verdict(lift_map, partition)
    if not report:
        raise ConsistencyError(report.messages[0])
    return tset


def characteristic_matrix(tset: TransitionMatrixSet, t: float) -> np.ndarray:
    """P(t) = sum_j p_j e^(i j t); equals E at t = 0.  t finite by `reports.check_finite`."""
    phases = np.exp(1j * check_finite(t, "t") * np.asarray(tset.shifts, dtype=float))
    return np.tensordot(phases, tset.matrices, axes=(0, 0))


def leading_eigenpair(matrix: np.ndarray,
                      warm_start: Optional[np.ndarray] = None):
    """Dominant eigenpair from the dense spectrum.

    Without a warm start the eigenvalue of largest modulus is returned; with
    one, the eigenvector that overlaps it most selects the branch, keeping
    z(t) continuous along a sweep in t.  A non-finite entry raises ValueError.

    Returns
    -------
    (z, v) : complex eigenvalue and unit eigenvector with a fixed phase
        convention (largest component real positive).
    """
    try:
        vals, vecs = np.linalg.eig(_finite(matrix, "eigensolver", complex))
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"dense eigensolver failed: {exc}") from exc
    if warm_start is None:
        k = int(np.argmax(np.abs(vals)))
    else:
        k = int(np.argmax(np.abs(np.conj(warm_start) @ vecs)))
    v = vecs[:, k]
    top = int(np.argmax(np.abs(v)))
    return complex(vals[k]), v * (abs(v[top]) / v[top])


def leading_eigenvalue(matrix: np.ndarray,
                       warm_start: Optional[np.ndarray] = None) -> complex:
    """Eigenvalue of largest modulus (branch-continued when warm-started)."""
    z, _ = leading_eigenpair(matrix, warm_start=warm_start)
    return z


def _spectral_core(tset: TransitionMatrixSet):
    """Stationary density, drift and D from one bordered matrix.

    With cell lengths l (the left eigenvector of E = sum_j p_j), P1 =
    sum_j j p_j and P2 = sum_j j^2 p_j, the bordered matrix
    K = [[I - E, l], [l^T, 0]] is solved twice.  Right-hand side [0; 1]
    gives alpha (E alpha = alpha, l.alpha = 1) and [P1 alpha - drift
    alpha; 0] gives y (the group inverse of I - E applied to the
    centred current).  The border multiplier vanishes in both because
    l^T (I - E) = 0.  Then drift = l P1 alpha = Im z'(0) and
    D = l P2 alpha / 2 + l P1 y - drift^2 / 2 = -Re (ln z)''(0) / 2, the
    second cumulant rate: second-order perturbation of the unit
    eigenvalue, the matrix form of the Taylor-Green-Kubo formula.

    Both solves need E irreducible, so that eigenvalue 1 is simple with
    a positive eigenvector (Perron-Frobenius).  For a nonnegative matrix
    that is a fact of its support graph, and E > 0 is the exact support
    (each entry is a sum of positive weights 1/|slope|), so the test is
    reachability between all cells, with no threshold.  The check that
    the solved alpha is positive stays as a guard on rounding: K's
    condition grows like 1/delta when E's second eigenvalue is 1 - delta.

    Returns (alpha, drift, d, solve_residual).
    """
    m = tset.m
    lengths = tset.cell_lengths
    E = tset.total()
    # entry (i, l): some path of at most m - 1 edges l -> i in the support of E
    unreached = np.argwhere(~np.linalg.matrix_power((E > 0) | np.eye(m, dtype=bool), m - 1))
    if len(unreached):
        raise IrreducibilityError(f"cell {unreached[0][0]} cannot be reached from cell "
                                  f"{unreached[0][1]}; the transfer matrix is reducible")

    shifts = np.asarray(tset.shifts, dtype=float)
    P1 = np.tensordot(shifts, tset.matrices, axes=(0, 0))
    P2 = np.tensordot(shifts**2, tset.matrices, axes=(0, 0))
    K = np.zeros((m + 1, m + 1))
    K[:m, :m] = np.eye(m) - E
    K[:m, m] = lengths
    K[m, :m] = lengths

    rhs_alpha = np.zeros(m + 1)
    rhs_alpha[m] = 1.0
    sol_alpha = np.linalg.solve(K, rhs_alpha)
    alpha = sol_alpha[:m]
    # a float guard: alpha > 0 in exact arithmetic, but K's condition grows like 1/delta
    if np.min(alpha) <= 0:
        raise IrreducibilityError("stationary density is not strictly positive")
    drift = float(lengths @ P1 @ alpha)

    rhs_y = np.append(P1 @ alpha - drift * alpha, 0.0)
    sol_y = np.linalg.solve(K, rhs_y)
    d = float(0.5 * lengths @ P2 @ alpha + lengths @ P1 @ sol_y[:m] - 0.5 * drift * drift)

    residual = max(float(np.max(np.abs(K @ sol - rhs)))
                   for sol, rhs in ((sol_alpha, rhs_alpha), (sol_y, rhs_y)))
    return alpha, drift, d, residual


def stationary_density(tset: TransitionMatrixSet) -> np.ndarray:
    """Per-cell stationary density of the compactified dynamics.

    The positive right eigenvector of E = sum_j p_j at eigenvalue 1,
    normalised so that sum_j alpha_j * len_j = 1 (unit mass over one
    period).  Raises IrreducibilityError when some cell cannot be reached
    from another through the support of E, or when the solved density
    is not strictly positive.
    """
    return _spectral_core(tset)[0]


@dataclass
class DiffusionReport:
    """Transport coefficients with provenance of the method that produced them."""

    d: float
    drift: float
    method: str
    alpha: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "d": float(self.d),
            "drift": float(self.drift),
            "method": self.method,
            "diagnostics": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                            for k, v in self.diagnostics.items()},
        }
        if self.alpha is not None:
            out["alpha"] = [float(a) for a in self.alpha]
        return out


def diffusion_spectral(tset: TransitionMatrixSet) -> DiffusionReport:
    """Diffusion coefficient and drift from the leading eigenvalue z(t) of P(t).

    D = -Re (ln z)''(0) / 2 = lim Var(x_n) / (2n), the spread about the
    mean, and drift = Im z'(0), exact up to rounding: second-order
    perturbation of the unit eigenvalue of E by two solves with one
    bordered matrix, not differences of z(t).  The `solve_residual`
    diagnostic is the max-abs residual of those two solves.
    """
    alpha, drift, d, residual = _spectral_core(tset)
    return DiffusionReport(
        d=d,
        drift=drift,
        method="spectral",
        alpha=alpha,
        diagnostics={
            "solve_residual": residual,
            "mass_residual": tset.mass_residual(),
        },
    )
