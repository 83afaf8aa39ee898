import hashlib
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detdiff import (
    CASES,
    ConsistencyError,
    Equation,
    MapDefinitionError,
    MarkovPartition,
    PartitionEquationSystem,
    PartitionError,
    PiecewiseLinearLiftMap,
    RootSolveError,
    SystemStructureError,
    build_transition_matrices,
    largest_real_root,
    linear_map,
    solve_partition_system,
    solve_three_interval,
    validate_consistency,
    zigzag_map,
)
from detdiff.partition import _det_polynomial, _matrix, _solve

SQRT3 = math.sqrt(3.0)
SQRT33 = math.sqrt(33.0)


# ---------------------------------------------------------------------------
# MarkovPartition
# ---------------------------------------------------------------------------


def test_partition_basics():
    p = MarkovPartition.symmetric([0.2], include_zero=False)
    assert p.breakpoints == (-0.5, -0.2, 0.2, 0.5)
    assert p.m == 3
    assert p.cell_lengths.sum() == pytest.approx(1.0)
    assert p.is_symmetric()
    assert MarkovPartition.unit().m == 1
    assert MarkovPartition.half_integer().m == 2


def test_partition_symmetry_is_exact_negation():
    assert MarkovPartition.symmetric([0.1, 0.3], include_zero=True).is_symmetric()
    assert not MarkovPartition((-0.5, -0.2, 0.2 + 1e-13, 0.5)).is_symmetric()
    assert MarkovPartition.half_integer().is_symmetric()


def test_partition_validation():
    with pytest.raises(PartitionError):
        MarkovPartition((-0.4, 0.5))
    with pytest.raises(PartitionError):
        MarkovPartition((-0.5, 0.3, 0.2, 0.5))
    with pytest.raises(PartitionError):
        MarkovPartition.symmetric([0.7], include_zero=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_partition_rejects_non_finite_breakpoints(bad, at):
    # every comparison with NaN is false, so a NaN passes any span or order
    # test, at an end too.  Partitions and maps share the rule, so both
    # constructors are checked on every input
    bps = [-0.5, 0.1, 0.5]
    bps[at] = bad
    for build, error, what in [
            (MarkovPartition, PartitionError, "partition"),
            (lambda b: PiecewiseLinearLiftMap(b, [(-1.5, 1.5)] * 2), MapDefinitionError, "map")]:
        with pytest.raises(error) as err:
            build(tuple(bps))
        assert str(err.value) == f"{what} breakpoints {tuple(bps)!r} are not all finite"


# ---------------------------------------------------------------------------
# closed three-interval family
# ---------------------------------------------------------------------------


def test_three_interval_example():
    lam, xi = solve_three_interval(1, 2, +1, -1)
    assert lam == pytest.approx((3.0 + SQRT33) / 2.0, abs=1e-14)
    assert xi == pytest.approx(2.0 / (5.0 + SQRT33), abs=1e-14)
    assert abs(lam * xi - 1 - (-1) * xi) < 1e-12
    assert abs(lam / 2 - 2 - (+1) * xi) < 1e-12


def test_three_interval_boundary_rejected():
    # closed form gives xi = 1/2, not interior
    with pytest.raises(PartitionError):
        solve_three_interval(1, 2, -1, +1)


def test_three_interval_parameter_validation():
    with pytest.raises(PartitionError):
        solve_three_interval(2, 2, 1, 1)
    with pytest.raises(PartitionError):
        solve_three_interval(0, 2, 1, 1)
    with pytest.raises(PartitionError):
        solve_three_interval(1, 2, 0, 1)


@pytest.mark.parametrize("m,n", [(1, 2.5), (1.5, 3), (1, math.inf)])
def test_three_interval_rejects_non_integers(m, n):
    # int() would truncate 2.5 to 2 and solve the n = 2 system instead
    with pytest.raises(PartitionError, match="need integers"):
        solve_three_interval(m, n, 1, -1)


def test_residual_beyond_the_double_range():
    # the slope is a double but a coefficient of R, 2.4e308, is not: the
    # three-cell family takes no residual, and the residual gate names it
    m, n = 4 * 10 ** 307, 8 * 10 ** 307
    assert solve_three_interval(m, n, -1, 1) == (1.6e308, 0.25)
    with pytest.raises(RootSolveError, match=r"^\|R\(1\.6e\+308\)\| = inf is not below"):
        solve_partition_system(_three_interval_system(m, n, -1, 1))


def test_three_interval_rejects_a_slope_beyond_the_double_range():
    # lam > 2n - 3: the input is at fault, not the solver
    with pytest.raises(PartitionError, match="exceeds the largest double"):
        solve_three_interval(1, 10 ** 400, 1, 1)
    lam, xi = solve_three_interval(1, 10 ** 307, 1, 1)
    assert lam == 2e307 and 0 < xi < 0.5


def _three_interval_system(m, n, eps1, eps2):
    return PartitionEquationSystem(
        ("xi",),
        (Equation("xi", Fraction(m), eps2, "xi"),
         Equation("half", Fraction(n), eps1, "xi")),
    )


def _check_three_interval(m, n, eps1, eps2):
    """solve_three_interval against exact references; raises when it disagrees.

    lam is the double nearest the larger root of
    lam^2 - (2n + eps2) lam + 2(n eps2 - m eps1), xi is within 2 ulp of
    2m / (2n - eps2 + sqrt(d)), and the tuple is rejected exactly when
    that xi is not below 1/2, that is when sqrt(d) <= 4m - 2n + eps2.
    """
    d = (2 * n - eps2) ** 2 + 8 * m * eps1
    t = 4 * m - 2 * n + eps2
    if t >= 0 and d <= t * t:
        with pytest.raises(PartitionError):
            solve_three_interval(m, n, eps1, eps2)
        return
    lam, xi = solve_three_interval(m, n, eps1, eps2)
    assert 2 * lam > 2 * n + eps2
    assert _is_nearest_double_to_a_root(lam, (2 * (n * eps2 - m * eps1), -(2 * n + eps2), 1))
    with localcontext() as ctx:
        ctx.prec = 50
        exact = 2 * m / (2 * n - eps2 + Decimal(d).sqrt())
        assert abs(Decimal(xi) - exact) <= 2 * Decimal(math.ulp(xi))


def test_three_interval_family_against_exact_references():
    for n in range(2, 13):
        for m, eps1, eps2 in itertools.product(range(1, n), (-1, 1), (-1, 1)):
            _check_three_interval(m, n, eps1, eps2)


@pytest.mark.parametrize("m,n,eps1,eps2,lam", [
    (1, 2, 1, 1, 4.56155281280883),     # (5 + sqrt(17))/2 = 4.5615528128088302...
    (1, 100000, 1, 1, 200000.00001000005),    # its equations miss 0 by ~1e-12 in floats
])
def test_three_interval_examples(m, n, eps1, eps2, lam):
    assert solve_three_interval(m, n, eps1, eps2)[0] == lam
    _check_three_interval(m, n, eps1, eps2)


@pytest.mark.parametrize("m,n", [(7, 8), (18, 19), (20, 21)])
def test_a_boundary_breakpoint_is_rejected_by_both_solvers(m, n):
    # lam = 2n - 1 and xi = m / (lam - 1) = 1/2 exactly: the cell (xi, 1/2) is empty
    with pytest.raises(PartitionError):
        solve_three_interval(m, n, -1, 1)
    with pytest.raises(PartitionError):
        solve_partition_system(_three_interval_system(m, n, -1, 1))


# ---------------------------------------------------------------------------
# general systems: golden polynomials and roots
# ---------------------------------------------------------------------------


def test_system_quadratic_case():
    case = CASES["two-plus-sqrt3"]
    solved = solve_partition_system(case.system)
    assert solved.polynomial == (1, -4, 1)
    assert solved.lam == pytest.approx(2.0 + SQRT3, abs=1e-13)
    assert solved.breakpoints[0] == pytest.approx((2.0 - SQRT3) / 2.0, abs=1e-13)
    assert solved.residual < 1e-13


def test_system_cubic_case():
    case = CASES["cubic-4p71"]
    solved = solve_partition_system(case.system)
    assert solved.polynomial == (3, -4, -4, 1)
    assert solved.lam == pytest.approx(case.lam, abs=1e-12)


def test_system_quartic_case():
    case = CASES["quartic-3p98"]
    solved = solve_partition_system(case.system)
    assert solved.polynomial == (1, 0, 0, -4, 1)
    assert solved.lam == pytest.approx(case.lam, abs=1e-12)
    assert solved.breakpoints[2] == pytest.approx(1.0 / (2.0 * solved.lam), abs=1e-12)


@pytest.mark.parametrize("name", list(CASES))
def test_all_catalog_systems(name):
    case = CASES[name]
    solved = solve_partition_system(case.system)
    assert solved.polynomial == case.polynomial
    assert solved.lam == case.lam
    assert solved.residual < 1e-13
    np.testing.assert_allclose(solved.breakpoints, case.positive_breakpoints,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", list(CASES))
def test_root_against_numpy_oracle(name):
    # independent root oracle for the Sturm-certified root
    coeffs = CASES[name].polynomial
    roots = np.roots(list(coeffs)[::-1])
    real = roots[np.abs(roots.imag) < 1e-9].real
    expected = float(np.max(real))
    assert largest_real_root(coeffs) == pytest.approx(expected, abs=1e-12)


def test_largest_real_root_errors():
    with pytest.raises(RootSolveError):
        largest_real_root((1, 0, 1))        # x^2 + 1: no real root
    with pytest.raises(RootSolveError):
        largest_real_root((2, 1))           # root at -2 < 1
    with pytest.raises(RootSolveError):
        largest_real_root((5,))             # constant
    with pytest.raises(ValueError, match="not all integers"):
        largest_real_root((1.5, -4, 1))     # not truncated to (1, -4, 1)


def _exact(coeffs, x):
    return sum(Fraction(c) * Fraction(x) ** i for i, c in enumerate(coeffs))


def _times(coeffs, q, p):
    """coeffs (low -> high) times q*x - p."""
    return [q * a - p * b for a, b in zip([0] + list(coeffs), list(coeffs) + [0])]


@pytest.mark.parametrize("coeffs,expected", [
    ((9000003, -6000001, 1000000), 3.000001),                       # roots 3, 3.000001
    (tuple(_times((9000003, -6000001, 1000000), 1, 2)), 3.000001),  # ... and 2
    ((9, -6, 1), 3.0),                                              # (x - 3)^2
    ((-18, 21, -8, 1), 3.0),                                        # (x - 3)^2 (x - 2)
    # the root is above 2 + float(-c0) / 5 in doubles: the bound must be exact
    ((-4395320446360605889, 5), float(Fraction(4395320446360605889, 5))),
    ((9, -6, 1, 0, 0), 3.0),                                        # trailing zeros dropped
])
def test_largest_real_root_close_and_repeated_roots(coeffs, expected):
    assert largest_real_root(coeffs) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-300, 300), st.integers(1, 97)), min_size=1, max_size=9),
       st.lists(st.integers(1, 50), max_size=2))
def test_largest_real_root_is_the_nearest_double(factors, squares):
    # a product of factors q*x - p, repeats allowed, whose roots are the p/q, and
    # of x^2 + c without real roots.  Up to degree 13 with large p and q, the
    # pseudo-remainders grow and carry a content, and the complex roots give
    # chain members with negative leading terms
    coeffs = [1]
    for p, q in factors:
        coeffs = _times(coeffs, q, p)
    for c in squares:
        coeffs = [c * a + b for a, b in zip(coeffs + [0, 0], [0, 0] + coeffs)]
    above = [Fraction(p, q) for p, q in factors if Fraction(p, q) > 1]
    if not above:
        with pytest.raises(RootSolveError):
            largest_real_root(coeffs)
        return
    root = max(above)
    x = largest_real_root(coeffs)
    for neighbour in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
        assert abs(Fraction(x) - root) <= abs(Fraction(neighbour) - root)


def _chain_system(k):
    """lam xi_1 = xi_2, ..., lam xi_k = 1/2, lam/2 = 2 - xi_1."""
    names = tuple(f"xi{i}" for i in range(1, k + 1))
    eqs = [Equation(names[i], Fraction(0), 1, names[i + 1]) for i in range(k - 1)]
    eqs.append(Equation(names[-1], Fraction(1, 2)))
    eqs.append(Equation("half", Fraction(2), -1, names[0]))
    return PartitionEquationSystem(names, tuple(eqs))


def _is_nearest_double_to_a_root(x, coeffs):
    """A root lies between the midpoints of x and its two neighbouring doubles."""
    below = (Fraction(math.nextafter(x, 0.0)) + Fraction(x)) / 2
    above = (Fraction(math.nextafter(x, math.inf)) + Fraction(x)) / 2
    return _exact(coeffs, below) * _exact(coeffs, above) < 0


@pytest.mark.parametrize("k", range(1, 13))
def test_chain_polynomial_and_correctly_rounded_root(k):
    poly = (1,) + (0,) * (k - 1) + (-4, 1)          # x^(k+1) - 4x^k + 1
    assert _det_polynomial(_matrix(_chain_system(k))) == poly
    assert _is_nearest_double_to_a_root(largest_real_root(poly), poly)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 12])       # the chains that pass the gate
def test_chain_breakpoints_are_accurate(k):
    # xi_i = lam^-(k+1-i) / 2 at the exact root, Newton-polished in decimal
    solved = solve_partition_system(_chain_system(k))
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(solved.lam)
        for _ in range(4):
            x -= (x - 4 + 1 / x ** k) / (1 - k / x ** (k + 1))
        for i, xi in enumerate(solved.breakpoints, start=1):
            exact = 1 / (2 * x ** (k + 1 - i))
            assert abs(Decimal(xi) - exact) <= 4 * Decimal(2) ** -52 * exact


def _elimination_det(m):
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    m, det = [list(row) for row in m], Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for row in m[c + 1:]:
            f = row[c] / m[c][c]
            row[c:] = [a - f * b for a, b in zip(row[c:], m[c][c:])]
    return det


@st.composite
def _systems(draw):
    """Valid systems with 0-6 unknowns; a ref may be any unknown or half, cycles allowed."""
    names = [f"x{i}" for i in range(draw(st.integers(0, 6)))]
    eqs = []
    for lhs in names + ["half"]:
        const = Fraction(draw(st.integers(-8, 8)), 2)
        coef = draw(st.sampled_from((-1, 0, 1)))
        ref = draw(st.sampled_from(names + ["half"])) if coef else None
        eqs.append(Equation(lhs, const, coef, ref))
    return PartitionEquationSystem(tuple(names), tuple(draw(st.permutations(eqs))))


def _pencil(system):
    """(A0, A1) with (A0 + lam A1) (s_1..s_k, 1) = 0, straight from the equations.

    Row i is lam * lhs - const - coef * ref, where an unknown is its unit
    vector and "half" is 1/2 in the last, affine, column.
    """
    k = len(system.unknowns)
    value = {name: [Fraction(j == i) for j in range(k + 1)]
             for i, name in enumerate(system.unknowns)}
    value["half"] = [Fraction(0)] * k + [Fraction(1, 2)]
    value[None] = [Fraction(0)] * (k + 1)
    one = [Fraction(0)] * k + [Fraction(1)]
    a0 = [[-eq.const * c - eq.coef * r for c, r in zip(one, value[eq.ref])]
          for eq in system.equations]
    a1 = [value[eq.lhs] for eq in system.equations]
    return a0, a1


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_det_polynomial_is_exact(system):
    # det(A0 + t A1) = kappa R(t) at n + 2 points t, with one nonzero kappa
    a0, a1 = _pencil(system)
    poly = _det_polynomial(_matrix(system))
    assert len(poly) == len(a0) + 1 and math.gcd(*poly) == 1 and poly[-1] > 0
    kappas = set()
    for t in range(len(a0) + 2):
        det = _elimination_det([[x + t * y for x, y in zip(r0, r1)] for r0, r1 in zip(a0, a1)])
        value = _exact(poly, t)
        assert (det == 0) == (value == 0)
        if value:
            kappas.add(det / value)
    assert len(kappas) == 1 and 0 not in kappas


def _cramer_breakpoints(system, lam):
    """The defining rows at lam, from `_pencil`, solved by Cramer's rule over Fractions."""
    a0, a1 = _pencil(system)
    rows = [[x + lam * y for x, y in zip(r0, r1)]
            for r0, r1, eq in zip(a0, a1, system.equations) if eq.lhs != "half"]
    a, b = [row[:-1] for row in rows], [-row[-1] for row in rows]
    det = _elimination_det(a)
    return [_elimination_det([row[:i] + [bi] + row[i + 1:] for row, bi in zip(a, b)]) / det
            for i in range(len(a))]


def _is_nearest_double(x, exact):
    """exact lies between the midpoints of x and its two neighbouring doubles."""
    return (Fraction(math.nextafter(x, -math.inf)) + Fraction(x) <= 2 * exact
            <= Fraction(math.nextafter(x, math.inf)) + Fraction(x))


_FAMILIES = {
    "catalog": {name: case.system for name, case in CASES.items()},
    "chains": {k: _chain_system(k) for k in range(1, 13)},
    "three-interval": {(m, n, e1, e2): _three_interval_system(m, n, e1, e2)
                       for n in range(2, 14) for m in range(1, min(n, 12))
                       for e1, e2 in itertools.product((1, -1), repeat=2)},
}


@pytest.mark.parametrize("family", _FAMILIES)
def test_breakpoints_are_correctly_rounded(family):
    # each breakpoint is the double nearest the exact solution of the
    # defining rows at the returned double lam
    raised = []
    for name, system in _FAMILIES[family].items():
        try:
            lam, breakpoints, _ = _solve(system)
        except PartitionError:
            raised.append(name)
            continue
        exact = _cramer_breakpoints(system, Fraction(lam))
        assert all(map(_is_nearest_double, breakpoints, exact)), name
    # lam = 2n - 1 and xi = 1/2 exactly, as in
    # test_a_boundary_breakpoint_is_rejected_by_both_solvers
    assert raised == ([(m, m + 1, -1, 1) for m in range(1, 12)] if family == "three-interval"
                      else [])


# sha256 of the repr of (name, lam, breakpoints, polynomial, residual), one
# line per solved system, in the order of _pinned_systems(), so a changed
# output bit shows here.  lam, the polynomials and the residuals agree with
# an independent implementation (cofactor determinant, grid scan and Newton
# polish); the breakpoints are the doubles nearest the exact solution of the
# defining rows at lam (test_breakpoints_are_correctly_rounded).
_PINNED_SOLUTIONS = "640484125ea489844803977a6f309a3a4f4bf1865a9425aa8d9b5c4bb3b4ac11"


def _pinned_systems():
    return {**{name: case.system for name, case in CASES.items()},
            "from_dict": PartitionEquationSystem.from_dict(_SPEC_EXAMPLE),
            **{f"chain-{k}": _chain_system(k) for k in range(1, 13)}}


def test_solver_outputs_are_pinned():
    lines, raised = [], []
    for name, system in _pinned_systems().items():
        try:
            s = solve_partition_system(system)
        except RootSolveError:
            raised.append(name)
            continue
        lines.append(repr((name, s.lam, s.breakpoints, s.polynomial, s.residual)))
    # |R| of these chain roots fails the absolute 1e-13 gate of the solver
    assert raised == [f"chain-{k}" for k in (6, 7, 9, 10, 11)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _PINNED_SOLUTIONS


def test_system_structure_validation():
    with pytest.raises(SystemStructureError):
        PartitionEquationSystem(("xi",), (Equation("xi", Fraction(1)),))  # no half
    with pytest.raises(SystemStructureError):
        PartitionEquationSystem(
            ("xi",),
            (Equation("xi", Fraction(1)), Equation("xi", Fraction(1)),
             Equation("half", Fraction(2))))
    with pytest.raises(SystemStructureError):
        Equation("xi", Fraction(1, 3))      # not a half-integer constant
    with pytest.raises(SystemStructureError):
        Equation("xi", Fraction(1), 2, "xi")
    with pytest.raises(SystemStructureError):
        Equation("xi", Fraction(1), 0.5, "xi")
    with pytest.raises(SystemStructureError, match="^ref must be given exactly when coef"):
        Equation("xi", Fraction(1), 0, "xi")
    half = Equation("half", Fraction(2))
    for unknowns, eq, message in ((("xi", "xi"), Equation("xi", Fraction(1)), "duplicate"),
                                  (("xi",), Equation("eta", Fraction(1)), "lhs 'eta'"),
                                  (("xi",), Equation("xi", Fraction(1), 1, "eta"), "ref 'eta'")):
        with pytest.raises(SystemStructureError, match=message):
            PartitionEquationSystem(unknowns, (eq, half))
    with pytest.raises(SystemStructureError):
        solve_partition_system(PartitionEquationSystem(
            ("xi",), (Equation("half", Fraction(2)),)))  # equation count


def test_equation_coefficient_becomes_an_int():
    # the integer matrix of the solver needs an int coef, not -1.0
    eq = Equation("half", 2, -1.0, "xi")
    assert type(eq.coef) is int and eq == Equation("half", 2, -1, "xi")
    system = PartitionEquationSystem(("xi",), (Equation("xi", Fraction(1, 2)), eq))
    assert solve_partition_system(system).polynomial == (1, -4, 1)


def test_system_breakpoint_interiority():
    # lam*xi = 0 + xi forces xi = 0: rejected as non-interior
    system = PartitionEquationSystem(
        ("xi",),
        (Equation("xi", Fraction(0), 1, "xi"), Equation("half", Fraction(2))))
    with pytest.raises(PartitionError):
        solve_partition_system(system)


def test_system_breakpoint_ordering():
    # lam = 4 forces xi1 = 1/lam > xi2 = 1/(2 lam), both inside (0, 1/2)
    system = PartitionEquationSystem(
        ("xi1", "xi2"),
        (Equation("xi1", Fraction(1)),
         Equation("xi2", Fraction(1, 2)),
         Equation("half", Fraction(2))))
    with pytest.raises(PartitionError, match=r"not strictly ordered: \[0\.25, 0\.125\]"):
        solve_partition_system(system)


_SPEC_EXAMPLE = {
    "unknowns": ["xi1", "xi2"],
    "equations": [
        {"lhs": "xi1", "target": {"const": 1.5}},
        {"lhs": "xi2", "target": {"const": 2, "coef": -1, "ref": "xi1"}},
        {"lhs": "half", "target": {"const": 2, "coef": 1, "ref": "xi2"}},
    ],
}


def test_from_dict_matches_spec_schema():
    system = PartitionEquationSystem.from_dict(_SPEC_EXAMPLE)
    solved = solve_partition_system(system)
    assert solved.polynomial == (3, -4, -4, 1)
    assert solved.lam == pytest.approx(CASES["cubic-4p71"].lam, abs=1e-12)
    back = system.to_dict()
    assert PartitionEquationSystem.from_dict(back) == system


def test_from_dict_malformed():
    with pytest.raises(SystemStructureError):
        PartitionEquationSystem.from_dict({"unknowns": ["xi"]})


def test_from_dict_rejects_a_string_of_unknowns():
    # "ab" is not split into the unknowns a and b
    data = {"unknowns": "ab",
            "equations": [{"lhs": "a", "target": {"const": 0.5}},
                          {"lhs": "b", "target": {"const": 1.5}},
                          {"lhs": "half", "target": {"const": 2, "coef": -1, "ref": "a"}}]}
    with pytest.raises(SystemStructureError, match="unknowns must be a list of names, got 'ab'"):
        PartitionEquationSystem.from_dict(data)


@pytest.mark.parametrize("target", [{"const": 0.3}, {"const": 0.5, "coef": -1.7, "ref": "xi"},
                                    {"const": float("inf")}, {"const": "1/2"},
                                    {"coef": "-1", "ref": "xi"}, {"const": True}])
def test_from_dict_rejects_instead_of_rounding(target):
    # 0.3 is no half-integer and -1.7 no integer: neither is rounded to one;
    # a string is not parsed and True is not the number 1
    data = {"unknowns": ["xi"],
            "equations": [{"lhs": "xi", "target": target},
                          {"lhs": "half", "target": {"const": 2, "coef": -1, "ref": "xi"}}]}
    with pytest.raises(SystemStructureError):
        PartitionEquationSystem.from_dict(data)


def test_from_dict_accepts_integral_floats():
    data = {"unknowns": ["xi"],
            "equations": [{"lhs": "xi", "target": {"const": 1.5, "coef": -1.0, "ref": "xi"}},
                          {"lhs": "half", "target": {"const": 2.0, "coef": -1, "ref": "xi"}}]}
    system = PartitionEquationSystem.from_dict(data)
    assert system.equations == (Equation("xi", Fraction(3, 2), -1, "xi"),
                                Equation("half", Fraction(2), -1, "xi"))


# ---------------------------------------------------------------------------
# consistency checks
# ---------------------------------------------------------------------------


def test_consistency_pass_examples():
    assert validate_consistency(linear_map(3.0), MarkovPartition.unit())
    assert validate_consistency(linear_map(4.0), MarkovPartition.half_integer())


def test_consistency_failure_with_violation():
    report = validate_consistency(linear_map(3.7), MarkovPartition.unit())
    assert not report
    assert report.worst_violation == pytest.approx(0.35, abs=1e-9)
    assert report.messages


def _own_partition(lift_map):
    return MarkovPartition(tuple(lift_map.breakpoints))


_DRIFT = PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-0.5, 1.5), (-0.5, 0.5)])
_SLOPE4 = PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-2.5, -0.5), (0.5, 2.5)])
_ZIGZAG = zigzag_map(1, 0.25)
# a piece 1e-10 wide whose image lies within tol of one grid point
_SLIVER = PiecewiseLinearLiftMap([-0.5, 0.5 - 1e-10, 0.5],
                                 [(-0.5, 0.5 - 3e-10), (0.5 - 3e-10, 0.5)])
_RULE_PAIRS = {
    **{name: (case.lift_map(), case.partition()) for name, case in CASES.items()},
    **{f"linear-{lam}-{label}": (linear_map(lam), part)
       for lam in (3.0, 4.0, 5.0, 3.7, 2.5)
       for label, part in (("unit", MarkovPartition.unit()),
                           ("half", MarkovPartition.half_integer()))},
    # two pieces in one cell, each mapping onto whole cells
    "drift-unit": (_DRIFT, MarkovPartition.unit()),
    "drift-own": (_DRIFT, _own_partition(_DRIFT)),
    "slope4-unit": (_SLOPE4, MarkovPartition.unit()),
    "zigzag-own": (_ZIGZAG, _own_partition(_ZIGZAG)),
    "sliver-unit": (_SLIVER, MarkovPartition.unit()),
    # every image end on the grid, but too many cells for the matrices
    "linear-1000000001-unit": (linear_map(1000000001.0), MarkovPartition.unit()),
    # xi = 1/(2 lam) rounded: every image end within 1e-9 of the grid, but
    # the matrices lose mass by 4.31e-10, 3.11e-11 and 8.88e-12
    **{f"two-plus-sqrt3-xi-{digits}-digits": (
        linear_map(2.0 + SQRT3), MarkovPartition.symmetric(
            [round(1.0 / (2.0 * (2.0 + SQRT3)), digits)], include_zero=False))
       for digits in (9, 10, 11)},
}


def _one_verdict(lift_map, part):
    """Whether the map is Markov on part, after asserting that validate and build agree."""
    report = validate_consistency(lift_map, part)
    try:
        build_transition_matrices(lift_map, part)
    except ConsistencyError as exc:
        assert report.messages[:1] == (str(exc),) and not report
        return False
    assert report and report.messages == ()
    return True


@pytest.mark.parametrize("name", list(_RULE_PAIRS))
def test_consistency_agrees_with_matrix_build(name):
    _one_verdict(*_RULE_PAIRS[name])


@pytest.mark.parametrize("name", list(CASES))
def test_solved_partitions_get_one_verdict_with_and_without_zero(name):
    case = CASES[name]
    solved = solve_partition_system(case.system)
    verdicts = [_one_verdict(linear_map(solved.lam),
                             MarkovPartition.symmetric(solved.breakpoints, include_zero))
                for include_zero in (False, True)]
    assert verdicts[case.include_zero]      # the catalog partition is one of the two


@pytest.mark.parametrize("name", list(CASES))
def test_solver_output_is_consistent(name):
    case = CASES[name]
    solved = solve_partition_system(case.system)
    part = MarkovPartition.symmetric(solved.breakpoints, case.include_zero)
    report = validate_consistency(linear_map(solved.lam), part)
    assert report, report.messages
