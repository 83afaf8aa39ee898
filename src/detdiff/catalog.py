"""Catalog of exactly solvable slopes with consistent symmetric partitions.

Each case records a boundary-equation system for the positive cell
breakpoints of a symmetric Markov partition, the slope lam solving it
(largest real root of the eliminated integer polynomial), and the exact
transport data of the linear map f(x) = lam * x over that partition:
the diffusion coefficient and the per-cell stationary densities, both
closed rational functions of lam obtained by eliminating the eigenvalue
problem of the transfer matrices by hand.

The numbers here are reference data, derived independently of the
numerical solvers in this package; the test suite checks the solvers
against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _EXPORTS
from .maps import PiecewiseLinearLiftMap, linear_map
from .partition import Equation, MarkovPartition, PartitionEquationSystem

__all__ = _EXPORTS["catalog"]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)
_SQRT7 = math.sqrt(7.0)

# largest real roots of the cubic/quartic cases, polished to full precision
_LAM_CUBIC_A = 4.713584661871094      # x^3 - 4x^2 - 4x + 3
_LAM_CUBIC_B = 4.2133107250596975     # x^3 - 4x^2 + x - 8
_LAM_QUARTIC = 3.984188231211512      # x^4 - 4x^3 + 1


@dataclass(frozen=True)
class SolvableCase:
    """One solvable slope: equation system, partition layout, exact results."""

    name: str
    description: str
    lam: float
    polynomial: tuple                  # integer coefficients, low -> high
    system: PartitionEquationSystem
    include_zero: bool
    positive_breakpoints: tuple
    d: float
    alpha: tuple

    def partition(self) -> MarkovPartition:
        return MarkovPartition.symmetric(self.positive_breakpoints, self.include_zero)

    def lift_map(self) -> PiecewiseLinearLiftMap:
        return linear_map(self.lam)


def _sys(unknowns, *eqs):
    return PartitionEquationSystem(
        tuple(unknowns),
        tuple(Equation(lhs, Fraction(c), coef, ref) for lhs, c, coef, ref in eqs),
    )


def _mirror(*half):
    """Symmetric list with an odd cell count; the middle entry is listed once."""
    return tuple(half) + tuple(reversed(half[:-1]))


def _mirror_even(*half):
    """Symmetric list with an even cell count."""
    return tuple(half) + tuple(reversed(half))


def _build_cases():
    cases = []

    lam = 2.0 + _SQRT3
    cases.append(SolvableCase(
        name="two-plus-sqrt3",
        description="3 symmetric cells; lam*xi = 1/2, lam/2 = 2 - xi",
        lam=lam,
        polynomial=(1, -4, 1),
        system=_sys(["xi"],
                    ("xi", Fraction(1, 2), 0, None),
                    ("half", 2, -1, "xi")),
        include_zero=False,
        positive_breakpoints=(1.0 / (2.0 * lam),),
        d=(lam + 1.0) / (6.0 * (lam - 1.0)),                 # = sqrt(3)/6
        alpha=_mirror((7.0 * lam - 2.0) / (6.0 * lam), lam / (lam + 1.0)),
    ))

    lam = 3.0 + _SQRT6
    cases.append(SolvableCase(
        name="three-plus-sqrt6",
        description="3 symmetric cells; lam*xi = 3/2, lam/2 = 3 - xi",
        lam=lam,
        polynomial=(3, -6, 1),
        system=_sys(["xi"],
                    ("xi", Fraction(3, 2), 0, None),
                    ("half", 3, -1, "xi")),
        include_zero=False,
        positive_breakpoints=(3.0 / (2.0 * lam),),
        d=(31.0 * lam - 16.0) / (36.0 * lam - 24.0),
        alpha=_mirror((3.0 * lam - 2.0) / (2.0 * (lam + 1.0)), lam / 6.0),
    ))

    lam = 2.0 + _SQRT7
    cases.append(SolvableCase(
        name="two-plus-sqrt7",
        description="3 symmetric cells; lam*xi = 3/2, lam/2 = 2 + xi",
        lam=lam,
        polynomial=(-3, -4, 1),
        system=_sys(["xi"],
                    ("xi", Fraction(3, 2), 0, None),
                    ("half", 2, 1, "xi")),
        include_zero=False,
        positive_breakpoints=(3.0 / (2.0 * lam),),
        d=(9.0 * lam + 2.0) / (13.0 * lam + 9.0),            # = (55*sqrt7 - 119)/42
        alpha=_mirror((4.0 * lam + 3.0) / (2.0 * (2.0 * lam + 3.0)),
                      lam / (9.0 - lam)),
    ))

    lam = 1.0 + _SQRT3
    cases.append(SolvableCase(
        name="one-plus-sqrt3",
        description="4 symmetric cells (0 included); lam*xi = 1, lam/2 = 1 + xi",
        lam=lam,
        polynomial=(-2, -2, 1),
        system=_sys(["xi"],
                    ("xi", 1, 0, None),
                    ("half", 1, 1, "xi")),
        include_zero=True,
        positive_breakpoints=(1.0 / lam,),
        d=1.0 / (2.0 * (lam + 2.0)),                          # = (3 - sqrt3)/12
        alpha=_mirror_even(1.0 / (4.0 - lam),
                           (lam + 1.0) / (2.0 * (lam - 1.0))),
    ))

    lam = 2.0 + _SQRT2
    cases.append(SolvableCase(
        name="two-plus-sqrt2",
        description="4 symmetric cells (0 included); lam*xi = 1, lam/2 = 2 - xi",
        lam=lam,
        polynomial=(2, -4, 1),
        system=_sys(["xi"],
                    ("xi", 1, 0, None),
                    ("half", 2, -1, "xi")),
        include_zero=True,
        positive_breakpoints=(1.0 / lam,),
        d=0.25,
        alpha=_mirror_even((lam - 1.0) / 2.0,
                           (2.0 * lam - 1.0) / (2.0 * lam)),
    ))

    lam = _LAM_CUBIC_A
    cases.append(SolvableCase(
        name="cubic-4p71",
        description="5 symmetric cells; lam*xi1 = 3/2, lam*xi2 = 2 - xi1, lam/2 = 2 + xi2",
        lam=lam,
        polynomial=(3, -4, -4, 1),
        system=_sys(["xi1", "xi2"],
                    ("xi1", Fraction(3, 2), 0, None),
                    ("xi2", 2, -1, "xi1"),
                    ("half", 2, 1, "xi2")),
        include_zero=False,
        positive_breakpoints=(3.0 / (2.0 * lam),
                              (4.0 * lam - 3.0) / (2.0 * lam**2)),
        d=(81.0 * lam**2 + 69.0 * lam - 55.0) / (131.0 * lam**2 + 99.0 * lam - 93.0),
        alpha=_mirror((4.0 * lam**2 + 4.0 * lam - 3.0) / (4.0 * lam**2 + 8.0 * lam - 9.0),
                      (5.0 * lam**2 + 4.0 * lam - 3.0) / (4.0 * lam**2 + 8.0 * lam - 9.0),
                      2.0 * lam * (lam - 1.0) / (33.0 * lam - 4.0 * lam**2 - 33.0)),
    ))

    lam = _LAM_CUBIC_B
    cases.append(SolvableCase(
        name="cubic-4p21",
        description="6 symmetric cells (0 included); lam*xi1 = xi2, lam*xi2 = 2 - xi1, "
                    "lam/2 = 2 + xi1",
        lam=lam,
        polynomial=(-8, 1, -4, 1),
        system=_sys(["xi1", "xi2"],
                    ("xi1", 0, 1, "xi2"),
                    ("xi2", 2, -1, "xi1"),
                    ("half", 2, 1, "xi1")),
        include_zero=True,
        positive_breakpoints=(2.0 / (lam**2 + 1.0), 2.0 * lam / (lam**2 + 1.0)),
        d=(14.0 * lam**2 + 2.0 * lam + 9.0) / (2.0 * (18.0 * lam**2 + 5.0 * lam + 22.0)),
        alpha=_mirror_even((lam**2 + 1.0) / (3.0 * lam**2 - 8.0 * lam + 1.0),
                           (lam**2 + 2.0) / (3.0 * lam**2 - 8.0 * lam + 1.0),
                           (lam**2 + lam + 2.0) / (3.0 * lam**2 - 8.0 * lam + 1.0)),
    ))

    lam = _LAM_QUARTIC
    cases.append(SolvableCase(
        name="quartic-3p98",
        description="7 symmetric cells; lam*xi1 = xi2, lam*xi2 = xi3, lam*xi3 = 1/2, "
                    "lam/2 = 2 - xi1",
        lam=lam,
        polynomial=(1, 0, 0, -4, 1),
        system=_sys(["xi1", "xi2", "xi3"],
                    ("xi1", 0, 1, "xi2"),
                    ("xi2", 0, 1, "xi3"),
                    ("xi3", Fraction(1, 2), 0, None),
                    ("half", 2, -1, "xi1")),
        include_zero=False,
        positive_breakpoints=(1.0 / (2.0 * lam**3), 1.0 / (2.0 * lam**2),
                              1.0 / (2.0 * lam)),
        d=1.0 / (4.0 * (lam - 3.0)),
        alpha=_mirror(lam / (4.0 * (lam - 3.0)), lam / 4.0,
                      lam * (lam**2 - 3.0 * lam - 3.0) / (4.0 * (lam - 3.0)),
                      lam**2 / 4.0 - 0.75 - 5.0 / (2.0 * (lam - 3.0))),
    ))

    cases.append(SolvableCase(
        name="even-4",
        description="2 half-integer cells; lam/2 = 2",
        lam=4.0,
        polynomial=(-4, 1),
        system=_sys([], ("half", 2, 0, None)),
        include_zero=True,
        positive_breakpoints=(),
        d=0.25,                                               # (lam-1)(lam-2)/24
        alpha=(1.0, 1.0),
    ))

    return {c.name: c for c in cases}


CASES = _build_cases()

#: the nine reference cases, in catalog order
GOLDEN_NAMES = tuple(CASES)
