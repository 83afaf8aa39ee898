"""Exception hierarchy shared across the package.

Validation-type errors (bad inputs, inconsistent definitions) are kept
separate from numerical failures (root finding, eigen-solvers, overflow),
and `exit_code` is the one rule that tells them apart, so callers such as
the CLI map them to distinct exit codes.
"""


class DetdiffError(Exception):
    """Base class for all package-specific errors."""


class MapDefinitionError(DetdiffError):
    """A piecewise-linear lift map definition violates its invariants."""


class PartitionError(DetdiffError):
    """A partition definition or solved partition violates its invariants."""


class ConsistencyError(DetdiffError):
    """Map and partition are not consistent (cell images not cell-aligned)."""


class SystemStructureError(DetdiffError):
    """A partition equation system is structurally unusable (degenerate)."""


class RootSolveError(DetdiffError):
    """No admissible polynomial root was found."""


class EigenConvergenceError(DetdiffError):
    """The dense eigensolver failed to converge."""


class IrreducibilityError(DetdiffError):
    """The summed transfer matrix is reducible: some cell cannot reach another."""


class HalfIntegerValueError(DetdiffError):
    """Map endpoint values are not half-integers where required."""


class GrazingReflectionError(DetdiffError):
    """Billiard reflection is tangent to the boundary (denominator ~ 0)."""


def exit_code(exc):
    """3 for a failed method or an overflow, 2 for bad input, None if not a detdiff failure."""
    if isinstance(exc, (RootSolveError, EigenConvergenceError, IrreducibilityError,
                        GrazingReflectionError, OverflowError)):
        return 3
    return 2 if isinstance(exc, (DetdiffError, ValueError, KeyError, OSError)) else None


def failure_record(exc):
    """(exit code, "Type: message") of a failure `exit_code` classifies; any other re-raises."""
    if (code := exit_code(exc)) is None:
        raise exc
    return code, f"{type(exc).__name__}: {exc}"
