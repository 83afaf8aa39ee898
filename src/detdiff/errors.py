"""Exception hierarchy shared across the package.

Validation-type errors (bad inputs, inconsistent definitions) are kept
separate from numerical failures (root finding, eigen-solvers) so callers
such as the CLI can map them to distinct exit codes.
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
    """The summed transfer matrix lacks a simple positive unit eigenpair."""


class HalfIntegerValueError(DetdiffError):
    """Map endpoint values are not half-integers where required."""


class GrazingReflectionError(DetdiffError):
    """Billiard reflection is tangent to the boundary (denominator ~ 0)."""


#: errors that indicate bad user input / inconsistent definitions
VALIDATION_ERRORS = (
    MapDefinitionError,
    PartitionError,
    ConsistencyError,
    SystemStructureError,
    HalfIntegerValueError,
)

#: errors that indicate a numerical method failed
NUMERICAL_ERRORS = (
    RootSolveError,
    EigenConvergenceError,
    IrreducibilityError,
    GrazingReflectionError,
)
