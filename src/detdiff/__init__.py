"""Deterministic diffusion in one-dimensional piecewise-linear lifting maps.

The package computes the diffusion coefficient of a lifting dynamical
system several independent ways (closed-form integral, leading-eigenvalue
curvature of the transfer matrices, Monte Carlo ensembles), solves for
slopes consistent with Markov partitions, evolves lattice densities
toward their Gaussian limit, and simulates the billiard-channel model of
anomalous transport.
"""

from .billiard import (
    BilliardState,
    ChannelReport,
    approximate_step,
    exact_step,
    position_from_kicks,
    sawtooth_kick,
    simulate_channel,
    tangent_kick,
    theoretical_variance,
)
from .catalog import CASES, GOLDEN_NAMES, SolvableCase
from .density import (
    LatticeDensity,
    closed_form_d,
    evolve,
    gaussian_profile,
    heuristic_d,
    kolmogorov_distance,
    omega_approx_d,
    omega_factor,
    second_moment,
    unit_pulse,
)
from .errors import (
    ConsistencyError,
    DetdiffError,
    EigenConvergenceError,
    GrazingReflectionError,
    HalfIntegerValueError,
    IrreducibilityError,
    MapDefinitionError,
    PartitionError,
    RootSolveError,
    SystemStructureError,
)
from .maps import (
    EMPTY_INTERVAL,
    Interval,
    PiecewiseLinearLiftMap,
    compute_route,
    eval_map,
    fractional_part,
    linear_map,
    map_from_spec,
    nearest_integer,
    reconstruct_initial,
    shift_function,
    validate_stretching,
    zigzag_map,
)
from .montecarlo import (
    EnsembleStats,
    estimate_d_increment,
    estimate_stats,
    ks_normal,
    scan_lambda,
    simulate_ensemble,
)
from .partition import (
    ConsistencyReport,
    Equation,
    MarkovPartition,
    PartitionEquationSystem,
    SolvedPartition,
    largest_real_root,
    solve_partition_system,
    solve_three_interval,
    validate_consistency,
)
from .rng import DEFAULT_SEED, uniform_stream
from .transfer import (
    DiffusionReport,
    TransitionMatrixSet,
    build_transition_matrices,
    characteristic_matrix,
    diffusion_spectral,
    leading_eigenpair,
    leading_eigenvalue,
    stationary_density,
)

__version__ = "1.0.0"
