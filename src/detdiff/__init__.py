"""Deterministic diffusion in one-dimensional piecewise-linear lifting maps.

The package computes the diffusion coefficient of a lifting dynamical
system several independent ways (closed-form integral, leading-eigenvalue
curvature of the transfer matrices, Monte Carlo ensembles), solves for
slopes consistent with Markov partitions, evolves lattice densities
toward their Gaussian limit, and simulates the billiard-channel model of
anomalous transport.

The namespace is lazy (PEP 562, as in Scientific Python SPEC 1):
`import detdiff` loads no submodule.  `_EXPORTS` maps each submodule to
the names it re-exports, and is the one list of public names: each of
those submodules sets its own `__all__` to its entry.  The first access
to one of those names, or to the submodule itself, imports that
submodule and caches the result here, so `detdiff.evolve is
detdiff.density.evolve`.  `__all__` lists every re-exported name and
submodule, so `from detdiff import *` binds them all.
"""

import importlib

__version__ = "1.0.0"

_EXPORTS = {
    "billiard": (
        "BilliardState", "ChannelReport", "approximate_step", "exact_step",
        "position_from_kicks", "sawtooth_kick", "simulate_channel",
        "tangent_kick", "theoretical_variance",
    ),
    "catalog": ("CASES", "GOLDEN_NAMES", "SolvableCase"),
    "density": (
        "LatticeDensity", "closed_form_d", "closed_form_drift", "evolve", "gaussian_profile",
        "heuristic_d", "kolmogorov_distance", "omega_approx_d", "omega_factor",
        "second_moment", "unit_pulse",
    ),
    "errors": (
        "ConsistencyError", "DetdiffError", "EigenConvergenceError",
        "GrazingReflectionError", "HalfIntegerValueError", "IrreducibilityError",
        "MapDefinitionError", "PartitionError", "RootSolveError",
        "SystemStructureError",
    ),
    "maps": (
        "EMPTY_INTERVAL", "Interval", "PiecewiseLinearLiftMap", "compute_route",
        "eval_map", "fractional_part", "linear_map", "map_from_spec",
        "nearest_integer", "reconstruct_initial", "shift_function",
        "validate_stretching", "zigzag_map",
    ),
    "montecarlo": (
        "EnsembleStats", "estimate_d_increment", "estimate_stats", "ks_normal",
        "scan_lambda", "simulate_ensemble",
    ),
    "partition": (
        "ConsistencyReport", "Equation", "MarkovPartition",
        "PartitionEquationSystem", "SolvedPartition", "largest_real_root",
        "solve_partition_system", "solve_three_interval", "validate_consistency",
    ),
    "rng": ("DEFAULT_SEED", "uniform_stream"),
    "transfer": (
        "DiffusionReport", "TransitionMatrixSet", "build_transition_matrices",
        "characteristic_matrix", "diffusion_spectral", "leading_eigenpair",
        "leading_eigenvalue", "stationary_density",
    ),
}

# public name -> defining submodule; a submodule stands for itself
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_ORIGIN.update((module, module) for module in _EXPORTS)

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    try:
        origin = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{origin}")
    value = module if name == origin else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
