import json
import re
from pathlib import Path

import detdiff
from detdiff.reports import VERSION

# the public names of `detdiff`, by defining submodule: every name is
# re-exported from the package, and the package lists every submodule
PUBLIC = {
    "billiard": ["BilliardState", "ChannelReport", "approximate_step", "exact_step",
                 "position_from_kicks", "sawtooth_kick", "simulate_channel",
                 "tangent_kick", "theoretical_variance"],
    "catalog": ["CASES", "GOLDEN_NAMES", "SolvableCase"],
    "density": ["LatticeDensity", "closed_form_d", "closed_form_drift", "evolve",
                "gaussian_profile", "heuristic_d", "kolmogorov_distance", "omega_approx_d",
                "omega_factor", "second_moment", "unit_pulse"],
    "errors": ["ConsistencyError", "DetdiffError", "EigenConvergenceError",
               "GrazingReflectionError", "HalfIntegerValueError", "IrreducibilityError",
               "MapDefinitionError", "PartitionError", "RootSolveError",
               "SystemStructureError"],
    "maps": ["EMPTY_INTERVAL", "Interval", "PiecewiseLinearLiftMap", "compute_route",
             "eval_map", "fractional_part", "linear_map", "map_from_spec",
             "nearest_integer", "reconstruct_initial", "shift_function",
             "validate_stretching", "zigzag_map"],
    "montecarlo": ["EnsembleStats", "estimate_d_increment", "estimate_stats", "ks_normal",
                   "scan_lambda", "simulate_ensemble"],
    "partition": ["ConsistencyReport", "Equation", "MarkovPartition",
                  "PartitionEquationSystem", "SolvedPartition", "largest_real_root",
                  "solve_partition_system", "solve_three_interval",
                  "validate_consistency"],
    "rng": ["DEFAULT_SEED", "uniform_stream"],
    "transfer": ["DiffusionReport", "TransitionMatrixSet", "build_transition_matrices",
                 "characteristic_matrix", "diffusion_spectral", "leading_eigenpair",
                 "leading_eigenvalue", "stationary_density"],
}

# run in a fresh interpreter, so that each access is the first
_CHECK = """
import json, sys
import detdiff

public = json.loads(sys.argv[1])
facts = {"loaded": sorted(m for m in sys.modules if m.startswith("detdiff."))}
# a submodule resolves as an attribute before anything imported it
facts["montecarlo"] = detdiff.montecarlo is sys.modules.get("detdiff.montecarlo")
# a name's first access imports its submodule: billiard, catalog, density,
# partition and transfer are not loaded yet
facts["same_object"] = [n for m, names in public.items() for n in names
                        if getattr(detdiff, n) is getattr(sys.modules["detdiff." + m], n)]
facts["submodules"] = [m for m in public if getattr(detdiff, m) is sys.modules["detdiff." + m]]
# a submodule's own `__all__`, where it has one, is its public names
facts["submodule_all"] = {m: sorted(sys.modules["detdiff." + m].__all__) for m in public
                          if hasattr(sys.modules["detdiff." + m], "__all__")}
facts["all"] = detdiff.__all__
facts["dir"] = dir(detdiff)
star = {}
exec("from detdiff import *", star)
facts["star"] = sorted(set(star) - {"__builtins__"})
try:
    detdiff.no_such_name
except AttributeError as exc:
    facts["unknown"] = str(exc)
print(json.dumps(facts))
"""


def test_lazy_namespace_contract(fresh_python):
    facts = json.loads(fresh_python(_CHECK, json.dumps(PUBLIC)))
    names = sorted([*PUBLIC, *(n for names in PUBLIC.values() for n in names)])
    assert len(names) == 80
    assert facts["loaded"] == []
    assert facts["montecarlo"]
    assert facts["submodules"] == list(PUBLIC)
    assert facts["same_object"] == [n for names in PUBLIC.values() for n in names]
    assert facts["submodule_all"] == {m: names for m, names in PUBLIC.items() if m != "errors"}
    assert sorted(facts["all"]) == names
    assert sorted(facts["dir"]) == names
    assert facts["star"] == names
    assert facts["unknown"] == "module 'detdiff' has no attribute 'no_such_name'"


def test_one_version_string():
    # the project metadata, the package and every report's provenance carry
    # one version; a regex reads the toml, since Python 3.10 has no tomllib
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M)[1] == detdiff.__version__
    assert VERSION is detdiff.__version__
