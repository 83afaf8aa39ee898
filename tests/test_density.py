import hashlib
import math
import re
import time

import numpy as np
import pytest

from detdiff import (
    CASES,
    HalfIntegerValueError,
    LatticeDensity,
    MarkovPartition,
    PartitionError,
    PiecewiseLinearLiftMap,
    TransitionMatrixSet,
    build_transition_matrices,
    closed_form_d,
    closed_form_drift,
    diffusion_spectral,
    evolve,
    gaussian_profile,
    heuristic_d,
    kolmogorov_distance,
    linear_map,
    omega_approx_d,
    omega_factor,
    second_moment,
    unit_pulse,
    zigzag_map,
)


def _quadratic_integral(lift_map):
    """Exact integral of f^2 over one period: oracle for the closed form."""
    total = 0.0
    bp = lift_map.breakpoints
    for j in range(lift_map.n_pieces):
        a, b = bp[j], bp[j + 1]
        va, vb = lift_map.left_values[j], lift_map.right_values[j]
        total += (b - a) * (va * va + va * vb + vb * vb) / 3.0
    return total


def _linear_integral(lift_map):
    """Integral of f over one period, the drift when the invariant density is uniform."""
    bp, left, right = lift_map.breakpoints, lift_map.left_values, lift_map.right_values
    return sum((bp[j + 1] - bp[j]) * (left[j] + right[j]) / 2.0
               for j in range(lift_map.n_pieces))


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_evolve_one_step_lambda3(unit_tset_lam3):
    dens = evolve(unit_tset_lam3, unit_pulse(unit_tset_lam3.breakpoints), 1)
    assert dens.k_min <= -1 and dens.k_max >= 1
    masses = dens.unit_masses()
    for k, want in ((-1, 1 / 3), (0, 1 / 3), (1, 1 / 3)):
        assert masses[k - dens.k_min] == pytest.approx(want, abs=1e-15)


def test_evolve_zero_steps_is_identity(unit_tset_lam3):
    start = unit_pulse(unit_tset_lam3.breakpoints)
    dens = evolve(unit_tset_lam3, start, 0)
    assert dens is start
    assert start.unit_masses()[0] == 1.0


def test_evolve_lattice_variance_additive(unit_tset_lam3):
    start = unit_pulse(unit_tset_lam3.breakpoints)
    for n in (5, 50, 200):
        dens = evolve(unit_tset_lam3, start, n)
        mean, var = dens.lattice_moments()
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(2.0 * n / 3.0, abs=1e-8)


def test_evolve_mass_conserved_1000_steps():
    case = CASES["two-plus-sqrt3"]
    tset = build_transition_matrices(case.lift_map(), case.partition())
    dens = evolve(tset, unit_pulse(tset.breakpoints), 1000)
    assert abs(dens.mass - 1.0) <= 1e-10


_UNIT = (-0.5, 0.5)


@pytest.mark.parametrize("call,message", [
    (lambda: LatticeDensity(0, np.ones((1, 2)), _UNIT),
     "values width must match the number of cells"),
    (lambda: LatticeDensity(0, [[-1.0]], _UNIT), "densities must be finite and nonnegative"),
    (lambda: LatticeDensity(0, [[-1e-16]], _UNIT), "densities must be finite and nonnegative"),
    (lambda: LatticeDensity(0, [[math.nan]], _UNIT), "densities must be finite and nonnegative"),
    (lambda: LatticeDensity(0, [[math.inf]], _UNIT), "densities must be finite and nonnegative"),
    (lambda: evolve(build_transition_matrices(linear_map(3.0), MarkovPartition.unit()),
                    unit_pulse(_UNIT), -1), "n must be an integer >= 0, not -1"),
    (lambda: gaussian_profile(0.0, 0.0, [1.0], _UNIT, 10),
     "d must be > 0, not 0.0"),
    (lambda: gaussian_profile(math.inf, 0.0, [1.0], _UNIT, 10),
     "d must be a finite number, not inf"),
    (lambda: gaussian_profile(math.nan, 0.0, [1.0], _UNIT, 10),
     "d must be a finite number, not nan"),
    (lambda: gaussian_profile(1 / 3, 0.0, [1.0], _UNIT, 0), "n must be an integer >= 1, not 0"),
    *((lambda a=a: gaussian_profile(1 / 3, 0.0, [a], _UNIT, 10),
       f"alpha must be finite and > 0, not [{a}]") for a in (-1.0, 0.0, math.nan, math.inf)),
    (lambda: gaussian_profile(1 / 3, 0.0, [1e-300], _UNIT, 10),
     "alpha [1e-300] puts the whole profile below the 1e-16 floor"),
    # k_min is any integer and step_count an integer >= 0, by `reports.check_count`
    (lambda: LatticeDensity(0.5, [[1.0]], _UNIT), "k_min must be an integer, not 0.5"),
    (lambda: LatticeDensity(0.0, [[1.0]], _UNIT), "k_min must be an integer, not 0.0"),
    (lambda: LatticeDensity(True, [[1.0]], _UNIT), "k_min must be an integer, not True"),
    (lambda: LatticeDensity(0, [[1.0]], _UNIT, -3), "step_count must be an integer >= 0, not -3"),
    (lambda: LatticeDensity(0, [[1.0]], _UNIT, 2.5),
     "step_count must be an integer >= 0, not 2.5"),
    (lambda: LatticeDensity(0, [[1.0]], _UNIT, False),
     "step_count must be an integer >= 0, not False"),
    # a density of zero mass has no mean or variance
    (lambda: LatticeDensity(0, np.zeros((2, 1)), _UNIT).lattice_moments(),
     "a density of zero mass has no moments"),
    (lambda: LatticeDensity(0, np.zeros((2, 1)), _UNIT).continuous_moments(),
     "a density of zero mass has no moments"),
], ids=["width", "negative", "negative-1e-16", "nan-value", "inf-value", "evolve-backwards",
        "profile-zero-d", "profile-inf-d", "profile-nan-d", "profile-zero-n",
        "profile-negative-alpha", "profile-zero-alpha", "profile-nan-alpha",
        "profile-inf-alpha", "profile-below-floor", "fractional-k_min", "float-k_min",
        "bool-k_min", "negative-step_count", "fractional-step_count", "bool-step_count",
        "zero-mass-lattice-moments", "zero-mass-continuous-moments"])
def test_density_arguments_at_fault_raise(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_density_k_min_is_any_integer_and_stored_as_int():
    for k_min in (-3, np.int64(-3), 1 << 70):
        dens = LatticeDensity(k_min, [[1.0]], _UNIT, np.int64(2))
        assert (type(dens.k_min), dens.k_min, type(dens.step_count)) == (int, k_min, int)


# every lattice density and transition matrix set takes its cells by the
# breakpoint rule of maps and partitions, so cells compare exactly;
# breakpoints at fault -> the rule's message after "<what> breakpoints"
_CELLS_AT_FAULT = {
    "reversed": ((0.5, -0.5), "must span [-1/2, 1/2], got [0.5, -0.5]"),
    "not-increasing": ((-0.5, 0.7, 0.5), "must be strictly increasing"),
    "repeated": ((-0.5, 0.0, 0.0, 0.5), "must be strictly increasing"),
    "nan": ((math.nan, 0.5), "(nan, 0.5) are not all finite"),
    "inf": ((-0.5, math.inf, 0.5), "(-0.5, inf, 0.5) are not all finite"),
    "-inf": ((-math.inf, 0.5), "(-inf, 0.5) are not all finite"),
    "not-spanning": ((0.0, 2.0), "must span [-1/2, 1/2], got [0.0, 2.0]"),
}
_CELL_ENTRIES = {
    "LatticeDensity": ("lattice density",
                       lambda bp: LatticeDensity(0, np.ones((1, len(bp) - 1)), bp)),
    "unit_pulse": ("lattice density", unit_pulse),
    "gaussian_profile": ("lattice density",
                         lambda bp: gaussian_profile(1 / 3, 0.0, np.ones(len(bp) - 1), bp, 10)),
    "TransitionMatrixSet": ("transition matrix set", lambda bp: TransitionMatrixSet(
        (0,), np.array([np.eye(len(bp) - 1)]), bp)),
}
# an interior breakpoint 5e-13 off the half split
_HALF, _OFF_HALF = (-0.5, 0.0, 0.5), (-0.5, 5e-13, 0.5)
_OFF_MESSAGE = "different partitions: [-0.5, 5e-13, 0.5] and [-0.5, 0.0, 0.5]"


def _evolve_on_the_half_split(start):
    tset = build_transition_matrices(linear_map(3.0), MarkovPartition(_HALF))
    return evolve(tset, start, 1)


@pytest.mark.parametrize("call,breakpoints,error,message", [
    *(pytest.param(entry, bp, PartitionError, f"{what} breakpoints {message}",
                   id=f"{name}-{case}")
      for name, (what, entry) in _CELL_ENTRIES.items()
      for case, (bp, message) in _CELLS_AT_FAULT.items()),
    pytest.param(lambda bp: TransitionMatrixSet((0,), np.array([np.eye(2)]), bp),
                 (0.5, 0.7, 0.9), PartitionError,
                 "transition matrix set breakpoints must span [-1/2, 1/2], got [0.5, 0.9]",
                 id="TransitionMatrixSet-outside-I0"),
    pytest.param(lambda bp: TransitionMatrixSet((0,), np.array([np.eye(3)]), bp),
                 _UNIT, ValueError,
                 "matrices must have the shape (shifts, cells, cells) = (1, 1, 1), not (1, 3, 3)",
                 id="TransitionMatrixSet-3-by-3-on-1-cell"),
    *(pytest.param(lambda bp, s=shifts: TransitionMatrixSet(s, np.ones((len(s), 1, 1)), bp),
                   _UNIT, ValueError,
                   f"shifts must be distinct integers in ascending order, not {shifts}",
                   id=f"TransitionMatrixSet-shifts-{case}")
      for case, shifts in {"half": (0.5,), "text": ("a",), "repeated": (1, 1),
                           "descending": (1, 0), "bool": (True,)}.items()),
    *(pytest.param(lambda bp, v=v: TransitionMatrixSet((0,), np.full((1, 1, 1), v), bp),
                   _UNIT, ValueError, "matrix entries must be finite and nonnegative",
                   id=f"TransitionMatrixSet-entry-{v}")
      for v in (math.nan, math.inf, -1.0, -1e-300)),
    pytest.param(lambda bp: _evolve_on_the_half_split(unit_pulse(bp)),
                 _OFF_HALF, ValueError, _OFF_MESSAGE, id="evolve-interior-5e-13-off"),
    pytest.param(lambda bp: kolmogorov_distance(unit_pulse(bp), unit_pulse(_HALF)),
                 _OFF_HALF, ValueError, _OFF_MESSAGE, id="kolmogorov-interior-5e-13-off"),
])
def test_lattice_inputs_at_fault_raise(call, breakpoints, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(breakpoints)


@pytest.mark.parametrize("start", [-0.5 - 1e-13, -0.5 + 5e-13])
def test_ends_within_the_rule_snap_to_the_unit_cells(unit_tset_lam3, start):
    pulse = unit_pulse([start, 0.5])
    assert pulse.breakpoints == (-0.5, 0.5)
    got, want = (evolve(unit_tset_lam3, p, 3) for p in (pulse, unit_pulse(_UNIT)))
    assert got.breakpoints == (-0.5, 0.5)
    np.testing.assert_array_equal(got.values, want.values)


def test_evolve_partition_mismatch():
    ts3 = build_transition_matrices(linear_map(3.0), MarkovPartition.unit())
    other = unit_pulse((-0.5, 0.0, 0.5))
    with pytest.raises(ValueError, match="different partitions"):
        evolve(ts3, other, 1)


def _densities_digest(densities):
    """sha256 of each density's k_min, step_count, shape and value bytes."""
    h = hashlib.sha256()
    for dens in densities:
        h.update(repr((dens.k_min, dens.step_count, dens.values.shape)).encode())
        h.update(dens.values.tobytes())
    return h.hexdigest()


# recorded from the evolution that padded the lattice to its final width
# before the first step; a change that alters an evolved bit must update them
EVOLVE_DIGESTS = {
    "linear-3": "a27979bae99fb40aefb4a6ce4ba0abbc75948001d39481ac52d6f42144ef3c29",
    "cubic-4p71": "b1b49d1a8168f8b6e36534c43ea3b67e05b19748abb127e013aced816496ad0b",
    "drift-own": "37277e03bce52d51c598d35cf4100b07c62b871bc5c34d9ba078373a04867915",
}


def test_evolve_matches_golden_digests():
    drift = PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-0.5, 1.5), (-0.5, 0.5)])
    case = CASES["cubic-4p71"]
    pairs = {"linear-3": (linear_map(3), MarkovPartition.unit()),
             "cubic-4p71": (case.lift_map(), case.partition()),
             "drift-own": (drift, MarkovPartition(tuple(drift.breakpoints)))}
    got = {}
    for name, (lift_map, part) in pairs.items():
        tset = build_transition_matrices(lift_map, part)
        start = unit_pulse(tset.breakpoints)
        runs = [evolve(tset, start, 200)]
        dens, done = start, 0
        for stop in (10, 50, 100):     # chained, as `detdiff evolve` runs them
            dens = evolve(tset, dens, stop - done)
            runs.append(dens)
            done = stop
        got[name] = _densities_digest(runs)
    assert got == EVOLVE_DIGESTS


# ---------------------------------------------------------------------------
# gaussian profile and kolmogorov distance
# ---------------------------------------------------------------------------


def test_gaussian_profile_symmetric_and_normalised():
    prof = gaussian_profile(1 / 3, 0.0, [1.0], (-0.5, 0.5), 50)
    assert prof.mass == pytest.approx(1.0, abs=1e-14)
    vals = prof.values[:, 0]
    np.testing.assert_allclose(vals, vals[::-1], rtol=0, atol=0)


def test_gaussian_profile_peak_value():
    n, d = 100, 1 / 3
    prof = gaussian_profile(d, 0.0, [1.0], (-0.5, 0.5), n)
    peak = prof.values[-prof.k_min, 0]
    assert peak == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi * d * n)), rel=1e-9)


def test_gaussian_profile_drift_centering():
    prof = gaussian_profile(0.25, 0.5, [1.0], (-0.5, 0.5), 40)
    mean, _ = prof.lattice_moments()
    assert mean == pytest.approx(20.0, abs=1e-9)


def test_gaussian_profile_matches_golden_digest():
    profiles = [gaussian_profile(1 / 3, 0.0, [1.0], (-0.5, 0.5), 50),
                gaussian_profile(0.25, 0.5, [1.0], (-0.5, 0.5), 40),
                gaussian_profile(0.7, -0.3, [0.8, 1.2], (-0.5, 0.0, 0.5), 200)]
    assert _densities_digest(profiles) == (
        "4c0c4f63f2e75a9a9854480763320fa0eeeec8c7a799bb5cd7453a248b690d4f")


def test_kolmogorov_identical_zero(unit_tset_lam3):
    dens = evolve(unit_tset_lam3, unit_pulse(unit_tset_lam3.breakpoints), 10)
    assert kolmogorov_distance(dens, dens) == 0.0


def test_kolmogorov_disjoint_deltas():
    import dataclasses
    a = unit_pulse((-0.5, 0.5))
    b = dataclasses.replace(a, k_min=1)
    assert kolmogorov_distance(a, b) == pytest.approx(1.0)


def test_kolmogorov_partition_mismatch():
    with pytest.raises(ValueError, match="different partitions"):
        kolmogorov_distance(unit_pulse((-0.5, 0.5)), unit_pulse((-0.5, 0.0, 0.5)))


def test_kolmogorov_decreases_with_time(unit_tset_lam3):
    rep = diffusion_spectral(unit_tset_lam3)
    start = unit_pulse(unit_tset_lam3.breakpoints)
    dists = []
    for n in (10, 100):
        dens = evolve(unit_tset_lam3, start, n)
        prof = gaussian_profile(rep.d, rep.drift, rep.alpha,
                                unit_tset_lam3.breakpoints, n)
        dists.append(kolmogorov_distance(dens, prof))
    assert dists[1] < dists[0]


@pytest.fixture(scope="module")
def drifting_lattice():
    """Slopes 4 and 2 on the unit partition (drift 1/4), evolved to n = 500 and 2000."""
    lift = PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-0.5, 1.5), (-0.5, 0.5)])
    tset = build_transition_matrices(lift, MarkovPartition.unit())
    at_500 = evolve(tset, unit_pulse(tset.breakpoints), 500)
    return tset, diffusion_spectral(tset), {500: at_500, 2000: evolve(tset, at_500, 1500)}


def test_spectral_d_is_the_variance_rate_of_a_drifting_map(drifting_lattice):
    # Var(x_n) = 2 D n + c: the increment cancels c, and the spread is about
    # the mean, so the drift adds nothing to it
    _, rep, dens = drifting_lattice
    var = {n: d.continuous_moments()[1] for n, d in dens.items()}
    assert (var[2000] - var[500]) / 3000 == pytest.approx(rep.d, abs=1e-9)


def test_gaussian_profile_of_a_drifting_map_converges(drifting_lattice):
    # the profile's width is the spread about the mean, so the distance decays
    tset, rep, dens = drifting_lattice
    dist = {n: kolmogorov_distance(d, gaussian_profile(rep.d, rep.drift, rep.alpha,
                                                       tset.breakpoints, n))
            for n, d in dens.items()}
    assert dist[2000] < 0.0025 and dist[2000] <= 0.6 * dist[500], dist


def test_fourier_coefficient_identity(unit_tset_lam3):
    # evolved masses equal the quadrature coefficients of [P(t)]^n
    n = 8
    dens = evolve(unit_tset_lam3, unit_pulse(unit_tset_lam3.breakpoints), n)
    nodes = 2 ** 14
    ts = -math.pi + 2.0 * math.pi * np.arange(nodes) / nodes
    pt = (1.0 + 2.0 * np.cos(ts)) / 3.0
    worst = 0.0
    for k in range(dens.k_min, dens.k_max + 1):
        coeff = np.real(np.sum(pt ** n * np.exp(-1j * k * ts))) / nodes
        worst = max(worst, abs(coeff - dens.values[k - dens.k_min, 0]))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam,want", [(3, 1 / 3), (5, 1.0), (7, 2.0), (9, 10 / 3)])
def test_closed_form_odd_lambda(lam, want):
    assert closed_form_d(linear_map(lam)) == pytest.approx(want, abs=1e-13)
    assert closed_form_d(linear_map(lam)) == pytest.approx((lam**2 - 1) / 24, abs=1e-13)


@pytest.mark.parametrize("lam,want", [(3, 1 / 3), (5, 1.0)])
def test_closed_form_is_correctly_rounded(lam, want):
    assert closed_form_d(linear_map(lam)) == want


def test_closed_form_cost_does_not_grow_with_the_slope():
    # (lam^2 - 1)/24 = 4166667500000 exactly; one step per unit of rise
    # took seconds and missed by a quarter
    start = time.perf_counter()
    assert closed_form_d(linear_map(1e7 + 1)) == 4166667500000.0
    assert time.perf_counter() - start < 0.5


def test_closed_form_rejects_values_beyond_the_half_integer_grid():
    # 1e80 + 1/2 rounds onto the grid, but no double that large is k + 1/2
    assert not linear_map(1e80).has_half_integer_values()
    with pytest.raises(HalfIntegerValueError):
        closed_form_d(linear_map(1e80))


@pytest.mark.parametrize("miss", [1e-10, -1e-12, 2.0**-40, 2.0**-53],
                         ids=["1e-10", "-1e-12", "2^-40", "2^-53"])
def test_closed_form_rejects_ends_just_off_the_grid(miss):
    # an end a hair from 1/2 is not snapped onto it: 0.5 + 2^-53 is one
    # ulp above, and 0.5 + 2^-53 + 1/2 rounds to 1
    lift_map = PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-1.5, 0.5 + miss), (-0.5, 1.5)])
    assert not lift_map.has_half_integer_values()
    with pytest.raises(HalfIntegerValueError):
        closed_form_d(lift_map)


def test_closed_form_zigzag():
    assert closed_form_d(zigzag_map(1, 0.3)) == pytest.approx(0.4, abs=1e-13)
    p, xi = 2, 0.2
    want = (p + 1) / 12 * (2 * p + 1 - 2 * xi)
    assert closed_form_d(zigzag_map(p, xi)) == pytest.approx(want, abs=1e-13)


def test_closed_form_rejects_non_half_integer():
    for closed_form in (closed_form_d, closed_form_drift):
        with pytest.raises(HalfIntegerValueError):
            closed_form(linear_map(3.7))
        with pytest.raises(HalfIntegerValueError):
            closed_form(linear_map(4.0))


@pytest.mark.parametrize("breakpoints,values,drift", [
    ([-0.5, 0.0, 0.5], [(-0.5, 1.5), (-0.5, 0.5)], 0.25),
    ([-0.5, 0.3, 0.5], [(-0.5, 1.5), (-0.5, 0.5)], 0.4),
    ([-0.5, 0.25, 0.5], [(-1.5, 0.5), (0.5, -0.5)], -0.375),
    ([-0.5, 0.5], [(-1.5, 1.5)], 0.0),
])
def test_closed_form_drift_matches_the_spectral_drift(breakpoints, values, drift):
    # half-integer ends keep the invariant density uniform: drift = integral of f
    lift = PiecewiseLinearLiftMap(breakpoints, values)
    rep = diffusion_spectral(build_transition_matrices(lift, MarkovPartition(lift.breakpoints)))
    assert closed_form_drift(lift) == drift
    assert rep.drift == pytest.approx(drift, abs=1e-14)
    assert rep.d == pytest.approx(closed_form_d(lift), abs=1e-14)


def test_closed_form_against_quadratic_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n_pieces = int(rng.integers(1, 4))
        cuts = np.sort(rng.uniform(-0.4, 0.4, size=n_pieces - 1))
        bps = np.concatenate([[-0.5], cuts, [0.5]])
        values = []
        for _ in range(n_pieces):
            a = rng.integers(-3, 4) - 0.5
            b = rng.integers(-3, 4) - 0.5
            if a == b:
                b = a + 1.0
            values.append((float(a), float(b)))
        lift = PiecewiseLinearLiftMap(bps, values)
        drift = _linear_integral(lift)
        direct = 0.5 * _quadratic_integral(lift) - 1.0 / 24.0 - 0.5 * drift * drift
        assert closed_form_d(lift) == pytest.approx(direct, abs=1e-12)
        assert closed_form_drift(lift) == pytest.approx(drift, abs=1e-12)


def test_second_moment_lambda3(unit_tset_lam3):
    sigma1, sigma2 = second_moment(unit_tset_lam3)
    assert sigma1 == pytest.approx(0.0, abs=1e-15)
    assert sigma2 == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_second_moment_integral_identity(unit_tset_lam3):
    # sigma2 equals the integral of f^2 minus 1/12
    for lam in (3.0, 5.0):
        tset = build_transition_matrices(linear_map(lam), MarkovPartition.unit())
        _, sigma2 = second_moment(tset)
        assert sigma2 == pytest.approx(
            _quadratic_integral(linear_map(lam)) - 1.0 / 12.0, abs=1e-12)


def test_second_moment_requires_unit_partition():
    case = CASES["two-plus-sqrt3"]
    tset = build_transition_matrices(case.lift_map(), case.partition())
    with pytest.raises(ValueError):
        second_moment(tset)


def test_heuristic_values():
    assert heuristic_d(3.0) == pytest.approx(1 / 6)
    assert heuristic_d(5.0) == pytest.approx(2 / 3)
    # documented 50% error against the exact value at lam = 4
    assert heuristic_d(4.0) == pytest.approx(3 / 8)
    assert abs(heuristic_d(4.0) - 0.25) / 0.25 == pytest.approx(0.5)
    with pytest.raises(ValueError):
        heuristic_d(2.0)


def test_omega_values():
    assert omega_factor(4.0) == pytest.approx(2.0)
    assert omega_factor(3.0) == pytest.approx(-1.0)
    assert omega_factor(5.0) == pytest.approx(-1.0)
    assert omega_approx_d(4.0) == pytest.approx(0.25)
    assert omega_approx_d(3.0) == pytest.approx(1 / 3)
    assert omega_approx_d(3.5) == pytest.approx(0.3125)
    assert omega_approx_d(5.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        omega_factor(2.5)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("estimate", [heuristic_d, omega_factor, omega_approx_d])
def test_analytic_estimates_reject_a_non_finite_slope(estimate, lam):
    # bad input, not an overflow of D or a "math domain error"
    with pytest.raises(ValueError, match=f"^lam must be a finite number, not {lam!r}$"):
        estimate(lam)


@pytest.mark.parametrize("estimate,name", [(heuristic_d, "heuristic"), (omega_approx_d, "omega")])
def test_analytic_estimates_that_overflow_raise(estimate, name):
    assert math.isfinite(estimate(1e154))
    with pytest.raises(OverflowError, match=f"^{name} estimate of D overflows double precision$"):
        estimate(1e160)


def test_continuous_moments_match_lattice_plus_cell_spread(unit_tset_lam3):
    dens = evolve(unit_tset_lam3, unit_pulse(unit_tset_lam3.breakpoints), 20)
    _, lat = dens.lattice_moments()
    _, cont = dens.continuous_moments()
    # within-cell spread of a unit cell adds exactly 1/12
    assert cont == pytest.approx(lat + 1.0 / 12.0, abs=1e-10)


def test_rows_export(unit_tset_lam3):
    dens = evolve(unit_tset_lam3, unit_pulse(unit_tset_lam3.breakpoints), 1)
    rows = list(dens.rows())
    ks = [r[0] for r in rows]
    assert ks == sorted(ks)
    assert sum(r[3] for r in rows) == pytest.approx(1.0)
