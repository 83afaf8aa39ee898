import cmath
import hashlib
import math

import numpy as np
import pytest

from detdiff import (
    CASES,
    ConsistencyError,
    EigenConvergenceError,
    IrreducibilityError,
    MarkovPartition,
    PiecewiseLinearLiftMap,
    TransitionMatrixSet,
    build_transition_matrices,
    characteristic_matrix,
    diffusion_spectral,
    leading_eigenpair,
    leading_eigenvalue,
    linear_map,
    stationary_density,
    zigzag_map,
)

SQRT3 = math.sqrt(3.0)


def _swap(mat):
    # reference listings put the [k, k+1/2) cell first; we order cells
    # left to right, so destination/source indices are both swapped
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    return P @ mat @ P


def test_matrices_even_lambda_4():
    tset = build_transition_matrices(linear_map(4.0), MarkovPartition.half_integer())
    assert tset.shifts == (-2, -1, 0, 1, 2)
    quarter = 0.25
    expected_plus_first = {
        0: quarter * np.eye(2),
        1: quarter * np.array([[1.0, 0.0], [1.0, 0.0]]),
        2: quarter * np.array([[0.0, 0.0], [1.0, 0.0]]),
        -1: quarter * np.array([[0.0, 1.0], [0.0, 1.0]]),
        -2: quarter * np.array([[0.0, 1.0], [0.0, 0.0]]),
        3: np.zeros((2, 2)),        # no jump of 3: the absent shift's matrix is zero
    }
    for shift, ref in expected_plus_first.items():
        np.testing.assert_allclose(_swap(tset.matrix(shift)), ref, atol=1e-15)


def test_matrices_three_cell_surd():
    case = CASES["two-plus-sqrt3"]
    tset = build_transition_matrices(case.lift_map(), case.partition())
    E = tset.total()
    np.testing.assert_allclose(
        E, np.array([[1, 1, 2], [1, 1, 1], [2, 1, 1]]) / case.lam, atol=1e-14)


def test_matrices_scalar_lambda_3(unit_tset_lam3):
    tset = unit_tset_lam3
    assert tset.shifts == (-1, 0, 1)
    np.testing.assert_allclose(tset.matrices[:, 0, 0], [1 / 3, 1 / 3, 1 / 3])


def test_build_rejects_misaligned_partition():
    with pytest.raises(ConsistencyError, match="cell segment"):
        build_transition_matrices(linear_map(3.7), MarkovPartition.unit())
    # an image of a billion cells is refused before any is enumerated
    with pytest.raises(ConsistencyError, match="cell segment"):
        build_transition_matrices(linear_map(1000000001.0), MarkovPartition.unit())


# sha256 of the shifts followed by the matrices; a change that alters a
# matrix on purpose must update them
MATRIX_DIGESTS = {
    "two-plus-sqrt3": "60edf7d70f634d4e71746b18bd891ef7bd410fba9884555f2758ab9afdbb771d",
    "three-plus-sqrt6": "a2944edeb7cc6b30cb94b59f2907539f1869cd10d364aa7a47e1076a3c0faeef",
    "two-plus-sqrt7": "a49d38dc2d6c1134d6a8f23542be387e26b3de53d81efc4ae25ff50c1bc27178",
    "one-plus-sqrt3": "9c22489f27cf1102f744b733a062f80ab5d0208ef7d1dfe5a6082be3eb58e75b",
    "two-plus-sqrt2": "38f14f256781f932c1ee69a6f2ec8fb0917c9c5f79fadd408e0cd83ba9fc62c6",
    "cubic-4p71": "8f1b38fb743e5f32dc408f5743ef5f6c57c138dfd2fdb52145daed31aae86acf",
    "cubic-4p21": "64fcedc717f12b7ee0767217c89808ce8d02dd02874f6cb31a7660975c5f48c1",
    "quartic-3p98": "e99a5e66f6165ffd8a8b6a35e6186e1b0176651632e5c58841ee0ea7854efaf1",
    "even-4": "b8669bb1731c3693844d7e2b30487ed8ea892f2cdde1557b5cfb687513677eb2",
    "linear-3": "fe460df1a3f7f7d8842afee84d6fedc86f264f6c040e7386f5400022e7839610",
    "linear-5": "6ecdf15cb481f2d5668eb2e29a2b9a16c73122c59b89e2395fb4d6ec717e0f2f",
    "linear-7": "06679d5c957d07bd8aee83bd76b93c50df0589c89263ad4b575e47c8776fd1a0",
    "drift-unit": "db182f1c9998c7202a5b63c05c40ab58d159acf76eab2f44e059f8b784002323",
    "drift-own": "a9a17dffc9d4a1c201674c849b56e0c30891d54fbdf6750c8b649581276c75bd",
    "zigzag": "38b121e53bc2d121b3acc68bfe195ea549fadd86ed4548febab7d5298a992cca",
}


def test_matrices_match_golden_digests():
    drift = PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-0.5, 1.5), (-0.5, 0.5)])
    zigzag = zigzag_map(1, 0.25)
    pairs = {name: (case.lift_map(), case.partition()) for name, case in CASES.items()}
    for lam in (3, 5, 7):
        pairs[f"linear-{lam}"] = (linear_map(lam), MarkovPartition.unit())
    pairs["drift-unit"] = (drift, MarkovPartition.unit())
    pairs["drift-own"] = (drift, MarkovPartition(tuple(drift.breakpoints)))
    pairs["zigzag"] = (zigzag, MarkovPartition(tuple(zigzag.breakpoints)))
    got = {}
    for name, (lift_map, part) in pairs.items():
        tset = build_transition_matrices(lift_map, part)
        got[name] = hashlib.sha256(
            np.r_[tset.shifts, tset.matrices.ravel()].tobytes()).hexdigest()
    assert got == MATRIX_DIGESTS


@pytest.mark.parametrize("name", list(CASES))
def test_mass_conservation(name, golden_tsets):
    assert golden_tsets[name].mass_residual() <= 1e-12


def test_mass_conservation_random_half_integer_maps():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n_pieces = int(rng.integers(1, 4))
        cuts = np.sort(rng.uniform(-0.4, 0.4, size=n_pieces - 1))
        bps = np.concatenate([[-0.5], cuts, [0.5]])
        values = []
        for _ in range(n_pieces):
            a = rng.integers(-3, 4) - 0.5
            b = rng.integers(-3, 4) - 0.5
            if a == b:
                b = a + 1.0
            values.append((a, b))
        lift = PiecewiseLinearLiftMap(bps, values)
        tset = build_transition_matrices(lift, MarkovPartition.unit())
        assert tset.mass_residual() <= 1e-12
        assert np.all(tset.matrices >= 0)


def test_characteristic_matrix_at_zero(golden_tsets):
    for tset in golden_tsets.values():
        P0 = characteristic_matrix(tset, 0.0)
        assert np.max(np.abs(P0.imag)) == 0.0
        np.testing.assert_allclose(P0.real, tset.total())


@pytest.mark.parametrize("s", [2, 3])
def test_even_lambda_det_and_trace(s):
    lam = 2.0 * s
    tset = build_transition_matrices(linear_map(lam), MarkovPartition.half_integer())
    for t in (0.3, 0.7, 1.5, 2.4):
        P = characteristic_matrix(tset, t)
        assert abs(np.linalg.det(P)) < 1e-14
        trace_ref = (math.sin(t * s / 2) / (s * math.sin(t / 2))
                     * math.cos(t * (s - 1) / 2))
        assert np.trace(P).real == pytest.approx(trace_ref, abs=1e-13)
        assert abs(np.trace(P).imag) < 1e-13
        # rank one: the nontrivial eigenvalue is the trace
        assert leading_eigenvalue(P) == pytest.approx(trace_ref, abs=1e-12)


def test_leading_eigenvalue_lambda4_quarter_pi():
    tset = build_transition_matrices(linear_map(4.0), MarkovPartition.half_integer())
    z = leading_eigenvalue(characteristic_matrix(tset, math.pi / 4))
    assert z.real == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-13)


@pytest.mark.parametrize("name", list(CASES))
def test_leading_eigenvalue_one_at_zero(name, golden_tsets):
    z = leading_eigenvalue(characteristic_matrix(golden_tsets[name], 0.0))
    assert abs(z - 1.0) < 1e-12


def test_closed_form_eigenvalue_three_cell():
    case = CASES["two-plus-sqrt3"]
    tset = build_transition_matrices(case.lift_map(), case.partition())
    v = None
    for t in np.linspace(-1.4, 1.4, 15):
        c = math.cos(t)
        ref = (1.0 + c + math.sqrt(c * c + 2.0 * c)) / case.lam
        z, v = leading_eigenpair(characteristic_matrix(tset, t), warm_start=v)
        assert z.real == pytest.approx(ref, abs=1e-12)
        assert abs(z.imag) < 1e-12


def test_closed_form_eigenvalue_four_cell_cases():
    case = CASES["one-plus-sqrt3"]
    tset = build_transition_matrices(case.lift_map(), case.partition())
    for t in (0.2, 0.8, 1.3):
        ref = (1.0 + math.sqrt(1.0 + 2.0 * math.cos(t))) / case.lam
        z = leading_eigenvalue(characteristic_matrix(tset, t))
        assert z.real == pytest.approx(ref, abs=1e-12)
    case = CASES["two-plus-sqrt2"]
    tset = build_transition_matrices(case.lift_map(), case.partition())
    for t in (0.2, 0.8, 1.3):
        ref = (1.0 + math.cos(t) + math.sqrt(2.0 - math.sin(t) ** 2)) / case.lam
        z = leading_eigenvalue(characteristic_matrix(tset, t))
        assert z.real == pytest.approx(ref, abs=1e-12)


def test_eigenvalue_polynomial_residual_three_plus_sqrt6():
    # the leading eigenvalue satisfies the characteristic cubic
    # lam^3 z^3 - lam^2 z^2 (1 + 2cos t + 2cos 2t) - lam z (1 + 2cos t)
    #   + 1 + 2cos t = 0
    case = CASES["three-plus-sqrt6"]
    lam = case.lam
    tset = build_transition_matrices(case.lift_map(), case.partition())
    ts = np.linspace(0.0, 3.0, 10)
    checked = 0
    for sign in (1.0, -1.0):
        v = None  # continue the branch outward from the stationary point
        for t in sign * ts:
            z, v = leading_eigenpair(characteristic_matrix(tset, t), warm_start=v)
            resid = (lam**3 * z**3
                     - lam**2 * z**2 * (1 + 2 * np.cos(t) + 2 * np.cos(2 * t))
                     - lam * z * (1 + 2 * np.cos(t))
                     + 1 + 2 * np.cos(t))
            assert abs(resid) < 1e-10, (t, z, resid)
            checked += 1
    assert checked == 20


def test_leading_eigenpair_solver_failure_is_eigen_convergence_error(monkeypatch):
    # a solver that fails on finite input is a numerical failure (exit 3)
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(EigenConvergenceError, match="dense eigensolver failed"):
        leading_eigenpair(np.eye(2))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_leading_eigenpair_rejects_a_non_finite_matrix(entry):
    # the input is at fault, not the solver: ValueError (exit 2), for both entry points
    matrix = np.eye(2, dtype=complex)
    matrix[0, 1] = entry
    for solve in (leading_eigenpair, leading_eigenvalue):
        with pytest.raises(ValueError, match="^eigensolver requires finite input$"):
            solve(matrix)


def test_symmetry_conjugate_eigenvalue(golden_tsets):
    tset = golden_tsets["two-plus-sqrt7"]
    for t in (0.3, 0.9):
        zp = leading_eigenvalue(characteristic_matrix(tset, t))
        zm = leading_eigenvalue(characteristic_matrix(tset, -t))
        assert zm == pytest.approx(zp.conjugate(), abs=1e-12)


@pytest.mark.parametrize("name", list(CASES))
def test_stationary_density_golden(name, golden_tsets):
    case = CASES[name]
    alpha = stationary_density(golden_tsets[name])
    np.testing.assert_allclose(alpha, case.alpha, rtol=0, atol=1e-10)
    assert abs(alpha @ golden_tsets[name].cell_lengths - 1.0) < 1e-12
    assert np.all(alpha > 0)


# no cell maps into cell 0 of the transient map; its orbits fall onto a
# two-cycle of cells 1 and 2
_TRANSIENT = PiecewiseLinearLiftMap([-0.5, -1 / 6, 1 / 6, 0.5],
                                    [(-1.5, -0.5), (1 / 6, 0.5), (-7 / 6, -5 / 6)])
_NEVER_MIXING = PiecewiseLinearLiftMap([-0.5, -0.25, 0.0, 0.25, 0.5],
                                       [(-0.5, 0.0), (0.5, 1.0), (0.0, 0.5), (-1.0, -0.5)])


@pytest.mark.parametrize("make_tset", [
    lambda: TransitionMatrixSet(shifts=(0,), matrices=np.array([np.eye(2)]),
                                breakpoints=(-0.5, 0.0, 0.5)),
    lambda: build_transition_matrices(_NEVER_MIXING, MarkovPartition((-0.5, 0.0, 0.5))),
    lambda: build_transition_matrices(_TRANSIENT, MarkovPartition(_TRANSIENT.breakpoints)),
], ids=["identity", "never-mixing", "transient-cell"])
def test_stationary_density_reducible_rejected(make_tset):
    # a fact of the support graph: cell 0 is not reached from cell 1 in any of them
    with pytest.raises(IrreducibilityError,
                       match="^cell 0 cannot be reached from cell 1; "
                             "the transfer matrix is reducible$"):
        stationary_density(make_tset())


def test_transition_matrix_set_keeps_integer_shifts_as_ints():
    # numpy integers pass the shift rule and are stored as Python ints
    tset = TransitionMatrixSet(np.array([-1, 2]), np.full((2, 1, 1), 0.5), (-0.5, 0.5))
    assert tset.shifts == (-1, 2) and {type(s) for s in tset.shifts} == {int}
    assert characteristic_matrix(tset, 0.0).tolist() == [[1.0]]


@pytest.mark.parametrize("delta", [1e-8, 2e-9, 1e-12])
def test_spectral_solves_a_leaky_map(delta):
    # two half-cells that leak into each other through pieces of width delta:
    # irreducible for every delta > 0, though E's eigenvalues 1 and 1 - 4 delta
    # come as close as one likes; every orbit stays in [-1/2, 3/2), so D = 0
    lift = PiecewiseLinearLiftMap([-0.5, -delta, 0.0, delta, 0.5],
                                  [(-0.5, 0.0), (1.0, 1.5), (-1.5, -1.0), (0.0, 0.5)])
    rep = diffusion_spectral(build_transition_matrices(lift, MarkovPartition((-0.5, 0.0, 0.5))))
    np.testing.assert_allclose(rep.alpha, [1.0, 1.0], rtol=0, atol=1e-15)
    assert abs(rep.d) <= 1e-15
    assert rep.diagnostics["solve_residual"] <= 1e-15


@pytest.mark.parametrize("name", list(CASES))
def test_spectral_diffusion_golden(name, golden_tsets):
    case = CASES[name]
    rep = diffusion_spectral(golden_tsets[name])
    assert rep.d == pytest.approx(case.d, abs=1e-8)
    assert abs(rep.drift) < 1e-10
    assert rep.method == "spectral"
    assert rep.diagnostics["solve_residual"] <= 1e-12
    assert rep.d > 0


def _drift_map_tset():
    # jumps: stay with prob 3/4, move right with prob 1/4
    lift = PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-0.5, 1.5), (-0.5, 0.5)])
    return build_transition_matrices(lift, MarkovPartition.unit())


def test_spectral_diffusion_with_drift():
    rep = diffusion_spectral(_drift_map_tset())
    assert rep.drift == pytest.approx(0.25, abs=1e-14)
    # D is the second cumulant rate: (sigma2 - sigma1^2) / 2 for the unit
    # partition, 1/8 - 1/32, not the raw sigma2 / 2 = 1/8
    assert rep.d == pytest.approx(3 / 32, abs=1e-14)


def test_scalar_degeneration_matches_moments(unit_tset_lam3):
    from detdiff import second_moment
    sigma1, sigma2 = second_moment(unit_tset_lam3)
    rep = diffusion_spectral(unit_tset_lam3)
    assert abs(rep.d - 0.5 * sigma2) < 1e-12
    assert abs(rep.drift - sigma1) < 1e-12


def test_spectral_zigzag_matches_closed_form():
    from detdiff import closed_form_d
    # odd map with pieces (-1/2, 5/2) on [0, 1/4] and (-3/2, -5/2) on
    # [1/4, 1/2], mirrored onto [-1/2, 0]
    odd_quarter = PiecewiseLinearLiftMap(
        [-0.5, -0.25, 0.0, 0.25, 0.5],
        [(2.5, 1.5), (-2.5, 0.5), (-0.5, 2.5), (-1.5, -2.5)])
    for lift, part in ((zigzag_map(1, 0.3), MarkovPartition((-0.5, -0.3, 0.3, 0.5))),
                       (odd_quarter, MarkovPartition(tuple(odd_quarter.breakpoints)))):
        rep = diffusion_spectral(build_transition_matrices(lift, part))
        assert rep.d == pytest.approx(closed_form_d(lift), abs=1e-12)


@pytest.mark.parametrize("name", list(CASES) + ["drift"])
def test_spectral_matches_z_curve_differences(name, golden_tsets):
    # D = -Re (ln z)''(0) / 2 and drift = Im z'(0) are defined by the leading
    # eigenvalue z(t) of P(t); central differences of the public z(t) path
    # must reproduce them
    tset = _drift_map_tset() if name == "drift" else golden_tsets[name]
    h = 1e-3
    z = {t: leading_eigenvalue(characteristic_matrix(tset, t)) for t in (-h, 0.0, h)}
    log_z = {t: cmath.log(v) for t, v in z.items()}
    d_fd = -0.5 * ((log_z[h] - 2.0 * log_z[0.0] + log_z[-h]) / h**2).real
    drift_fd = ((z[h] - z[-h]) / (2.0 * h)).imag
    rep = diffusion_spectral(tset)
    assert rep.d == pytest.approx(d_fd, abs=1e-6)
    assert rep.drift == pytest.approx(drift_fd, abs=1e-6)


def test_to_json_dict_round_trip(unit_tset_lam3):
    data = unit_tset_lam3.to_json_dict()
    assert set(data) == {"-1", "0", "1"}
    assert data["0"] == [pytest.approx(1 / 3)]
