import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detdiff import (
    CASES,
    EMPTY_INTERVAL,
    MapDefinitionError,
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
from conftest import make_random_monotone_map

# hypothesis draws away from exact half-integers, where the half-open
# cell convention makes float identities brittle by design
finite_x = st.floats(-10.0, 10.0).filter(lambda x: abs(x + 0.5 - round(x + 0.5)) > 1e-9)


# (x, [x), {x)) with the bits the label floor(x + 1/2) gives in doubles:
# x + 1/2 rounds up to 1 for the largest double below 1/2, so its label is
# 1 and its fraction -1/2; 1e300 is its own label
_PINNED_SPLITS = [
    (0.49999999999999994, 1, -0.5),
    (0.5, 1, -0.5),
    (-0.5, 0, -0.5),
    (2.5, 3, -0.5),
    (2.0**52 - 0.5, 2**52, -0.5),
    (1e300, int(1e300), 0.0),
]


def test_nearest_integer_convention():
    assert nearest_integer(0.4) == 0
    assert nearest_integer(-0.5) == 0
    assert nearest_integer(2.5) == 3
    assert nearest_integer(0.0) == 0
    np.testing.assert_array_equal(nearest_integer([0.4, -0.5, 2.5]), [0, 0, 3])
    for x, label, _ in _PINNED_SPLITS:
        assert nearest_integer(x) == label
    within = [(x, label) for x, label, _ in _PINNED_SPLITS if abs(x) < 2.0**63]
    out = nearest_integer([x for x, _ in within])
    assert out.dtype == np.int64
    assert out.tolist() == [label for _, label in within]


def test_nearest_integer_of_an_array_past_int64_raises():
    # a cast would wrap 1e19 to -2^63 with a RuntimeWarning
    assert nearest_integer(1e19) == 10**19
    assert nearest_integer(np.array([-2.0**63])).tolist() == [-2**63]
    for x in (1e19, 2.0**63, -1e300):
        with pytest.raises(OverflowError, match=r"int64 range \[-2\^63, 2\^63\)"):
            nearest_integer(np.array([0.0, x]))


def test_nearest_integer_rejects_non_finite():
    with pytest.raises(ValueError):
        nearest_integer(float("nan"))
    with pytest.raises(ValueError):
        nearest_integer(float("inf"))


def test_fractional_part_range():
    xs = np.linspace(-7.3, 7.3, 101)
    fr = fractional_part(xs)
    assert np.all(fr >= -0.5) and np.all(fr < 0.5)
    np.testing.assert_allclose(fr + nearest_integer(xs), xs, rtol=0, atol=0)
    want = [fraction.hex() for _, _, fraction in _PINNED_SPLITS]
    assert [fractional_part(x).hex() for x, _, _ in _PINNED_SPLITS] == want
    assert [v.hex() for v in fractional_part([x for x, _, _ in _PINNED_SPLITS]).tolist()] == want


def test_eval_linear_examples():
    m3 = linear_map(3.0)
    assert eval_map(m3, 0.25) == 0.75
    assert eval_map(m3, 1.25) == 1.75


def test_eval_zigzag_peak():
    zz = zigzag_map(1, 0.25)
    assert zz(0.25) == 1.5
    assert zz(0.0) == 0.0
    assert zz(0.5) == pytest.approx(0.5, abs=1e-15)


@given(x=finite_x, k=st.integers(-5, 5), lam=st.sampled_from([2.5, 3.0, 4.0, 5.5]))
def test_lift_identity(x, k, lam):
    m = linear_map(lam)
    lhs = m(x + k)
    rhs = m(x) + k
    assert abs(lhs - rhs) <= 4e-15 * max(1.0, abs(rhs))


@given(x=finite_x, lam=st.sampled_from([2.5, 3.0, 4.0]))
def test_linear_map_fractional_rewrite(x, lam):
    m = linear_map(lam)
    expected = x + (lam - 1.0) * fractional_part(x)
    assert abs(m(x) - expected) <= 4e-15 * max(1.0, abs(expected))


@given(x=finite_x)
def test_shift_periodicity(x):
    zz = zigzag_map(2, 0.3)
    assert shift_function(zz, x + 1.0) == pytest.approx(shift_function(zz, x), abs=5e-15)


def test_shift_examples():
    m3 = linear_map(3.0)
    assert shift_function(m3, 0.25) == 0.5
    assert shift_function(m3, 0.0) == 0.0


@given(x=st.floats(-0.49, 0.49), y=st.floats(-0.49, 0.49), lam=st.sampled_from([2.2, 3.0, 6.0]))
def test_stretching_inequality_same_piece(x, y, lam):
    m = linear_map(lam)
    assert abs(m(x) - m(y)) >= m.min_slope() * abs(x - y) - 1e-12


def test_validate_stretching():
    assert validate_stretching(linear_map(3.0)) == 3.0
    assert validate_stretching(zigzag_map(1, 0.25)) == pytest.approx(4.0)


def test_zero_slope_piece_rejected():
    with pytest.raises(MapDefinitionError):
        PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-0.5, 0.5), (0.25, 0.25)])


def test_map_validation_errors():
    with pytest.raises(MapDefinitionError):
        PiecewiseLinearLiftMap([-0.4, 0.5], [(-1.0, 1.0)])
    with pytest.raises(MapDefinitionError):
        PiecewiseLinearLiftMap([-0.5, 0.3, 0.2, 0.5], [(-1, 0), (0, 1), (1, 2)])
    with pytest.raises(ValueError, match="^map value must be a finite number, not inf$"):
        PiecewiseLinearLiftMap([-0.5, 0.5], [(-1.0, float("inf"))])
    with pytest.raises(MapDefinitionError, match="^a map needs at least two breakpoints$"):
        PiecewiseLinearLiftMap([0.5], [])
    with pytest.raises(MapDefinitionError, match="^2 pieces require 2 value pairs, got 1$"):
        PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-1.5, 1.5)])
    for xi in (0.0, 0.5):
        with pytest.raises(MapDefinitionError, match="^zigzag map needs 0 < xi < 1/2$"):
            zigzag_map(1, xi)


@pytest.mark.parametrize("breakpoints,values", [
    # finite values and slope, but 1.796e308 + 1.5e308 * 0.4 overflows: no
    # ensemble sample of a map that is accepted can then be non-finite
    ([-0.5, 0.4, 0.5], [(-0.5, 0.5), (1.796e308, 1.646e308)]),
    ([-0.5, 0.5], [(-1.7e308, 1.7e308)]),      # the slope overflows
])
def test_overflowing_pieces_rejected_without_a_warning(breakpoints, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MapDefinitionError,
                           match="^every piece needs a nonzero finite slope and intercept$"):
            PiecewiseLinearLiftMap(breakpoints, values)


def test_route_examples():
    m3 = linear_map(3.0)
    assert compute_route(m3, 0.25, 4) == (0, 1, 0, 1)
    assert compute_route(m3, 0.0, 3) == (0, 0, 0)
    assert compute_route(linear_map(5.0), 0.1, 2) == (0, 1)


def test_route_input_validation():
    with pytest.raises(ValueError):
        compute_route(linear_map(3.0), 0.1, 0)
    with pytest.raises(ValueError):
        compute_route(linear_map(3.0), float("nan"), 3)
    with pytest.raises(ValueError, match="^route must be nonempty$"):
        reconstruct_initial(linear_map(3.0), [])


def test_route_index_overflow():
    # a shift of 1e15 per step leaves the exact-integer range within ten steps
    jumper = PiecewiseLinearLiftMap([-0.5, 0.5], [(1e15 - 0.5, 1e15 + 0.5)])
    with pytest.raises(OverflowError):
        compute_route(jumper, 0.1, 15)


def test_reconstruct_route_0101():
    m3 = linear_map(3.0)
    iv = reconstruct_initial(m3, (0, 1, 0, 1))
    assert iv.contains(0.25)
    assert iv.width <= 3.0 ** -3 + 1e-12


def test_reconstruct_fixed_point_route():
    m3 = linear_map(3.0)
    for n in (2, 5, 9):
        iv = reconstruct_initial(m3, (0,) * n)
        assert iv.contains(0.0)
        assert iv.width <= 3.0 ** -(n - 1) + 1e-12


def test_reconstruct_inadmissible_route():
    # slope 3 never jumps five cells in one step
    iv = reconstruct_initial(linear_map(3.0), (0, 5))
    assert iv.is_empty
    assert iv is EMPTY_INTERVAL or iv.width == 0.0


def test_reconstruct_requires_stretching():
    flat = PiecewiseLinearLiftMap([-0.5, 0.5], [(-0.25, 0.25)])
    with pytest.raises(MapDefinitionError):
        reconstruct_initial(flat, (0, 0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_route_round_trip_random_monotone_maps(seed):
    rng = np.random.default_rng(seed)
    m = make_random_monotone_map(rng)
    x0 = float(rng.uniform(-0.499, 0.499))
    n = 8
    route = compute_route(m, x0, n)
    iv = reconstruct_initial(m, route)
    lam_min = m.min_slope()
    assert iv.contains(x0, slack=1e-9)
    assert iv.width <= lam_min ** -(n - 1) * (1 + 1e-9) + 1e-15
    assert abs(x0 - iv.midpoint) <= lam_min ** -(n - 1) + 1e-12


def test_zigzag_fold_reconstruction_contains_start():
    # non-monotone map: two branches share a route, the hull still
    # brackets the true start
    zz = zigzag_map(1, 0.25)
    x0 = 0.1
    route = compute_route(zz, x0, 6)
    iv = reconstruct_initial(zz, route)
    assert iv.contains(x0, slack=1e-9)


def test_map_from_spec_forms():
    m = map_from_spec({"type": "linear", "lambda": 3.0})
    assert m(0.25) == 0.75
    z = map_from_spec({"type": "zigzag", "p": 1, "xi": 0.25})
    assert z(0.25) == 1.5
    p = map_from_spec({
        "type": "pieces",
        "breakpoints": [-0.5, -0.13397459621556135, 0.13397459621556135, 0.5],
        "values": [[-1.8660254037844386, -0.5], [-0.5, 0.5], [0.5, 1.8660254037844386]],
    })
    assert p.n_pieces == 3
    with pytest.raises(MapDefinitionError):
        map_from_spec({"type": "unknown"})
    with pytest.raises(MapDefinitionError):
        map_from_spec({"type": "linear"})
    with pytest.raises(MapDefinitionError):
        map_from_spec([1, 2, 3])


def test_zigzag_p_must_be_an_integer():
    # by the integer rule: a float p is rejected, an integral one included, and
    # the CLI turns the text "2" into the int 2 before the map reads it
    assert zigzag_map(2, 0.25)(0.25) == 2.5
    for p in (2.7, 2.0, float("inf"), float("nan"), "2", 0):
        with pytest.raises(ValueError, match=f"^p must be an integer >= 1, not {p!r}$"):
            zigzag_map(p, 0.25)


def test_to_spec_round_trip():
    zz = zigzag_map(2, 0.3)
    again = map_from_spec(zz.to_spec())
    xs = np.linspace(-3, 3, 101)
    np.testing.assert_array_equal(zz(xs), again(xs))


def test_vectorised_eval_matches_scalar():
    m = zigzag_map(1, 0.3)
    xs = np.linspace(-4.2, 4.2, 57)
    vec = m(xs)
    for x, v in zip(xs, vec):
        assert m(float(x)) == v


def test_half_integer_detection():
    assert linear_map(3.0).has_half_integer_values()
    assert zigzag_map(1, 0.3).has_half_integer_values()
    assert not linear_map(3.7).has_half_integer_values()
    # ends at +-(2^52 - 1/2) are on the grid; +-(2^52 + 1) are integers
    assert linear_map(2.0**53 - 1).has_half_integer_values()
    assert not linear_map(2.0**53 + 2).has_half_integer_values()


def _searchsorted_eval(m, x):
    """Reference evaluation: binary search for the piece, the lift identity."""
    k = np.floor(x + 0.5)
    u = x - k
    j = np.clip(np.searchsorted(m.breakpoints[1:-1], u, side="right"), 0, m.n_pieces - 1)
    return k + (m.slopes[j] * u + m.intercepts[j])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_eval_array_bit_identical_to_searchsorted_reference():
    rng = np.random.default_rng(2024)
    maps = [case.lift_map() for case in CASES.values()]
    maps += [zigzag_map(1, 0.25),
             PiecewiseLinearLiftMap([-0.5, 0.0, 0.5], [(-0.5, 1.5), (-0.5, 0.5)])]
    # non-dyadic intercepts, where the order of the additions shows
    maps += [make_random_monotone_map(rng, max_pieces=4) for _ in range(4)]
    cells = np.array([-1e6, -37.0, -1.0, 0.0, 1.0, 37.0, 1e6])
    edges = np.add.outer(cells, [-0.5, 0.5]).ravel()
    for m in maps:
        inner = np.add.outer(cells, m.breakpoints).ravel()
        xs = np.concatenate([
            rng.uniform(-0.5, 0.5, 4000),
            rng.uniform(-50.0, 50.0, 4000),
            rng.uniform(-1e6, 1e6, 4000),
            inner, np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf),
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        ])
        ref = _searchsorted_eval(m, xs)
        np.testing.assert_array_equal(_bits(m._eval_array(xs)), _bits(ref))
        # the ensemble step: the same fractions through reused scratch
        k = np.floor(xs + 0.5)
        u = m._map_fraction(xs - k, m._fraction_scratch(xs.shape))
        np.testing.assert_array_equal(_bits(k + u), _bits(ref))
        before = xs.copy()
        m._eval_array(xs)
        np.testing.assert_array_equal(xs, before)          # input left alone
        for x in (xs[0], xs[-1], m.breakpoints[1], -0.5, 1e6 + 0.5):
            got = m._eval_array(np.asarray(x))
            assert np.ndim(got) == 0
            assert _bits(got) == _bits(_searchsorted_eval(m, np.asarray(x)))


def test_map_step_with_scratch_allocates_no_sample_array():
    lift_map = zigzag_map(1, 0.25)
    u = np.random.default_rng(5).uniform(-0.5, 0.5, 65536)
    scratch = lift_map._fraction_scratch(u.shape)
    tracemalloc.start()
    try:
        lift_map._map_fraction(u, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # at most numpy's casting buffer for the piece count, 8192 elements
    assert peak < u.nbytes / 4
