"""One integer rule for every seed, count and stream index.

Each entry point checks its integers once, by `reports.check_count` (and
`reports.check_seed`, which applies it before its range): a Python or
numpy integer at or above the least value passes, and anything else, a
bool, a float of integral value or a numeric string included, raises one
ValueError naming the parameter, never truncated to a neighbouring count.
"""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest

from detdiff import (
    MarkovPartition,
    build_transition_matrices,
    compute_route,
    estimate_d_increment,
    estimate_stats,
    evolve,
    gaussian_profile,
    linear_map,
    sawtooth_kick,
    scan_lambda,
    simulate_channel,
    simulate_ensemble,
    theoretical_variance,
    uniform_stream,
    unit_pulse,
    zigzag_map,
)
from detdiff.reports import check_count
from detdiff.rng import resolve_threads

_M4 = linear_map(4.0)           # dithered: its dither key is made from the seed too
_KICK = sawtooth_kick(3.0)
_TSET = build_transition_matrices(linear_map(3.0), MarkovPartition.unit())
_X = np.linspace(-1.0, 1.0, 11)

# entry point and parameter: (name in the message, least value, a valid value, call)
_ENTRIES = {
    "simulate_ensemble-n_samples": ("n_samples", 1, 50,
                                    lambda v: simulate_ensemble(_M4, v, 20, 7)),
    "simulate_ensemble-n_steps": ("n_steps", 1, 20, lambda v: simulate_ensemble(_M4, 50, v, 7)),
    "simulate_ensemble-seed": ("seed", 0, 7, lambda v: simulate_ensemble(_M4, 50, 20, v)),
    "simulate_ensemble-threads": ("threads", 1, 2,
                                  lambda v: simulate_ensemble(_M4, 50, 20, 7, threads=v)),
    "estimate_stats-n_steps": ("n_steps", 1, 20, lambda v: estimate_stats(_X, v)),
    "estimate_d_increment-n_samples": ("n_samples", 1, 200,
                                       lambda v: estimate_d_increment(_M4, v, 4, 7)),
    "estimate_d_increment-n_steps": ("n_steps", 2, 4,
                                     lambda v: estimate_d_increment(_M4, 200, v, 7)),
    "estimate_d_increment-seed": ("seed", 0, 7, lambda v: estimate_d_increment(_M4, 200, 4, v)),
    "simulate_channel-n_samples": ("n_samples", 2, 100,
                                   lambda v: simulate_channel(_KICK, v, 20, 1)),
    "simulate_channel-n_steps": ("n_steps", 1, 20, lambda v: simulate_channel(_KICK, 100, v, 1)),
    "simulate_channel-checkpoints": ("checkpoints[0]", 1, 5, lambda v: simulate_channel(
        _KICK, 100, 20, 1, checkpoints=[v, 20])),
    "simulate_channel-seed": ("seed", 0, 1, lambda v: simulate_channel(_KICK, 100, 20, v)),
    "scan_lambda-n_samples": ("n_samples", 2, 50, lambda v: scan_lambda([3.0, 4.0], v, 5, 1)),
    "scan_lambda-n_steps": ("n_steps", 1, 5, lambda v: scan_lambda([3.0, 4.0], 50, v, 1)),
    "scan_lambda-seed": ("seed", 0, 1, lambda v: scan_lambda([3.0, 4.0], 50, 5, v)),
    "uniform_stream-start": ("start", 0, 2, lambda v: uniform_stream(5, v, 4)),
    "uniform_stream-count": ("count", 0, 4, lambda v: uniform_stream(5, 2, v)),
    "uniform_stream-seed": ("seed", 0, 5, lambda v: uniform_stream(v, 2, 4)),
    "evolve-n": ("n", 0, 3, lambda v: evolve(_TSET, unit_pulse((-0.5, 0.5)), v)),
    "gaussian_profile-n": ("n", 1, 10,
                           lambda v: gaussian_profile(1 / 3, 0.0, [1.0], (-0.5, 0.5), v)),
    "compute_route-n": ("n", 1, 4, lambda v: compute_route(linear_map(3.0), 0.25, v)),
    "theoretical_variance-n": ("n", 0, 4, lambda v: theoretical_variance(v, 3.0)),
    "resolve_threads-threads": ("threads", 1, 2, resolve_threads),
    "zigzag_map-p": ("p", 1, 2, lambda v: zigzag_map(v, 0.25)(_X)),
}


def _bad_values(least, good):
    # below the least value; a fraction above a valid value, which int()
    # would truncate to it; a float of integral value; bools; text
    return [least - 1, least - 2, good + 0.9, float(good), True, False, np.True_, str(good)]


def _plain(result):
    return dataclasses.asdict(result) if dataclasses.is_dataclass(result) else result


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_each_entry_point_rejects_what_is_no_integer_at_or_above_its_least(entry):
    name, least, good, call = _ENTRIES[entry]
    for bad in _bad_values(least, good):
        message = f"^{re.escape(name)} must be an integer >= {least}, not {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_each_entry_point_takes_a_numpy_integer_as_the_python_one(entry):
    good, call = _ENTRIES[entry][2:]
    np.testing.assert_equal(_plain(call(np.int64(good))), _plain(call(good)))


@pytest.mark.parametrize("env,shown", [
    ("0", "0"), ("-1", "'-1'"), ("2.5", "'2.5'"), ("abc", "'abc'"), ("True", "'True'"),
])
def test_detdiff_threads_is_an_integer_of_at_least_one(monkeypatch, env, shown):
    monkeypatch.setenv("DETDIFF_THREADS", env)
    message = f"^DETDIFF_THREADS must be an integer >= 1, not {shown}$"
    with pytest.raises(ValueError, match=message):
        resolve_threads()
    monkeypatch.setenv("DETDIFF_THREADS", " 3 ")
    assert resolve_threads() == 3


@pytest.mark.parametrize("value,valid", [
    (3, True), (np.int64(3), True), (np.uint8(3), True), (1 << 200, True),
    (2, False), (3.0, False), (np.float64(3.0), False), (Fraction(3), False),
    (True, False), (np.True_, False), ("3", False), (None, False),
])
def test_check_count(value, valid):
    if valid:
        n = check_count(value, 3, "k")
        assert (type(n), n) == (int, value)
    else:
        message = f"^k must be an integer >= 3, not {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            check_count(value, 3, "k")


@pytest.mark.parametrize("value,valid", [
    (-3, True), (np.int64(-(1 << 62)), True), (-(1 << 200), True),
    (-3.0, False), (True, False), ("-3", False), (None, False),
])
def test_check_count_with_no_least_takes_any_integer(value, valid):
    if valid:
        n = check_count(value, None, "k")
        assert (type(n), n) == (int, value)
    else:
        message = f"^k must be an integer, not {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            check_count(value, None, "k")
