import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import detdiff
from detdiff import CASES, MarkovPartition, build_transition_matrices


@pytest.fixture(scope="session")
def fresh_python():
    """run(code, *args): stdout of `python -c code args` in a new interpreter.

    The child imports detdiff from the same source tree as the tests; a
    non-zero exit fails the calling test with the child's stderr.
    """
    src = str(Path(detdiff.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}

    def run(code, *args):
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run


@pytest.fixture
def ensemble_constants(monkeypatch):
    """constants(chunk=None, batches=None): a with block in which the ensemble
    simulators run with `chunk` samples per chunk (`montecarlo._CHUNK`) and
    `estimate_d_increment` with `batches` batches (`montecarlo._BATCHES`).
    """
    from detdiff import montecarlo

    @contextlib.contextmanager
    def constants(chunk=None, batches=None):
        with monkeypatch.context() as mp:
            if chunk is not None:
                mp.setattr(montecarlo, "_CHUNK", chunk)
            if batches is not None:
                mp.setattr(montecarlo, "_BATCHES", batches)
            yield

    return constants


@pytest.fixture(scope="session")
def golden_tsets():
    """Transfer-matrix sets for the nine catalog cases, built once."""
    return {name: build_transition_matrices(case.lift_map(), case.partition())
            for name, case in CASES.items()}


@pytest.fixture(scope="session")
def unit_tset_lam3():
    from detdiff import linear_map
    return build_transition_matrices(linear_map(3.0), MarkovPartition.unit())


def make_random_monotone_map(rng, min_slope=2.0, max_pieces=3):
    """Increasing piecewise-linear lift map with nonnegative jumps.

    Per-cell injective, so route reconstruction obeys the contraction
    bound min|slope|^-(n-1).
    """
    from detdiff import PiecewiseLinearLiftMap

    n_pieces = int(rng.integers(1, max_pieces + 1))
    cuts = np.sort(rng.uniform(-0.45, 0.45, size=n_pieces - 1))
    bps = np.concatenate([[-0.5], cuts, [0.5]])
    widths = np.diff(bps)
    slopes = rng.uniform(min_slope, min_slope + 4.0, size=n_pieces)
    values = []
    left = rng.uniform(-3.0, 0.0)
    for w, s in zip(widths, slopes):
        right = left + s * w
        values.append((left, right))
        left = right + rng.uniform(0.0, 1.0)   # nonnegative jump keeps it injective
    return PiecewiseLinearLiftMap(bps, values)
