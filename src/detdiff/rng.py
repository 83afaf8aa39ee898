"""Counter-based random streams for reproducible ensembles.

All ensemble draws come from a Philox stream keyed by the user seed;
the value for sample index i is word i of that stream.  Chunks are
generated independently by advancing the counter to the chunk start, so
any parallel schedule reproduces the single-threaded sample set bit for
bit.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["uniform_stream", "resolve_threads", "DEFAULT_SEED"]

#: documented default seed used by the CLI when none is given
DEFAULT_SEED = 20140502


def uniform_stream(seed: int, start: int, count: int,
                   low: float = -0.5, high: float = 0.5) -> np.ndarray:
    """Uniform doubles for sample indices [start, start + count).

    Independent of how the index range is chunked: the stream is keyed
    by `seed` and advanced to `start`.  The array is freshly drawn and
    scaled in place, so the caller owns it and may overwrite it.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    # one Philox counter tick emits 4 output words (4 doubles): advance to
    # the enclosing block, then drop the leading in-block values
    block, lead = divmod(int(start), 4)
    bitgen = np.random.Philox(key=int(seed))
    bitgen.advance(block)
    u = np.random.Generator(bitgen).random(lead + int(count))[lead:]
    # in place, rounding exactly as low + (high - low) * u
    u *= high - low
    u += low
    return u


def resolve_threads(threads=None) -> int:
    """Worker count: explicit argument, else DETDIFF_THREADS, else 1."""
    if threads is not None:
        n = int(threads)
    else:
        env = os.environ.get("DETDIFF_THREADS", "")
        n = int(env) if env.strip() else 1
    return max(1, n)
