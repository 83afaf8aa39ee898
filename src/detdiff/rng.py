"""Counter-based random streams for reproducible ensembles.

All ensemble draws come from a Philox stream keyed by the user seed;
the value for sample index i is word i of that stream.  Chunks are
generated independently by advancing the counter to the chunk start, so
any parallel schedule reproduces the single-threaded sample set bit for
bit.  The dither of the ensemble simulators reads the same stream in
16-bit lanes, four to a word, addressed by lane index the same way.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["uniform_stream", "resolve_threads", "DEFAULT_SEED"]

#: documented default seed used by the CLI when none is given
DEFAULT_SEED = 20140502
_LOW, _HIGH = -0.5, 0.5     # the range [_LOW, _HIGH) of `uniform_stream`


def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles on [-1/2, 1/2) for sample indices [start, start + count).

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
    # in place, rounding exactly as _LOW + (_HIGH - _LOW) * u
    u *= _HIGH - _LOW
    u += _LOW
    return u


def _lane_reader(seed: int):
    """read(start, count): 16-bit lanes [start, start + count) of the stream of `seed`.

    Word k of the stream holds lanes 4k .. 4k + 3, lowest 16 bits first
    on any host, so reads may start at any lane.  One bit generator
    serves every read: a relative advance, which wraps modulo 2^256 and
    so may also step back, moves it to the block that holds the read,
    unless the read starts in the block the generator emits next.  Every
    read takes whole blocks, so the generator never holds spare words.
    """
    bitgen = np.random.Philox(key=int(seed))
    at = 0      # the block the generator emits next

    def read(start: int, count: int) -> np.ndarray:
        nonlocal at
        word, lane = divmod(int(start), 4)
        block, lead = divmod(word, 4)
        if block != at:     # an advance costs microseconds even by 0
            bitgen.advance(block - at)
        n = lead + (lane + count + 3) // 4
        # whole blocks only: Philox keeps the unread words of a partial
        # block and hands them out first, and only an advance drops them
        at = block + (n + 3) // 4
        words = bitgen.random_raw(4 * (at - block))[lead:n]
        return words.astype("<u8", copy=False).view("<u2")[lane:lane + count]

    return read


def resolve_threads(threads=None) -> int:
    """Worker count: explicit argument, else DETDIFF_THREADS, else 1.

    A DETDIFF_THREADS that is not an integer raises ValueError naming it.
    """
    if threads is not None:
        n = int(threads)
    else:
        env = os.environ.get("DETDIFF_THREADS", "")
        try:
            n = int(env) if env.strip() else 1
        except ValueError:
            raise ValueError(f"DETDIFF_THREADS must be an integer, not {env!r}") from None
    return max(1, n)
