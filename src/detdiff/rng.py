"""Counter-based random streams for reproducible ensembles.

All ensemble draws come from a Philox stream keyed by the user seed;
the value for sample index i is word i of that stream.  Chunks are
generated independently by advancing the counter to the chunk start, so
any parallel schedule reproduces the single-threaded sample set bit for
bit.  The dither of the ensemble simulators reads a stream of its own
key in 32-bit lanes, two to a word.  Both read through `_stream`, the
one reader that seeks a Philox stream; it rejects a key outside the
Philox range [0, 2^128) by `reports.check_seed`.  `DEFAULT_SEED` and that
rule live in the numpy-free `reports`, and this module re-exports
`DEFAULT_SEED`.
"""

from __future__ import annotations

import os

import numpy as np

from .reports import DEFAULT_SEED, check_seed

__all__ = ["uniform_stream", "resolve_threads", "DEFAULT_SEED"]


def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles on [-1/2, 1/2) for sample indices [start, start + count).

    Independent of how the index range is chunked: the stream is keyed
    by `seed` and read from word `start`.  The array is freshly drawn and
    shifted in place, so the caller owns it and may overwrite it.  A seed
    outside [0, 2^128) raises ValueError.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    u = _stream(seed)(start, count, doubles=True)
    u -= 0.5
    return u


def _stream(key: int):
    """read(start, count, doubles=False): words [start, start + count) of the stream of `key`.

    With `doubles`, the words come as the doubles `Generator.random` makes
    of them, (word >> 11) 2^-53 on [0, 1).  One Philox counter tick emits a
    block of 4 words.  One bit generator serves every read: a relative
    advance, which wraps modulo 2^256 and so may also step back, moves it
    to the block that holds the read, unless the read starts in the block
    the generator emits next.  Every read takes whole blocks, so the
    generator never holds spare words.  A key outside [0, 2^128), the
    Philox key range, raises ValueError.
    """
    bitgen = np.random.Philox(key=check_seed(int(key)))
    gen = np.random.Generator(bitgen)
    at = 0      # the block the generator emits next

    def read(start: int, count: int, doubles: bool = False) -> np.ndarray:
        nonlocal at
        block, lead = divmod(int(start), 4)
        if block != at:     # an advance costs microseconds even by 0
            bitgen.advance(block - at)
        n = lead + int(count)
        # whole blocks only: Philox keeps the unread words of a partial
        # block and hands them out first, and only an advance drops them
        at = block + (n + 3) // 4
        size = 4 * (at - block)
        return (gen.random(size) if doubles else bitgen.random_raw(size))[lead:n]

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
