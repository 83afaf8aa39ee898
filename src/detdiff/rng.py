"""Counter-based random streams for reproducible ensembles.

All ensemble draws come from Philox streams read as pure functions of
key and index: `_words(key, start, count)` is words [start, start +
count) of the stream of `key`, built at the counter that emits word
`start`, so no reader keeps a position and any chunking or parallel
schedule reproduces the single-threaded sample set bit for bit.  Sample
i draws its uniform from word i of the stream of the user seed.  The
dither of the ensemble simulators reads `_lanes`, the 32-bit lanes of a
stream of its own key, lane 2k + j being bits 32j to 32j + 31 of word k.
A key outside [0, 2^128) raises by `reports.check_seed`, and a bad start,
count or worker count by `reports.check_count`: these rules live in the
numpy-free `reports`, with `DEFAULT_SEED`, which this module re-exports.
"""

from __future__ import annotations

import os

import numpy as np

from . import _EXPORTS
from .reports import DEFAULT_SEED, check_count, check_seed

__all__ = _EXPORTS["rng"]


def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles on [-1/2, 1/2) for sample indices [start, start + count).

    Independent of how the index range is chunked: the stream is keyed
    by `seed` and read from word `start`.  The array is freshly drawn and
    shifted in place, so the caller owns it and may overwrite it.  A seed
    outside [0, 2^128), or a start or count not an integer >= 0, raises.
    """
    u = _words(seed, check_count(start, 0, "start"), check_count(count, 0, "count"),
               doubles=True)
    u -= 0.5
    return u


def _words(key: int, start: int, count: int, doubles: bool = False) -> np.ndarray:
    """Words [start, start + count) of the Philox stream of `key`.

    Word i is a pure function of (key, i): counter c emits words 4c to
    4c + 3, so a bit generator built at counter start // 4 reads them from
    there, whatever was read before.  With `doubles`, the words come as the
    doubles `Generator.random` makes of them, (word >> 11) 2^-53 on [0, 1).
    A key outside [0, 2^128), the Philox key range, raises ValueError.
    """
    block, lead = divmod(start, 4)
    bitgen = np.random.Philox(key=check_seed(key), counter=block)
    n = lead + count
    return (np.random.Generator(bitgen).random(n) if doubles else bitgen.random_raw(n))[lead:]


def _lanes(key: int, start: int, count: int) -> np.ndarray:
    """32-bit lanes [start, start + count) of the Philox stream of `key`.

    Lane 2k + j is bits 32j to 32j + 31 of word k of `_words`, on any host.
    """
    word, lane = divmod(start, 2)
    words = _words(key, word, (lane + count + 1) // 2).astype("<u8", copy=False)
    return words.view("<u4")[lane:lane + count]


def resolve_threads(threads=None) -> int:
    """Worker count: explicit argument, else DETDIFF_THREADS, else 1.

    Either must be an integer >= 1, or ValueError names it.
    """
    if threads is not None:
        return check_count(threads, 1, "threads")
    env = os.environ.get("DETDIFF_THREADS", "").strip() or "1"
    return check_count(int(env) if env.isdecimal() else env, 1, "DETDIFF_THREADS")
