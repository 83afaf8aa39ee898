"""Deterministic report writers: canonical JSON, CSV with provenance.

Also the home of the integer and finite-number rules of every parameter:
`check_count`, `check_seed`, `check_finite` and `DEFAULT_SEED` live here,
not in `rng`, so the CLI checks them without loading numpy; `rng` re-exports
`DEFAULT_SEED` and applies `check_seed` to every stream key.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import operator

from . import __version__ as VERSION

__all__ = ["canonical_json", "spec_hash", "provenance_line", "render_csv", "write_text"]

#: documented default seed used by the CLI when none is given
DEFAULT_SEED = 20140502


def check_count(value, least: int, what: str) -> int:
    """`value` as an int if it is an integer >= `least`; else ValueError naming `what`.

    Python and numpy integers pass, by `operator.index`; bools, floats and
    anything else are rejected, never truncated.
    """
    try:
        if not isinstance(value, bool) and operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer >= {least}, not {value!r}")


def check_finite(value, what: str) -> float:
    """`value` as a float if a finite real, not a bool or text; else ValueError naming `what`."""
    try:
        if isinstance(value, numbers.Real) and type(value) is not bool and math.isfinite(value):
            return float(value)
    except OverflowError:       # an int or Fraction beyond the double range
        pass
    raise ValueError(f"{what} must be a finite number, not {value!r}")


def check_seed(seed) -> int:
    """`seed` as an int if it keys a Philox stream, an integer in [0, 2^128); else ValueError."""
    seed = check_count(seed, 0, "seed")
    if seed >= 1 << 128:
        raise ValueError(f"seed must be in [0, 2**128), not {seed}")
    return seed


def canonical_json(obj) -> str:
    """Stable JSON encoding: sorted keys, no whitespace, repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def spec_hash(obj) -> str:
    """Short content hash of a JSON-serialisable specification."""
    import hashlib      # here, not at the top: it loads OpenSSL, which only hashing needs

    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def provenance_line(**fields) -> str:
    """Single-line provenance header for CSV reports."""
    parts = [f"detdiff={VERSION}"]
    parts += [f"{k}={v}" for k, v in fields.items()]
    return "# " + " ".join(parts)


def render_csv(fieldnames, rows, provenance: str | None = None) -> str:
    """CSV text with LF line endings, '.' decimals and a header row.

    `rows` may be dicts or sequences aligned with `fieldnames`; floats
    are written with repr (shortest round-trip), so identical inputs
    give byte-identical output.
    """
    buf = io.StringIO()
    if provenance:
        buf.write(provenance + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        if isinstance(row, dict):
            row = [row[k] for k in fieldnames]
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def write_text(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)
