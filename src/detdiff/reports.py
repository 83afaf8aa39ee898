"""Deterministic report writers: canonical JSON, CSV with provenance.

Also the home of the input rules: `check_count`, `check_seed`, `check_finite`,
`DEFAULT_SEED` and the breakpoint rule `_unit_breakpoints` live here, so the
CLI and the exact partition layer check them without loading numpy; `rng`
re-exports `DEFAULT_SEED` and applies `check_seed` to every stream key.
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

_BREAKPOINT_TOL = 1e-12     # how far the breakpoint rule lets an end miss -1/2 or 1/2
#: documented default seed used by the CLI when none is given
DEFAULT_SEED = 20140502


def check_count(value, least: int | None, what: str) -> int:
    """`value` as an int if an integer >= `least` (any if None); else ValueError naming `what`.

    Python and numpy integers pass, by `operator.index`; bools, floats and
    anything else are rejected, never truncated.
    """
    try:
        if not isinstance(value, bool) and (least is None or operator.index(value) >= least):
            return operator.index(value)
    except TypeError:
        pass
    bound = "" if least is None else f" >= {least}"
    raise ValueError(f"{what} must be an integer{bound}, not {value!r}")


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


def _unit_breakpoints(raw, what: str, error: type) -> tuple:
    """Floats -1/2 = x_0 < ... < x_m = 1/2: the breakpoint rule of maps, partitions and densities.

    Ends within 1e-12 of -1/2 and 1/2 are snapped to them; a breach
    raises `error` with a message about the breakpoints of a `what`."""
    try:
        bp = [float(b) for b in raw]
    except (TypeError, ValueError) as exc:
        raise error(f"{what} breakpoints must be numbers ({exc})") from None
    if len(bp) < 2:
        raise error(f"a {what} needs at least two breakpoints")
    if not all(map(math.isfinite, bp)):    # NaN would pass every comparison below
        raise error(f"{what} breakpoints {tuple(bp)} are not all finite")
    if abs(bp[0] + 0.5) > _BREAKPOINT_TOL or abs(bp[-1] - 0.5) > _BREAKPOINT_TOL:
        raise error(f"{what} breakpoints must span [-1/2, 1/2], got [{bp[0]}, {bp[-1]}]")
    bp[0], bp[-1] = -0.5, 0.5
    if any(b >= c for b, c in zip(bp, bp[1:])):
        raise error(f"{what} breakpoints must be strictly increasing")
    return tuple(bp)


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
