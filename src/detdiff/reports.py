"""Deterministic report writers: canonical JSON, CSV with provenance.

Also the home of the seed that provenance records: `DEFAULT_SEED` and
`check_seed`, the rule of the seed range, live here and not in `rng`, so
the CLI reads and checks a seed without loading numpy; `rng` re-exports
`DEFAULT_SEED` and applies `check_seed` to every stream key.
"""

from __future__ import annotations

import csv
import io
import json

__all__ = ["canonical_json", "spec_hash", "provenance_line", "render_csv", "write_text"]

VERSION = "1.0.0"

#: documented default seed used by the CLI when none is given
DEFAULT_SEED = 20140502


def check_seed(seed: int) -> int:
    """`seed` if it keys a Philox stream, 0 <= seed < 2^128; else ValueError."""
    if not 0 <= seed < 1 << 128:
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
