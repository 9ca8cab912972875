"""Deterministic CSV and JSON writers for command-line runs.

Rules that keep reruns bit-identical: floats are serialized with repr (the
shortest round-tripping decimal form), metadata is emitted in insertion
order as ``# key=value`` header lines, and nothing time- or host-dependent
is ever written.  Every parameter needed to re-derive a file's rows belongs
in its header; the CLI meets this by construction, as each header starts
with every option its command reads.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

__all__ = ["format_value", "write_csv", "write_json"]


def format_value(v: object) -> str:
    """Serialize one cell or metadata value deterministically.

    Floats use repr for exact round-tripping; bools map to true/false so the
    files do not look Python-specific; everything else falls back to str.
    """
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        # float() strips numpy subclasses, whose repr is not a bare number
        return repr(float(v))
    if isinstance(v, (int, str)):
        return str(v)
    item = getattr(v, "item", None)
    if item is not None:  # remaining numpy scalars (integer, bool kinds)
        return format_value(item())
    try:
        return repr(float(v))
    except (TypeError, ValueError):
        return str(v)


def write_csv(
    path: str | Path,
    metadata: Mapping[str, object],
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> Path:
    """Write one table: ``# key=value`` header lines, column line, data rows."""
    path = Path(path)
    lines = [f"# {key}={format_value(val)}" for key, val in metadata.items()]
    lines.append(",".join(columns))
    n_cols = len(columns)
    for row in rows:
        if len(row) != n_cols:
            raise ValueError(f"row has {len(row)} cells, expected {n_cols}")
        lines.append(",".join(format_value(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_json(path: str | Path, obj: object) -> Path:
    """Write a JSON document with sorted keys and a trailing newline."""
    path = Path(path)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
