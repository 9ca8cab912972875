"""Deterministic CSV and JSON writers for command-line runs.

Rules that keep reruns bit-identical: floats are serialized with repr (the
shortest round-tripping decimal form), metadata is emitted in insertion
order as ``# key=value`` header lines, and nothing time- or host-dependent
is ever written.  Every parameter needed to re-derive a file's rows belongs
in its header; the CLI meets this by construction, as each header starts
with every option its command reads.  Tables are columnar: write_csv takes
each column whole, an array or a list, and formats a bool, int or float
array (from its tolist()) or a list of str with no per-cell dispatch.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path

import numpy as np

__all__ = ["format_value", "write_csv", "write_json"]


def format_value(v: object) -> str:
    """Serialize one bool, float, int or str deterministically.

    Floats use repr for exact round-tripping; bools map to true/false so the
    files do not look Python-specific.  Any other type, numpy's integer and
    bool scalars included, raises TypeError: the caller converts them.
    """
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        # float() strips numpy subclasses, whose repr is not a bare number
        return repr(float(v))
    if isinstance(v, (int, str)):
        return str(v)
    raise TypeError(f"cannot format {type(v).__name__} {v!r}")


# format_value of the Python cells that tolist() gives, by array kind
_FORMAT = {"b": ("false", "true").__getitem__, "i": str, "u": str, "f": repr}


def _cells(column: object) -> list[str]:
    """format_value of each cell; no per-cell dispatch for a 1-D numeric array or a str list."""
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype.kind in _FORMAT:
        return list(map(_FORMAT[column.dtype.kind], column.tolist()))
    if isinstance(column, list) and set(map(type, column)) <= {str}:
        return column
    return [format_value(v) for v in column]


def write_csv(path: str | Path, metadata: Mapping[str, object],
              columns: Mapping[str, object]) -> Path:
    """Write one table: ``# key=value`` header lines, column line, rows of equal-length columns."""
    path = Path(path)
    lines = [f"# {key}={format_value(val)}" for key, val in metadata.items()]
    lines.append(",".join(columns))
    # strict: columns of unequal length raise ValueError before any file is made
    lines += map(",".join, zip(*[_cells(column) for column in columns.values()], strict=True))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_json(path: str | Path, obj: object) -> Path:
    """Write a JSON document with sorted keys and a trailing newline."""
    path = Path(path)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
