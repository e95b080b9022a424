"""Deterministic report serialization.

Reports are plain dicts of JSON-safe values.  The writers here guarantee
byte-identical output for identical payloads: floats use Python's shortest
round-trip repr, key order is the insertion order of the (deterministically
built) payload, and no timestamps or environment data are added.  Every
top-level report carries ``"schema": 1``.
"""

from __future__ import annotations

import csv
import io
import json
import os

import numpy as np

SCHEMA_VERSION = 1


def _plain(value):
    """Recursively convert numpy scalars/arrays and tuples to JSON types."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def report_json(payload: dict) -> str:
    """Serialize a report dict with the schema marker first."""
    body = {"schema": SCHEMA_VERSION}
    body.update(_plain(payload))
    return json.dumps(body, indent=2, allow_nan=False) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def csv_text(header, rows) -> str:
    """CSV with one header line: floats at 17 significant digits, None as
    an empty cell, booleans as 0/1; a cell is quoted only when it holds a
    comma, a quote or a line break."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
