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

SCHEMA_VERSION = 1


def report_json(payload: dict) -> str:
    """Serialize a report dict, schema marker first, numpy values by tolist."""
    body = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(body, indent=2, allow_nan=False,
                      default=lambda v: v.tolist()) + "\n"


def _cell(value) -> str:
    if hasattr(value, "tolist"):  # a numpy scalar
        value = value.tolist()
    if value is None:
        return ""
    if isinstance(value, bool):
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
