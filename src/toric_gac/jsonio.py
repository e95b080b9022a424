"""Deterministic report serialization.

Reports are plain dicts of JSON-safe values.  The writers here guarantee
byte-identical output for identical payloads: floats use Python's shortest
round-trip repr, key order is the insertion order of the (deterministically
built) payload, and no timestamps or environment data are added.  Every
top-level report carries ``"schema": 1``.
"""

from __future__ import annotations

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


def trajectory_csv(times, states) -> str:
    """CSV export with header ``t,x1,...,xn`` at 17 significant digits."""
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    if states.ndim != 2 or times.shape[0] != states.shape[0]:
        raise ValueError("times and states must align row-wise")
    n = states.shape[1]
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(n))]
    for t, row in zip(times, states):
        lines.append(",".join(f"{v:.17g}" for v in (float(t), *row)))
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
