"""Shared serialization helpers.

JSON floats use Python's shortest round-trip repr, which is bit-faithful on
reload; CSV cells are printed with 17 significant digits.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

SCHEMA_VERSION = 1


def fmt17(x) -> str:
    """Render a number with up to 17 significant digits (round-trip exact)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, indent=2) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def rows_to_csv(header, rows, path=None) -> str:
    """RFC-4180 CSV with \r\n line endings; floats at 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt17(v) if isinstance(v, (float, np.floating)) else v for v in row])
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text
