"""The two file formats every output is written in: CSV tables and JSON."""

from __future__ import annotations

import csv
import json


def write_csv(path, header, rows) -> None:
    """Write a header row, then one line per row.

    String cells are written as they are and every other cell as
    ``repr(float(v))``, so floats round-trip bit-exactly and a numpy
    scalar reads the same as a Python float.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])


def write_json(path, payload: dict) -> None:
    """Write ``payload`` with sorted keys, two-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
