"""CSV output of the experiment tables.

One format everywhere: RFC-4180-style rows, a header line, UTF-8, '.' as the
decimal separator.  Floats are written with repr (shortest round-trip), so a
fixed input produces byte-identical files on re-runs.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


def _fmt(x) -> str:
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    if isinstance(x, (np.integer, int)):
        return str(int(x))
    return str(x)


def write_rows(path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    return path
