"""Trajectory CSV, meta sidecar, and verification report serialization.

CSV columns are ``t,x,y,z,px,py,pz`` followed by the conserved-quantity
traces in catalog order; floats carry 17 significant digits so round
trips are bit-exact.  Every CSV gets a JSON sidecar recording the
system, parameters, tolerance, seed, and momentum interpretation.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Sequence

import numpy as np

FLOAT_FMT = "%.17g"

# Rows formatted per write, by one ``%`` on a format of that many lines:
# the whole table at once would hold every value's Python float and the
# whole text in memory together.
CSV_CHUNK_ROWS = 1000


def write_trajectory_csv(path: str, times: np.ndarray, states: np.ndarray,
                         traces: dict, labels: Optional[Sequence[str]] = None) -> list:
    """Write one trajectory; returns the list of trace labels used."""
    if labels is None:
        labels = [lbl for lbl in ("H", "X1", "X2", "Y3", "Y4") if lbl in traces]
    header = "t,x,y,z,px,py,pz," + ",".join(labels)
    table = np.column_stack([times, states[:, :6], *(traces[lbl] for lbl in labels)])
    line = ",".join([FLOAT_FMT] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, table.shape[0], CSV_CHUNK_ROWS):
            chunk = table[start:start + CSV_CHUNK_ROWS]
            fh.write(line * chunk.shape[0] % tuple(chunk.ravel().tolist()))
    return list(labels)


def write_meta(path: str, meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def write_reports(path: str, reports: Sequence) -> None:
    """Verification reports as a JSON list of check dictionaries."""
    payload = [r.as_dict() if hasattr(r, "as_dict") else dict(r) for r in reports]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
