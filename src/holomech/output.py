"""File output helpers: trajectory CSV, JSON reports, atomic writes."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

TRAJECTORY_HEADER = "t,x,y,p,q,x1,p1,x2,p2,Hr,Hi"


def trajectory_csv(t, w_rows, xi_rows, hr, hi) -> str:
    """Render samples to CSV with the fixed column schema.

    ``w_rows`` are (x, p, y, q) rows and ``xi_rows`` are (x1, p1, x2, p2)
    rows on the same grid ``t``.  Every cell is written with 17 significant
    digits (``%.17g``), enough to round-trip a double.
    """
    w = np.asarray(w_rows, dtype=float)
    table = np.column_stack((t, w[:, [0, 2, 1, 3]], xi_rows, hr, hi))
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return TRAJECTORY_HEADER + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def json_text(obj) -> str:
    """Canonical JSON rendering (sorted keys, stable float repr)."""
    return json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n"


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def write_text_atomic(path, text: str) -> None:
    """Write via a unique temp file, fsync and rename, so readers never see
    partial output and concurrent writers never share a temp file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp makes the file 0600; give it the mode a plain open would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
