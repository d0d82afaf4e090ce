"""File output helpers: trajectory CSV, JSON reports, atomic writes."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

TRAJECTORY_HEADER = "t,x,y,p,q,x1,p1,x2,p2,Hr,Hi"


def fmt17(x: float) -> str:
    """17 significant digits; enough to round-trip a double."""
    return f"{float(x):.17g}"


def trajectory_csv(t, w_rows, xi_rows, hr, hi) -> str:
    """Render samples to CSV with the fixed column schema.

    ``w_rows`` are (x, p, y, q) rows and ``xi_rows`` are (x1, p1, x2, p2)
    rows on the same grid ``t``.
    """
    lines = [TRAJECTORY_HEADER]
    for k in range(len(t)):
        w = w_rows[k]
        xi = xi_rows[k]
        cells = (t[k], w[0], w[2], w[1], w[3], xi[0], xi[1], xi[2], xi[3],
                 hr[k], hi[k])
        lines.append(",".join(fmt17(c) for c in cells))
    return "\n".join(lines) + "\n"


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
