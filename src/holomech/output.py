"""File output helpers: trajectory CSV, JSON reports, atomic writes."""

from __future__ import annotations

import contextlib
import functools
import json
import os
import tempfile
from pathlib import Path

import numpy as np

TRAJECTORY_HEADER = "t,x,y,p,q,x1,p1,x2,p2,Hr,Hi"


def trajectory_csv(t, w_rows, xi_rows, hr, hi) -> str:
    """Render samples to CSV with the fixed column schema.

    ``w_rows`` are (x, p, y, q) rows and ``xi_rows`` are (x1, p1, x2, p2)
    rows on the same grid ``t``.  Every cell is written as ``%.17g`` writes
    it (17 significant digits, enough to round-trip a double), byte for byte.

    The table is rendered in blocks of ``_BLOCK_ROWS`` rows, so temporaries do
    not grow with the sample count.  Cells with 1e-4 <= |x| < 1e17 are the ones
    ``%.17g`` prints in fixed notation; their text is built in numpy (see
    ``_fixed_rows``) without one float-to-text call per cell.  Every other cell
    (±0, subnormal, tiny, huge, NaN, ±inf) becomes a ``%.17g`` field of the
    block's text, filled by one ``%`` call per block.
    """
    t, w, xi, hr, hi = (np.asarray(c, dtype=float) for c in (t, w_rows, xi_rows, hr, hi))
    # one growing buffer, not a list of block strings to join: with the list,
    # a process rendering table after table kept about 2 MB more heap
    text = bytearray(TRAJECTORY_HEADER.encode() + b"\n")
    for k in range(0, len(t), _BLOCK_ROWS):
        s = slice(k, k + _BLOCK_ROWS)
        text += _csv_block(np.column_stack(
            (t[s], w[s][:, [0, 2, 1, 3]], xi[s], hr[s], hi[s])))
    return text.decode("ascii")


# Rows per rendered block: at 512 the traced peak for a 2001-row table
# (1.3 MB) stays under that of one %-format pass over it (1.5 MB), while the
# fixed numpy cost per block stays small.
_BLOCK_ROWS = 512
# Bytes per cell: the longest fixed-notation cell, "-0.000" and 17 digits
# (23 bytes), then its separator.  Unused bytes stay NUL and are deleted.
_WIDTH = 24
_FALLBACK = b"%.17g"
# 10**k for k = 16 - X over the fixed-notation exponents X = 16 .. -4; every
# one is exact, and so is its split into two 26-bit halves.
_POW10 = np.array([float(10 ** k) for k in range(21)])
_SPLITTER = 134217729.0  # 2**27 + 1


def _halves(a):
    """Veltkamp split: a == hi + lo exactly, each with at most 26 bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


@functools.cache
def _quad_text():
    """ASCII of 0000 .. 9999 as little-endian uint32, then the same with
    trailing zeros as NUL (index + 10000), for a last nonzero digit group.

    Built on first use, so a process that writes no CSV does not pay for it.
    """
    g = np.arange(10000)
    text = (np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
            + ord("0")).astype(np.uint8)
    stripped = text.copy()
    for k in range(4):
        stripped[(text[:, k:] == ord("0")).all(axis=1), k] = 0
    quads = np.concatenate([text, stripped]).view("<u4").ravel()
    quads.flags.writeable = False
    return quads


def _scaled(a, k):
    """(p, e) with p + e == a * 10**k exactly (Dekker's product)."""
    ah, al = _halves(a)
    b = _POW10.take(k)
    bh, bl = _POW10_HI.take(k), _POW10_LO.take(k)
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _decimal(a):
    """Exponent X and 17-digit integer D of positive a in [1e-4, 1e17) as
    ``%.16e`` rounds it: a ~ D * 10**(X - 16), 10**16 <= D < 10**17."""
    x = np.floor(np.log10(a)).astype(np.intp)
    np.clip(x, -4, 16, out=x)
    p, e = _scaled(a, 16 - x)
    # log10 may put a value next to a power of ten one decade off; the
    # comparisons are on the exact product p + e
    step = ((p > 1e17) | ((p == 1e17) & (e >= 0))).view(np.int8) - (
        (p < 1e16) | ((p == 1e16) & (e < 0)))
    moved = np.flatnonzero(step)
    if moved.size:
        x[moved] += step[moved]
        p[moved], e[moved] = _scaled(a[moved], 16 - x[moved])
    # p is an even integer (>= 2**53), so rounding e half to even rounds
    # p + e half to even.  D never carries to 10**17: that would need a
    # double within 5e-18 (relative) below 10**(X + 1), closer than half the
    # spacing of doubles, and the doubles nearest 1e-3, 1e-2 and 1e-1 lie
    # above those powers while 1 .. 1e17 are exact.
    return x, p.astype(np.int64) + np.rint(e).astype(np.int64)


def _digit_text(d):
    """First digit of each D, and its other 16 digits as (n, 16) ASCII with
    the trailing zeros as NUL."""
    top, low = np.divmod(d, 10 ** 8)
    q = np.empty((5, d.size), np.intp)
    lead, q[2] = np.divmod(top, 10000)
    q[3], q[4] = np.divmod(low, 10000)
    q[0], q[1] = np.divmod(lead, 10000)
    # a group followed only by zero groups takes its stripped text
    q[4] += 10000
    q[3] += (q[4] == 10000) * 10000
    tail = low == 0
    q[2] += tail * 10000
    q[1] += (tail & (q[2] == 10000)) * 10000
    return q[0], _quad_text().take(q[1:].T).view(np.uint8)


def _fixed_rows(cells, fast, rows):
    """Write the fixed-notation text of ``cells[fast]`` into ``rows``, one
    cell per row grouped by exponent; return the cell index of each row."""
    x, d = _decimal(np.abs(cells[fast]))
    order = np.argsort(x.astype(np.int8), kind="stable")
    x, d, fast = x[order], d[order], fast[order]
    lead, digits = _digit_text(d)
    lead = (lead + ord("0")).astype(np.uint8)
    rows[:, 0] = np.signbit(cells[fast]) * np.uint8(ord("-"))
    edges = np.searchsorted(x, np.arange(-4, 18)).tolist()
    for X in range(-4, 17):
        lo, hi = edges[X + 4], edges[X + 5]
        if lo == hi:
            continue
        r, c = rows[lo:hi], digits[lo:hi]
        if X < 0:  # 0.0..0 and all 17 digits, trailing zeros dropped
            r[:, 1:2 - X] = np.frombuffer(b"0.000"[:1 - X], np.uint8)
            r[:, 2 - X] = lead[lo:hi]
            r[:, 3 - X:19 - X] = c
            continue
        # X + 1 integer digits keep their zeros; the point only when a
        # nonzero fraction digit follows.  Written in place: numpy keeps freed
        # buffers under 1 KiB per exact size, so a temporary per group (its
        # size varies from table to table) would pile up in that cache.
        r[:, 1] = lead[lo:hi]
        np.bitwise_or(c[:, :X], ord("0"), out=r[:, 2:X + 2])
        if X < 16:
            np.minimum(c[:, X], 1, out=r[:, X + 2])
            r[:, X + 2] *= ord(".")
            r[:, X + 3:19] = c[:, X:]
    return fast


def _csv_block(table) -> bytearray:
    """CSV lines of one (rows, columns) block, as ASCII."""
    cells = table.ravel()
    a = np.abs(cells)
    fixed = (a >= 1e-4) & (a < 1e17)
    fast = np.flatnonzero(fixed)
    slow = np.flatnonzero(~fixed)
    # one row per fixed cell, then one row every other cell shares
    rows = np.zeros((fast.size + 1, _WIDTH), np.uint8)
    rows[-1, :len(_FALLBACK)] = np.frombuffer(_FALLBACK, np.uint8)
    if fast.size:
        fast = _fixed_rows(cells, fast, rows[:-1])
    pick = np.empty(cells.size, np.intp)
    pick[fast] = np.arange(fast.size)
    pick[slow] = fast.size
    buf = bytearray(cells.size * _WIDTH)
    out = np.frombuffer(buf, np.uint8).reshape(cells.size, _WIDTH)
    cell = np.dtype((np.void, _WIDTH))
    rows.view(cell).ravel().take(pick, out=out.view(cell).ravel())
    sep = out[:, -1].reshape(table.shape)
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    text = buf.translate(None, b"\0")
    return text % tuple(cells[slow].tolist()) if slow.size else text


def json_text(obj) -> str:
    """Canonical JSON rendering (sorted keys, stable float repr)."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def _json_default(obj):
    """A complex as [re, im], a numpy scalar or array as its tolist()."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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
