"""File output helpers: trajectory CSV, JSON reports, atomic writes."""

from __future__ import annotations

import contextlib
import errno
import functools
import json
import math
import os
import stat
from pathlib import Path

import numpy as np

from .hamiltonian import _SLOT

# x, y, p, q: the w row's (Re z, Im z, Re p, Im p), read through _SLOT
TRAJECTORY_HEADER = "t,x,y,p,q,x1,p1,x2,p2,Hr,Hi"


def trajectory_csv(path, t, w_rows, xi_rows, hr, hi) -> None:
    """Write the samples to ``path`` as CSV with the fixed column schema,
    atomically, as ``write_text_atomic`` writes (temp file, fsync, rename).

    ``w_rows`` are (x, p, y, q) rows and ``xi_rows`` are (x1, p1, x2, p2)
    rows on the same grid ``t``.  Every cell is written as ``%.17g`` writes
    it (17 significant digits, enough to round-trip a double), byte for byte.
    Each block's bytes go straight into the temp file, so the memory the
    write takes stays at about one block's, whatever the row count.
    """
    with _atomic_file(path) as fh:
        for block in _csv_blocks(t, w_rows, xi_rows, hr, hi):
            fh.write(block)


def _csv_blocks(t, w_rows, xi_rows, hr, hi):
    """The header line, then the CSV lines of each ``_BLOCK_ROWS`` rows.

    Blocks keep temporaries from growing with the sample count, each small
    enough for the allocator to reuse (see ``_BLOCK_ROWS``).  Cells with
    1e-4 <= |x| < 1e17 are the ones ``%.17g`` prints in fixed notation; their
    text is built in numpy (see ``_fixed_rows``) without one float-to-text
    call per cell.  Every other cell (±0, subnormal, tiny, huge, NaN, ±inf)
    becomes a ``%.17g`` field of the block's text, filled by one ``%`` call
    per block.
    """
    t, w, xi, hr, hi = (np.asarray(c, dtype=float) for c in (t, w_rows, xi_rows, hr, hi))
    yield TRAJECTORY_HEADER.encode() + b"\n"
    for k in range(0, len(t), _BLOCK_ROWS):
        s = slice(k, k + _BLOCK_ROWS)
        yield _csv_block(np.column_stack(
            (t[s], w[s][:, _SLOT["complex"]], xi[s], hr[s], hi[s])))


# Rows per rendered block.  Every per-block temporary stays under glibc's
# default 128 KiB mmap threshold, so the allocator reuses heap memory from
# block to block instead of mapping fresh pages: at 256 rows (2816 cells) the
# fixed cells' rows and the cell buffer take 24 bytes per cell (66 KiB each), the
# digit-group indices 32 (88 KiB), a float or int64 array 8 (22 KiB).  At 512
# rows three of them were over it, and a 1000-2000-row table took about 640
# minor page faults instead of about 100.
_BLOCK_ROWS = 256
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
    np.maximum(x, -4, out=x)
    np.minimum(x, 16, out=x)
    d = _rounded(a, x)
    # log10 may put a value next to a power of ten one decade off.  D falls
    # outside [10**16, 10**17) exactly when the exact product does, since
    # rounding never carries a product across either bound: that would need
    # a double less than 5e-17 (relative) below a power 10**k, k = -4 .. 17,
    # and 1 .. 1e17 are exact while the doubles nearest 1e-4 .. 1e-1 lie
    # above those powers.  A product a decade low need not be an integer;
    # truncated, its D still lies below 10**16, and it is recomputed.
    moved = np.flatnonzero((d >= 10**17) | (d < 10**16))
    if moved.size:
        x[moved] += np.where(d[moved] >= 10**17, 1, -1)
        d[moved] = _rounded(a[moved], x[moved])
    return x, d


def _rounded(a, x):
    """a * 10**(16 - x) rounded half to even, as int64.

    p + e is the exact product; p is an even integer (>= 2**53) when the
    product lies in [10**16, 10**17), so rounding e half to even rounds
    p + e half to even.
    """
    p, e = _scaled(a, 16 - x)
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _digit_text(d):
    """First digit of each D, and its other 16 digits as (n, 16) ASCII with
    the trailing zeros as NUL."""
    # D = q0 10**16 + q1 10**12 + q2 10**8 + q3 10**4 + q4, each q < 10**4;
    # floor division by a constant is much faster than np.divmod
    top = d // 10**8
    low = d - top * 10**8
    lead = top // 10000
    q = np.empty((d.size, 4), np.intp)
    q[:, 1] = top - lead * 10000
    q[:, 2] = low // 10000
    q[:, 3] = low - q[:, 2] * 10000
    first = lead // 10000
    q[:, 0] = lead - first * 10000
    # a group followed only by zero groups takes its stripped text
    q[:, 3] += 10000
    q[:, 2] += (q[:, 3] == 10000) * 10000
    tail = low == 0
    q[:, 1] += tail * 10000
    q[:, 0] += (tail & (q[:, 1] == 10000)) * 10000
    return first, _quad_text().take(q).view(np.uint8)


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
    buf = bytearray(cells.size * _WIDTH)
    out = np.frombuffer(buf, np.uint8).reshape(cells.size, _WIDTH)
    out[slow, :len(_FALLBACK)] = np.frombuffer(_FALLBACK, np.uint8)
    if fast.size:
        # built grouped by exponent, then scattered to their cells
        rows = np.zeros((fast.size, _WIDTH), np.uint8)
        fast = _fixed_rows(cells, fast, rows)
        cell = np.dtype((np.void, _WIDTH))
        np.put(out.view(cell).ravel(), fast, rows.view(cell).ravel())
    sep = out[:, -1].reshape(table.shape)
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    text = buf.translate(None, b"\0")
    return text % tuple(cells[slow].tolist()) if slow.size else text


def json_text(obj) -> str:
    """Canonical JSON rendering (sorted keys, stable float repr), strict."""
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _plain(obj):
    """The one rule for JSON values: a numpy value through tolist(),
    containers element by element, a complex as [re, im], a float that is
    not finite as null (JSON has none); a value it misses fails the dump."""
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, complex):
        return [_plain(obj.real), _plain(obj.imag)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` via a unique temp file, fsync and rename, so readers
    never see partial output and concurrent writers never share a temp file
    (see ``_atomic_file``)."""
    with _atomic_file(path) as fh:
        fh.write(text.encode())


def check_target(path) -> None:
    """Raise, writing nothing, the ``OSError`` that ``_atomic_file`` would
    raise for ``path`` after the work: its parent is missing or is not a
    directory, or ``path`` is a directory.  A symlink to a directory passes,
    because ``os.replace`` replaces the link.  Other faults (permissions, a
    full disk) still surface from the write itself.

    ``path`` is read as typed first: ``Path`` reads "" as "." and drops a
    trailing separator or "." (so "x/" would write a file x).  An empty path
    raises as ``open("")`` does, one that ends in a separator as
    ``open("x/", "w")`` does, and one whose last part is "." as the write
    does for ".".
    """
    text = os.fspath(path)
    last = os.path.basename(text)
    if last in ("", "."):
        code = errno.EBUSY if last else errno.EISDIR if text else errno.ENOENT
        raise OSError(code, os.strerror(code), text)
    path = Path(text)
    try:
        code = None if stat.S_ISDIR(os.stat(path.parent).st_mode) else errno.ENOTDIR
    except (FileNotFoundError, NotADirectoryError) as exc:
        code = exc.errno
    if code is None:
        with contextlib.suppress(OSError):
            if stat.S_ISDIR(os.lstat(path).st_mode):
                # rename(2) answers EBUSY for a target named ".."
                code = errno.EBUSY if path.name == ".." else errno.EISDIR
    if code is not None:
        raise OSError(code, os.strerror(code), str(path))


@contextlib.contextmanager
def _atomic_file(path):
    """A new file opened for binary writing that replaces ``path`` once the block
    exits and the data are fsynced; on any exception the file is removed and
    ``path`` is left as it was.

    The temp file gets a random name beside ``path`` and is created with
    mode 0o666, so the process umask applies as it would to a plain open.
    An ``OSError`` that names the temp file (a missing directory, ``path`` a
    directory) names ``path`` instead, so it reads the same on every run.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                yield fh
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != str(tmp):
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
