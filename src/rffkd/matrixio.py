"""Matrix file I/O: CSV and a raw little-endian float64 format.

CSV uses '.' decimals, comma separators, no header row (the reader can skip
one) and 17 significant digits, so doubles survive a round trip exactly.
Each value is written as '%.17g' % value writes it (see _csvtext.py).

The raw format is: magic "RFFM", then row count and column count as
little-endian uint32, then the n*d float64 payload little-endian in
row-major order.  Malformed files raise MatrixFormatError carrying the
byte offset where the file stopped making sense.
"""

from __future__ import annotations

import struct
import warnings
from contextlib import contextmanager
from os import SEEK_END, PathLike

import numpy as np

from ._checks import integer
from ._pool import WORKERS, in_order

__all__ = [
    "FORMATS",
    "MatrixFormatError",
    "read_matrix",
    "write_matrix",
    "write_blocks",
]

MAGIC = b"RFFM"
FORMATS = ("csv", "raw-f64")

_HEADER = struct.Struct("<4sII")


class MatrixFormatError(ValueError):
    """Unreadable matrix file; offset is the byte position of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _checked_blocks(blocks, n: int, d: int):
    """The blocks as float64 arrays, checked to stack into exactly n x d."""
    done = 0
    for block in blocks:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2:
            raise ValueError(f"row block must be 2-d, got shape {block.shape}")
        if block.shape[1] != d:
            raise ValueError(f"row block has {block.shape[1]} columns, declared {d}")
        done += block.shape[0]
        if done > n:
            raise ValueError(f"row blocks deliver more than the declared {n} rows")
        yield block
    if done != n:
        raise ValueError(f"row blocks delivered {done} rows, declared {n}")


@contextmanager
def _opened(src, mode: str, buffering: int = -1):
    if isinstance(src, (str, PathLike)):
        with open(src, mode, buffering=buffering) as handle:
            yield handle
    else:
        yield src


# Values in one CSV formatting job, and the jobs submitted ahead of the one
# being written.  A job costs a thread handoff and some 60 numpy calls
# whatever its size, and while it runs its temporaries peak near 150 bytes a
# value under tracemalloc.  A job not yet run is a view of its block and a
# finished one holds its text, so the depth mostly sets how much work the
# pool has while the calling thread draws the next embed block: 6 ms at the
# shape below, where a 7-row job takes 1.5 ms on one thread.  In-process
# `rffkd embed` at the benchmark's embed-csv shape (600 x 256 in, t = 800,
# 1600 columns out), median seconds of 20 alternating rounds, and the
# child's VmHWM from spawn to exit (2-vCPU Xeon, one OpenBLAS thread):
#
#   values   WORKERS ahead   2 * WORKERS     4 * WORKERS
#    6144    0.392  47.0 MB  0.366  47.4 MB  0.357  48.1 MB
#    8192    0.327  48.2 MB  0.300  48.6 MB  0.287  49.4 MB
#   12288    0.304  49.3 MB  0.278  49.7 MB  0.275  50.4 MB
#   16384    0.281  50.7 MB  0.257  51.3 MB  0.257  52.2 MB
#   32768    0.313  55.1 MB  0.270  56.3 MB  0.257  56.6 MB
#
# `rffkd gen` (2000 x 256) took 0.137 s at 6144 and WORKERS, 0.097 s here.
# Larger jobs were a few percent faster still, for 2 to 6 MB more; in 30
# paired rounds at 12288, four times WORKERS ahead beat twice in 22.
_CSV_JOB_VALUES = 12288
_CSV_AHEAD = 4 * WORKERS


def _write_csv_blocks(dest, blocks, shape) -> None:
    # imported here, so commands that write no CSV matrix do not load it
    from ._csvtext import csv_text

    n, d = shape
    rows = max(1, _CSV_JOB_VALUES // d)
    jobs = (
        (csv_text, block[start:start + rows])
        for block in _checked_blocks(blocks, n, d)
        for start in range(0, block.shape[0], rows)
    )
    with _opened(dest, "w") as out:
        for text in in_order(jobs, _CSV_AHEAD if n > rows else 0):
            out.write(text)


def _read_csv(src, header: bool = False) -> np.ndarray:
    """Read a CSV matrix; raises MatrixFormatError on ragged or empty input.

    '#' is not a comment marker: a value or line that holds one is unreadable.
    The result is read-only, so a PointSet of it holds the matrix once.
    """
    with _opened(src, "r") as handle:
        try:
            with warnings.catch_warnings():
                # empty input warns before we can turn it into an error
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt(
                    handle, delimiter=",", comments=None, skiprows=1 if header else 0, ndmin=2
                )
        except ValueError as exc:
            raise MatrixFormatError(f"unreadable CSV matrix: {exc}") from exc
    if arr.size == 0:
        raise MatrixFormatError("CSV matrix has no rows")
    arr.setflags(write=False)
    return arr


def _write_raw_blocks(dest, blocks, shape) -> None:
    n, d = shape
    if n >= 1 << 32 or d >= 1 << 32:
        raise ValueError(f"matrix shape {shape} does not fit u32 header fields")
    with _opened(dest, "wb") as out:
        out.write(_HEADER.pack(MAGIC, n, d))
        for block in _checked_blocks(blocks, n, d):
            # a view of the block's bytes: no copy when it is already <f8 and contiguous
            out.write(memoryview(np.ascontiguousarray(block, dtype="<f8")))


def _read_raw(src) -> np.ndarray:
    """Read the raw-f64 format, validating magic, header, and payload size.

    The result is a read-only array that holds the payload once, aligned.  It
    is read into an array of the declared size, allocated only once the file
    is known to hold that many bytes, so a header that declares more than the
    file holds cannot force a huge allocation.  A stream that cannot seek is
    read whole, then checked.
    """
    # unbuffered, so nothing is read ahead of the payload
    with _opened(src, "rb", buffering=0) as handle:
        head = handle.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise MatrixFormatError(
                f"truncated header: need {_HEADER.size} bytes, file has {len(head)}",
                offset=len(head),
            )
        magic, n, d = _HEADER.unpack(head)
        if magic != MAGIC:
            raise MatrixFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
        if n < 1 or d < 1:
            raise MatrixFormatError(f"header declares empty matrix {n}x{d}", offset=4)
        if handle.seekable():
            rest, here = None, handle.tell()
            size = _HEADER.size + handle.seek(0, SEEK_END) - here
            handle.seek(here)
        else:
            rest = handle.read()
            size = _HEADER.size + len(rest)
        expected = _HEADER.size + 8 * n * d

        def ends_early(size):
            return MatrixFormatError(
                f"payload ends early: {n}x{d} matrix needs {expected} bytes, file has {size}",
                offset=size,
            )

        if size < expected:
            raise ends_early(size)
        if size > expected:
            raise MatrixFormatError(
                f"trailing bytes after {n}x{d} payload: expected {expected} bytes, file has {size}",
                offset=expected,
            )
        if rest is not None:
            return np.frombuffer(rest, dtype="<f8").reshape(n, d)
        out = np.empty((n, d), dtype="<f8")
        view, done = memoryview(out).cast("B"), 0
        while done < view.nbytes:
            got = handle.readinto(view[done:])
            if not got:  # the file shrank since its size was taken
                raise ends_early(_HEADER.size + done)
            done += got
    out.setflags(write=False)
    return out


def write_matrix(dest, data, fmt: str = "csv") -> None:
    """Write a matrix in the named format ("csv" or "raw-f64")."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
    write_blocks(dest, [arr], arr.shape, fmt=fmt)


def write_blocks(dest, blocks, shape, fmt: str = "csv") -> None:
    """Write an n x d matrix, given as an iterable of row blocks, in the named format.

    Blocks are drawn as they are written: only the block being written, and
    for CSV the rows of the 4 * WORKERS formatting jobs ahead of it, need to
    be in memory.  ValueError if the blocks do not stack into exactly the
    declared shape (n, d), if it is empty, or if an entry is not an integer.
    """
    n, d = (integer("shape entry", v, minimum=0) for v in shape)
    if n < 1 or d < 1:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {tuple(shape)}")
    if fmt == "csv":
        _write_csv_blocks(dest, blocks, (n, d))
    elif fmt == "raw-f64":
        _write_raw_blocks(dest, blocks, (n, d))
    else:
        raise ValueError(f"unknown matrix format {fmt!r}; choose from {FORMATS}")


def read_matrix(src, fmt: str = "csv", header: bool = False) -> np.ndarray:
    """Read a matrix in the named format ("csv" or "raw-f64"); header is for CSV only."""
    if fmt == "csv":
        return _read_csv(src, header=header)
    if fmt == "raw-f64":
        if header:
            raise ValueError("header applies only to csv input, not raw-f64")
        return _read_raw(src)
    raise ValueError(f"unknown matrix format {fmt!r}; choose from {FORMATS}")
