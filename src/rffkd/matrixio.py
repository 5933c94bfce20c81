"""Matrix file I/O: CSV and a raw little-endian float64 format.

CSV uses '.' decimals, comma separators, no header row (the reader can skip
one) and 17 significant digits, so doubles survive a round trip exactly.

The raw format is: magic "RFFM", then row count and column count as
little-endian uint32, then the n*d float64 payload little-endian in
row-major order.  Malformed files raise MatrixFormatError carrying the
byte offset where the file stopped making sense.
"""

from __future__ import annotations

import struct
import warnings
from contextlib import contextmanager
from os import PathLike

import numpy as np

from ._checks import integer

__all__ = [
    "MAGIC",
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


def _check_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
    return arr


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
def _opened(src, mode: str):
    if isinstance(src, (str, PathLike)):
        with open(src, mode) as handle:
            yield handle
    else:
        yield src


def _write_csv_blocks(dest, blocks, shape) -> None:
    n, d = shape
    with _opened(dest, "w") as out:
        # One row at a time: a whole-block tolist() would hold every value
        # as a Python float at once.
        fmt = ",".join(["%.17g"] * d) + "\n"
        for block in _checked_blocks(blocks, n, d):
            for row in block:
                out.write(fmt % tuple(row.tolist()))


def _read_csv(src, header: bool = False) -> np.ndarray:
    """Read a CSV matrix; raises MatrixFormatError on ragged or empty input.

    '#' is not a comment marker: a value or line that holds one is unreadable.
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

    The result is a read-only view of the bytes read, so the payload is held
    in memory once.
    """
    with _opened(src, "rb") as handle:
        buf = handle.read()
    if len(buf) < _HEADER.size:
        raise MatrixFormatError(
            f"truncated header: need {_HEADER.size} bytes, file has {len(buf)}", offset=len(buf)
        )
    magic, n, d = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise MatrixFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if n < 1 or d < 1:
        raise MatrixFormatError(f"header declares empty matrix {n}x{d}", offset=4)
    expected = _HEADER.size + 8 * n * d
    if len(buf) < expected:
        raise MatrixFormatError(
            f"payload ends early: {n}x{d} matrix needs {expected} bytes, file has {len(buf)}",
            offset=len(buf),
        )
    if len(buf) > expected:
        raise MatrixFormatError(
            f"trailing bytes after {n}x{d} payload: expected {expected} bytes, file has {len(buf)}",
            offset=expected,
        )
    return np.frombuffer(buf, dtype="<f8", offset=_HEADER.size).reshape(n, d)


def write_matrix(dest, data, fmt: str = "csv") -> None:
    """Write a matrix in the named format ("csv" or "raw-f64")."""
    arr = _check_matrix(data)
    write_blocks(dest, [arr], arr.shape, fmt=fmt)


def write_blocks(dest, blocks, shape, fmt: str = "csv") -> None:
    """Write an n x d matrix, given as an iterable of row blocks, in the named format.

    Blocks are consumed one at a time, so only the block being written needs
    to be in memory.  ValueError if the blocks do not stack into exactly the
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
