"""Matrix file round trips and malformed-file diagnostics.

CSV must survive a write/read cycle bit-exactly thanks to 17 significant
digits; the raw format is checked byte-for-byte including its header
layout, and every failure mode must report the right byte offset.
"""

import contextlib
import io
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

import rffkd._csvtext
import rffkd.matrixio
from rffkd import MatrixFormatError, PointSet, read_matrix, write_matrix
from rffkd._pool import WORKERS
from rffkd.matrixio import FORMATS, MAGIC, write_blocks


def awkward_matrix():
    """Values chosen to stress formatting: subnormal-adjacent exponents,
    negative zero, long mantissas."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 3))
    a *= 10.0 ** rng.integers(-200, 200, size=a.shape)
    a[0, 0] = 0.0
    a[1, 1] = -0.0
    a[2, 2] = 1.0 / 3.0
    a[3, 0] = -1e-300
    a[4, 1] = 9.87654321987654321e299
    return a


def mixed_matrix(n, d):
    """n x d values over 24 decades, most in %g's fixed notation, with
    zeros, a subnormal, tiny, huge and non-finite values among them."""
    rng = np.random.default_rng([n, d])
    a = rng.standard_normal(n * d) * 10.0 ** rng.integers(-6, 18, size=n * d)
    special = [0.0, -0.0, 5e-324, -1e-5, 1e16, -1e300, np.inf, -np.inf, np.nan, 1.0 / 3.0]
    at = rng.choice(n * d, size=min(n * d, 3 * len(special)), replace=False)
    a[at] = np.resize(special, at.size)
    return a.reshape(n, d)


def csv_lines(a):
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in a.tolist())


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        a = awkward_matrix()
        path = tmp_path / "m.csv"
        write_matrix(path, a)
        b = read_matrix(path)
        np.testing.assert_array_equal(a, b)

    def test_round_trip_with_header(self, tmp_path):
        """The reader skips a header row that the writer never writes."""
        a = awkward_matrix()
        path = tmp_path / "m.csv"
        with open(path, "w") as handle:
            handle.write("c0,c1,c2\n")
            write_matrix(handle, a)
        np.testing.assert_array_equal(read_matrix(path, header=True), a)

    def test_file_object_round_trip(self):
        a = np.array([[1.5, -2.25], [0.1, 3.0]])
        buf = io.StringIO()
        write_matrix(buf, a)
        buf.seek(0)
        np.testing.assert_array_equal(read_matrix(buf), a)

    def test_single_cell(self, tmp_path):
        path = tmp_path / "one.csv"
        write_matrix(path, [[42.0]])
        got = read_matrix(path)
        assert got.shape == (1, 1) and got[0, 0] == 42.0

    def test_single_row_keeps_two_dims(self, tmp_path):
        path = tmp_path / "row.csv"
        write_matrix(path, [[1.0, 2.0, 3.0]])
        assert read_matrix(path).shape == (1, 3)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(MatrixFormatError, match="unreadable CSV"):
            read_matrix(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,banana\n")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MatrixFormatError, match="no rows"):
            read_matrix(path)

    @pytest.mark.parametrize("text", ["1,2#3\n", "#x\n1,2\n"])
    def test_hash_is_not_a_comment(self, tmp_path, text):
        """'#' is not a comment marker, so input holding one is unreadable
        rather than read with the rest of its line dropped."""
        path = tmp_path / "hash.csv"
        path.write_text(text)
        with pytest.raises(MatrixFormatError, match="unreadable CSV"):
            read_matrix(path)

    def test_empty_matrix_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty"):
            write_matrix(tmp_path / "x.csv", np.zeros((0, 3)))
        with pytest.raises(ValueError, match="non-empty"):
            write_matrix(tmp_path / "x.csv", np.zeros(4))


class TestRaw:
    def test_round_trip_is_bit_exact(self, tmp_path):
        a = awkward_matrix()
        a[5, 2] = np.nan
        a[6, 0] = np.inf
        path = tmp_path / "m.bin"
        write_matrix(path, a, fmt="raw-f64")
        b = read_matrix(path, fmt="raw-f64")
        assert b.shape == a.shape
        assert a.tobytes() == b.tobytes()

    def test_file_layout(self, tmp_path):
        a = np.array([[1.0, 2.0]])
        path = tmp_path / "m.bin"
        write_matrix(path, a, fmt="raw-f64")
        buf = path.read_bytes()
        assert buf[:4] == MAGIC
        n, d = struct.unpack_from("<II", buf, 4)
        assert (n, d) == (1, 2)
        assert len(buf) == 12 + 16
        np.testing.assert_array_equal(np.frombuffer(buf, "<f8", offset=12), [1.0, 2.0])

    def test_file_object_round_trip(self):
        a = np.array([[7.0], [8.0]])
        buf = io.BytesIO()
        write_matrix(buf, a, fmt="raw-f64")
        buf.seek(0)
        np.testing.assert_array_equal(read_matrix(buf, fmt="raw-f64"), a)

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix(path, [[1.0]], fmt="raw-f64")
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(MatrixFormatError, match="bad magic") as info:
            read_matrix(path, fmt="raw-f64")
        assert info.value.offset == 0

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(MatrixFormatError, match="truncated header") as info:
            read_matrix(path, fmt="raw-f64")
        assert info.value.offset == 5

    def test_empty_shape_offset_four(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(struct.pack("<4sII", MAGIC, 0, 3))
        with pytest.raises(MatrixFormatError, match="empty matrix") as info:
            read_matrix(path, fmt="raw-f64")
        assert info.value.offset == 4

    def test_short_payload_offset_is_file_end(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix(path, np.ones((2, 2)), fmt="raw-f64")
        buf = path.read_bytes()
        path.write_bytes(buf[:-8])
        with pytest.raises(MatrixFormatError, match="ends early") as info:
            read_matrix(path, fmt="raw-f64")
        assert info.value.offset == len(buf) - 8

    def test_trailing_bytes_offset_is_expected_size(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix(path, np.ones((2, 2)), fmt="raw-f64")
        expected = 12 + 32
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(MatrixFormatError, match="trailing bytes") as info:
            read_matrix(path, fmt="raw-f64")
        assert info.value.offset == expected

    def test_error_message_carries_offset(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"XX")
        with pytest.raises(MatrixFormatError, match=r"byte offset 2"):
            read_matrix(path, fmt="raw-f64")


class NoSeek(io.RawIOBase):
    """Bytes readable as a pipe is: no seek, no tell."""

    def __init__(self, data):
        self.data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, b):
        return self.data.readinto(b)


class Pieces(NoSeek):
    """A pipe whose writer sends at most four bytes at a time."""

    def readinto(self, b):
        return self.data.readinto(memoryview(b)[:4])


class Shrinks(io.BytesIO):
    """A file cut to `end` bytes after its size was taken."""

    def __init__(self, data, end):
        super().__init__(data)
        self.end = end

    def readinto(self, b):
        return super().readinto(memoryview(b)[: max(0, self.end - self.tell())])


class TestReadRawMemory:
    def test_payload_held_once(self, tmp_path):
        """The read keeps the bytes it read; a converted copy would double the peak."""
        a = np.random.default_rng(1).standard_normal((512, 1024))
        path = tmp_path / "m.bin"
        write_matrix(path, a, fmt="raw-f64")
        tracemalloc.start()
        try:
            b = read_matrix(path, fmt="raw-f64")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b.tobytes() == a.tobytes()
        assert peak <= 1.25 * a.nbytes

    def test_payload_held_once_from_an_open_file(self, tmp_path):
        """A buffered reader's read-ahead from the header is not joined to a
        second copy of the payload."""
        a = np.random.default_rng(1).standard_normal((512, 1024))
        path = tmp_path / "m.bin"
        write_matrix(path, a, fmt="raw-f64")
        with open(path, "rb") as handle:
            tracemalloc.start()
            try:
                b = read_matrix(handle, fmt="raw-f64")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert b.tobytes() == a.tobytes()
        assert not b.flags.writeable
        assert peak <= 1.25 * a.nbytes

    @pytest.mark.parametrize("opened", [False, True])
    def test_huge_declared_size_allocates_nothing(self, tmp_path, opened):
        """A short file whose header declares (2^32 - 1) x (2^32 - 1) is
        refused before a payload of that size is allocated."""
        path = tmp_path / "m.bin"
        big = 2**32 - 1
        path.write_bytes(struct.pack("<4sII", MAGIC, big, big) + bytes(64))
        with open(path, "rb") if opened else contextlib.nullcontext(path) as src:
            tracemalloc.start()
            try:
                with pytest.raises(MatrixFormatError, match="payload ends early") as info:
                    read_matrix(src, fmt="raw-f64")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert info.value.offset == 12 + 64
        assert peak < 1 << 20

    def test_stream_that_cannot_seek(self, tmp_path):
        a = np.random.default_rng(3).standard_normal((40, 3))
        buf = io.BytesIO()
        write_matrix(buf, a, fmt="raw-f64")
        stream = io.BufferedReader(NoSeek(buf.getvalue()))
        assert read_matrix(stream, fmt="raw-f64").tobytes() == a.tobytes()
        short = io.BufferedReader(NoSeek(buf.getvalue()[:-8]))
        with pytest.raises(MatrixFormatError, match="payload ends early"):
            read_matrix(short, fmt="raw-f64")

    def test_header_in_pieces(self):
        """A pipe may deliver the 12-byte header in pieces, such as "RFFM"
        first; each is read until the header is whole."""
        a = np.random.default_rng(4).standard_normal((5, 3))
        buf = io.BytesIO()
        write_matrix(buf, a, fmt="raw-f64")
        assert read_matrix(Pieces(buf.getvalue()), fmt="raw-f64").tobytes() == a.tobytes()
        with pytest.raises(MatrixFormatError, match="file has 10") as info:
            read_matrix(Pieces(buf.getvalue()[:10]), fmt="raw-f64")
        assert info.value.offset == 10

    def test_file_that_shrank_while_read(self):
        """Its size promised the whole payload, but the reads end at 30 bytes."""
        buf = io.BytesIO()
        write_matrix(buf, np.ones((2, 2)), fmt="raw-f64")
        with pytest.raises(MatrixFormatError, match="ends early.* file has 30") as info:
            read_matrix(Shrinks(buf.getvalue(), 30), fmt="raw-f64")
        assert info.value.offset == 30

    def test_result_is_aligned(self, tmp_path):
        """The payload is read apart from the 12-byte header, so the view
        starts on a float64 boundary."""
        path = tmp_path / "m.bin"
        write_matrix(path, np.ones((3, 2)), fmt="raw-f64")
        assert read_matrix(path, fmt="raw-f64").flags.aligned


class TestReadCsvMemory:
    def test_result_is_read_only_and_kept_by_point_set(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(path, awkward_matrix())
        arr = read_matrix(path)
        assert not arr.flags.writeable
        assert np.shares_memory(PointSet(arr).data, arr)

    def test_matrix_held_once(self, tmp_path):
        """Reading and wrapping in a PointSet hold one matrix; a copy by
        PointSet would hold two."""
        a = np.random.default_rng(2).standard_normal((4096, 64))
        path = tmp_path / "m.csv"
        write_matrix(path, a)
        tracemalloc.start()
        try:
            points = PointSet(read_matrix(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(points.data, a)
        assert peak <= 1.5 * a.nbytes


class TestWriteBlocks:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_blocks_write_the_stacked_matrix(self, tmp_path, fmt):
        a = awkward_matrix()
        write_matrix(tmp_path / "whole", a, fmt=fmt)
        write_blocks(tmp_path / "blocks", [a[:2], a[2:2], a[2:5], a[5:]], a.shape, fmt=fmt)
        assert (tmp_path / "blocks").read_bytes() == (tmp_path / "whole").read_bytes()

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_blocks_are_consumed_lazily(self, fmt):
        """A block is written before the next one is made."""
        buf = io.StringIO() if fmt == "csv" else io.BytesIO()
        sizes = []

        def blocks():
            for _ in range(3):
                sizes.append(len(buf.getvalue()))
                yield np.ones((2, 3))

        write_blocks(buf, blocks(), (6, 3), fmt=fmt)
        assert sizes[0] < sizes[1] < sizes[2] < len(buf.getvalue())

    def test_csv_jobs_on_the_pool_keep_row_order(self, monkeypatch):
        """One row per formatting job, the earlier rows slower: the jobs run
        on the pool's threads and the text still comes out in row order."""
        a = np.random.default_rng(3).standard_normal((8, 3))
        rank = {row[0]: i for i, row in enumerate(a.tolist())}
        text, threads = rffkd._csvtext.csv_text, set()

        def slow_early_rows(chunk):
            threads.add(threading.current_thread())
            time.sleep(0.003 * (len(a) - rank[chunk[0, 0]]))
            return text(chunk)

        monkeypatch.setattr(rffkd.matrixio, "_CSV_JOB_VALUES", a.shape[1])
        monkeypatch.setattr(rffkd._csvtext, "csv_text", slow_early_rows)
        buf = io.StringIO()
        write_blocks(buf, [a[:3], a[3:]], a.shape)
        assert buf.getvalue() == csv_lines(a)
        assert threading.main_thread() not in threads

    def test_at_most_eight_jobs_in_flight(self, monkeypatch, pools):
        """4 * WORKERS formatting jobs submitted ahead of the text being
        written, never more, on a pool of WORKERS threads: what the jobs in
        flight hold cannot grow unseen."""
        a = np.random.default_rng(5).standard_normal((12, 3))
        monkeypatch.setattr(rffkd.matrixio, "_CSV_JOB_VALUES", a.shape[1])  # a row a job
        in_flight = []

        class Out(io.StringIO):
            def write(self, text):
                in_flight.append(pools[0].submitted - len(in_flight))
                return super().write(text)

        out = Out()
        write_blocks(out, [a[:5], a[5:]], a.shape)
        depth = 4 * WORKERS
        assert in_flight == [min(depth, len(a) - k) for k in range(len(a))]
        assert [pool._max_workers for pool in pools] == [WORKERS]
        assert out.getvalue() == csv_lines(a)

    @pytest.mark.parametrize("d", [1, 7, 1600])
    @pytest.mark.parametrize("job", ["one row", "default", "more rows than n"])
    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
    def test_csv_bytes_across_job_boundaries(self, monkeypatch, pools, d, job, pooled):
        """Every job size gives '%.17g' text byte for byte, in blocks whose
        edges fall one row past a job's edge and with an empty block, on
        the calling thread and on the pool.  Jobs longer than n are one job
        a block, which builds no pool."""
        default = max(1, rffkd.matrixio._CSV_JOB_VALUES // d)
        rows = 1 if job == "one row" else default
        n = 2 * rows + 3
        if job == "one row":
            monkeypatch.setattr(rffkd.matrixio, "_CSV_JOB_VALUES", d)
        elif job == "more rows than n":
            monkeypatch.setattr(rffkd.matrixio, "_CSV_JOB_VALUES", d * (n + 1))
        if not pooled:
            monkeypatch.setattr(rffkd.matrixio, "_CSV_AHEAD", 0)
        a = mixed_matrix(n, d)
        buf = io.StringIO()
        write_blocks(buf, [a[:1], a[1:1], a[1:rows + 2], a[rows + 2:]], a.shape)
        assert buf.getvalue() == csv_lines(a)
        assert len(pools) == (1 if pooled and job != "more rows than n" else 0)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "blocks, match",
        [
            ([np.ones((2, 3)), np.ones((2, 3))], "more than the declared 3 rows"),
            ([np.ones((2, 3))], "delivered 2 rows, declared 3"),
            ([], "delivered 0 rows, declared 3"),
            ([np.ones((3, 2))], "2 columns, declared 3"),
            ([np.ones(3)], "must be 2-d"),
            ([np.ones((1, 3, 1))], "must be 2-d"),
        ],
    )
    def test_shape_mismatch_rejected(self, fmt, blocks, match):
        buf = io.StringIO() if fmt == "csv" else io.BytesIO()
        with pytest.raises(ValueError, match=match):
            write_blocks(buf, blocks, (3, 3), fmt=fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_declared_shape_rejected(self, fmt, shape):
        buf = io.StringIO() if fmt == "csv" else io.BytesIO()
        with pytest.raises(ValueError, match="non-empty"):
            write_blocks(buf, [np.zeros(shape)], shape, fmt=fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("shape", [(2.7, 3.9), (2.0, 3), (2, True), ("2", 3)])
    def test_non_integer_shape_rejected(self, fmt, shape):
        """A shape entry is not truncated or parsed: (2.7, 3.9) is no 2 x 3."""
        buf = io.StringIO() if fmt == "csv" else io.BytesIO()
        with pytest.raises(ValueError, match="shape entry must be an integer >= 0"):
            write_blocks(buf, [np.ones((2, 3))], shape, fmt=fmt)
        assert not buf.getvalue()

    @pytest.mark.parametrize("shape", [(1 << 32, 1), (1, 1 << 32)])
    def test_raw_header_must_fit_u32(self, shape):
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="u32"):
            write_blocks(buf, [], shape, fmt="raw-f64")
        assert buf.getvalue() == b""


class TestDispatch:
    def test_formats_constant(self):
        assert FORMATS == ("csv", "raw-f64")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_round_trip_via_dispatch(self, tmp_path, fmt):
        a = awkward_matrix()
        path = tmp_path / "m.dat"
        write_matrix(path, a, fmt=fmt)
        np.testing.assert_array_equal(read_matrix(path, fmt=fmt), a)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown matrix format"):
            write_matrix(tmp_path / "m.dat", [[1.0]], fmt="json")
        with pytest.raises(ValueError, match="unknown matrix format"):
            read_matrix(tmp_path / "m.dat", fmt="npz")

    def test_raw_header_rejected(self, tmp_path):
        """A raw-f64 file has no header row to skip, so header=True is refused."""
        path = tmp_path / "m.bin"
        write_matrix(path, [[1.0, 2.0]], fmt="raw-f64")
        with pytest.raises(ValueError, match="header"):
            read_matrix(path, fmt="raw-f64", header=True)

    def test_format_error_is_value_error(self):
        assert issubclass(MatrixFormatError, ValueError)
