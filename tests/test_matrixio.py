"""Matrix file round trips and malformed-file diagnostics.

CSV must survive a write/read cycle bit-exactly thanks to 17 significant
digits; the raw format is checked byte-for-byte including its header
layout, and every failure mode must report the right byte offset.
"""

import io
import struct
import tracemalloc

import numpy as np
import pytest

from rffkd import MatrixFormatError, read_matrix, write_matrix
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
