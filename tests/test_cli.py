"""Command-line interface: subcommand schemas, exit codes, file and stdout
routing, and determinism.  Everything drives main() in-process; one test
exercises the installed console script end to end.
"""

import csv
import io
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rffkd
import rffkd.features
import rffkd.kpca
import rffkd.matrixio
import rffkd.verify
from rffkd import Bandwidth, FeatureMapSpec, PointSet, Variant, embed, sample_map
from rffkd._pool import WORKERS
from rffkd.cli import main
from rffkd.matrixio import read_matrix, write_matrix


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestDims:
    def test_per_pair(self, capsys):
        rc, out, err = run_cli(
            capsys, "dims", "--regime", "per-pair", "--epsilon", "0.3", "--delta", "0.2"
        )
        assert rc == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == [
            "regime", "epsilon", "delta", "n", "dim", "diameter",
            "constant", "pair_count", "output_dim", "formula_note",
        ]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["regime"] == "per-pair"
        assert row["pair_count"] == "205"
        assert row["output_dim"] == "410"
        assert row["n"] == "" and row["diameter"] == ""

    def test_finite_points(self, capsys):
        rc, out, _ = run_cli(
            capsys, "dims", "--regime", "finite-points", "--epsilon", "0.2", "--n", "2000"
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0]))["pair_count"] == "3041"

    def test_bounded_diameter(self, capsys):
        rc, out, _ = run_cli(
            capsys, "dims", "--regime", "bounded-diameter", "--epsilon", "0.25",
            "--delta", "0.1", "--dim", "2", "--diameter", "100",
        )
        assert rc == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["pair_count"] == "2301"
        assert "extrapolated" in row["formula_note"]

    def test_missing_field_is_error(self, capsys):
        rc, out, err = run_cli(capsys, "dims", "--regime", "per-pair", "--epsilon", "0.3")
        assert (rc, out) == (2, "")
        assert err == "rffkd: error: --delta is required for dims --regime per-pair\n"

    def test_unused_field_is_error(self, capsys):
        """finite-points plans at delta = 1/n, so a --delta it would ignore
        is refused rather than printed next to the plan."""
        rc, out, err = run_cli(
            capsys, "dims", "--regime", "finite-points", "--epsilon", "0.2", "--n", "2000",
            "--delta", "0.1",
        )
        assert rc == 2 and out == ""
        assert err == "rffkd: error: --delta does not apply to dims --regime finite-points\n"

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "plan.csv"
        rc, out, _ = run_cli(
            capsys, "dims", "--regime", "per-pair", "--epsilon", "0.3", "--delta", "0.2",
            "--output", str(dest),
        )
        assert rc == 0 and out == ""
        assert "205" in dest.read_text()


class TestEmbed:
    def write_points(self, tmp_path, n=4, dim=3, fmt="csv"):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((n, dim))
        path = tmp_path / ("pts.csv" if fmt == "csv" else "pts.bin")
        write_matrix(path, pts, fmt=fmt)
        return path, pts

    def test_csv_roundtrip_shape_and_norms(self, tmp_path, capsys):
        path, _ = self.write_points(tmp_path)
        rc, out, err = run_cli(capsys, "--t", "16", "embed", "--input", str(path))
        assert rc == 0 and err == ""
        emb = np.loadtxt(io.StringIO(out), delimiter=",", ndmin=2)
        assert emb.shape == (4, 32)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)

    def test_raw_input_and_raw_output(self, tmp_path, capsys):
        path, _ = self.write_points(tmp_path, fmt="raw-f64")
        dest = tmp_path / "emb.bin"
        rc, out, _ = run_cli(
            capsys, "--t", "8", "embed", "--input", str(path),
            "--input-format", "raw-f64", "--output", str(dest), "--output-format", "raw-f64",
        )
        assert rc == 0 and out == ""
        emb = read_matrix(dest, fmt="raw-f64")
        assert emb.shape == (4, 16)

    def test_deterministic_across_runs(self, tmp_path, capsys):
        path, _ = self.write_points(tmp_path)
        args = ("--seed", "7", "--t", "12", "embed", "--input", str(path))
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_shift_variant_output_dim(self, tmp_path, capsys):
        """cosshift emits t features per point instead of 2t."""
        path, _ = self.write_points(tmp_path)
        rc, out, _ = run_cli(
            capsys, "--variant", "cosshift", "--t", "16", "embed", "--input", str(path)
        )
        assert rc == 0
        emb = np.loadtxt(io.StringIO(out), delimiter=",", ndmin=2)
        assert emb.shape == (4, 16)

    def test_header_flag_skips_first_row(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        rc, out, _ = run_cli(capsys, "--t", "4", "embed", "--input", str(path), "--header")
        assert rc == 0
        emb = np.loadtxt(io.StringIO(out), delimiter=",", ndmin=2)
        assert emb.shape == (2, 8)

    def test_missing_input_is_error(self, capsys):
        rc, out, err = run_cli(capsys, "embed")
        assert (rc, out, err) == (2, "", "rffkd: error: --input is required for embed\n")

    def test_malformed_input_is_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        rc, _, err = run_cli(capsys, "embed", "--input", str(path))
        assert rc == 2 and "unreadable CSV" in err

    @pytest.mark.parametrize("text", ["1,2#3\n", "#x\n1,2\n"])
    def test_hash_in_input_is_error(self, tmp_path, capsys, text):
        path = tmp_path / "hash.csv"
        path.write_text(text)
        rc, out, err = run_cli(capsys, "embed", "--input", str(path))
        assert rc == 2 and out == "" and "unreadable CSV" in err

    def test_missing_file_is_error(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "embed", "--input", str(tmp_path / "nope.csv"))
        assert rc == 2 and "rffkd: error:" in err

    @pytest.mark.parametrize("command", [["embed"], ["kpca", "--k", "1", "--t-list", "4"]])
    def test_header_with_raw_input_is_error(self, tmp_path, capsys, command):
        path = tmp_path / "pts.bin"
        write_matrix(path, np.ones((4, 2)), fmt="raw-f64")
        rc, out, err = run_cli(
            capsys, *command, "--input", str(path), "--input-format", "raw-f64", "--header"
        )
        assert rc == 2 and out == "" and "header" in err


BLOCK_ROWS = 5  # rows per embed block in the streaming tests


def stream_cases(test):
    """Each output format and variant, at row counts around the block size."""
    test = pytest.mark.parametrize(
        "n", [1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]
    )(test)
    test = pytest.mark.parametrize("variant", [v.value for v in Variant])(test)
    return pytest.mark.parametrize("fmt", ["csv", "raw-f64"])(test)


class TestEmbedStreaming:
    @stream_cases
    def test_output_bytes_equal_whole_matrix(self, tmp_path, capsys, monkeypatch, fmt, variant, n):
        """Block by block, the CLI writes the bytes of the one-product
        embedding; these inputs of at most three blocks take the serial loop."""
        pts = np.random.default_rng(n).standard_normal((n, 5))
        src = tmp_path / "pts.bin"
        write_matrix(src, pts, fmt="raw-f64")
        fmap = sample_map(FeatureMapSpec(Variant(variant), Bandwidth(0.7), 64, 9), 5)
        whole = tmp_path / "whole"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rffkd.features, "BLOCK_BYTES", 1 << 62)
            write_matrix(whole, embed(PointSet(pts), fmap).features, fmt=fmt)
        monkeypatch.setattr(rffkd.features, "BLOCK_BYTES", BLOCK_ROWS * 8 * fmap.spec.output_dim)
        dest = tmp_path / "cli"
        rc, _, err = run_cli(
            capsys, "--seed", "9", "--sigma", "0.7", "--t", "64", "--variant", variant,
            "embed", "--input", str(src), "--input-format", "raw-f64",
            "--output", str(dest), "--output-format", fmt,
        )
        assert rc == 0 and err == ""
        assert dest.read_bytes() == whole.read_bytes()

    @stream_cases
    def test_output_bytes_from_the_pool(
        self, tmp_path, capsys, monkeypatch, take_pool, fmt, variant, n
    ):
        """The same bytes from the thread pool, which here takes any input of
        two blocks or more."""
        take_pool("pooled")
        self.test_output_bytes_equal_whole_matrix(tmp_path, capsys, monkeypatch, fmt, variant, n)

    def test_memory_bounded_by_blocks_not_output(self, tmp_path):
        """20000 x 800 output is 128 MB; the CLI holds a few blocks plus the input."""
        pts = np.random.default_rng(0).standard_normal((20000, 8))
        src, dest = tmp_path / "pts.bin", tmp_path / "emb.bin"
        write_matrix(src, pts, fmt="raw-f64")
        tracemalloc.start()
        try:
            rc = main([
                "--t", "400", "embed", "--input", str(src), "--input-format", "raw-f64",
                "--output", str(dest), "--output-format", "raw-f64",
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert dest.stat().st_size == 12 + 8 * 20000 * 800
        dest.unlink()
        assert peak <= 4 * rffkd.features.BLOCK_BYTES + 3 * pts.nbytes

    def test_csv_memory_bounded_by_blocks_and_jobs(self, tmp_path, report_cpus):
        """2000 x 800 CSV output is about 33 MB of text; the CLI holds a few
        blocks, the input, and the formatting jobs in flight with their
        temporaries (under 256 bytes a value), with 64 CPUs reported."""
        report_cpus(64)
        pts = np.random.default_rng(0).standard_normal((2000, 8))
        src, dest = tmp_path / "pts.bin", tmp_path / "emb.csv"
        write_matrix(src, pts, fmt="raw-f64")
        tracemalloc.start()
        try:
            rc = main([
                "--t", "400", "embed", "--input", str(src), "--input-format", "raw-f64",
                "--output", str(dest), "--output-format", "csv",
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        size = dest.stat().st_size
        dest.unlink()
        jobs = (WORKERS + 1) * rffkd.matrixio._CSV_JOB_VALUES * 256
        assert peak <= 4 * rffkd.features.BLOCK_BYTES + 3 * pts.nbytes + jobs < size


# Embeds every case of the thread-count contract, one sha256 a line: both
# variants over d in {3, 8, 32, 256} x t in {8, 300, 800} (2000 points; the
# CosSin cases at t = 800 are 13 blocks, so pooled), then the CLI on argv,
# whose output file is the last argument.
EMBED_CASES = """
import hashlib, sys
import numpy as np
import rffkd.cli
from rffkd import Bandwidth, FeatureMapSpec, PointSet, Variant, embed, sample_map
for variant in Variant:
    for dim in (3, 8, 32, 256):
        points = PointSet(np.random.default_rng(dim).standard_normal((2000, dim)))
        for t in (8, 300, 800):
            fmap = sample_map(FeatureMapSpec(variant, Bandwidth(4.0), t, 3), dim)
            print(variant.value, dim, t, hashlib.sha256(embed(points, fmap).features).hexdigest())
assert rffkd.cli.main(sys.argv[1:]) == 0
print("cli", hashlib.sha256(open(sys.argv[-1], "rb").read()).hexdigest())
"""


def test_embed_bytes_do_not_depend_on_blas_threads(tmp_path, bundled_openblas):
    """The same sha256 for every case under one, two and four OpenBLAS
    threads.  The CLI case, `--seed 3 --sigma 4 --t 300 embed` of a 700 x 32
    raw input, differed between one and two when the projection ran on BLAS's
    own threads."""
    points = tmp_path / "points.f64"
    assert main([
        "--seed", "3", "gen", "--kind", "synth", "--n", "700", "--dim", "32",
        "--output", str(points), "--output-format", "raw-f64",
    ]) == 0
    argv = [
        "--seed", "3", "--sigma", "4", "--t", "300", "embed", "--input", points,
        "--input-format", "raw-f64", "--output-format", "raw-f64", "--output",
    ]
    one, two, four = (
        fresh_stdout(EMBED_CASES, *argv, tmp_path / f"out{k}.f64", OPENBLAS_NUM_THREADS=str(k))
        .splitlines() for k in (1, 2, 4)
    )
    assert len(one) == 25
    assert one == two == four


class TestGen:
    def test_synth_shape(self, capsys):
        rc, out, _ = run_cli(
            capsys, "gen", "--kind", "synth", "--n", "30", "--dim", "5", "--clusters", "3"
        )
        assert rc == 0
        pts = np.loadtxt(io.StringIO(out), delimiter=",", ndmin=2)
        assert pts.shape == (30, 5)

    def test_grid_reference_count(self, capsys):
        step = math.sqrt(2.0 * math.log(1.0 / 0.25))
        rc, out, _ = run_cli(
            capsys, "gen", "--kind", "grid", "--diameter", str(10.0 * step)
        )
        assert rc == 0
        pts = np.loadtxt(io.StringIO(out), delimiter=",", ndmin=2)
        assert pts.shape == (441, 2)

    @pytest.mark.parametrize("dim", [33, 64, 65])
    def test_one_point_grid_in_many_dims(self, capsys, dim):
        """numpy's meshgrid takes at most 32 axes and an array at most 64; the
        lattice needs neither."""
        argv = ["gen", "--kind", "grid", "--dim", str(dim), "--diameter", "0.5"]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (0, "")
        assert out == ",".join(["0"] * dim) + "\n"

    @pytest.mark.parametrize("dim", [10**5, 3 * 10**7, 10**23])
    def test_grid_of_large_dim_refused_at_once(self, capsys, dim):
        """The refusal forms no side**dim of that size, and names the grid."""
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "gen", "--kind", "grid", "--dim", str(dim), "--diameter", "3")
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (2, "")
        assert err.startswith(f"rffkd: error: grid 3^{dim} would hold over 2^32 points in dim {dim},")

    def test_epsilon_whose_reciprocal_overflows_refused(self, capsys):
        """The grid step needs ln(1/epsilon): the smallest epsilon whose
        reciprocal is a finite float runs, and the float below it and
        subnormal epsilons are refused by name, with no warning."""
        argv = ["gen", "--kind", "grid", "--diameter", "3", "--epsilon"]
        lo = 5.56268464626801e-309
        assert math.isfinite(1.0 / lo) and math.isinf(1.0 / math.nextafter(lo, 0.0))
        assert run_cli(capsys, *argv, repr(lo)) == (0, "0,0\n", "")
        for eps in (math.nextafter(lo, 0.0), 1e-310, 5e-324):
            rc, out, err = run_cli(capsys, *argv, repr(eps))
            assert (rc, out) == (2, "")
            assert err == (
                f"rffkd: error: epsilon must be large enough that 1/epsilon is finite, got {eps!r}\n"
            )

    def test_grid_requires_diameter(self, capsys):
        rc, out, err = run_cli(capsys, "gen", "--kind", "grid")
        assert (rc, out) == (2, "")
        assert err == "rffkd: error: --diameter is required for gen --kind grid\n"

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--n", "--kind grid --diameter 3 --n 5"),
            ("--clusters", "--kind grid --diameter 3 --clusters 4"),
            ("--diameter", "--kind synth --n 5 --diameter 5"),
            ("--epsilon", "--kind synth --n 5 --epsilon 0.5"),
        ],
    )
    def test_flag_of_the_other_kind_is_error(self, capsys, flag, argv):
        rc, out, err = run_cli(capsys, "gen", *argv.split())
        assert rc == 2 and out == "" and flag in err

    def test_synth_deterministic_with_seed(self, capsys):
        args = ("--seed", "3", "gen", "--kind", "synth", "--n", "10", "--dim", "4")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestKpca:
    def test_synthetic_run_schema(self, capsys):
        rc, out, _ = run_cli(
            capsys, "--sigma", "1.5", "kpca", "--synth-n", "60", "--synth-dim", "4",
            "--synth-clusters", "3", "--k", "5", "--t-list", "20,40", "--trials", "2",
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["sigma", "t", "k", "R_exact", "R_approx", "rel_err"]
        assert [r[1] for r in rows] == ["20", "40"]
        for r in rows:
            assert float(r[3]) > 0 and float(r[4]) > 0 and float(r[5]) >= 0

    def test_input_file_run(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "pts.csv"
        write_matrix(path, rng.standard_normal((25, 3)))
        rc, out, _ = run_cli(
            capsys, "kpca", "--input", str(path), "--k", "3", "--t-list", "16", "--trials", "2"
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0][2] == "3"

    def test_bad_t_list_is_error(self, capsys):
        rc, _, err = run_cli(capsys, "kpca", "--synth-n", "20", "--synth-dim", "3", "--t-list", "a,b")
        assert rc == 2 and "--t-list" in err

    @pytest.mark.parametrize("sigma, note", [("1e100", True), ("1.5", False)])
    def test_nan_rel_err_is_explained_on_stderr(self, capsys, sigma, note):
        """At sigma = 1e100 the exact tail energy is 0 and rel_err is nan:
        one stderr line says why, and the report and exit code are as
        without it.  A run with a relative error prints nothing there."""
        rc, out, err = run_cli(
            capsys, "--sigma", sigma, "kpca", "--synth-n", "20", "--synth-dim", "2",
            "--synth-clusters", "2", "--k", "1", "--t-list", "4", "--trials", "1",
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert len(rows) == 1 and (rows[0][3] == "0") == note and (rows[0][5] == "nan") == note
        if note:
            assert out.startswith("sigma,t,k,R_exact,R_approx,rel_err\n1e+100,4,1,0,5.57")
            assert err == (
                "rffkd: note: rel_err is nan because the exact tail energy R_exact is 0"
                " at k = 1 and sigma = 1e+100, so no relative error exists\n"
            )
        else:
            assert err == ""


@pytest.mark.parametrize(
    "command",
    [["kpca", "--synth-n", "20", "--synth-dim", "3", "--k", "2", "--trials", "1"],
     ["pairs", "--pairs", "2", "--dim", "2"]],
    ids=["kpca", "pairs"],
)
@pytest.mark.parametrize("t_list", ["8,,16,", "8,16,", ",8", "", "8, ,16"])
def test_empty_t_list_entry_is_error(capsys, command, t_list):
    """An empty entry is refused and the text named, not skipped."""
    rc, out, err = run_cli(capsys, *command, "--t-list", t_list)
    assert rc == 2 and out == ""
    assert f"--t-list must be comma-separated integers, got {t_list!r}" in err


class TestPairs:
    def test_schema_and_row_count(self, capsys):
        rc, out, _ = run_cli(
            capsys, "pairs", "--pairs", "50", "--dim", "4", "--t-list", "20,40"
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["t", "r", "d_exact", "d_approx", "ratio"]
        assert len(rows) == 100
        assert [r[0] for r in rows[:50]] == ["20"] * 50
        assert [r[0] for r in rows[50:]] == ["40"] * 50
        for r in rows:
            assert float(r[4]) > 0
            assert float(r[2]) == pytest.approx(float(r[3]) * float(r[4]), rel=1e-12)

    def test_distance_range_respected(self, capsys):
        rc, out, _ = run_cli(
            capsys, "pairs", "--pairs", "200", "--dim", "3", "--t-list", "20",
            "--dist-min", "0.5", "--dist-max", "2.0",
        )
        assert rc == 0
        _, rows = parse_csv(out)
        radii = np.array([float(r[1]) for r in rows])
        assert radii.min() >= 0.5 * (1 - 1e-9) and radii.max() <= 2.0 * (1 + 1e-9)

    @pytest.mark.parametrize(
        "argv",
        [
            "--dist-min 1e-20 --dist-max 1e-19",
            "--ball-radius 1e-300 --dist-min 1e300 --dist-max 1e301",
        ],
    )
    def test_collapsed_or_overflowed_distances_refused(self, capsys, argv):
        """Rows of r = 0 or inf would print ratios of nan or 0 with exit 0."""
        argv = ["pairs", "--pairs", "4", "--dim", "2", "--t-list", "8", *argv.split()]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("rffkd: error: pair distances in [dist_min, dist_max]")

    def test_vanishing_distances_refused(self, tmp_path, capsys):
        """180 decades below sigma both distances of a pair are 0, and their
        ratio 0/0 would print as nan with exit 0."""
        dest = tmp_path / "pairs.csv"
        argv = (
            "--sigma 1e150 pairs --dist-min 1e-30 --dist-max 1e-30 --ball-radius 1e-20"
            f" --pairs 2 --t-list 4 --output {dest}"
        )
        rc, out, err = run_cli(capsys, *argv.split())
        assert (rc, out) == (2, "") and not dest.exists()
        assert err == (
            "rffkd: error: pair distances in [dist_min, dist_max] = [1e-30, 1e-30] vanish at"
            " sigma 1e+150: an exact or embedded distance is 0, so no ratio exists\n"
        )


class TestOutputDestination:
    """--output - and no --output write to stdout the bytes that --output
    FILE writes to the file, for each matrix format and a report."""

    @pytest.mark.parametrize(
        "argv",
        [
            "--t 4 embed --input {points}",
            "--t 4 embed --input {points} --output-format raw-f64",
            "gen --kind synth --n 30 --dim 3 --clusters 2",
            "gen --kind grid --diameter 3 --output-format raw-f64",
            "dims --regime per-pair --epsilon 0.3 --delta 0.2",
        ],
        ids=["embed-csv", "embed-raw", "gen-csv", "gen-raw", "dims"],
    )
    def test_stdout_bytes_equal_file_bytes(self, tmp_path, capsysbinary, argv):
        points, dest = tmp_path / "points.csv", tmp_path / "out"
        write_matrix(points, np.random.default_rng(0).standard_normal((6, 3)))
        argv = argv.format(points=points).split()
        runs = [main([*argv, *extra]) for extra in ([], ["--output", "-"])]
        assert runs == [0, 0]
        both = capsysbinary.readouterr()
        assert main([*argv, "--output", str(dest)]) == 0
        assert capsysbinary.readouterr() == (b"", b"")
        written = dest.read_bytes()
        assert len(written) > 0
        assert both == (2 * written, b"")


class TestStdinInput:
    """--input - reads stdin, as --output - writes stdout: a pipe gives the
    bytes that --input FILE gives, for each input format and both commands
    that read a matrix.  Only a real pipe shows this: it cannot seek, so raw
    input takes the reader's branch for such streams."""

    @pytest.mark.parametrize("fmt", ["csv", "raw-f64"])
    @pytest.mark.parametrize(
        "argv",
        ["--t 5 embed", "kpca --k 2 --t-list 8,40 --trials 1"],
        ids=["embed", "kpca"],
    )
    def test_pipe_bytes_equal_file_bytes(self, tmp_path, capsysbinary, argv, fmt):
        points = tmp_path / "points"
        write_matrix(points, np.random.default_rng(3).standard_normal((30, 3)), fmt=fmt)
        argv = [*argv.split(), "--input-format", fmt, "--input"]
        assert main([*argv, str(points)]) == 0
        from_file = capsysbinary.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "rffkd.cli", *argv, "-"],
            input=points.read_bytes(), capture_output=True, env=package_env(), timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert len(from_file.out) > 0
        assert (proc.stdout, b"") == from_file


class TestOutOfRange:
    """Bandwidths and grid sizes that over- or underflow a double exit 2
    with a message naming the argument, not with a traceback or NaN output."""

    KPCA = "kpca --synth-n 20 --synth-dim 2 --synth-clusters 2 --k 1 --t-list 4 --trials 1"

    @pytest.mark.parametrize(
        "argv, name",
        [
            (f"--sigma 1e-200 {KPCA}", "sigma"),
            (f"--sigma 1e300 {KPCA}", "sigma"),
            ("--sigma 1e-320 --t 2 embed --input {}", "sigma"),
            ("--sigma 1e-10 gen --kind grid --diameter 1e308", "diameter"),
        ],
    )
    def test_refused(self, tmp_path, capsys, argv, name):
        path = tmp_path / "p.csv"
        path.write_text("1,2\n3,4\n")
        rc, out, err = run_cli(capsys, *argv.format(path).split())
        assert (rc, out) == (2, "")
        assert err.startswith(f"rffkd: error: {name} ")

    @pytest.mark.parametrize("sigma", [2.0**-511, float(np.nextafter(2.0**511, 0.0))])
    def test_edges_embed_finite(self, tmp_path, capsys, sigma):
        path = tmp_path / "p.csv"
        path.write_text("1,2\n3,4\n")
        argv = ["--sigma", repr(sigma), "--t", "2", "embed", "--input", str(path)]
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        emb = np.loadtxt(io.StringIO(out), delimiter=",", ndmin=2)
        assert emb.shape == (2, 4) and np.all(np.isfinite(emb))


    def test_projection_overflow_refused_before_output(self, tmp_path, capsys):
        """Finite input whose projection can overflow would print NaN features."""
        path, dest = tmp_path / "p.csv", tmp_path / "out.csv"
        path.write_text("1.7e308,1.7e308\n0,0\n")
        for output in ([], ["--output", str(dest)]):
            rc, out, err = run_cli(capsys, "--t", "3", "embed", "--input", str(path), *output)
            assert (rc, out) == (2, "")
            assert err.startswith("rffkd: error: points of magnitude up to 1.7e+308 ")
        assert not dest.exists()

    def test_large_points_below_the_bound_embed_finite(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("1e300,1e300\n0,0\n")
        rc, out, err = run_cli(capsys, "--t", "3", "embed", "--input", str(path))
        assert (rc, err) == (0, "")
        emb = np.loadtxt(io.StringIO(out), delimiter=",", ndmin=2)
        assert emb.shape == (2, 6) and np.all(np.isfinite(emb))

    @pytest.mark.parametrize("scale, refused", [(1e150, False), (1e154, True), (1e155, True)])
    def test_kpca_points_past_the_exact_gram(self, tmp_path, capsys, scale, refused):
        """Points whose exact Gram could overflow exit 2 naming their
        magnitude, and points just inside run; neither warns (the suite turns
        warnings into errors)."""
        path = tmp_path / "p.csv"
        points = np.array([[1.0, 2.0], [3.0, -1.0], [-2.0, 0.5], [0.3, -4.0]]) * (scale / 4.0)
        np.savetxt(path, points, fmt="%.17g", delimiter=",")
        argv = ["kpca", "--input", str(path), "--k", "1", "--t-list", "4", "--trials", "1"]
        rc, out, err = run_cli(capsys, *argv)
        if refused:
            assert (rc, out) == (2, "")
            assert err.startswith("rffkd: error: points of magnitude up to 8.4375e+15")
        else:
            assert (rc, err) == (0, "")
            assert len(parse_csv(out)[1]) == 1

    def test_smallest_sigma_kpca_runs_quietly(self, capsys):
        """The exact Gram's exponents overflow to -inf at sigma = 2^-511; the
        run neither warns (the suite turns warnings into errors) nor fails."""
        argv = ["--sigma", repr(2.0**-511), *self.KPCA.split()]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (0, "")
        header, rows = parse_csv(out)
        assert header[:2] == ["sigma", "t"] and len(rows) == 1


class TestVerify:
    def test_all_pass_exit_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--samples", "20000")
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["name", "samples", "statistic", "bound", "std_err", "passed"]
        assert len(rows) == 10
        assert all(r[-1] == "true" for r in rows)

    def test_failing_check_exit_one(self, capsys):
        """Seed 105 at 2000 samples is a known statistical outlier: one
        unbiasedness check lands outside 3 standard errors, which must
        surface as exit code 1 with the check marked false."""
        rc, out, _ = run_cli(capsys, "--seed", "105", "verify", "--samples", "2000")
        assert rc == 1
        _, rows = parse_csv(out)
        flags = [r[-1] for r in rows]
        assert "false" in flags and "true" in flags

    @pytest.mark.parametrize("samples", ["1", "-5"])
    def test_too_few_samples_is_error(self, capsys, samples):
        rc, out, err = run_cli(capsys, "verify", "--samples", samples)
        assert rc == 2
        assert out == ""
        assert f"samples must be an integer >= 2, got {samples}" in err

    def test_out_of_memory_is_error(self, capsys, monkeypatch):
        """A request too large to allocate exits 2 with numpy's message.  The
        battery is replaced, so nothing is allocated."""
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

        def too_large(seed, samples):
            raise MemoryError(message)

        monkeypatch.setattr(rffkd.verify, "run_battery", too_large)
        rc, out, err = run_cli(capsys, "verify", "--samples", "1000000000000")
        assert (rc, out, err) == (2, "", f"rffkd: error: {message}\n")


REPORTS = {
    "dims-per-pair": "dims --regime per-pair --epsilon 0.3 --delta 0.2",
    "dims-finite-points": "dims --regime finite-points --epsilon 0.2 --n 2000",
    "dims-bounded-diameter":
        "dims --regime bounded-diameter --epsilon 0.25 --delta 0.1 --dim 2 --diameter 100",
    "kpca": "kpca --synth-n 30 --synth-dim 3 --synth-clusters 2 --k 2 --t-list 8,16 --trials 1",
    "pairs": "pairs --pairs 5 --dim 3 --t-list 8",
    "verify": "verify --samples 2000",
}


@pytest.mark.parametrize("argv", REPORTS.values(), ids=list(REPORTS))
def test_every_report_is_valid_csv(capsys, argv):
    """Every row of every report parses into as many fields as its header."""
    rc, out, _ = run_cli(capsys, *argv.split())
    header, rows = parse_csv(out)
    assert rc == 0 and rows
    assert [len(row) for row in rows] == [len(header)] * len(rows)


GLOBAL_FLAGS = ("--seed", "--sigma", "--t", "--variant")


class TestGlobalFlags:
    """--t is read by embed alone, --variant by embed, kpca and pairs, and
    --sigma and --seed by every command but dims (gen takes --sigma for grids
    and --seed for synth, and verify accepts --sigma without reading it)."""

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--t", "--t 5 verify --samples 1000"),
            ("--t", "--t 5 dims --regime per-pair --epsilon 0.3 --delta 0.2"),
            ("--t", "--t 5 kpca --synth-n 20 --synth-dim 3 --k 2 --t-list 8 --trials 1"),
            ("--t", "--t 5 pairs --pairs 5 --dim 2 --t-list 8"),
            ("--t", "--t 5 gen --kind synth --n 20 --dim 2"),
            ("--variant", "--variant cosshift verify --samples 1000"),
            ("--variant", "--variant cossin dims --regime per-pair --epsilon 0.3 --delta 0.2"),
            ("--variant", "--variant cossin gen --kind synth --n 20 --dim 2"),
            ("--sigma", "--sigma 5 dims --regime per-pair --epsilon 0.3 --delta 0.2"),
            ("--seed", "--seed 9 dims --regime per-pair --epsilon 0.3 --delta 0.2"),
        ],
    )
    def test_flag_the_command_ignores_is_error(self, capsys, flag, argv):
        rc, out, err = run_cli(capsys, *argv.split())
        assert rc == 2 and out == ""
        assert err.startswith(f"rffkd: error: {flag} does not apply to {argv.split()[2]}")

    @pytest.mark.parametrize(
        "given, argv",
        [
            ("--t 64 --variant cossin", "embed --input {}"),
            ("--variant cossin", "kpca --input {} --k 2 --t-list 8 --trials 1"),
            ("--variant cossin", "pairs --pairs 5 --dim 2 --t-list 8"),
            ("--seed 0 --sigma 1.0", "embed --input {}"),
            ("--seed 0 --sigma 1.0", "kpca --input {} --k 2 --t-list 8 --trials 1"),
            ("--seed 0 --sigma 1.0", "pairs --pairs 5 --dim 2 --t-list 8"),
            ("--seed 0", "verify --samples 1000"),
            ("--seed 0", "gen --kind synth --n 5 --dim 2"),
            ("--sigma 1.0", "gen --kind grid --diameter 3"),
            ("--input-format csv", "embed --input {}"),
            ("--input-format csv", "kpca --input {} --k 2 --t-list 8 --trials 1"),
            ("--synth-n 2000", "kpca --synth-dim 2 --k 2 --t-list 8 --trials 1"),
            ("--synth-dim 256", "kpca --synth-n 20 --k 2 --t-list 8 --trials 1"),
            ("--synth-clusters 10", "kpca --synth-n 20 --synth-dim 3 --k 2 --t-list 8 --trials 1"),
        ],
    )
    def test_defaults_given_explicitly_change_nothing(self, tmp_path, capsys, given, argv):
        path = tmp_path / "pts.csv"
        write_matrix(path, np.random.default_rng(0).standard_normal((6, 3)))
        argv = argv.format(path).split()
        # global flags go before the subcommand, the subcommand's own after it
        given = given.split()
        full = given + argv if given[0] in GLOBAL_FLAGS else argv + given
        assert run_cli(capsys, *full) == run_cli(capsys, *argv)


    def test_verify_accepts_sigma_and_ignores_it(self, capsys):
        """The battery has no bandwidth; --sigma is accepted, not read."""
        argv = ["verify", "--samples", "1000"]
        assert run_cli(capsys, "--sigma", "16.0", *argv) == run_cli(capsys, *argv)

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--sigma", "--sigma 5 gen --kind synth --n 5"),
            ("--seed", "--seed 9 gen --kind grid --diameter 3"),
        ],
    )
    def test_gen_refuses_the_other_kinds_global_flag(self, capsys, flag, argv):
        rc, out, err = run_cli(capsys, *argv.split())
        assert rc == 2 and out == ""
        invoked = " ".join(argv.split()[2:5])
        assert err.startswith(f"rffkd: error: {flag} does not apply to {invoked}")


class TestUnreadFlags:
    """A flag that the command, as invoked, does not read is refused before
    any input is read or output opened.  embed reads every flag it takes."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("--seed 9 dims --regime per-pair --epsilon 0.3 --delta 0.2",
             "--seed does not apply to dims --regime per-pair"),
            ("dims --regime finite-points --epsilon 0.2 --n 20 --delta 0.1",
             "--delta does not apply to dims --regime finite-points"),
            ("dims --regime bounded-diameter --epsilon 0.2 --delta 0.1 --dim 2 --diameter 3 --n 5",
             "--n does not apply to dims --regime bounded-diameter"),
            ("--t 5 kpca --synth-n 20 --synth-dim 3 --k 2 --t-list 8 --trials 1",
             "--t does not apply to kpca without --input"),
            ("kpca --input {} --synth-n 5 --k 2 --t-list 8 --trials 1",
             "--synth-n does not apply to kpca with --input"),
            ("kpca --synth-n 30 --header --input-format raw-f64 --k 2 --t-list 8 --trials 1",
             "--header does not apply to kpca without --input"),
            ("kpca --synth-n 30 --input-format csv --k 2 --t-list 8 --trials 1",
             "--input-format does not apply to kpca without --input"),
            ("--t 5 pairs --pairs 5 --dim 2 --t-list 8", "--t does not apply to pairs"),
            ("--variant cossin verify --samples 1000", "--variant does not apply to verify"),
            ("--sigma 2 gen --kind synth --n 5 --dim 2",
             "--sigma does not apply to gen --kind synth"),
            ("gen --kind grid --diameter 3 --clusters 4",
             "--clusters does not apply to gen --kind grid"),
        ],
    )
    def test_refused_before_output(self, tmp_path, capsys, argv, message):
        path = tmp_path / "pts.csv"
        write_matrix(path, np.random.default_rng(0).standard_normal((6, 3)))
        dest = tmp_path / "out"
        rc, out, err = run_cli(capsys, *argv.format(path).split(), "--output", str(dest))
        assert (rc, out, err) == (2, "", f"rffkd: error: {message}\n")
        assert not dest.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("dims --regime per-pair --epsilon 0.3",
             "--delta is required for dims --regime per-pair"),
            ("dims --regime finite-points --epsilon 0.3",
             "--n is required for dims --regime finite-points"),
            ("dims --regime bounded-diameter --epsilon 0.3 --delta 0.1 --dim 2",
             "--diameter is required for dims --regime bounded-diameter"),
            ("embed", "--input is required for embed"),
            ("gen --kind grid --dim 2", "--diameter is required for gen --kind grid"),
        ],
    )
    def test_missing_flag_refused_before_output(self, tmp_path, capsys, argv, message):
        dest = tmp_path / "out"
        rc, out, err = run_cli(capsys, *argv.split(), "--output", str(dest))
        assert (rc, out, err) == (2, "", f"rffkd: error: {message}\n")
        assert not dest.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("--t 5 kpca --input {} --k 2 --t-list 8", "--t"),
            ("kpca --input {} --synth-dim 3 --k 2 --t-list 8", "--synth-dim"),
        ],
    )
    def test_refused_before_input_is_read(self, tmp_path, capsys, argv, flag):
        """The input does not exist, and the error names the flag, not the file."""
        rc, out, err = run_cli(capsys, *argv.format(tmp_path / "nope.csv").split())
        assert (rc, out) == (2, "")
        assert err == f"rffkd: error: {flag} does not apply to kpca with --input\n"

    def test_k_too_large_for_a_t_is_refused_before_the_exact_side(self, capsys, monkeypatch):
        def no_gram(*args):
            raise AssertionError("gram_exact ran before k was checked")

        monkeypatch.setattr(rffkd.kpca, "gram_exact", no_gram)
        rc, out, err = run_cli(
            capsys, "kpca", "--synth-n", "30", "--synth-dim", "3", "--k", "25", "--t-list", "40,10"
        )
        assert (rc, out) == (2, "")
        assert err.startswith("rffkd: error: k must be") and "at t=10" in err


class TestParser:
    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_variant_rejected(self):
        with pytest.raises(SystemExit):
            main(["--variant", "fourier", "verify"])


def package_env(**env):
    """This process's environment with env added and the package's source
    first on PYTHONPATH, for a fresh interpreter."""
    env = {**os.environ, **env}
    src = str(Path(rffkd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def fresh_stdout(code, *argv, **env):
    """stdout of a fresh interpreter that runs code with argv, with the
    package's source on its path and env added to its environment."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True, text=True, env=package_env(**env), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded(statement):
    """The modules a fresh interpreter has loaded after the statement."""
    return set(fresh_stdout(f"{statement}\nimport sys\nprint(*sys.modules)").split())


def imports(module, statement):
    """Whether a fresh interpreter has module loaded after the statement."""
    return module in loaded(statement)


def test_cli_import_leaves_scipy_out():
    assert not imports("scipy", "import rffkd.cli")


def test_scipy_probe_sees_an_import():
    """Negative control: the probe above reports scipy once something loads it."""
    assert imports("scipy", "import rffkd.cli\nimport scipy.spatial.distance")


def test_cli_import_leaves_concurrent_futures_out():
    """The thread pool's module is imported when a pool is first built."""
    assert not imports("concurrent.futures", "import rffkd.cli")


def test_futures_probe_sees_the_pool():
    """Negative control: the probe reports concurrent.futures once a pool runs."""
    assert imports(
        "concurrent.futures",
        "import rffkd.cli\nfrom rffkd._pool import in_order\nlist(in_order([(abs, -1)], 1))",
    )


# Modules that only some commands use, each loaded by the command that does.
COMMAND_ONLY = {"rffkd.kpca", "rffkd.verify", "rffkd.experiments", "rffkd.planner", "rffkd._csvtext"}


def run_in_probe(*argv):
    """A probe statement that runs the CLI in-process, as the console script does."""
    return f"import rffkd.cli\nrffkd.cli.main({list(map(str, argv))!r})"


@pytest.fixture
def probe_input(tmp_path):
    path = tmp_path / "points.f64"
    points = np.random.default_rng(0).standard_normal((20, 3))
    write_matrix(path, points, fmt="raw-f64")
    return path


def test_package_loads_a_module_on_first_use():
    assert not [m for m in loaded("import rffkd") if m.startswith("rffkd.")]
    assert "rffkd.kpca" in loaded("import rffkd\nrffkd.kpca")


def test_cli_import_loads_no_command_only_module():
    assert not loaded("import rffkd.cli") & COMMAND_ONLY


def test_embed_loads_no_command_only_module(tmp_path, probe_input):
    statement = run_in_probe(
        "--t", 4, "embed", "--input", probe_input, "--input-format", "raw-f64",
        "--output", tmp_path / "out.f64", "--output-format", "raw-f64",
    )
    assert not loaded(statement) & COMMAND_ONLY
    assert (tmp_path / "out.f64").stat().st_size > 0


def test_kpca_loads_kpca_and_not_verify(tmp_path, probe_input):
    statement = run_in_probe(
        "kpca", "--input", probe_input, "--input-format", "raw-f64", "--k", 2,
        "--t-list", 4, "--trials", 1, "--output", tmp_path / "out.csv",
    )
    modules = loaded(statement)
    assert "rffkd.kpca" in modules and "rffkd.verify" not in modules
    assert (tmp_path / "out.csv").read_text().count("\n") == 2


def test_module_probe_sees_verify():
    """Negative control: the probe above reports rffkd.verify once verify runs."""
    statement = run_in_probe("verify", "--samples", 2000, "--output", os.devnull)
    assert "rffkd.verify" in loaded(statement)


def test_closed_stdout_ends_quietly(tmp_path):
    """A reader that stops after 100 bytes, as `rffkd gen ... | head -c 100`
    does, ends the CLI with status 141 (128 + SIGPIPE) and an empty stderr.
    Only a real pipe shows this: capsys has no file descriptor to close."""
    env = package_env()
    # 200 x 256 CSV values, about 1 MB: far more than a pipe buffer holds
    argv = [sys.executable, "-m", "rffkd.cli", "gen", "--kind", "synth", "--n", "200"]
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        assert err.read() == b""
    assert rc == 141
