#!/usr/bin/env python3
"""rffkd benchmark: `python -m rffkd.cli` subcommands timed end to end, or
decomposed by layer.

Run from the repository root (src/ is put on PYTHONPATH for the children):

    python3 benchmarks/run.py --workload kpca --seed 1 --seconds 30 --trace 0

--trace 0 runs CLI processes until --seconds have passed, each spawned fresh
and timed from spawn to exit, and checks every output.  --trace 1 instead runs, for every workload, one CLI
process and one traced decomposition (trace_layers.py) that must reproduce
its output, plus `python -X importtime` probes; it reports the per-layer
metrics listed in BENCHMARK.json.  --fault injects a known error to show that
the output checks catch it.

The lines printed first are a readable report (environment header, each
metric with its unit and sample count); the last line is one JSON object with
the keys correct, attempted, failed and metrics.  All load comes from this one
process: children run one at a time (a closed loop with one client).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import (
    EMBED_T,
    KPCA_T_LIST,
    RAW_HEADER,
    RAW_MAGIC,
    WORKLOADS,
    Workload,
    cli_args,
    input_path,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 60.0
# OpenBLAS threads per CLI process.  On a 2-vCPU machine one thread ran
# embed-raw and kpca faster than two (1.25 s against 1.59 s, 1.6 s against
# 1.9 s), set-up included: a second thread starts with numpy, contends with the
# main one and makes each process wait for both vCPUs to be scheduled, which
# spreads wall times when the host is busy.  cpu_s still shows a gain that is only extra parallelism.
BLAS_THREADS = 1
UNIT_NORM_TOL = 1e-12
# Checks whose bound field holds a two-sided target (see rffkd.verify).
TWO_SIDED_CHECKS = ("inner_product_unbiased", "shifted_inner_product_unbiased")
# Where each per-layer metric is measured in a traced run: the workload on
# which that layer carries the most weight.  Metrics not listed (cli.main_s,
# trace.overhead_frac) come from the workload named on the command line.
LAYER_HOMES = (
    ("features.sample_map", "kpca"),
    ("features.", "embed-raw"),
    ("kernel.", "embed-raw"),
    ("experiments.", "embed-raw"),
    ("matrixio.", "embed-csv"),
    ("kpca.", "kpca"),
    ("verify.", "verify"),
)
# What `python -m rffkd.cli ARGS` runs, plus one line on stdout (unused by the
# CLI, which writes to --output) with the monotonic time at which the imports
# were done: setup_s is measured inside every CLI process.
CLI_CODE = """
import sys, time
import rffkd.cli
print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
{patch}
sys.exit(rffkd.cli.main(sys.argv[1:]))
"""
# Negative control for verify: frequencies drawn at 1.1 times their scale, as
# a wrong bandwidth would give.
FAIL_VERIFY_PATCH = """
import rffkd.verify as verify

draw = verify._generator

class WideNormals:
    def __init__(self, gen):
        self.gen = gen
    def standard_normal(self, *args, **kwargs):
        return 1.1 * self.gen.standard_normal(*args, **kwargs)
    def random(self, *args, **kwargs):
        return self.gen.random(*args, **kwargs)

verify._generator = lambda seed: WideNormals(draw(seed))
"""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Child:
    """One finished child process: exit code, wall and CPU time, peak RSS."""

    def __init__(self, argv: list[str], env: dict[str, str]) -> None:
        with open(WORK / "stdout.txt", "wb") as out, open(WORK / "stderr.txt", "wb") as err:
            self.start = now()
            proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall = now() - self.start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = (WORK / "stdout.txt").read_text()
        self.stderr = (WORK / "stderr.txt").read_text()

    def error(self) -> str | None:
        if self.code == 0:
            return None
        last = self.stderr.strip().splitlines()[-1:]
        return f"exit code {self.code}" + "".join(f": {line}" for line in last)


# ---------------------------------------------------------------- output checks


def parse_csv_matrix(data: bytes, cols: int) -> np.ndarray:
    lines = data.decode("ascii").split("\n")
    if lines[-1] != "" or any(line.count(",") != cols - 1 for line in lines[:-1]):
        raise ValueError(f"not a CSV matrix with {cols} columns")
    return np.array(",".join(lines[:-1]).split(","), dtype=np.float64).reshape(-1, cols)


def parse_raw_matrix(data: bytes) -> np.ndarray:
    if len(data) < RAW_HEADER.size or data[:4] != RAW_MAGIC:
        raise ValueError("not a raw-f64 matrix")
    _, n, d = RAW_HEADER.unpack_from(data)
    if len(data) != RAW_HEADER.size + 8 * n * d:
        raise ValueError(f"raw-f64 payload does not hold the {n}x{d} matrix its header declares")
    return np.frombuffer(data, dtype="<f8", offset=RAW_HEADER.size).reshape(n, d)


def parse_report(data: bytes) -> list[dict[str, str]]:
    lines = data.decode("ascii").strip().split("\n")
    header = lines[0].split(",")
    # the first column may hold commas (verify's check names do), so split from the right
    rows = [line.rsplit(",", len(header) - 1) for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged report CSV")
    return [dict(zip(header, row)) for row in rows]


def check_embed(workload: Workload, data: bytes):
    if workload.output_format == "csv":
        emb = parse_csv_matrix(data, 2 * EMBED_T)
    else:
        emb = parse_raw_matrix(data)
    if emb.shape != (workload.n, 2 * EMBED_T):
        return f"embedding shape {emb.shape}, expected {(workload.n, 2 * EMBED_T)}", None
    if not np.all(np.isfinite(emb)):
        return "embedding has non-finite values", None
    worst = float(np.max(np.abs(np.einsum("ij,ij->i", emb, emb) - 1.0)))
    if worst > UNIT_NORM_TOL:
        return f"CosSin rows are not unit norm: worst |norm^2 - 1| = {worst:.3g}", None
    return None, None


def check_kpca(workload: Workload, data: bytes):
    rows = [[int(r["t"]), float(r["R_exact"]), float(r["R_approx"]), float(r["rel_err"])]
            for r in parse_report(data)]
    if [r[0] for r in rows] != list(KPCA_T_LIST):
        return f"kpca rows for t = {[r[0] for r in rows]}, expected {list(KPCA_T_LIST)}", None
    for t, r_exact, r_approx, rel_err in rows:
        if not all(math.isfinite(v) for v in (r_exact, r_approx, rel_err)):
            return f"non-finite kpca values at t={t}", None
        if not (r_exact > 0.0 and r_approx > 0.0):
            return f"non-positive tail energy at t={t}", None
        # rel_err is a relative error of R_approx or the mean of per-trial ones;
        # either way it is at least the relative error of the mean residual
        if rel_err < abs(r_approx / r_exact - 1.0) * (1.0 - 1e-12):
            return f"rel_err {rel_err} below |R_approx/R_exact - 1| at t={t}", None
    return None, rows


def check_verify(workload: Workload, data: bytes):
    reports = parse_report(data)
    failing = [r["name"] for r in reports if r["passed"] != "true"]
    if not reports or failing:
        return f"verify checks failed: {failing or 'no checks reported'}", None
    return None, reports


CHECKS = {"embed-csv": check_embed, "embed-raw": check_embed, "kpca": check_kpca, "verify": check_verify}


class OutputChecker:
    """Checks one workload's outputs; each distinct output is checked once.

    Every output of a run must be byte-identical to the run's first output,
    and for the reference seed the outputs must match reference.json.  Output
    bytes are compared only on the platform the reference was recorded on:
    BLAS kernels and numpy's SIMD cos/sin may round differently elsewhere.
    """

    def __init__(self, workload: Workload, seed: int, reference: dict, same_platform: bool) -> None:
        self.workload = workload
        self.reference = reference.get(workload.name) if seed == reference["seed"] else None
        self.same_platform = same_platform
        self.first: str | None = None
        self.verdicts: dict[str, tuple[str | None, object]] = {}

    def check(self, data: bytes) -> tuple[str | None, object]:
        digest = hashlib.sha256(data).hexdigest()
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            return "output differs from this run's first output", None
        if digest not in self.verdicts:
            try:
                verdict = CHECKS[self.workload.name](self.workload, data)
            except (ValueError, KeyError, UnicodeDecodeError) as exc:
                verdict = (f"unreadable output: {exc!r}", None)
            self.verdicts[digest] = self.against_reference(digest, *verdict)
        return self.verdicts[digest]

    def against_reference(self, digest: str, err: str | None, parsed):
        ref = self.reference
        if err is not None or ref is None:
            return err, parsed
        if "sha256" in ref and self.same_platform and digest != ref["sha256"]:
            return f"output sha256 {digest[:16]}... differs from the reference", parsed
        if "rows" in ref:
            for got, want in zip(parsed, ref["rows"]):
                if got[0] != want[0] or any(
                    abs(g - w) > ref["rtol"] * abs(w) for g, w in zip(got[1:], want[1:])
                ):
                    return f"kpca row {got} differs from reference {want}", parsed
        return err, parsed


def flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


# ---------------------------------------------------------------- runs


class Bench:
    def __init__(self, args: argparse.Namespace, threads: int, header: dict) -> None:
        self.args = args
        self.reference = json.loads((HERE / "reference.json").read_text())
        same_platform = all(header[key] == value for key, value in self.reference["platform"].items())
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env["OPENBLAS_NUM_THREADS"] = str(threads)
        self.checkers = {
            name: OutputChecker(w, args.seed, self.reference, same_platform)
            for name, w in WORKLOADS.items()
        }
        self.attempted = 0
        self.failures: list[str] = []

    def output_path(self, workload: Workload, tag: str) -> Path:
        ext = "f64" if workload.output_format == "raw-f64" else "csv"
        return WORK / "out" / f"{workload.name}-{tag}.{ext}"

    def import_probe(self) -> dict[str, float]:
        child = Child([sys.executable, "-X", "importtime", "-c", "import rffkd.cli"], self.env)
        if child.error():
            raise SystemExit(f"import probe failed: {child.error()}")
        self_us: dict[str, int] = defaultdict(int)
        for line in child.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                self_us[fields[2].strip().split(".")[0]] += int(fields[0])
        return {f"setup.import_{pkg}_s": self_us[pkg] / 1e6 for pkg in ("numpy", "scipy", "rffkd")}

    def run_cli(self, workload: Workload) -> tuple[Child, str | None, object]:
        """One CLI process on the workload's input, with its output checked."""
        inp = input_path(WORK / "inputs", workload, self.args.seed)
        out = self.output_path(workload, "cli")
        out.unlink(missing_ok=True)
        patch = FAIL_VERIFY_PATCH if self.args.fault == "fail-verify" and workload.name == "verify" else ""
        code = CLI_CODE.format(patch=patch)
        child = Child([sys.executable, "-c", code, *cli_args(workload, self.args.seed, inp, out)], self.env)
        self.attempted += 1
        err, parsed = child.error(), None
        if err is None:
            if self.args.fault == "flip-byte":
                flip_byte(out)
            err, parsed = self.checkers[workload.name].check(out.read_bytes())
        elif out.exists():  # say what the failing run reported, e.g. which verify checks failed
            try:
                err += f"; {CHECKS[workload.name](workload, out.read_bytes())[0]}"
            except (ValueError, KeyError, UnicodeDecodeError):
                pass
        if err is not None:
            self.failures.append(f"{workload.name} CLI: {err}")
        return child, err, parsed

    def run_traced(self, workload: Workload, cli_parsed) -> tuple[Child, dict | None]:
        """One traced decomposition, which must reproduce the CLI's output."""
        inp = input_path(WORK / "inputs", workload, self.args.seed)
        out = self.output_path(workload, "traced")
        spans = WORK / "out" / f"{workload.name}-spans.json"
        for path in (out, spans):
            path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "trace_layers.py"), workload.name,
                str(self.args.seed), str(inp), str(out), str(spans)]
        child = Child(argv, self.env)
        self.attempted += 1
        err = child.error()
        trace = json.loads(spans.read_text()) if err is None else None
        if err is None:
            results = trace["results"]
            if workload.name.startswith("embed-"):
                cli_out = self.output_path(workload, "cli")
                if out.read_bytes() != cli_out.read_bytes():
                    err = "traced embedding differs from the CLI's output bytes"
            elif workload.name == "kpca":
                if [row[:3] for row in cli_parsed or []] != results["rows"]:
                    err = f"traced (t, R_exact, R_approx) {results['rows']} differ from the CLI's"
            else:
                cli_rows = [[r["name"], int(r["samples"]), float(r["statistic"]), float(r["bound"]),
                             float(r["std_err"]), r["passed"] == "true"] for r in cli_parsed or []]
                if cli_rows != results["reports"]:
                    err = "traced verify reports differ from run_battery's"
        if err is not None:
            self.failures.append(f"{workload.name} trace: {err}")
            return child, None
        return child, trace

    def measure(self, workload: Workload) -> dict[str, list[float]]:
        """End-to-end samples, one per CLI process."""
        self.import_probe()  # untimed warm-up: bytecode and shared libraries
        samples: dict[str, list[float]] = defaultdict(list)
        deadline = now() + self.args.seconds
        while True:
            child, _, _ = self.run_cli(workload)
            imported = child.stdout.split("\n", 1)[0]
            if imported:
                samples["setup_s"].append(float(imported) - child.start)
            samples["wall_s"].append(child.wall)
            samples["cpu_s"].append(child.cpu)
            samples["peak_rss_mb"].append(child.rss_mb)
            if now() >= deadline:
                return samples

    def trace(self, workload: Workload) -> dict[str, list[float]]:
        """Per-layer samples: one CLI process and one traced pass of every
        workload, then more of the named workload's until --seconds are up."""
        self.import_probe()  # untimed warm-up
        passes: dict[str, list[dict[str, float]]] = defaultdict(list)
        samples: dict[str, list[float]] = defaultdict(list)
        deadline = now() + self.args.seconds
        others = [w for w in WORKLOADS.values() if w is not workload]
        for i in itertools.count():
            for w in [workload] + (others if i == 0 else []):
                cli, err, parsed = self.run_cli(w)
                traced, trace = self.run_traced(w, parsed)
                if trace is not None:
                    passes[w.name].append(layer_metrics(trace["spans"]))
                if w is workload:
                    samples["trace.overhead_frac"].append(traced.wall / cli.wall - 1.0)
                if w.name == "verify" and err is None:
                    samples["verify.min_slack_se"].append(min_slack_se(parsed))
            for name, value in self.import_probe().items():
                samples[name].append(value)
            if now() >= deadline:
                break
        for name in metric_names("per_layer"):
            home = next((w for prefix, w in LAYER_HOMES if name.startswith(prefix)), workload.name)
            for metrics in passes[home]:
                if name in metrics:
                    samples[name].append(metrics[name])
        return samples


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Total time per span name, plus counts, for one traced pass.

    Only cli.main and verify.run_battery have child spans, and both are
    reported including their children.
    """
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span["name"] + "_s"] += span["end"] - span["start"]
        for key, value in span["counts"].items():
            out[key] += value
    if out.get("features.sample_map_rows"):
        out["features.sample_map_us_per_row"] = 1e6 * out["features.sample_map_s"] / out[
            "features.sample_map_rows"]
    return dict(out)


def min_slack_se(reports: list[dict[str, str]]) -> float:
    """Smallest margin, in standard errors, of a Monte Carlo check to failure."""
    slacks = []
    for r in reports:
        stat, bound, se = float(r["statistic"]), float(r["bound"]), float(r["std_err"])
        if se > 0.0:
            gap = abs(stat - bound) if r["name"].startswith(TWO_SIDED_CHECKS) else stat - bound
            slacks.append(3.0 - gap / se)
    return min(slacks)


def metric_names(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------- report


def environment(args: argparse.Namespace, threads: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    cpu = {}
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                key, _, value = line.partition(":")
                cpu.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    flags = cpu.get("flags")
    return {
        "git_commit": commit,
        "argv": sys.argv,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "openblas_threads": threads,
        "cpu_model": cpu.get("model name"),
        "cpu_flags_sha256": hashlib.sha256(flags.encode()).hexdigest()[:16] if flags else None,
        "nproc": os.cpu_count(),
        "load": "one process, one child at a time (closed loop, one client)",
    }


def summarise(bench: Bench, workload: Workload, samples: dict[str, list[float]]) -> dict:
    kind = "per_layer" if bench.args.trace else "end_to_end"
    units = metric_names(kind)
    if not bench.args.trace and samples["setup_s"]:
        # a ratio of medians: the median of per-process ratios spread more
        # between runs (0.28 against 0.24 of the median on embed-csv)
        busy = statistics.median(samples["wall_s"]) - statistics.median(samples["setup_s"])
        samples["work_per_s"] = [workload.work_units / busy]
    metrics = {}
    missing = [name for name in units if not samples.get(name)]
    for name, unit in units.items():
        values = samples.get(name)
        if not values:
            continue
        metrics[name] = {"value": float(statistics.median(values)), "unit": unit}
        print(f"  {name:36s} {metrics[name]['value']:14.6g} {unit:8s} n={len(values):<3d} "
              f"min {min(values):.6g} max {max(values):.6g}")
    if not bench.args.trace:
        print(f"  {'work unit':36s} {workload.work_units:14d} {workload.unit_name}")
    failed = len(bench.failures)
    print(f"  {'error_rate':36s} {failed / max(bench.attempted, 1):14.6g} {'':8s} "
          f"n={bench.attempted}")
    for what in bench.failures:
        print(f"  FAILED: {what}")
    if missing:
        print(f"  MISSING: {', '.join(missing)}")
    correct = failed == 0 and not missing
    if bench.args.trace and not correct:
        metrics = {}  # a trace that did not reproduce the CLI publishes no numbers
    return {"correct": correct, "attempted": bench.attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=("flip-byte", "fail-verify"), default=None,
                        help="negative control: corrupt every CLI output, or run verify "
                             "with a frequency-scale bug")
    args = parser.parse_args()
    if not (SRC / "rffkd" / "cli.py").is_file():
        print(f"benchmark: no rffkd sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    threads = BLAS_THREADS
    (WORK / "out").mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    header = environment(args, threads)
    print("env " + json.dumps(header))
    bench = Bench(args, threads, header)
    print(f"workload {workload.name}: python -m rffkd.cli "
          + " ".join(cli_args(workload, args.seed, Path("INPUT"), Path("OUTPUT"))))
    samples = bench.trace(workload) if args.trace else bench.measure(workload)
    print(f"  output sha256 {bench.checkers[workload.name].first}")
    print(json.dumps(summarise(bench, workload, samples)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
