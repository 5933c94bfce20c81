"""Workload definitions shared by run.py and trace_layers.py.

Each workload is one `python -m rffkd.cli` invocation on inputs that the
benchmark generates itself from its seed (a 10-cluster Gaussian mixture),
so that no change to the program can change what it is fed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIGMA = 16.0
EMBED_T = 800
KPCA_K = 20
KPCA_T_LIST = (100, 400, 1600)
KPCA_TRIALS = 4
VERIFY_SAMPLES = 3_000_000
# The verify battery is a set of 3-standard-error Monte Carlo tests whose
# seeds the project freezes.  At other seeds some trip a false alarm: of seeds
# 0-39 at 4M samples, seed 18 failed shifted_inner_product_unbiased at
# 3.17 SE.  The workload therefore runs the battery at the CLI's default seed
# whatever --seed is.
VERIFY_SEED = 0

MIXTURE_CLUSTERS = 10
MIXTURE_SPREAD = 4.0
RAW_HEADER = struct.Struct("<4sII")
RAW_MAGIC = b"RFFM"


@dataclass(frozen=True)
class Workload:
    name: str
    input_format: str | None  # matrix format of the input file, None if there is none
    output_format: str  # format of the file the CLI writes with --output
    n: int  # input rows
    dim: int  # input columns
    work_units: int  # units of work_per_s done by one CLI process
    unit_name: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("embed-csv", "csv", "csv", 600, 256, 600, "rows embedded"),
        Workload("embed-raw", "raw-f64", "raw-f64", 10000, 256, 10000, "rows embedded"),
        Workload("kpca", "raw-f64", "csv", 250, 256, len(KPCA_T_LIST) * KPCA_TRIALS, "map trials"),
        Workload("verify", None, "csv", 0, 0, VERIFY_SAMPLES, "samples"),
    )
}


def program_seed(workload: Workload, seed: int) -> int:
    return VERIFY_SEED if workload.name == "verify" else seed


def cli_args(workload: Workload, seed: int, inp: Path | None, out: Path) -> list[str]:
    """Arguments after `python -m rffkd.cli` for one run of the workload."""
    glob = ["--seed", str(program_seed(workload, seed)), "--sigma", repr(SIGMA)]
    if workload.name.startswith("embed-"):
        return glob + [
            "--t", str(EMBED_T), "embed",
            "--input", str(inp), "--input-format", workload.input_format,
            "--output", str(out), "--output-format", workload.output_format,
        ]
    if workload.name == "kpca":
        return glob + [
            "kpca", "--input", str(inp), "--input-format", workload.input_format,
            "--k", str(KPCA_K), "--t-list", ",".join(map(str, KPCA_T_LIST)),
            "--trials", str(KPCA_TRIALS), "--output", str(out),
        ]
    return glob + ["verify", "--samples", str(VERIFY_SAMPLES), "--output", str(out)]


def mixture(seed: int, n: int, dim: int) -> np.ndarray:
    """Equal-weight Gaussian mixture: centers N(0, 4^2 I), unit noise,
    points assigned to clusters round-robin."""
    rng = np.random.default_rng([seed, n, dim])
    centers = MIXTURE_SPREAD * rng.standard_normal((MIXTURE_CLUSTERS, dim))
    return centers[np.arange(n) % MIXTURE_CLUSTERS] + rng.standard_normal((n, dim))


def write_input(path: Path, data: np.ndarray, fmt: str) -> None:
    """Write a matrix in the CLI's input format with the benchmark's own code."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as out:
        if fmt == "csv":
            np.savetxt(out, data, fmt="%.17g", delimiter=",")
        else:
            out.write(RAW_HEADER.pack(RAW_MAGIC, *data.shape))
            out.write(np.ascontiguousarray(data, dtype="<f8").tobytes())
    tmp.replace(path)


def input_path(cache: Path, workload: Workload, seed: int) -> Path | None:
    """Generated input of the workload for this seed, cached across runs."""
    if workload.input_format is None:
        return None
    ext = "csv" if workload.input_format == "csv" else "f64"
    path = cache / f"mixture-{workload.n}x{workload.dim}-seed{seed}.{ext}"
    if not path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        write_input(path, mixture(seed, workload.n, workload.dim), workload.input_format)
    return path
