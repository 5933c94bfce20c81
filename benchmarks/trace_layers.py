"""Traced decomposition of one workload.

Calls the layers' public functions in the order `python -m rffkd.cli` calls
them for the workload, with a span around each call.  Spans stay in memory
and are written, with the pass's results, to SPANS as one JSON object when
the pass ends.  run.py starts it with src/ on PYTHONPATH as

    python3 benchmarks/trace_layers.py WORKLOAD SEED INPUT OUTPUT SPANS

and compares the results with the untraced CLI's output, so a
decomposition that drifts from the CLI is reported rather than timed.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from rffkd.experiments import synth_dataset
from rffkd.features import FeatureMapSpec, Variant, embed, sample_map
from rffkd.kernel import Bandwidth, PointSet, ScaledDiff
from rffkd.kpca import approx_residual, center_gram, exact_tail_energy, gram_exact
from rffkd.matrixio import read_matrix, write_matrix
from rffkd.streams import derive_seed, generator
from rffkd.verify import (
    check_chi_square,
    check_limit_ratio,
    check_mgf_bound,
    check_scale_sweep,
    check_shift_unbiasedness,
    check_tail_bound,
    check_unbiasedness,
)

from workloads import (
    EMBED_T,
    KPCA_K,
    KPCA_T_LIST,
    KPCA_TRIALS,
    MIXTURE_CLUSTERS,
    SIGMA,
    VERIFY_SAMPLES,
    WORKLOADS,
    Workload,
    program_seed,
)


class Tracer:
    """In-memory spans: name, start, end, parent span id and counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts: int):
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "name": name, "counts": counts}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def read_points(tr: Tracer, workload: Workload, inp: str) -> PointSet:
    with tr.span("matrixio.read", **{"matrixio.bytes_read": os.path.getsize(inp)}):
        data = read_matrix(inp, fmt=workload.input_format)
    with tr.span("kernel.pointset"):
        return PointSet(data)


def synth_cross_check(tr: Tracer, workload: Workload, seed: int, points: PointSet) -> None:
    """The program's own mixture generator at the input's size (not fed to the CLI)."""
    with tr.span("experiments.synth_dataset"):
        synth = synth_dataset(workload.n, workload.dim, MIXTURE_CLUSTERS, seed)
    if synth.data.shape != points.data.shape:
        raise SystemExit(f"input shape {points.data.shape} != synth_dataset {synth.data.shape}")


def embed_pass(tr: Tracer, workload: Workload, seed: int, inp: str, out: str) -> dict:
    with tr.span("cli.main"):
        points = read_points(tr, workload, inp)
        spec = FeatureMapSpec(variant=Variant.COS_SIN, sigma=Bandwidth(SIGMA), size=EMBED_T, seed=seed)
        with tr.span("features.sample_map", **{"features.sample_map_rows": EMBED_T}):
            fmap = sample_map(spec, points.dim)
        n, d = points.data.shape
        with tr.span("features.embed", **{
            "features.embed_calls": 1,
            "features.embed_flop": 2 * n * d * EMBED_T,  # projection matmul, computed
            "features.embed_out_bytes": 8 * n * 2 * EMBED_T,  # computed
        }):
            emb = embed(points, fmap)
        raw = workload.output_format == "raw-f64"
        with tr.span("matrixio.write") as rec:
            with open(out, "wb" if raw else "w") as handle:
                write_matrix(handle, emb.features, fmt=workload.output_format)
            rec["counts"]["matrixio.bytes_written"] = os.path.getsize(out)
    synth_cross_check(tr, workload, seed, points)
    return {}


def kpca_pass(tr: Tracer, workload: Workload, seed: int, inp: str, out: str) -> dict:
    """kpca_experiment's steps, with its per-map seeds derive_seed(seed, t, trial)."""
    with tr.span("cli.main"):
        points = read_points(tr, workload, inp)
        sigma = Bandwidth(SIGMA)
        with tr.span("kpca.gram_exact"):
            gram = gram_exact(points, sigma)
        with tr.span("kpca.center_gram"):
            centered = center_gram(gram)
        with tr.span("kpca.exact_tail_energy"):
            r_exact = exact_tail_energy(centered, KPCA_K)
        rows = []
        for t in KPCA_T_LIST:
            residuals = np.empty(KPCA_TRIALS)
            for trial in range(KPCA_TRIALS):
                spec = FeatureMapSpec(variant=Variant.COS_SIN, sigma=sigma, size=t,
                                      seed=derive_seed(seed, t, trial))
                with tr.span("features.sample_map", **{"features.sample_map_rows": t}):
                    fmap = sample_map(spec, points.dim)
                with tr.span("kpca.approx_residual", **{"kpca.approx_residual_calls": 1}):
                    residuals[trial] = approx_residual(points, fmap, KPCA_K)
            rows.append([t, r_exact, float(residuals.mean())])
    synth_cross_check(tr, workload, seed, points)
    return {"rows": rows}


def verify_pass(tr: Tracer, workload: Workload, seed: int, inp: str, out: str) -> dict:
    """run_battery's checks, called one by one with its arguments and in its order."""
    samples = VERIFY_SAMPLES
    reports = []

    def check(name, fn, *args):
        with tr.span(f"verify.check_{name}"):
            reports.append(fn(*args))

    with tr.span("cli.main"), tr.span("verify.run_battery"):
        check("unbiasedness", check_unbiasedness, 0.1, samples, derive_seed(seed, 1))
        check("unbiasedness", check_unbiasedness, 1.0, samples, derive_seed(seed, 2))
        check("unbiasedness", check_unbiasedness, 3.0, samples, derive_seed(seed, 3))
        check("shift_unbiasedness", check_shift_unbiasedness, 1.0, samples, derive_seed(seed, 4))
        check("chi_square", check_chi_square, 0.3, 0.2, 1000, derive_seed(seed, 5))
        with tr.span("features.sample_map", **{"features.sample_map_rows": 64}):
            diff = ScaledDiff(generator(derive_seed(seed, 6)).standard_normal(8) / math.sqrt(8.0))
            spec = FeatureMapSpec(variant=Variant.COS_SIN, sigma=Bandwidth(1.0), size=64,
                                  seed=derive_seed(seed, 7))
            fmap = sample_map(spec, 8)
        check("limit_ratio", check_limit_ratio, diff, fmap, [1.0, 1e-2, 1e-4, 1e-6])
        check("mgf_bound", check_mgf_bound, 0.5, 1.0, samples, derive_seed(seed, 8))
        check("mgf_bound", check_mgf_bound, 1.0, 0.4, samples, derive_seed(seed, 9))
        check("scale_sweep", check_scale_sweep, 0.2, 0.1, derive_seed(seed, 10))
        check("tail_bound", check_tail_bound, 0.5, 0.25, 0.1, 1000, derive_seed(seed, 11))
    return {"reports": [[r.check_name, r.samples, r.statistic, r.bound, r.std_err, r.passed]
                        for r in reports]}


PASSES = {"embed-csv": embed_pass, "embed-raw": embed_pass, "kpca": kpca_pass, "verify": verify_pass}


def main(argv: list[str]) -> int:
    name, seed, inp, out, spans_path = argv
    workload = WORKLOADS[name]
    tracer = Tracer()
    results = PASSES[name](tracer, workload, program_seed(workload, int(seed)), inp, out)
    Path(spans_path).write_text(json.dumps({"spans": tracer.spans, "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
