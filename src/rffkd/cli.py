"""Command-line interface.

Subcommands: embed (map a matrix of points), dims (feature-count planning),
kpca (tail-energy experiment), pairs (distance-ratio experiment), verify
(statistical battery; exit code 0 iff every check passes), gen (synthetic
datasets and stress grids).  All output is CSV to stdout unless --output
names a file.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from .experiments import PairExperimentConfig, gen_grid_stress, pairs_experiment, synth_dataset
from .features import FeatureMapSpec, Variant, embed_blocks, sample_map
from .kernel import Bandwidth, PointSet
from .kpca import kpca_experiment
from .matrixio import FORMATS, read_matrix, write_blocks
from .planner import DimensionRequest, plan
from .verify import run_battery

__all__ = ["main", "build_parser"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def _write_report_csv(out, columns, rows) -> None:
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


@contextmanager
def _open_output(path: str | None, binary: bool = False):
    if path is None or path == "-":
        yield sys.stdout.buffer if binary else sys.stdout
    else:
        with open(path, "wb" if binary else "w") as handle:
            yield handle


def _write_matrix_output(args, blocks, shape) -> None:
    binary = args.output_format == "raw-f64"
    with _open_output(args.output, binary=binary) as out:
        write_blocks(out, blocks, shape, fmt=args.output_format)


def _parse_t_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"--t-list must be comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError("--t-list must name at least one feature count")
    return values


def _add_output_flags(sub, matrix: bool) -> None:
    sub.add_argument("--output", default=None, help="output file (default: stdout)")
    if matrix:
        sub.add_argument(
            "--output-format", choices=FORMATS, default="csv", help="matrix output format"
        )


def _add_input_flags(sub) -> None:
    sub.add_argument("--input", default=None, help="input matrix file")
    sub.add_argument("--input-format", choices=FORMATS, default="csv", help="matrix input format")
    sub.add_argument(
        "--header", action="store_true", help="input CSV has a header row to skip"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rffkd",
        description="Random Fourier feature embeddings with guarantees on Gaussian kernel distances.",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="base seed, for all but dims (default 0)"
    )
    parser.add_argument(
        "--sigma",
        type=float,
        default=None,
        help="kernel bandwidth, for embed, kpca, pairs and gen --kind grid (default 1.0)",
    )
    parser.add_argument(
        "--t", type=int, default=None, help="feature pairs / features, embed only (default 64)"
    )
    parser.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default=None,
        help="feature map variant, for embed, kpca and pairs (default cossin)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a matrix of points, one row per point")
    _add_input_flags(p)
    _add_output_flags(p, matrix=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("dims", help="plan how many feature pairs are needed")
    p.add_argument(
        "--regime",
        choices=["per-pair", "finite-points", "bounded-diameter"],
        required=True,
    )
    p.add_argument("--epsilon", type=float, required=True, help="target relative error")
    p.add_argument("--delta", type=float, default=None, help="failure probability")
    p.add_argument("--n", type=int, default=None, help="point count (finite-points)")
    p.add_argument("--dim", type=int, default=None, help="ambient dimension (bounded-diameter)")
    p.add_argument("--diameter", type=float, default=None, help="ball radius (bounded-diameter)")
    p.add_argument("--constant", type=float, default=None, help="override the bound constant")
    _add_output_flags(p, matrix=False)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("kpca", help="compare exact and embedded kernel PCA tail energies")
    _add_input_flags(p)
    p.add_argument("--synth-n", type=int, default=2000, help="synthetic points if no --input")
    p.add_argument("--synth-dim", type=int, default=256, help="synthetic dimension")
    p.add_argument("--synth-clusters", type=int, default=10, help="synthetic cluster count")
    p.add_argument("--k", type=int, default=40, help="kept components (default 40)")
    p.add_argument("--t-list", default="50,100,200,400,800", help="comma-separated feature counts")
    p.add_argument("--trials", type=int, default=10, help="independent maps per t (default 10)")
    _add_output_flags(p, matrix=False)
    p.set_defaults(func=_cmd_kpca)

    p = sub.add_parser("pairs", help="distance-ratio experiment over log-spread pair distances")
    p.add_argument("--pairs", type=int, default=2000, help="pairs per feature count (default 2000)")
    p.add_argument("--dim", type=int, default=10, help="ambient dimension (default 10)")
    p.add_argument("--ball-radius", type=float, default=500.0, help="anchor ball radius")
    p.add_argument("--dist-min", type=float, default=1e-4, help="smallest pair distance")
    p.add_argument("--dist-max", type=float, default=1e4, help="largest pair distance")
    p.add_argument("--t-list", default="50,100,200,400,800", help="comma-separated feature counts")
    _add_output_flags(p, matrix=False)
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("verify", help="run the statistical battery; exit 0 iff all checks pass")
    p.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo samples per check")
    _add_output_flags(p, matrix=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate synthetic data or a kernel stress grid")
    p.add_argument("--kind", choices=["synth", "grid"], required=True)
    p.add_argument("--n", type=int, default=None, help="points (synth, default 2000)")
    p.add_argument("--dim", type=int, default=None, help="dimension (synth default 256, grid 2)")
    p.add_argument("--clusters", type=int, default=None, help="mixture components (synth, default 10)")
    p.add_argument("--diameter", type=float, default=None, help="box half-width (grid, required)")
    p.add_argument("--epsilon", type=float, default=None, help="kernel level (grid, default 0.25)")
    _add_output_flags(p, matrix=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def _read_input_matrix(args) -> PointSet:
    if args.input is None:
        raise ValueError("--input is required for this command")
    data = read_matrix(args.input, fmt=args.input_format, header=args.header)
    return PointSet(data)


def _variant(args) -> Variant:
    return Variant.COS_SIN if args.variant is None else Variant(args.variant)


def _sigma(args) -> Bandwidth:
    return Bandwidth(1.0 if args.sigma is None else args.sigma)


def _seed(args) -> int:
    return 0 if args.seed is None else args.seed


def _cmd_embed(args) -> int:
    points = _read_input_matrix(args)
    spec = FeatureMapSpec(
        variant=_variant(args),
        sigma=_sigma(args),
        size=64 if args.t is None else args.t,
        seed=_seed(args),
    )
    # a few blocks of output in memory at a time, whatever n * output_dim is
    blocks = embed_blocks(points, sample_map(spec, points.dim))
    _write_matrix_output(args, blocks, (points.n, spec.output_dim))
    return 0


def _cmd_dims(args) -> int:
    request = DimensionRequest(
        regime=args.regime,
        epsilon=args.epsilon,
        delta=args.delta,
        n=args.n,
        dim=args.dim,
        diameter=args.diameter,
        constant_override=args.constant,
    )
    result = plan(request)
    columns = [
        "regime",
        "epsilon",
        "delta",
        "n",
        "dim",
        "diameter",
        "constant",
        "pair_count",
        "output_dim",
        "formula_note",
    ]
    row = [
        result.regime,
        args.epsilon,
        args.delta,
        args.n,
        args.dim,
        args.diameter,
        args.constant,
        result.pair_count,
        result.output_dim,
        '"' + result.formula_note + '"',
    ]
    with _open_output(args.output) as out:
        _write_report_csv(out, columns, [row])
    return 0


def _cmd_kpca(args) -> int:
    if args.input is not None:
        points = _read_input_matrix(args)
    else:
        points = synth_dataset(args.synth_n, args.synth_dim, args.synth_clusters, _seed(args))
    reports = kpca_experiment(
        points,
        _sigma(args),
        args.k,
        _parse_t_list(args.t_list),
        args.trials,
        _seed(args),
        variant=_variant(args),
    )
    columns = ["sigma", "t", "k", "R_exact", "R_approx", "rel_err"]
    rows = [[r.sigma, r.t, r.k, r.r_exact, r.r_approx, r.rel_err] for r in reports]
    with _open_output(args.output) as out:
        _write_report_csv(out, columns, rows)
    return 0


def _cmd_pairs(args) -> int:
    cfg = PairExperimentConfig(
        n_pairs=args.pairs,
        ball_radius=args.ball_radius,
        dist_min=args.dist_min,
        dist_max=args.dist_max,
        sigma=_sigma(args),
        t_list=_parse_t_list(args.t_list),
        seed=_seed(args),
        variant=_variant(args),
    )
    reports = pairs_experiment(cfg, dim=args.dim)
    columns = ["t", "r", "d_exact", "d_approx", "ratio"]
    rows = (
        [rep.t, rep.radii[i], rep.d_exact[i], rep.d_approx[i], rep.ratios[i]]
        for rep in reports
        for i in range(rep.radii.shape[0])
    )
    with _open_output(args.output) as out:
        _write_report_csv(out, columns, rows)
    return 0


def _cmd_verify(args) -> int:
    reports = run_battery(_seed(args), samples=args.samples)
    columns = ["name", "samples", "statistic", "bound", "std_err", "passed"]
    rows = [
        [r.check_name, r.samples, r.statistic, r.bound, r.std_err, r.passed] for r in reports
    ]
    with _open_output(args.output) as out:
        _write_report_csv(out, columns, rows)
    return 0 if all(r.passed for r in reports) else 1


# The gen flags, global ones included, that only one kind reads; the other
# kind refuses them.
_GEN_KIND_OF_FLAG = {
    "n": "synth",
    "clusters": "synth",
    "diameter": "grid",
    "epsilon": "grid",
    "sigma": "grid",
    "seed": "synth",
}


def _cmd_gen(args) -> int:
    for flag, kind in _GEN_KIND_OF_FLAG.items():
        if kind != args.kind and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies only to --kind {kind}")
    if args.kind == "synth":
        n = 2000 if args.n is None else args.n
        dim = 256 if args.dim is None else args.dim
        clusters = 10 if args.clusters is None else args.clusters
        points = synth_dataset(n, dim, clusters, _seed(args))
    else:
        if args.diameter is None:
            raise ValueError("--diameter is required for --kind grid")
        dim = 2 if args.dim is None else args.dim
        epsilon = 0.25 if args.epsilon is None else args.epsilon
        points = gen_grid_stress(dim, args.diameter, _sigma(args), epsilon)
    _write_matrix_output(args, [points.data], points.data.shape)
    return 0


# The global flags that only some subcommands read; the others refuse them.
# verify accepts --sigma, which it does not read, because the benchmark's
# verify workload passes it; gen checks its own kinds (_GEN_KIND_OF_FLAG).
_ALL_BUT_DIMS = ("embed", "kpca", "pairs", "verify", "gen")
_COMMANDS_OF_FLAG = {
    "t": ("embed",),
    "variant": ("embed", "kpca", "pairs"),
    "sigma": _ALL_BUT_DIMS,
    "seed": _ALL_BUT_DIMS,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, commands in _COMMANDS_OF_FLAG.items():
            if args.command not in commands and getattr(args, flag) is not None:
                raise ValueError(f"--{flag} applies only to {', '.join(commands)}")
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at exit
        # does not fail again, and end as a shell reports death by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"rffkd: error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
