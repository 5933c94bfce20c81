"""Command-line interface.

Subcommands: embed (map a matrix of points), dims (feature-count planning),
kpca (tail-energy experiment), pairs (distance-ratio experiment), verify
(statistical battery; exit code 0 iff every check passes), gen (synthetic
datasets and stress grids).  All output is CSV to stdout unless --output
names a file.  A flag that the command, as invoked, does not read is refused
with exit code 2 before any input is read or output opened.
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
from .planner import plan_bounded_diameter, plan_finite_points, plan_per_pair
from .verify import run_battery

__all__ = ["main", "build_parser"]

# Each dims regime's planner and the flags it takes after --epsilon, in the
# planner's argument order.  dims refuses the other regimes' flags.
_REGIMES = {
    "per-pair": (plan_per_pair, ("delta",)),
    "finite-points": (plan_finite_points, ("n",)),
    "bounded-diameter": (plan_bounded_diameter, ("delta", "dim", "diameter")),
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def _write_report_csv(path, columns, rows) -> None:
    with _open_output(path) as out:
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


def _write_matrix_output(path, fmt, blocks, shape) -> None:
    with _open_output(path, binary=fmt == "raw-f64") as out:
        write_blocks(out, blocks, shape, fmt=fmt)


def _parse_t_list(text: str) -> tuple[int, ...]:
    """The feature counts of --t-list; an empty entry is an error, not skipped."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--t-list must be comma-separated integers, got {text!r}") from None


def _add_output_flags(sub, matrix: bool) -> None:
    sub.add_argument("--output", help="output file (default: stdout)")
    if matrix:
        sub.add_argument("--output-format", choices=FORMATS, help="matrix output format")


def _add_input_flags(sub) -> None:
    sub.add_argument("--input", help="input matrix file")
    sub.add_argument("--input-format", choices=FORMATS, help="matrix input format")
    sub.add_argument(
        "--header", action="store_true", help="input CSV has a header row to skip"
    )


def build_parser() -> argparse.ArgumentParser:
    """The parser.  Every flag defaults to absent, so the namespace holds only
    the flags given; each command pops those it reads, with their defaults."""
    parser = argparse.ArgumentParser(
        prog="rffkd",
        description="Random Fourier feature embeddings with guarantees on Gaussian kernel distances.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--seed", type=int, help="base seed, for all but dims (default 0)")
    parser.add_argument(
        "--sigma",
        type=float,
        help="kernel bandwidth, for embed, kpca, pairs and gen --kind grid (default 1.0)",
    )
    parser.add_argument("--t", type=int, help="feature pairs / features, embed only (default 64)")
    parser.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        help="feature map variant, for embed, kpca and pairs (default cossin)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, text):
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p = add_command("embed", _cmd_embed, "embed a matrix of points, one row per point")
    _add_input_flags(p)
    _add_output_flags(p, matrix=True)

    p = add_command("dims", _cmd_dims, "plan how many feature pairs are needed")
    p.add_argument("--regime", choices=list(_REGIMES), required=True)
    p.add_argument("--epsilon", type=float, required=True, help="target relative error")
    p.add_argument("--delta", type=float, help="failure probability")
    p.add_argument("--n", type=int, help="point count (finite-points)")
    p.add_argument("--dim", type=int, help="ambient dimension (bounded-diameter)")
    p.add_argument("--diameter", type=float, help="ball radius (bounded-diameter)")
    p.add_argument("--constant", type=float, help="override the bound constant")
    _add_output_flags(p, matrix=False)

    p = add_command("kpca", _cmd_kpca, "compare exact and embedded kernel PCA tail energies")
    _add_input_flags(p)
    p.add_argument("--synth-n", type=int, help="synthetic points if no --input")
    p.add_argument("--synth-dim", type=int, help="synthetic dimension")
    p.add_argument("--synth-clusters", type=int, help="synthetic cluster count")
    p.add_argument("--k", type=int, help="kept components (default 40)")
    p.add_argument("--t-list", help="comma-separated feature counts")
    p.add_argument("--trials", type=int, help="independent maps per t (default 10)")
    _add_output_flags(p, matrix=False)

    p = add_command(
        "pairs", _cmd_pairs, "distance-ratio experiment over log-spread pair distances"
    )
    p.add_argument("--pairs", type=int, help="pairs per feature count (default 2000)")
    p.add_argument("--dim", type=int, help="ambient dimension (default 10)")
    p.add_argument("--ball-radius", type=float, help="anchor ball radius")
    p.add_argument("--dist-min", type=float, help="smallest pair distance")
    p.add_argument("--dist-max", type=float, help="largest pair distance")
    p.add_argument("--t-list", help="comma-separated feature counts")
    _add_output_flags(p, matrix=False)

    p = add_command(
        "verify", _cmd_verify, "run the statistical battery; exit 0 iff all checks pass"
    )
    p.add_argument("--samples", type=int, help="Monte Carlo samples per check")
    _add_output_flags(p, matrix=False)

    p = add_command("gen", _cmd_gen, "generate synthetic data or a kernel stress grid")
    p.add_argument("--kind", choices=["synth", "grid"], required=True)
    p.add_argument("--n", type=int, help="points (synth, default 2000)")
    p.add_argument("--dim", type=int, help="dimension (synth default 256, grid 2)")
    p.add_argument("--clusters", type=int, help="mixture components (synth, default 10)")
    p.add_argument("--diameter", type=float, help="box half-width (grid, required)")
    p.add_argument("--epsilon", type=float, help="kernel level (grid, default 0.25)")
    _add_output_flags(p, matrix=True)

    return parser


def _refuse_unread(given: dict, invoked: str) -> None:
    """Refuse a flag left in given: one that the command as invoked does not read."""
    if given:
        flag = "--" + next(iter(given)).replace("_", "-")
        raise ValueError(f"{flag} does not apply to {invoked}")


def _required(given: dict, name: str, invoked: str):
    """Pop a flag that the command as invoked cannot run without."""
    if name not in given:
        raise ValueError(f"--{name.replace('_', '-')} is required for {invoked}")
    return given.pop(name)


def _pop_input(given: dict, invoked: str) -> tuple:
    """read_matrix's (path, fmt, header)."""
    path = _required(given, "input", invoked)
    return path, given.pop("input_format", "csv"), given.pop("header", False)


def _cmd_embed(given) -> int:
    source = _pop_input(given, "embed")
    spec = FeatureMapSpec(
        variant=Variant(given.pop("variant", "cossin")),
        sigma=Bandwidth(given.pop("sigma", 1.0)),
        size=given.pop("t", 64),
        seed=given.pop("seed", 0),
    )
    output, fmt = given.pop("output", None), given.pop("output_format", "csv")
    _refuse_unread(given, "embed")
    points = PointSet(read_matrix(*source))
    # a few blocks of output in memory at a time, whatever n * output_dim is
    blocks = embed_blocks(points, sample_map(spec, points.dim))
    _write_matrix_output(output, fmt, blocks, (points.n, spec.output_dim))
    return 0


def _cmd_dims(given) -> int:
    regime, epsilon = given.pop("regime"), given.pop("epsilon")
    planner, names = _REGIMES[regime]
    invoked = f"dims --regime {regime}"
    taken = {name: _required(given, name, invoked) for name in names}
    constant, output = given.pop("constant", None), given.pop("output", None)
    _refuse_unread(given, invoked)
    result = planner(epsilon, *taken.values(), constant)
    # one column for every regime's flags, left empty where this one takes none
    flags = ("delta", "n", "dim", "diameter")
    columns = ["regime", "epsilon", *flags, "constant", "pair_count", "output_dim", "formula_note"]
    row = [
        regime, epsilon, *(taken.get(flag) for flag in flags), constant,
        result.pair_count, result.output_dim, '"' + result.formula_note + '"',
    ]
    _write_report_csv(output, columns, [row])
    return 0


def _cmd_kpca(given) -> int:
    if "input" in given:
        invoked = "kpca with --input"
        source = _pop_input(given, invoked)
    else:
        n, dim, clusters = (
            given.pop("synth_n", 2000), given.pop("synth_dim", 256), given.pop("synth_clusters", 10)
        )
        source, invoked = None, "kpca without --input"
    variant, sigma = given.pop("variant", "cossin"), given.pop("sigma", 1.0)
    seed, k, trials = given.pop("seed", 0), given.pop("k", 40), given.pop("trials", 10)
    t_list = _parse_t_list(given.pop("t_list", "50,100,200,400,800"))
    output = given.pop("output", None)
    _refuse_unread(given, invoked)
    points = PointSet(read_matrix(*source)) if source else synth_dataset(n, dim, clusters, seed)
    reports = kpca_experiment(
        points, Bandwidth(sigma), k, t_list, trials, seed, variant=Variant(variant)
    )
    columns = ["sigma", "t", "k", "R_exact", "R_approx", "rel_err"]
    rows = [[r.sigma, r.t, r.k, r.r_exact, r.r_approx, r.rel_err] for r in reports]
    _write_report_csv(output, columns, rows)
    return 0


def _cmd_pairs(given) -> int:
    cfg = PairExperimentConfig(
        n_pairs=given.pop("pairs", 2000),
        ball_radius=given.pop("ball_radius", 500.0),
        dist_min=given.pop("dist_min", 1e-4),
        dist_max=given.pop("dist_max", 1e4),
        sigma=Bandwidth(given.pop("sigma", 1.0)),
        t_list=_parse_t_list(given.pop("t_list", "50,100,200,400,800")),
        seed=given.pop("seed", 0),
        variant=Variant(given.pop("variant", "cossin")),
    )
    dim, output = given.pop("dim", 10), given.pop("output", None)
    _refuse_unread(given, "pairs")
    reports = pairs_experiment(cfg, dim=dim)
    columns = ["t", "r", "d_exact", "d_approx", "ratio"]
    rows = (
        [rep.t, rep.radii[i], rep.d_exact[i], rep.d_approx[i], rep.ratios[i]]
        for rep in reports
        for i in range(rep.radii.shape[0])
    )
    _write_report_csv(output, columns, rows)
    return 0


def _cmd_verify(given) -> int:
    # The battery has no bandwidth.  --sigma is taken and not read, because
    # the benchmark's verify workload passes it.
    given.pop("sigma", None)
    seed, samples = given.pop("seed", 0), given.pop("samples", 1_000_000)
    output = given.pop("output", None)
    _refuse_unread(given, "verify")
    reports = run_battery(seed, samples=samples)
    columns = ["name", "samples", "statistic", "bound", "std_err", "passed"]
    rows = [
        [r.check_name, r.samples, r.statistic, r.bound, r.std_err, r.passed] for r in reports
    ]
    _write_report_csv(output, columns, rows)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_gen(given) -> int:
    kind = given.pop("kind")
    output, fmt = given.pop("output", None), given.pop("output_format", "csv")
    if kind == "synth":
        n, dim = given.pop("n", 2000), given.pop("dim", 256)
        clusters, seed = given.pop("clusters", 10), given.pop("seed", 0)
        _refuse_unread(given, "gen --kind synth")
        points = synth_dataset(n, dim, clusters, seed)
    else:
        dim, diameter = given.pop("dim", 2), _required(given, "diameter", "gen --kind grid")
        sigma, epsilon = given.pop("sigma", 1.0), given.pop("epsilon", 0.25)
        _refuse_unread(given, "gen --kind grid")
        points = gen_grid_stress(dim, diameter, Bandwidth(sigma), epsilon)
    _write_matrix_output(output, fmt, [points.data], points.data.shape)
    return 0


def main(argv=None) -> int:
    given = vars(build_parser().parse_args(argv))
    del given["command"]
    command = given.pop("func")
    try:
        status = command(given)
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
