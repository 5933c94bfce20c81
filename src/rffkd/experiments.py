"""Experiment harness: pair sampling, stress grids, synthetic data.

The pair experiment measures how far embedded distances stray from exact
kernel distances across many length scales at once: anchor points are drawn
uniformly from a large ball, partner points sit at log-uniform distances
spanning several decades, and for each feature count t a fresh point sample
and a fresh map are drawn.  The stress grid is the matching lower-bound
construction: a lattice whose pairwise kernels are all at most eps, so that
too few features must distort some pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import integer, real
from .features import FeatureMapSpec, Variant, embed, sample_map
from .kernel import Bandwidth, PointSet, distance_from_scaled_norm
from .streams import check_seed, derive_seed, generator

__all__ = [
    "PairExperimentConfig",
    "PairSample",
    "PairExperimentReport",
    "gen_pairs",
    "pairs_experiment",
    "gen_grid_stress",
    "synth_dataset",
    "GRID_SIZE_LIMIT",
]

# Desk-scale cap on grid stress sets: dim * point count.
GRID_SIZE_LIMIT = 100_000


@dataclass(frozen=True)
class PairExperimentConfig:
    """Pair-experiment parameters; defaults follow the reference protocol."""

    n_pairs: int = 2000
    ball_radius: float = 500.0
    dist_min: float = 1e-4
    dist_max: float = 1e4
    sigma: Bandwidth = field(default_factory=lambda: Bandwidth(1.0))
    t_list: tuple[int, ...] = (50, 100, 200, 400, 800)
    seed: int = 0
    variant: Variant = Variant.COS_SIN

    def __post_init__(self) -> None:
        integer("n_pairs", self.n_pairs)
        real("ball_radius", self.ball_radius, 0.0)
        dist_min = real("dist_min", self.dist_min, 0.0)
        if real("dist_max", self.dist_max, 0.0) < dist_min:
            raise ValueError(
                f"dist_min must not exceed dist_max, got [{self.dist_min}, {self.dist_max}]"
            )
        if len(self.t_list) < 1:
            raise ValueError(f"t_list must hold integers >= 1, got {self.t_list}")
        object.__setattr__(self, "t_list", tuple(integer("t_list entry", t) for t in self.t_list))
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "variant", Variant(self.variant))


@dataclass(frozen=True)
class PairSample:
    """Sampled pairs: anchors xs, partners ys, and their distances."""

    xs: np.ndarray
    ys: np.ndarray
    radii: np.ndarray


@dataclass(frozen=True)
class PairExperimentReport:
    """Exact vs embedded distance for every pair at one feature count."""

    t: int
    radii: np.ndarray
    d_exact: np.ndarray
    d_approx: np.ndarray
    ratios: np.ndarray
    eps_max: float


def _unit_directions(gen: np.random.Generator, n: int, dim: int) -> np.ndarray:
    vec = gen.standard_normal((n, dim))
    norms = np.linalg.norm(vec, axis=1, keepdims=True)
    # a standard normal vector is never numerically zero at these sizes, but
    # guard the division anyway
    norms[norms == 0.0] = 1.0
    return vec / norms


def gen_pairs(cfg: PairExperimentConfig, dim: int, seed: int | None = None) -> PairSample:
    """Draw n_pairs (x, y) pairs in R^dim.

    x is uniform in the ball of radius ball_radius, the pair distance is
    log-uniform on [dist_min, dist_max], and y - x points uniformly on the
    sphere.  The recorded radii are the achieved float distances, so
    ||x - y|| reproduces them exactly.  A distance that rounds to 0 (y == x
    when the pair distance is below x's ulp) or overflows is refused.
    """
    dim = integer("dim", dim)
    gen = generator(cfg.seed if seed is None else seed)
    n = cfg.n_pairs
    xs = _unit_directions(gen, n, dim) * (
        cfg.ball_radius * gen.random(n) ** (1.0 / dim)
    ).reshape(-1, 1)
    # an overflow here need not warn: the distance it leaves is refused below
    with np.errstate(over="ignore"):
        radii = np.exp(gen.uniform(math.log(cfg.dist_min), math.log(cfg.dist_max), size=n))
        ys = xs + radii.reshape(-1, 1) * _unit_directions(gen, n, dim)
        achieved = np.linalg.norm(ys - xs, axis=1)
    if not np.all(np.isfinite(achieved) & (achieved > 0.0)):
        raise ValueError(
            f"pair distances in [dist_min, dist_max] = [{cfg.dist_min!r}, {cfg.dist_max!r}] "
            f"vanish or overflow at ball_radius {cfg.ball_radius!r}"
        )
    for arr in (xs, ys, achieved):
        arr.setflags(write=False)
    return PairSample(xs=xs, ys=ys, radii=achieved)


def pairs_experiment(cfg: PairExperimentConfig, dim: int = 10) -> list[PairExperimentReport]:
    """Run the pair experiment for every t in cfg.t_list.

    Each t gets a fresh pair sample and a fresh map (seeds derived from
    (cfg.seed, index)).  Ratios are exact distance over embedded distance;
    pairs are distinct by construction so the ratio is always defined.
    """
    reports = []
    sigma = cfg.sigma.sigma
    for idx, t in enumerate(cfg.t_list):
        sample = gen_pairs(cfg, dim, seed=derive_seed(cfg.seed, 0, idx))
        spec = FeatureMapSpec(
            variant=cfg.variant, sigma=cfg.sigma, size=t, seed=derive_seed(cfg.seed, 1, idx)
        )
        fmap = sample_map(spec, dim)
        ex = embed(PointSet(sample.xs), fmap).features
        ey = embed(PointSet(sample.ys), fmap).features
        d_approx = np.linalg.norm(ex - ey, axis=1)
        d_exact = distance_from_scaled_norm(sample.radii / sigma)
        ratios = d_exact / d_approx
        eps_max = float(np.max(np.abs(ratios - 1.0)))
        for arr in (d_exact, d_approx, ratios):
            arr.setflags(write=False)
        reports.append(
            PairExperimentReport(
                t=t,
                radii=sample.radii,
                d_exact=d_exact,
                d_approx=d_approx,
                ratios=ratios,
                eps_max=eps_max,
            )
        )
    return reports


def gen_grid_stress(dim: int, diameter: float, sigma: Bandwidth, epsilon: float) -> PointSet:
    """Lattice of points whose pairwise kernels are all at most epsilon.

    The grid step is sigma * sqrt(2 ln(1/eps)), the distance at which the
    kernel equals eps, and the lattice fills the axis-aligned box of
    half-width `diameter`: every coordinate is a step multiple k with
    |k| <= floor(diameter / step).  Refuses sets larger than the desk-scale
    cap dim * count <= GRID_SIZE_LIMIT.
    """
    dim = integer("dim", dim)
    real("diameter", diameter, 0.0)
    real("epsilon", epsilon, 0.0, 1.0)
    step = sigma.sigma * math.sqrt(2.0 * math.log(1.0 / epsilon))
    # the relative nudge keeps exact multiples of the step inside the box
    steps = (diameter / step) * (1.0 + 1e-12)
    if not math.isfinite(steps):
        raise ValueError(f"diameter {diameter!r} / grid step {step!r} overflows")
    kmax = int(math.floor(steps))
    side = 2 * kmax + 1
    count = side**dim
    if count * dim > GRID_SIZE_LIMIT:
        raise ValueError(
            f"grid would hold {count} points in dim {dim} "
            f"({count * dim} > {GRID_SIZE_LIMIT}); shrink diameter or raise epsilon"
        )
    axis = step * np.arange(-kmax, kmax + 1, dtype=np.float64)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return PointSet(np.stack([m.ravel() for m in mesh], axis=1))


def synth_dataset(
    n: int, dim: int, clusters: int, seed: int, center_spread: float = 4.0
) -> PointSet:
    """Equal-weight Gaussian mixture sample.

    Cluster centers are drawn first from the seed's stream as
    N(0, center_spread^2 I); the n points then cycle through the clusters
    round-robin with unit isotropic noise, so cluster sizes are balanced.
    """
    n, dim, clusters = integer("n", n), integer("dim", dim), integer("clusters", clusters)
    if clusters > n:
        raise ValueError(f"clusters must lie in [1, n], got {clusters} with n={n}")
    real("center_spread", center_spread, 0.0, lo_open=False)
    gen = generator(seed)
    centers = center_spread * gen.standard_normal((clusters, dim))
    labels = np.arange(n) % clusters
    return PointSet(centers[labels] + gen.standard_normal((n, dim)))
