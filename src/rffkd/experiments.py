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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import integer, real
from .features import FeatureMapSpec, Variant, embed, sample_map
from .kernel import Bandwidth, PointSet, distance_from_scaled_norm
from .streams import check_seed, derive_seed, generator

__all__ = [
    "PairExperimentReport",
    "gen_pairs",
    "pairs_experiment",
    "gen_grid_stress",
    "synth_dataset",
]

# Desk-scale cap on grid stress sets: dim * point count.
GRID_SIZE_LIMIT = 100_000
# Standard deviation of synth_dataset's cluster centers, per coordinate.
_CENTER_SPREAD = 4.0


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


def gen_pairs(
    n_pairs: int, dim: int, ball_radius: float, dist_min: float, dist_max: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n_pairs (x, y) pairs in R^dim: anchors xs, partners ys, radii.

    x is uniform in the ball of radius ball_radius, the pair distance is
    log-uniform on [dist_min, dist_max], and y - x points uniformly on the
    sphere.  The recorded radii are the achieved float distances, so
    ||x - y|| reproduces them exactly.  A distance that rounds to 0 (y == x
    when the pair distance is below x's ulp) or overflows is refused.
    """
    n = integer("n_pairs", n_pairs)
    dim = integer("dim", dim)
    real("ball_radius", ball_radius, 0.0)
    lo = real("dist_min", dist_min, 0.0)
    if real("dist_max", dist_max, 0.0) < lo:
        raise ValueError(f"dist_min must not exceed dist_max, got [{dist_min}, {dist_max}]")
    gen = generator(seed)
    xs = _unit_directions(gen, n, dim) * (
        ball_radius * gen.random(n) ** (1.0 / dim)
    ).reshape(-1, 1)
    # an overflow here need not warn: the distance it leaves is refused below
    with np.errstate(over="ignore"):
        radii = np.exp(gen.uniform(math.log(dist_min), math.log(dist_max), size=n))
        ys = xs + radii.reshape(-1, 1) * _unit_directions(gen, n, dim)
        achieved = np.linalg.norm(ys - xs, axis=1)
    if not np.all(np.isfinite(achieved) & (achieved > 0.0)):
        raise ValueError(
            f"pair distances in [dist_min, dist_max] = [{dist_min!r}, {dist_max!r}] "
            f"vanish or overflow at ball_radius {ball_radius!r}"
        )
    for arr in (xs, ys, achieved):
        arr.setflags(write=False)
    return xs, ys, achieved


def pairs_experiment(
    n_pairs: int,
    dim: int,
    ball_radius: float,
    dist_min: float,
    dist_max: float,
    sigma: Bandwidth,
    t_list: Sequence[int],
    seed: int,
    variant: Variant = Variant.COS_SIN,
) -> list[PairExperimentReport]:
    """Run the pair experiment for every t in t_list.

    Each t gets a fresh pair sample and a fresh map (seeds derived from
    (seed, index)).  Ratios are exact distance over embedded distance;
    pairs are distinct by construction so the ratio is always defined.
    t_list, seed and variant are checked before any of the work, and
    gen_pairs checks the rest before it draws.
    """
    if len(t_list) < 1:
        raise ValueError(f"t_list must hold integers >= 1, got {t_list}")
    t_list = [integer("t_list entry", t) for t in t_list]
    seed = check_seed(seed)
    variant = Variant(variant)
    reports = []
    for idx, t in enumerate(t_list):
        xs, ys, radii = gen_pairs(
            n_pairs, dim, ball_radius, dist_min, dist_max, derive_seed(seed, 0, idx)
        )
        spec = FeatureMapSpec(variant=variant, sigma=sigma, size=t, seed=derive_seed(seed, 1, idx))
        fmap = sample_map(spec, dim)
        ex = embed(PointSet(xs), fmap).features
        ey = embed(PointSet(ys), fmap).features
        d_approx = np.linalg.norm(ex - ey, axis=1)
        d_exact = distance_from_scaled_norm(radii / sigma.sigma)
        ratios = d_exact / d_approx
        eps_max = float(np.max(np.abs(ratios - 1.0)))
        for arr in (d_exact, d_approx, ratios):
            arr.setflags(write=False)
        reports.append(
            PairExperimentReport(
                t=t, radii=radii, d_exact=d_exact, d_approx=d_approx, ratios=ratios, eps_max=eps_max
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
    # side**dim is formed only where it is short.  A longer one has a side of
    # at least 3, so side >= 2^(side.bit_length() / 2) and side**dim > 2^32.
    count = side**dim if side == 1 or dim * side.bit_length() <= 64 else None
    if count is None or count * dim > GRID_SIZE_LIMIT:
        raise ValueError(
            f"grid {side}^{dim} would hold {count or 'over 2^32'} points in dim {dim}, over the "
            f"cap dim * count <= {GRID_SIZE_LIMIT}; shrink diameter or raise epsilon"
        )
    # coordinate j of point i is digit j of i in base side, most significant first
    digits = np.arange(count)[:, np.newaxis] // side ** np.arange(dim - 1, -1, -1) % side
    return PointSet(step * (digits - kmax).astype(np.float64))


def synth_dataset(n: int, dim: int, clusters: int, seed: int) -> PointSet:
    """Equal-weight Gaussian mixture sample.

    Cluster centers are drawn first from the seed's stream as
    N(0, 4^2 I); the n points then cycle through the clusters
    round-robin with unit isotropic noise, so cluster sizes are balanced.
    """
    n, dim, clusters = integer("n", n), integer("dim", dim), integer("clusters", clusters)
    if clusters > n:
        raise ValueError(f"clusters must lie in [1, n], got {clusters} with n={n}")
    gen = generator(seed)
    centers = _CENTER_SPREAD * gen.standard_normal((clusters, dim))
    labels = np.arange(n) % clusters
    return PointSet(centers[labels] + gen.standard_normal((n, dim)))
