"""Random Fourier feature maps for the Gaussian kernel.

Two variants:

CosSin      t frequency rows omega_i ~ N(0, sigma^-2 I); each input x maps to
            2t coordinates [cos<omega_i, x>, sin<omega_i, x>] / sqrt(t).
            Every embedded point has unit norm, the embedded inner product is
            (1/t) sum_i cos<omega_i, x - y>, and its expectation over maps is
            exactly K(x, y).

CosShift    m frequency rows plus phase shifts gamma_i uniform on (0, 2pi];
            x maps to sqrt(2) cos(<omega_i, x> + gamma_i) / sqrt(m).  The
            embedded inner product is unbiased for K(x, y) but rows are not
            unit norm and no relative-error guarantee on distances is claimed
            for this variant.

Frequency row i is drawn from its own counter-based stream keyed by
(seed, i), so maps are bit-reproducible and row draws are order-independent
(see streams.py).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer
from ._pool import WORKERS, in_order, one_blas_thread
from .kernel import Bandwidth, PointSet, ScaledDiff, _nonnegative, _scalar_or_array
from .streams import check_seed, row_generators

__all__ = [
    "Variant",
    "FeatureMapSpec",
    "FeatureMap",
    "Embedding",
    "sample_map",
    "embed",
    "embed_blocks",
]


class Variant(str, enum.Enum):
    COS_SIN = "cossin"
    COS_SHIFT = "cosshift"


@dataclass(frozen=True)
class FeatureMapSpec:
    """What to sample: variant, bandwidth, size and seed.

    size is the number of cos/sin pairs t for CosSin (output dimension 2t)
    and the number of features m for CosShift (output dimension m).
    """

    variant: Variant
    sigma: Bandwidth
    size: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", Variant(self.variant))
        if not isinstance(self.sigma, Bandwidth):
            raise ValueError("sigma must be a Bandwidth")
        object.__setattr__(self, "size", integer("size", self.size))
        object.__setattr__(self, "seed", check_seed(self.seed))

    @property
    def output_dim(self) -> int:
        return 2 * self.size if self.variant is Variant.COS_SIN else self.size


@dataclass(frozen=True)
class FeatureMap:
    """Sampled map: frequency matrix (size x dim) and, for CosShift, shifts."""

    spec: FeatureMapSpec
    frequencies: np.ndarray
    shifts: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.frequencies.shape[1]


@dataclass(frozen=True)
class Embedding:
    """Embedded points: the n x output_dim feature matrix."""

    features: np.ndarray


def sample_map(spec: FeatureMapSpec, dim: int) -> FeatureMap:
    """Draw the map described by spec for inputs in R^dim.

    Frequencies are N(0, sigma^-2 I), one independent stream per row; the
    CosShift variant additionally draws each row's phase from the same row
    stream, uniform on (0, 2pi].
    """
    dim = integer("dim", dim)
    scale = 1.0 / spec.sigma.sigma
    freq = np.empty((spec.size, dim))
    shifts = np.empty(spec.size) if spec.variant is Variant.COS_SHIFT else None
    for row, gen in enumerate(row_generators(spec.seed, spec.size)):
        gen.standard_normal(out=freq[row])
        if shifts is not None:
            # 2*pi*(1 - U) with U in [0, 1) lands in (0, 2*pi]
            shifts[row] = 2.0 * math.pi * (1.0 - gen.random())
    freq *= scale
    freq.setflags(write=False)
    if shifts is not None:
        shifts.setflags(write=False)
    return FeatureMap(spec=spec, frequencies=freq, shifts=shifts)


# Output bytes per row block of embed and embed_blocks.  Peak memory is about
# WORKERS + 2 blocks of output and projection: WORKERS + 1 jobs in flight and
# the block being consumed (see _pipeline).  The projection matmuls run on one
# OpenBLAS thread, so with numpy's bundled OpenBLAS the bytes do not depend on
# OPENBLAS_NUM_THREADS; with another BLAS they are fixed at a given thread
# count only, since a matmul may sum a row in another order where the thread
# count moves its tile edges (`rffkd --seed 3 --sigma 4 --t 300 embed` of a
# 700 x 32 raw input did so under OPENBLAS_NUM_THREADS=1 and =2 before the pin).
BLOCK_BYTES = 2 * 1024 * 1024
# Fewest blocks for which the pool is used.  Pooling every block count instead
# raised `kpca`'s peak_rss_mb 51.6 -> 54.6 MB (16 of 16 alternating pairs of 6 s
# `benchmarks/run.py` runs, 2-vCPU Xeon) and resolved no wall time on `kpca` or
# `embed-csv` (5 and 6 of 16 pairs faster), whose inputs are 1 to 4 blocks.
_POOL_MIN_BLOCKS = 12


def _row_blocks(n: int, output_dim: int):
    """(start, stop) row ranges covering range(n) in order.

    Blocks hold max(2, BLOCK_BYTES // (8 * output_dim)) rows.  A lone last
    row joins the block before it: numpy sends a 1-row product through gemv,
    whose sums can differ in the last bit from the same row inside a gemm,
    so only n = 1 is ever embedded as a single row.
    """
    rows = max(2, BLOCK_BYTES // (8 * output_dim))
    start = 0
    while start < n:
        stop = n if n - start <= rows + 1 else start + rows
        yield start, stop
        start = stop


def _block(rows: np.ndarray, fmap: FeatureMap, out: np.ndarray) -> np.ndarray:
    """Features of some rows, projection matmul and cos/sin, written into out."""
    spec = fmap.spec
    proj = rows @ fmap.frequencies.T
    if spec.variant is Variant.COS_SIN:
        np.cos(proj, out=out[:, 0::2])
        np.sin(proj, out=out[:, 1::2])
        out *= 1.0 / math.sqrt(spec.size)
    else:
        proj += fmap.shifts
        np.cos(proj, out=out)
        out *= math.sqrt(2.0 / spec.size)
    return out


def _check_points(points: PointSet, fmap: FeatureMap) -> None:
    """Refuse points of another dimension, or large enough that the
    projection could overflow.  dim * max|x| * max|omega| bounds every
    partial sum of <omega_i, x>; it is formed from four reductions as Python
    floats, so it makes no input-sized temporary and an overflow is inf."""
    if points.dim != fmap.dim:
        raise ValueError(f"dimension mismatch: points have dim {points.dim}, map has dim {fmap.dim}")
    data, freq = points.data, fmap.frequencies
    x_max = max(float(data.max()), -float(data.min()))
    bound = points.dim * x_max * max(float(freq.max()), -float(freq.min()))
    if not bound < 2.0**1023:
        raise ValueError(
            f"points of magnitude up to {x_max!r} can overflow the projection at sigma "
            f"{fmap.spec.sigma.sigma!r}: dim * max|x| * max|omega| = {bound!r} is not below 2^1023"
        )


def _pipeline(points: PointSet, fmap: FeatureMap, out: np.ndarray | None = None):
    """Feature row blocks of points, in order: views of out, or fresh arrays.

    Each block is one job, its projection matmul and then its cos/sin and
    scaling, and the jobs go to the package's pool, WORKERS + 1 blocks ahead
    of the one being consumed; the calling thread only draws jobs and takes
    blocks.  The whole pipeline runs inside one_blas_thread, on the serial
    loop too, so the matmuls neither contend with BLAS's own threads nor sum
    in an order that the thread count sets.  Every block goes through the same
    calls on the same rows either way, so the bytes are the same; with fewer
    than _POOL_MIN_BLOCKS blocks no pool is built.
    """
    data, dim = points.data, fmap.spec.output_dim
    blocks = list(_row_blocks(points.n, dim))
    jobs = (
        (_block, data[a:b], fmap, np.empty((b - a, dim)) if out is None else out[a:b])
        for a, b in blocks
    )
    with one_blas_thread():
        yield from in_order(jobs, WORKERS + 1 if len(blocks) >= _POOL_MIN_BLOCKS else 0)


def embed(points: PointSet, fmap: FeatureMap) -> Embedding:
    """Apply the map to every row of points.

    The features are a fresh array that the caller owns, as embed_blocks'
    blocks are, so it may work on them in place.
    """
    _check_points(points, fmap)
    out = np.empty((points.n, fmap.spec.output_dim))
    for _ in _pipeline(points, fmap, out):
        pass
    return Embedding(features=out)


def embed_blocks(points: PointSet, fmap: FeatureMap):
    """The rows of embed(points, fmap).features, as fresh consecutive row blocks.

    The checks on the points run at the call, before any block is made.
    """
    _check_points(points, fmap)
    return _pipeline(points, fmap)


def projected_frequencies(fmap: FeatureMap, diff: ScaledDiff) -> np.ndarray:
    """Frequencies projected on the direction of a scaled difference.

    Returns sigma * <omega_i, delta/||delta||> for each row, which is an
    i.i.d. standard normal vector of length size.  The embedded quantities
    for the pair behind diff depend on the map only through these scalars:
    <omega_i, x - y> = proj_i * ||delta||.
    """
    if diff.dim != fmap.dim:
        raise ValueError(f"dimension mismatch: diff has dim {diff.dim}, map has dim {fmap.dim}")
    if diff.norm == 0.0:
        raise ValueError("projection direction is undefined for a zero difference")
    unit = diff.delta / diff.norm
    return fmap.spec.sigma.sigma * (fmap.frequencies @ unit)


def sq_distance_from_projections(proj, scaled_norm: float):
    """CosSin squared embedded distance from projected frequencies.

    For a pair at scaled distance r with projected frequencies w_i,
    ||phi(x) - phi(y)||^2 = (2/t) sum_i (1 - cos(w_i r)), evaluated as
    (4/t) sum_i sin^2(w_i r / 2) so tiny distances keep full relative
    precision.  scaled_norm may be a scalar or an array (broadcast against
    the projection axis, which must come last).
    """
    proj = np.asarray(proj, dtype=np.float64)
    if proj.ndim < 1 or proj.shape[-1] < 1:
        raise ValueError("projections must have at least one entry")
    r = _nonnegative(scaled_norm)
    half = 0.5 * proj * r[..., np.newaxis] if r.ndim else 0.5 * proj * r
    # sin^2 in place: one array of the broadcast shape besides proj
    s = np.sin(half, out=half)
    s *= s
    return _scalar_or_array(4.0 * np.mean(s, axis=-1))
