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
from ._pool import WORKERS, in_order
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
    "projected_frequencies",
    "sq_distance_from_projections",
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
    """Embedded points: n x output_dim feature matrix plus the map spec."""

    features: np.ndarray
    spec: FeatureMapSpec


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
        freq[row] = gen.standard_normal(dim) * scale
        if shifts is not None:
            # 2*pi*(1 - U) with U in [0, 1) lands in (0, 2*pi]
            shifts[row] = 2.0 * math.pi * (1.0 - gen.random())
    freq.setflags(write=False)
    if shifts is not None:
        shifts.setflags(write=False)
    return FeatureMap(spec=spec, frequencies=freq, shifts=shifts)


# Output bytes per row block of embed and embed_blocks.  Peak memory is about
# WORKERS + 1 blocks of output and projection (see _pipeline).  The bytes are
# fixed at a given BLAS thread count, not at every count: the projection
# matmul may sum a row in another order where the thread count moves its tile
# edges, as `rffkd --seed 3 --sigma 4 --t 300 embed` of a 700 x 32 raw input
# shows under OPENBLAS_NUM_THREADS=1 and =2.
BLOCK_BYTES = 2 * 1024 * 1024
# Fewest blocks for which the pool is used: below this its start and its fill
# and drain cost about what it saves.  Timed from spawn to exit, `rffkd embed`
# of 256-d points at t = 800 to raw-f64 ran pooled against serial at +11% with
# 3 blocks, within 4% of it with 4 to 10 and 5 to 17% faster with 12 to 32
# (median of 30 paired runs each, 2-vCPU Xeon, one OpenBLAS thread).
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


def _trig_rows(proj: np.ndarray, fmap: FeatureMap, out: np.ndarray) -> np.ndarray:
    """Features of some rows, from their projection, written into out."""
    spec = fmap.spec
    if spec.variant is Variant.COS_SIN:
        np.cos(proj, out=out[:, 0::2])
        np.sin(proj, out=out[:, 1::2])
        out *= 1.0 / math.sqrt(spec.size)
    else:
        proj += fmap.shifts
        np.cos(proj, out=out)
        out *= math.sqrt(2.0 / spec.size)
    return out


def _check_dims(points: PointSet, fmap: FeatureMap) -> None:
    if points.dim != fmap.dim:
        raise ValueError(f"dimension mismatch: points have dim {points.dim}, map has dim {fmap.dim}")


def _pipeline(points: PointSet, fmap: FeatureMap, out: np.ndarray | None = None):
    """Feature row blocks of points, in order: views of out, or fresh arrays.

    The calling thread computes each block's projection matmul as the block is
    drawn; cos/sin and the scaling, which numpy runs on one thread, go to the
    package's pool, WORKERS blocks ahead of the one being consumed.  The matmul
    stays on the calling thread because on the pool it would contend with
    BLAS's own threads.  Every block goes through the same calls on the same
    rows either way, so the bytes are the same; with fewer than
    _POOL_MIN_BLOCKS blocks no pool is built.
    """
    data, dim = points.data, fmap.spec.output_dim
    blocks = list(_row_blocks(points.n, dim))

    def jobs():
        for start, stop in blocks:
            dest = np.empty((stop - start, dim)) if out is None else out[start:stop]
            yield _trig_rows, data[start:stop] @ fmap.frequencies.T, fmap, dest

    return in_order(jobs(), WORKERS if len(blocks) >= _POOL_MIN_BLOCKS else 0)


def embed(points: PointSet, fmap: FeatureMap) -> Embedding:
    """Apply the map to every row of points.

    The features are a fresh array that the caller owns, as embed_blocks'
    blocks are, so it may work on them in place.
    """
    _check_dims(points, fmap)
    out = np.empty((points.n, fmap.spec.output_dim))
    for _ in _pipeline(points, fmap, out):
        pass
    return Embedding(features=out, spec=fmap.spec)


def embed_blocks(points: PointSet, fmap: FeatureMap):
    """The rows of embed(points, fmap).features, as fresh consecutive row blocks.

    The dimension check runs at the call, before any block is made.
    """
    _check_dims(points, fmap)
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
