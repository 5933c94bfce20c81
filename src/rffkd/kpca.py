"""Kernel PCA tail energies, exact and from random feature embeddings.

The exact side forms the Gaussian Gram matrix, double-centers it, and sums
the eigenvalues past the top k (the energy a rank-k kernel PCA leaves
behind).  The approximate side never touches the kernel Gram matrix: it
embeds the points, centers the embedding columns, and measures the squared
Frobenius residual after projecting rows onto their own top-k right
singular subspace.  That residual is the sum of the squared singular values
past the top k, so it is read off the eigenvalues of the smaller of the
embedding's two Gram products Q Q^T and Q^T Q, with no singular vectors
formed.  When the embedded inner products are close to the kernel, the
residual is close to the exact tail energy, and kpca_experiment quantifies
that over independently drawn maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import integer
from .features import FeatureMap, FeatureMapSpec, Variant, embed, sample_map
from .kernel import Bandwidth, PointSet
from .streams import check_seed, derive_seed

__all__ = [
    "PcaReport",
    "kpca_experiment",
]

# Relative floor under which centered-Gram eigenvalues are treated as zero;
# double centering leaves O(eps_machine * n) noise around the zero eigenvalue.
_EIG_CLAMP = 1e-10


@dataclass(frozen=True)
class PcaReport:
    """Tail energies for one (t, k) setting aggregated over map draws.

    r_approx is the mean residual over trials and rel_err the mean of the
    per-trial relative errors |R_hat / r_exact - 1|, which bounds the
    relative error of r_approx itself.  rel_err is NaN when the exact tail
    energy is zero (degenerate spectrum, no ratio to report).
    """

    sigma: float
    t: int
    k: int
    r_exact: float
    r_approx: float
    rel_err: float
    trials: int


def gram_exact(points: PointSet, sigma: Bandwidth) -> np.ndarray:
    """Exact Gaussian Gram matrix of a point set; symmetric, unit diagonal.

    Squared distances come from one matmul, |x_i|^2 + |x_j|^2 - 2 x_i.x_j,
    clamped at 0, after the points are shifted to their mean.  The shift
    leaves distances unchanged but keeps the cancellation small: the error
    of an entry's exponent grows like eps * R^2 / sigma^2, where eps is the
    float64 machine epsilon and R the radius of the set about its mean.
    Points whose squared distances could overflow are refused: 4 * dim *
    max|x|^2 bounds every partial sum below, and it is formed from two
    reductions as Python floats, so an overflow is inf (or NaN, where the
    mean itself overflowed).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = points.data - points.data.mean(axis=0)
    x_max = max(float(x.max()), -float(x.min()))
    bound = 4.0 * points.dim * x_max * x_max
    if not bound < 2.0**1023:
        raise ValueError(
            f"points of magnitude up to {x_max!r} about their mean can overflow the exact Gram: "
            f"4 * dim * max|x|^2 = {bound!r} is not below 2^1023"
        )
    norms = np.einsum("ij,ij->i", x, x)
    # numpy computes x @ x.T as one triangle and mirrors it, so g is exactly
    # symmetric; each later step works entry by entry in g itself
    g = x @ x.T
    g *= 2.0
    np.subtract(np.add.outer(norms, norms), g, out=g)
    np.maximum(g, 0.0, out=g)
    # at the smallest bandwidths the exponent of far pairs overflows to -inf,
    # whose exp is the correct 0, so that overflow need not warn
    with np.errstate(over="ignore"):
        g *= -0.5 / sigma.sigma**2
        np.exp(g, out=g)
    np.fill_diagonal(g, 1.0)
    g.setflags(write=False)
    return g


def center_gram(g: np.ndarray) -> np.ndarray:
    """Double-center a symmetric Gram matrix: G_ij - r_i - r_j + mean(r),
    where r holds the row means.

    Equivalent to replacing each feature-space image by its offset from the
    feature-space mean.  The input must be symmetric, as gram_exact's is, so
    that its column means are its row means; r_i + r_j is then the same
    double as r_j + r_i, and the output, read-only, is exactly symmetric.
    """
    row = g.mean(axis=1)
    out = np.add.outer(row, row)
    np.subtract(g, out, out=out)
    out += row.mean()
    out.setflags(write=False)
    return out


def exact_tail_energy(centered: np.ndarray, k: int) -> float:
    """Sum of centered-Gram eigenvalues after the top k (descending order).

    k = 0 returns the full trace.  Eigenvalues below 1e-10 of the largest
    are clamped to zero, so the tiny negatives eigensolvers produce for
    rank-deficient centered matrices cannot pollute the tail.
    """
    n = centered.shape[0]
    k = integer("k", k, minimum=0)
    if k >= n:
        raise ValueError(f"k must be an integer in [0, n), got k={k} with n={n}")
    vals = np.linalg.eigvalsh(centered)[::-1]
    vals[vals < _EIG_CLAMP * max(float(vals[0]), 0.0)] = 0.0
    return float(np.sum(vals[k:]))


def exact_feature_embedding(centered: np.ndarray) -> np.ndarray:
    """Feature coordinates that reproduce a centered Gram matrix exactly.

    Returns Q (n x n) with columns ordered by descending eigenvalue such that
    Q @ Q.T equals the centered Gram up to float error; negative eigenvalue
    noise is clamped to zero.  Because the Gram is centered, the columns of
    Q already have zero mean, so Q can be fed straight to
    residual_from_centered for a map-free reference pipeline.
    """
    vals, vecs = np.linalg.eigh(centered)
    order = np.argsort(-vals, kind="stable")
    vals = np.clip(vals[order], 0.0, None)
    return vecs[:, order] * np.sqrt(vals)


def residual_from_centered(q: np.ndarray, k: int) -> float:
    """Squared Frobenius residual of column-centered rows past their top-k
    right singular subspace: ||Q - Q V_k V_k^T||_F^2 (k = 0 gives ||Q||_F^2).

    The residual equals the sum of the squared singular values of Q past the
    top k, which are the eigenvalues of the smaller of Q Q^T and Q^T Q.  It
    is summed directly over the smallest min(n, m) - k eigenvalues, each
    clipped at 0, not formed as ||Q||_F^2 minus the top k, so a small tail
    does not cancel away.  Unlike exact_tail_energy no relative floor is
    applied: a genuine tail 1e-10 below the top eigenvalue is still resolved.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError("expected a 2-d matrix of embedded rows")
    n, m = q.shape
    k = integer("k", k, minimum=0)
    if k >= min(n, m):
        raise ValueError(f"k must be an integer in [0, min(n, m)), got k={k} with shape {q.shape}")
    gram = q @ q.T if n <= m else q.T @ q
    vals = np.linalg.eigvalsh(gram)  # ascending
    return float(np.sum(np.clip(vals[: min(n, m) - k], 0.0, None)))


def approx_residual(points: PointSet, fmap: FeatureMap, k: int) -> float:
    """Tail-energy estimate from one sampled map.

    Embeds the points, centers each embedding column on its mean in place,
    and returns the squared residual outside the embedding's own top-k right
    singular subspace.
    """
    q = embed(points, fmap).features
    q -= q.mean(axis=0, keepdims=True)
    return residual_from_centered(q, k)


def kpca_experiment(
    points: PointSet,
    sigma: Bandwidth,
    k: int,
    t_list: Sequence[int],
    trials: int,
    seed: int,
    variant: Variant = Variant.COS_SIN,
) -> list[PcaReport]:
    """Compare exact and embedded tail energies over freshly drawn maps.

    For each t in t_list, draws `trials` independent maps (seeds derived
    from (seed, t, trial)), computes the embedded residual for each, and
    reports it against the exact tail energy of the same point set.  k is
    checked against n and every t's output dimension, and an empty t_list
    refused, before any of the work.
    """
    trials = integer("trials", trials)
    k = integer("k", k, minimum=0)
    if len(t_list) < 1:
        raise ValueError(f"t_list must hold integers >= 1, got {t_list}")
    t_list = [integer("t_list entry", t) for t in t_list]
    seed = check_seed(seed)
    n = points.n
    if k >= n:
        raise ValueError(f"k must be an integer in [0, n), got k={k} with n={n}")
    for t in t_list:
        m = FeatureMapSpec(variant=variant, sigma=sigma, size=t, seed=seed).output_dim
        if k >= m:
            raise ValueError(
                f"k must be an integer in [0, min(n, output_dim)), got k={k} with n={n}"
                f" and output_dim={m} at t={t}"
            )
    centered = center_gram(gram_exact(points, sigma))
    r_exact = exact_tail_energy(centered, k)
    reports = []
    for t in t_list:
        residuals = np.empty(trials)
        for trial in range(trials):
            spec = FeatureMapSpec(
                variant=variant, sigma=sigma, size=t, seed=derive_seed(seed, t, trial)
            )
            fmap = sample_map(spec, points.dim)
            residuals[trial] = approx_residual(points, fmap, k)
        r_approx = float(residuals.mean())
        if r_exact == 0.0:
            rel_err = float("nan")
        else:
            rel_err = float(np.mean(np.abs(residuals / r_exact - 1.0)))
        reports.append(
            PcaReport(
                sigma=sigma.sigma,
                t=t,
                k=k,
                r_exact=r_exact,
                r_approx=r_approx,
                rel_err=rel_err,
                trials=trials,
            )
        )
    return reports
