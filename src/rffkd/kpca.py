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
class GramMatrix:
    """Symmetric kernel matrix; centered tracks whether it was double-centered."""

    g: np.ndarray
    centered: bool

    @property
    def n(self) -> int:
        return self.g.shape[0]


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


def gram_exact(points: PointSet, sigma: Bandwidth) -> GramMatrix:
    """Exact Gaussian Gram matrix of a point set; symmetric, unit diagonal.

    Squared distances come from one matmul, |x_i|^2 + |x_j|^2 - 2 x_i.x_j,
    clamped at 0, after the points are shifted to their mean.  The shift
    leaves distances unchanged but keeps the cancellation small: the error
    of an entry's exponent grows like eps * R^2 / sigma^2, where eps is the
    float64 machine epsilon and R the radius of the set about its mean.
    """
    x = points.data - points.data.mean(axis=0)
    norms = np.einsum("ij,ij->i", x, x)
    # numpy computes x @ x.T as one triangle and mirrors it, so sq and g are
    # exactly symmetric
    sq = norms[:, None] + norms[None, :] - 2.0 * (x @ x.T)
    np.maximum(sq, 0.0, out=sq)
    # at the smallest bandwidths the exponent of far pairs overflows to -inf,
    # whose exp is the correct 0, so that overflow need not warn
    with np.errstate(over="ignore"):
        g = np.exp(sq * (-0.5 / sigma.sigma**2))
    np.fill_diagonal(g, 1.0)
    g.setflags(write=False)
    return GramMatrix(g=g, centered=False)


def center_gram(gram: GramMatrix) -> GramMatrix:
    """Double-center a Gram matrix: G - row means - column means + total mean.

    Equivalent to replacing each feature-space image by its offset from the
    feature-space mean.  Centering an already centered matrix is refused
    (it would silently be a no-op up to float noise).
    """
    if gram.centered:
        raise ValueError("gram matrix is already centered")
    g = gram.g
    row = g.mean(axis=1, keepdims=True)
    col = g.mean(axis=0, keepdims=True)
    total = g.mean()
    out = g - row - col + total
    out = 0.5 * (out + out.T)
    out.setflags(write=False)
    return GramMatrix(g=out, centered=True)


def _descending_eigvals(g: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(g)[::-1]
    top = max(float(vals[0]), 0.0)
    vals[vals < _EIG_CLAMP * top] = 0.0
    return vals


def exact_tail_energy(gram: GramMatrix, k: int) -> float:
    """Sum of centered-Gram eigenvalues after the top k (descending order).

    k = 0 returns the full trace.  Eigenvalues below 1e-10 of the largest
    are clamped to zero, so the tiny negatives eigensolvers produce for
    rank-deficient centered matrices cannot pollute the tail.
    """
    if not gram.centered:
        raise ValueError("tail energy is defined for a centered gram matrix")
    n = gram.n
    k = integer("k", k, minimum=0)
    if k >= n:
        raise ValueError(f"k must be an integer in [0, n), got k={k} with n={n}")
    vals = _descending_eigvals(gram.g)
    return float(np.sum(vals[k:]))


def exact_feature_embedding(gram: GramMatrix) -> np.ndarray:
    """Feature coordinates that reproduce a centered Gram matrix exactly.

    Returns Q (n x n) with columns ordered by descending eigenvalue such that
    Q @ Q.T equals the centered Gram up to float error; negative eigenvalue
    noise is clamped to zero.  Because the Gram is centered, the columns of
    Q already have zero mean, so Q can be fed straight to
    residual_from_centered for a map-free reference pipeline.
    """
    if not gram.centered:
        raise ValueError("exact feature embedding requires a centered gram matrix")
    vals, vecs = np.linalg.eigh(gram.g)
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
