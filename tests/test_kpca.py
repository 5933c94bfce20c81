"""Kernel PCA tail energies: Gram construction, centering, spectral tails
against high-precision mpmath eigen/SVD oracles, the exact-feature reference
pipeline, and the map-versus-exact experiment loop.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

import rffkd.features
import rffkd.kpca
from rffkd import (
    Bandwidth,
    FeatureMapSpec,
    PointSet,
    Variant,
    embed,
    kpca_experiment,
    sample_map,
    synth_dataset,
)
from rffkd.kernel import kernel_exact
from rffkd.kpca import (
    GramMatrix,
    approx_residual,
    center_gram,
    exact_feature_embedding,
    exact_tail_energy,
    gram_exact,
    residual_from_centered,
)

mp.dps = 50


def small_points(n=5, dim=3, seed=0, scale=1.5):
    rng = np.random.default_rng(seed)
    return PointSet(rng.standard_normal((n, dim)) * scale)


def mp_eigenvalues_desc(a: np.ndarray) -> list:
    m = mp.matrix(a.tolist())
    vals = mp.eigsy(m, eigvals_only=True)
    return sorted((vals[i] for i in range(a.shape[0])), reverse=True)


def offset_cloud():
    """Twenty points spread 0.01 about a common offset of 1e4 in R^3, the
    second a 3e-7 near-duplicate of the first; paired with sigma = 0.01."""
    rng = np.random.default_rng(21)
    x = 1e4 + 0.01 * rng.standard_normal((20, 3))
    x[1] = x[0] + np.array([3e-7, 0.0, 0.0])
    return x


def gram_error_vs_mpmath(g: np.ndarray, x: np.ndarray, sigma: float) -> float:
    """Largest absolute gap between g and a 50-digit Gaussian kernel of x."""
    pts = [[mp.mpf(float(v)) for v in row] for row in x]
    scale = -1 / (2 * mp.mpf(sigma) ** 2)
    worst = 0.0
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            want = mp.exp(scale * mp.fsum((u - v) ** 2 for u, v in zip(a, b)))
            worst = max(worst, abs(float(g[i, j] - want)))
    return worst


class TestGramExact:
    def test_entries_match_pairwise_kernel(self):
        pts = small_points(6, 4)
        sigma = Bandwidth(1.2)
        g = gram_exact(pts, sigma).g
        for i in range(6):
            for j in range(6):
                want = kernel_exact(pts.data[i], pts.data[j], sigma)
                assert g[i, j] == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_unit_diagonal_exact(self):
        g = gram_exact(small_points(8, 2), Bandwidth(0.5)).g
        assert np.all(np.diag(g) == 1.0)

    def test_exactly_symmetric(self):
        """Bit for bit, with no symmetrising pass: x @ x.T computes one
        triangle and mirrors it.  At 250 x 256 (the kpca benchmark's shape)
        and 777 x 33 a plain gemm of x and a copy of x.T is not symmetric."""
        for n, dim in [(30, 5), (250, 256), (777, 33)]:
            g = gram_exact(small_points(n, dim), Bandwidth(2.0)).g
            assert np.array_equal(g, g.T), (n, dim)

    def test_positive_semidefinite(self):
        g = gram_exact(small_points(60, 4, seed=3), Bandwidth(1.0)).g
        assert float(np.linalg.eigvalsh(g).min()) >= -1e-10

    def test_offset_near_duplicates_match_mpmath(self):
        """The matmul route stays accurate when the points sit far from the
        origin: they are shifted to their mean before the cancellation."""
        x = offset_cloud()
        g = gram_exact(PointSet(x), Bandwidth(0.01)).g
        assert gram_error_vs_mpmath(g, x, 0.01) <= 1e-12

    def test_offset_check_catches_uncentered_matmul(self):
        """Negative control: the same matmul without the shift to the mean
        loses about eps * |x|^2 / sigma^2 and fails the check above."""
        x = offset_cloud()
        norms = np.sum(x * x, axis=1)
        sq = np.maximum(norms[:, None] + norms[None, :] - 2.0 * (x @ x.T), 0.0)
        g = np.exp(sq * (-0.5 / 0.01**2))
        g = 0.5 * (g + g.T)
        np.fill_diagonal(g, 1.0)
        assert gram_error_vs_mpmath(g, x, 0.01) > 1e-12

    def test_smallest_bandwidth_is_quiet_and_exact(self):
        """At sigma = 2^-511 the exponents of distinct pairs overflow to -inf;
        their kernel is the correct 0, with no warning (the suite turns
        warnings into errors)."""
        g = gram_exact(small_points(20, 2), Bandwidth(2.0**-511)).g
        np.testing.assert_array_equal(g, np.eye(20))

    def test_marked_uncentered_and_readonly(self):
        gram = gram_exact(small_points(), Bandwidth(1.0))
        assert not gram.centered
        assert gram.n == 5
        with pytest.raises(ValueError):
            gram.g[0, 0] = 2.0


class TestCenterGram:
    def test_row_and_column_means_vanish(self):
        c = center_gram(gram_exact(small_points(20, 3), Bandwidth(1.0)))
        assert float(np.abs(c.g.mean(axis=0)).max()) <= 1e-12
        assert float(np.abs(c.g.mean(axis=1)).max()) <= 1e-12

    def test_identical_points_center_to_zero(self):
        pts = PointSet(np.ones((6, 2)))
        c = center_gram(gram_exact(pts, Bandwidth(1.0)))
        assert float(np.abs(c.g).max()) <= 1e-14

    def test_double_centering_refused(self):
        c = center_gram(gram_exact(small_points(), Bandwidth(1.0)))
        with pytest.raises(ValueError, match="already centered"):
            center_gram(c)

    def test_matches_centered_feature_outer_product(self):
        """Centering the embedded Gram QQ^T equals forming the Gram of the
        column-centered features directly."""
        pts = small_points(40, 6, seed=5)
        fmap = sample_map(FeatureMapSpec(Variant.COS_SIN, Bandwidth(1.0), 32, 7), 6)
        from rffkd import embed

        q = embed(pts, fmap).features
        raw = GramMatrix(g=q @ q.T, centered=False)
        lhs = center_gram(raw).g
        qc = q - q.mean(axis=0, keepdims=True)
        rhs = qc @ qc.T
        assert float(np.abs(lhs - rhs).max()) <= 1e-8


class TestExactTailEnergy:
    def test_k_zero_is_trace(self):
        c = center_gram(gram_exact(small_points(12, 3), Bandwidth(1.0)))
        assert exact_tail_energy(c, 0) == pytest.approx(float(np.trace(c.g)), rel=1e-10)

    def test_matches_mpmath_spectrum(self):
        """Every tail sum agrees with a 50-digit eigendecomposition."""
        pts = small_points(5, 3, seed=1)
        c = center_gram(gram_exact(pts, Bandwidth(1.3)))
        vals = mp_eigenvalues_desc(c.g)
        for k in range(5):
            want = float(mp.fsum(vals[k:]))
            got = exact_tail_energy(c, k)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_duplicated_points_have_rank_one_center(self):
        """Two distinct points copied n/2 times each: after centering the
        spectrum has one nonzero eigenvalue, so the k = 1 tail is zero."""
        pts = PointSet(np.array([[0.0, 0.0], [1.0, 1.0]] * 3))
        c = center_gram(gram_exact(pts, Bandwidth(1.0)))
        assert exact_tail_energy(c, 1) == 0.0
        assert exact_tail_energy(c, 0) > 0.1

    def test_nonincreasing_in_k(self):
        c = center_gram(gram_exact(small_points(15, 4, seed=2), Bandwidth(0.8)))
        tails = [exact_tail_energy(c, k) for k in range(15)]
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
        assert all(v >= 0.0 for v in tails)

    def test_uncentered_rejected(self):
        with pytest.raises(ValueError, match="centered"):
            exact_tail_energy(gram_exact(small_points(), Bandwidth(1.0)), 1)

    @pytest.mark.parametrize("k", [-1, 5, 7, 1.5])
    def test_bad_k_rejected(self, k):
        c = center_gram(gram_exact(small_points(5), Bandwidth(1.0)))
        with pytest.raises(ValueError, match="k must be"):
            exact_tail_energy(c, k)


def small_tail_matrix(shape):
    """Q = U diag(s) V^T with orthonormal U, V: three singular values of 10
    and the rest 1e-4, so each tail eigenvalue is 1e-10 of the top one."""
    n, m = shape
    p = min(n, m)
    rng = np.random.default_rng(22)
    u, _ = np.linalg.qr(rng.standard_normal((n, p)))
    v, _ = np.linalg.qr(rng.standard_normal((m, p)))
    s = np.full(p, 1e-4)
    s[:3] = 10.0
    return (u * s) @ v.T


def mp_tail(q: np.ndarray, k: int):
    """Tail past k of the eigenvalues of Q's smaller Gram, at 50 digits."""
    a = mp.matrix(q.tolist())
    gram = a * a.T if q.shape[0] <= q.shape[1] else a.T * a
    vals = sorted(mp.eigsy(gram, eigvals_only=True))
    return float(mp.fsum(vals[: min(q.shape) - k]))


def residual_with_relative_floor(q: np.ndarray, k: int) -> float:
    """The residual with exact_tail_energy's floor: eigenvalues below 1e-10
    of the largest are set to 0."""
    gram = q @ q.T if q.shape[0] <= q.shape[1] else q.T @ q
    vals = np.linalg.eigvalsh(gram)
    vals[vals < 1e-10 * vals[-1]] = 0.0
    return float(np.sum(vals[: min(q.shape) - k]))


class TestResidualFromCentered:
    @pytest.mark.parametrize("shape", [(40, 12), (12, 40)])
    def test_small_tail_matches_mpmath(self, shape):
        """A tail 1e-10 below the top eigenvalue is resolved, for tall and
        wide Q alike."""
        q = small_tail_matrix(shape)
        assert residual_from_centered(q, 3) == pytest.approx(mp_tail(q, 3), rel=1e-5)

    @pytest.mark.parametrize("shape", [(40, 12), (12, 40)])
    def test_small_tail_check_catches_relative_floor(self, shape):
        """Negative control: the relative floor that suits the centered
        kernel Gram clamps part of this genuine tail and fails the check."""
        q = small_tail_matrix(shape)
        assert residual_with_relative_floor(q, 3) != pytest.approx(mp_tail(q, 3), rel=1e-5)

    def test_k_zero_is_squared_frobenius(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((8, 5))
        assert residual_from_centered(q, 0) == pytest.approx(float(np.sum(q * q)), rel=1e-14)

    def test_matches_mpmath_singular_values(self):
        """The projector residual equals the tail sum of squared singular
        values; checked against mpmath's SVD on a 6 x 4 matrix."""
        rng = np.random.default_rng(6)
        q = rng.standard_normal((6, 4))
        q -= q.mean(axis=0, keepdims=True)
        sv = mp.svd_r(mp.matrix(q.tolist()), compute_uv=False)
        sq = sorted((sv[i] ** 2 for i in range(4)), reverse=True)
        for k in range(4):
            want = float(mp.fsum(sq[k:]))
            assert residual_from_centered(q, k) == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_zero_residual_at_full_rank(self):
        """Three centered rows span at most a 2-d row space, so k = 2
        removes everything."""
        rng = np.random.default_rng(7)
        q = rng.standard_normal((3, 8))
        q -= q.mean(axis=0, keepdims=True)
        assert residual_from_centered(q, 2) <= 1e-12

    def test_nonincreasing_in_k(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((10, 6))
        vals = [residual_from_centered(q, k) for k in range(6)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("k", [-1, 4, 2.5])
    def test_bad_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be"):
            residual_from_centered(np.zeros((6, 4)), k)

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            residual_from_centered(np.zeros(4), 1)


class TestExactFeaturePipeline:
    def test_embedding_reproduces_gram(self):
        c = center_gram(gram_exact(small_points(25, 4, seed=9), Bandwidth(1.1)))
        q = exact_feature_embedding(c)
        assert float(np.abs(q @ q.T - c.g).max()) <= 1e-8

    def test_columns_are_centered(self):
        c = center_gram(gram_exact(small_points(18, 3, seed=10), Bandwidth(0.9)))
        q = exact_feature_embedding(c)
        assert float(np.abs(q.mean(axis=0)).max()) <= 1e-8

    def test_residual_recovers_tail_energy(self):
        """Feeding the exact feature coordinates through the residual path
        returns the spectral tail: the two pipelines meet."""
        pts = small_points(30, 5, seed=11)
        c = center_gram(gram_exact(pts, Bandwidth(1.4)))
        q = exact_feature_embedding(c)
        for k in (0, 1, 5, 12):
            want = exact_tail_energy(c, k)
            got = residual_from_centered(q, k)
            assert got == pytest.approx(want, abs=1e-8)

    def test_uncentered_rejected(self):
        with pytest.raises(ValueError, match="centered"):
            exact_feature_embedding(gram_exact(small_points(), Bandwidth(1.0)))


class TestApproxResidual:
    def test_matches_manual_computation(self):
        pts = small_points(12, 4, seed=12)
        fmap = sample_map(FeatureMapSpec(Variant.COS_SIN, Bandwidth(1.0), 16, 13), 4)
        from rffkd import embed

        q = embed(pts, fmap).features
        q = q - q.mean(axis=0, keepdims=True)
        want = residual_from_centered(q, 3)
        assert approx_residual(pts, fmap, 3) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_equals_copy_then_centre_bits(self, variant):
        """Centring the embedding in place gives the bits of centring a copy,
        on both Gram paths (n <= m for cossin here, n > m for cosshift)."""
        pts = small_points(40, 4, seed=21)
        fmap = sample_map(FeatureMapSpec(variant, Bandwidth(1.0), 24, 22), 4)
        q = embed(pts, fmap).features
        want = residual_from_centered(q - q.mean(axis=0, keepdims=True), 3)
        assert approx_residual(pts, fmap, 3) == want

    def test_converges_to_exact_tail(self):
        """A large map's residual lands within a few percent of the exact
        tail energy."""
        pts = synth_dataset(80, 6, 4, seed=14)
        sigma = Bandwidth(1.5)
        c = center_gram(gram_exact(pts, sigma))
        r_exact = exact_tail_energy(c, 10)
        fmap = sample_map(FeatureMapSpec(Variant.COS_SIN, sigma, 6000, 15), 6)
        r_hat = approx_residual(pts, fmap, 10)
        assert abs(r_hat / r_exact - 1.0) <= 0.08


class TestKpcaExperiment:
    def test_deterministic_and_well_formed(self):
        pts = synth_dataset(50, 5, 3, seed=16)
        a = kpca_experiment(pts, Bandwidth(1.5), 5, [20, 40], trials=3, seed=17)
        b = kpca_experiment(pts, Bandwidth(1.5), 5, [20, 40], trials=3, seed=17)
        assert a == b
        assert [r.t for r in a] == [20, 40]
        for r in a:
            assert r.k == 5 and r.trials == 3 and r.sigma == 1.5
            assert r.r_exact > 0 and r.r_approx > 0
            assert r.rel_err >= 0.0
            # the mean-of-errors dominates the error-of-means
            assert abs(r.r_approx / r.r_exact - 1) <= r.rel_err + 1e-12

    def test_error_shrinks_with_map_size(self):
        pts = synth_dataset(120, 8, 5, seed=18)
        reports = kpca_experiment(pts, Bandwidth(1.5), 10, [25, 400], trials=4, seed=19)
        assert reports[0].rel_err > reports[1].rel_err

    def test_degenerate_spectrum_reports_nan(self):
        pts = PointSet(np.zeros((6, 2)))
        reports = kpca_experiment(pts, Bandwidth(1.0), 1, [8], trials=2, seed=20)
        assert reports[0].r_exact == 0.0
        assert math.isnan(reports[0].rel_err)

    def test_memory_holds_one_embedding(self):
        """Peak traced memory is one embedding at the largest t, its map and
        one block, plus a few n x n arrays (the centred Gram, the embedding's
        Gram product and the eigensolver's copy of it): each embedding is
        centred in place, not copied."""
        n, dim, t = 250, 256, 1600
        pts = synth_dataset(n, dim, 10, seed=23)
        sigma = Bandwidth(16.0)
        kpca_experiment(pts, sigma, 2, [8], trials=1, seed=0)  # lazy imports stay outside the peak
        tracemalloc.start()
        try:
            kpca_experiment(pts, sigma, 20, [400, t], trials=2, seed=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        embedding, fmap = 8 * n * 2 * t, 8 * t * dim
        assert peak <= embedding + fmap + rffkd.features.BLOCK_BYTES + 4 * 8 * n * n

    @pytest.mark.parametrize(
        "variant, k, t_list, named",
        [
            (Variant.COS_SIN, 50, [100], "got k=50 with n=50"),
            (Variant.COS_SIN, 25, [10], "got k=25 with n=50 and output_dim=20 at t=10"),
            (Variant.COS_SHIFT, 25, [100, 20], "got k=25 with n=50 and output_dim=20 at t=20"),
            (Variant.COS_SIN, 1, [], "t_list must hold integers >= 1, got []"),
        ],
    )
    def test_k_checked_before_the_exact_side(self, monkeypatch, variant, k, t_list, named):
        """A k that n or some t's output dimension cannot hold is refused, naming
        that t, before the exact Gram is built; so is an empty t_list."""

        def no_gram(*args):
            raise AssertionError("gram_exact ran before k was checked")

        monkeypatch.setattr(rffkd.kpca, "gram_exact", no_gram)
        pts = synth_dataset(50, 3, 2, seed=0)
        with pytest.raises(ValueError, match=re.escape(named)):
            kpca_experiment(pts, Bandwidth(1.0), k, t_list, trials=1, seed=0, variant=variant)

    def test_trials_validated(self):
        pts = small_points()
        with pytest.raises(ValueError, match="trials"):
            kpca_experiment(pts, Bandwidth(1.0), 1, [8], trials=0, seed=0)
