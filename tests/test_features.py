"""Feature maps and the deterministic streams behind them.

Covers bit-reproducibility and the per-row keying contract, the sampling
distributions, both embedding variants, and the projection identities that
reduce pairwise embedded quantities to standard normal scalars.
"""

import math
import threading
import time

import numpy as np
import pytest
from mpmath import mp

from rffkd import (
    Bandwidth,
    Embedding,
    FeatureMap,
    FeatureMapSpec,
    PointSet,
    Variant,
    embed,
    sample_map,
)
import rffkd._pool
import rffkd.features
from rffkd._pool import WORKERS
from rffkd.features import embed_blocks, projected_frequencies, sq_distance_from_projections
from rffkd.kernel import ScaledDiff, kernel_exact, sq_distance_from_scaled_norm
from rffkd.streams import check_seed, derive_seed, generator, row_generator

mp.dps = 50


def cossin_spec(size=64, sigma=1.0, seed=0):
    return FeatureMapSpec(Variant.COS_SIN, Bandwidth(sigma), size, seed)


def cosshift_spec(size=64, sigma=1.0, seed=0):
    return FeatureMapSpec(Variant.COS_SHIFT, Bandwidth(sigma), size, seed)


class TestStreams:
    def test_check_seed_bounds(self):
        assert check_seed(0) == 0
        assert check_seed(2**64 - 1) == 2**64 - 1
        for bad in (-1, 2**64, "x", None, 1.5):
            with pytest.raises(ValueError):
                check_seed(bad)

    def test_row_index_bounds(self):
        row_generator(0, 2**64 - 1)
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match="^row must"):
                row_generator(0, bad)

    def test_row_streams_are_deterministic(self):
        a = row_generator(123, 5).standard_normal(8)
        b = row_generator(123, 5).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_row_streams_differ_across_rows_and_seeds(self):
        base = row_generator(123, 5).standard_normal(8)
        assert not np.array_equal(base, row_generator(123, 6).standard_normal(8))
        assert not np.array_equal(base, row_generator(124, 5).standard_normal(8))

    def test_generator_avoids_row_zero_alias(self):
        """The general-purpose stream for seed s must not replay the raw-keyed
        stream of row 0, which would correlate experiment draws with map rows."""
        a = generator(7).standard_normal(8)
        b = row_generator(7, 0).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_derive_seed_deterministic_and_path_sensitive(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
        assert derive_seed(42, 0, 1) != derive_seed(42, 1, 1)
        assert derive_seed(41, 1, 2) != derive_seed(42, 1, 2)

    def test_derive_seed_in_range(self):
        for s in (0, 9, 2**63):
            d = derive_seed(s, 3, 1, 4)
            assert 0 <= d < 2**64


def rows_match_row_generator(fmap: FeatureMap) -> bool:
    """Row r of the map equals, bit for bit, row_generator(seed, r)'s draws:
    dim standard normals times 1/sigma, then for CosShift the row's phase."""
    spec = fmap.spec
    for row in range(spec.size):
        gen = row_generator(spec.seed, row)
        want = gen.standard_normal(fmap.dim) * (1.0 / spec.sigma.sigma)
        if fmap.frequencies[row].tobytes() != want.tobytes():
            return False
        if fmap.shifts is not None:
            shift = 2.0 * math.pi * (1.0 - gen.random())
            if fmap.shifts[row:row + 1].tobytes() != np.float64(shift).tobytes():
                return False
    return True


def rekey_keeping_buffer_pos(seed, rows):
    """A faulty re-key: resets key, counter, buffer and cached half, but
    leaves buffer_pos where the previous row's draws left it."""
    bitgen = np.random.Philox(key=seed << 64)
    gen = np.random.Generator(bitgen)
    for row in range(rows):
        state = bitgen.state
        state["state"]["key"][0] = row
        state["state"]["counter"][:] = 0
        state["buffer"][:] = 0
        state["has_uint32"] = state["uinteger"] = 0
        bitgen.state = state
        yield gen


class TestSampleMap:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_rows_equal_row_generator_draws(self, variant, seed):
        fmap = sample_map(FeatureMapSpec(variant, Bandwidth(1.7), 40, seed), 5)
        assert rows_match_row_generator(fmap)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_row_check_catches_stale_buffer_pos(self, variant, monkeypatch):
        """Negative control: a re-key that forgets buffer_pos replays zeroed
        buffer words into the next row, and the check above fails."""
        monkeypatch.setattr(rffkd.features, "row_generators", rekey_keeping_buffer_pos)
        fmap = sample_map(FeatureMapSpec(variant, Bandwidth(1.7), 40, 0), 5)
        assert not rows_match_row_generator(fmap)

    def test_bit_identical_resampling(self):
        spec = cossin_spec(size=32, seed=99)
        a = sample_map(spec, 6)
        b = sample_map(spec, 6)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)

    def test_row_prefix_property(self):
        """Row i of a map never depends on the total row count."""
        small = sample_map(cossin_spec(size=3, seed=5), 4)
        large = sample_map(cossin_spec(size=50, seed=5), 4)
        np.testing.assert_array_equal(small.frequencies, large.frequencies[:3])

    def test_shift_rows_share_prefix_too(self):
        small = sample_map(cosshift_spec(size=3, seed=5), 4)
        large = sample_map(cosshift_spec(size=50, seed=5), 4)
        np.testing.assert_array_equal(small.frequencies, large.frequencies[:3])
        np.testing.assert_array_equal(small.shifts, large.shifts[:3])

    def test_different_seeds_differ(self):
        a = sample_map(cossin_spec(seed=1), 4)
        b = sample_map(cossin_spec(seed=2), 4)
        assert not np.array_equal(a.frequencies, b.frequencies)

    def test_frequency_moments(self):
        """Entries are N(0, 1/sigma^2): mean and mean square within 3 se."""
        sigma = 2.5
        fmap = sample_map(cossin_spec(size=4000, sigma=sigma, seed=0), 50)
        w = fmap.frequencies.ravel()
        n = w.size
        var = sigma**-2
        assert abs(w.mean()) <= 3 * math.sqrt(var / n)
        assert abs((w**2).mean() - var) <= 3 * math.sqrt(2.0 / n) * var

    def test_shifts_uniform_half_open(self):
        fmap = sample_map(cosshift_spec(size=20000, seed=3), 2)
        g = fmap.shifts
        assert np.all(g > 0.0) and np.all(g <= 2 * math.pi)
        # uniform on (0, 2pi]: mean pi, variance pi^2/3
        se = math.sqrt(math.pi**2 / 3 / g.size)
        assert abs(g.mean() - math.pi) <= 3 * se

    def test_cossin_has_no_shifts(self):
        assert sample_map(cossin_spec(), 4).shifts is None

    def test_arrays_are_readonly(self):
        fmap = sample_map(cosshift_spec(size=4), 3)
        with pytest.raises(ValueError):
            fmap.frequencies[0, 0] = 1.0
        with pytest.raises(ValueError):
            fmap.shifts[0] = 1.0

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="size"):
            FeatureMapSpec(Variant.COS_SIN, Bandwidth(1.0), 0, 0)
        with pytest.raises(ValueError, match="seed"):
            FeatureMapSpec(Variant.COS_SIN, Bandwidth(1.0), 4, -1)
        with pytest.raises(ValueError):
            FeatureMapSpec("cosine", Bandwidth(1.0), 4, 0)
        with pytest.raises(ValueError, match="Bandwidth"):
            FeatureMapSpec(Variant.COS_SIN, 1.0, 4, 0)

    def test_variant_accepts_string_value(self):
        spec = FeatureMapSpec("cossin", Bandwidth(1.0), 4, 0)
        assert spec.variant is Variant.COS_SIN
        assert spec.output_dim == 8
        assert cosshift_spec(size=6).output_dim == 6

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            sample_map(cossin_spec(), 0)


class TestEmbedCosSin:
    def test_shape_and_layout_at_origin(self):
        """The origin projects to 0 on every row, so its features are the
        interleaved pattern [1, 0, 1, 0, ...] / sqrt(t)."""
        t = 8
        emb = embed(PointSet(np.zeros((1, 3))), sample_map(cossin_spec(size=t), 3))
        assert emb.features.shape == (1, 2 * t)
        amp = 1.0 / math.sqrt(t)
        np.testing.assert_allclose(emb.features[0, 0::2], amp, rtol=0, atol=0)
        np.testing.assert_allclose(emb.features[0, 1::2], 0.0, rtol=0, atol=0)

    def test_unit_row_norms(self):
        rng = np.random.default_rng(0)
        pts = PointSet(rng.standard_normal((200, 5)) * rng.uniform(0.01, 100.0, (200, 1)))
        emb = embed(pts, sample_map(cossin_spec(size=37, sigma=0.8, seed=11), 5))
        norms = np.linalg.norm(emb.features, axis=1)
        assert float(np.max(np.abs(norms - 1.0))) <= 1e-12

    def test_inner_product_is_cosine_average(self):
        """<phi(x), phi(y)> = (1/t) sum cos<omega_i, x - y> exactly (up to
        rounding): the identity behind unbiasedness."""
        rng = np.random.default_rng(1)
        fmap = sample_map(cossin_spec(size=29, sigma=1.3, seed=2), 4)
        for _ in range(20):
            x, y = rng.standard_normal((2, 4)) * 3
            emb = embed(PointSet(np.vstack([x, y])), fmap)
            got = float(emb.features[0] @ emb.features[1])
            want = float(np.mean(np.cos(fmap.frequencies @ (x - y))))
            assert got == pytest.approx(want, abs=1e-12)

    def test_distance_squared_identity(self):
        """d_hat^2 = 2 - 2 k_hat for unit-norm rows."""
        rng = np.random.default_rng(2)
        fmap = sample_map(cossin_spec(size=64), 6)
        pts = PointSet(rng.standard_normal((10, 6)))
        emb = embed(pts, fmap)
        for i in range(9):
            ex, ey = emb.features[i], emb.features[i + 1]
            d_hat = float(np.linalg.norm(ex - ey))
            assert d_hat**2 == pytest.approx(2 - 2 * float(ex @ ey), abs=1e-12)

    def test_shift_invariance(self):
        """Embedded distances depend only on x - y, so translating both
        points moves every feature but no pairwise distance."""
        rng = np.random.default_rng(3)
        fmap = sample_map(cossin_spec(size=50, seed=4), 5)
        x, y = rng.standard_normal((2, 5))
        c = rng.standard_normal(5) * 10
        e0 = embed(PointSet(np.vstack([x, y])), fmap).features
        e1 = embed(PointSet(np.vstack([x + c, y + c])), fmap).features
        d0 = float(np.linalg.norm(e0[0] - e0[1]))
        d1 = float(np.linalg.norm(e1[0] - e1[1]))
        assert d1 == pytest.approx(d0, abs=1e-10)

    def test_unbiasedness_over_maps(self):
        """Average of k_hat over many independent one-pair maps approaches
        K(x, y); 3 se tolerance with the exact per-map variance bound."""
        sigma = Bandwidth(1.0)
        x = np.array([0.7, -0.2, 0.4])
        y = np.array([-0.3, 0.5, 0.0])
        k = kernel_exact(x, y, sigma)
        n_maps = 4000
        pts = PointSet(np.vstack([x, y]))
        vals = np.empty(n_maps)
        for i in range(n_maps):
            fmap = sample_map(FeatureMapSpec(Variant.COS_SIN, sigma, 1, derive_seed(0, 77, i)), 3)
            emb = embed(pts, fmap)
            vals[i] = float(emb.features[0] @ emb.features[1])
        se = float(np.std(vals, ddof=1)) / math.sqrt(n_maps)
        assert abs(vals.mean() - k) <= 3 * se

    def test_large_map_concentrates(self):
        """t = 10^5 pairs puts k_hat within 0.01 of K at one bandwidth."""
        x = np.zeros(3)
        y = np.array([2.0, 0.0, 0.0])
        sigma = Bandwidth(2.0)
        emb = embed(PointSet(np.vstack([x, y])), sample_map(FeatureMapSpec(Variant.COS_SIN, sigma, 10**5, 0), 3))
        k_hat = float(emb.features[0] @ emb.features[1])
        assert abs(k_hat - float(mp.exp(mp.mpf(-1) / 2))) <= 0.01

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            embed(PointSet(np.zeros((1, 3))), sample_map(cossin_spec(), 4))


class TestEmbedCosShift:
    def test_shape(self):
        emb = embed(PointSet(np.zeros((3, 2))), sample_map(cosshift_spec(size=16), 2))
        assert emb.features.shape == (3, 16)

    def test_rows_are_not_unit_norm(self):
        """Unlike CosSin, shifted-cosine rows have norm 1 only on average."""
        rng = np.random.default_rng(4)
        pts = PointSet(rng.standard_normal((20, 3)))
        emb = embed(pts, sample_map(cosshift_spec(size=8, seed=6), 3))
        norms = np.linalg.norm(emb.features, axis=1)
        assert float(np.max(np.abs(norms - 1.0))) > 1e-3

    def test_row_norm_unit_on_average(self):
        """E||phi(x)||^2 = 1: with amplitude sqrt(2/m), each feature squared
        averages 2 cos^2 = 1 over the phase."""
        rng = np.random.default_rng(5)
        pts = PointSet(rng.standard_normal((1, 4)))
        m = 1
        vals = np.empty(3000)
        for i in range(vals.size):
            fmap = sample_map(cosshift_spec(size=m, seed=derive_seed(0, 88, i)), 4)
            vals[i] = float(np.sum(embed(pts, fmap).features[0] ** 2))
        se = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 3 * se

    def test_inner_product_unbiased_over_maps(self):
        """E<phi(x), phi(y)> = K(x, y) for the shifted variant as well."""
        sigma = Bandwidth(1.5)
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        k = kernel_exact(x, y, sigma)
        pts = PointSet(np.vstack([x, y]))
        vals = np.empty(4000)
        for i in range(vals.size):
            fmap = sample_map(FeatureMapSpec(Variant.COS_SHIFT, sigma, 1, derive_seed(0, 99, i)), 2)
            emb = embed(pts, fmap)
            vals[i] = float(emb.features[0] @ emb.features[1])
        se = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        assert abs(vals.mean() - k) <= 3 * se

    def test_product_identity(self):
        """2 cos(a + g) cos(b + g) = cos(a - b) + cos(a + b + 2g) feature by
        feature; the inner product averages the left side."""
        fmap = sample_map(cosshift_spec(size=13, seed=8), 3)
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((2, 3))
        emb = embed(PointSet(np.vstack([x, y])), fmap)
        got = float(emb.features[0] @ emb.features[1])
        a = fmap.frequencies @ x
        b = fmap.frequencies @ y
        want = float(np.mean(np.cos(a - b) + np.cos(a + b + 2 * fmap.shifts)))
        assert got == pytest.approx(want, abs=1e-12)


BLOCK_ROWS = 5  # rows per block in the block-boundary tests
BOUNDARY_NS = (1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)


def block_case(variant, n):
    points = PointSet(np.random.default_rng(n).standard_normal((n, 5)))
    return points, sample_map(FeatureMapSpec(variant, Bandwidth(0.7), 64, 9), 5)


def whole_matrix_features(points, fmap) -> np.ndarray:
    """embed with every row in one block: one product for the whole matrix."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rffkd.features, "BLOCK_BYTES", 1 << 62)
        return embed(points, fmap).features


def use_small_blocks(monkeypatch, output_dim):
    monkeypatch.setattr(rffkd.features, "BLOCK_BYTES", BLOCK_ROWS * 8 * output_dim)


def one_row_tail_blocks(n, output_dim):
    """Fixed-size blocks: when n = 1 mod rows the last block is a single row."""
    rows = max(2, rffkd.features.BLOCK_BYTES // (8 * output_dim))
    for start in range(0, n, rows):
        yield start, min(n, start + rows)


class TestEmbedBlocks:
    def test_row_blocks_tile_rows_without_a_lone_row(self, monkeypatch):
        use_small_blocks(monkeypatch, 16)
        for n in range(1, 4 * BLOCK_ROWS):
            blocks = list(rffkd.features._row_blocks(n, 16))
            assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
            assert blocks[-1][1] == n
            sizes = [stop - start for start, stop in blocks]
            assert all(2 <= s <= BLOCK_ROWS + 1 for s in sizes) or sizes == [1] == [n]

    def test_default_blocks_hold_about_block_bytes(self):
        rows = [stop - start for start, stop in rffkd.features._row_blocks(10**6, 1600)]
        assert max(rows) * 8 * 1600 <= rffkd.features.BLOCK_BYTES + 8 * 1600
        assert min(rows) >= 2
        assert [stop - start for start, stop in rffkd.features._row_blocks(5, 16)] == [5]
        # rows wider than a block still go two at a time
        assert [stop - start for start, stop in rffkd.features._row_blocks(5, 10**7)] == [2, 3]

    def test_blocks_are_fresh_arrays(self, monkeypatch):
        points, fmap = block_case(Variant.COS_SIN, 2 * BLOCK_ROWS)
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        first, second = embed_blocks(points, fmap)
        assert first.flags.writeable and first.flags.c_contiguous
        assert not np.shares_memory(first, second)

    def test_embed_returns_a_fresh_writable_array(self):
        """embed's features belong to the caller, who may work on them in place."""
        points, fmap = block_case(Variant.COS_SIN, 5)
        first, second = embed(points, fmap).features, embed(points, fmap).features
        assert first.flags.writeable and first.flags.c_contiguous
        assert not np.shares_memory(first, second)

    def test_dimension_mismatch_rejected_at_call(self):
        with pytest.raises(ValueError, match="mismatch"):
            embed_blocks(PointSet(np.zeros((1, 3))), sample_map(cossin_spec(), 4))


class TestProjectionOverflow:
    """embed and embed_blocks refuse, at the call, points for which
    dim * max|x| * max|omega| is not below 2^1023, the bound on every partial
    sum of <omega_i, x>; below it the features are finite."""

    def fmap(self, variant, size=3):
        return sample_map(FeatureMapSpec(variant, Bandwidth(1.0), size, 0), 2)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("run", [embed, embed_blocks])
    @pytest.mark.parametrize("big", [1.7e308, -1.7e308])
    def test_refused_at_call(self, run, variant, big):
        points = PointSet(np.array([[big, big], [0.0, 0.0]]))
        message = r"^points of magnitude up to 1\.7e\+308 .* at sigma 1\.0:"
        with pytest.raises(ValueError, match=message):
            run(points, self.fmap(variant))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_large_points_below_the_bound_embed_finite(self, variant):
        points = PointSet(np.array([[1e300, -1e300], [0.0, 0.0]]))
        feats = embed(points, self.fmap(variant)).features
        assert np.all(np.isfinite(feats))

    def test_threshold_is_the_bound(self):
        """Just below dim * max|x| * max|omega| = 2^1023 is embedded, just
        above is refused."""
        fmap = self.fmap(Variant.COS_SIN, size=64)
        edge = 2.0**1022 / float(np.abs(fmap.frequencies).max())
        embed(PointSet(np.array([[0.999 * edge, 0.0]])), fmap)
        with pytest.raises(ValueError, match="not below 2\\^1023"):
            embed(PointSet(np.array([[1.001 * edge, 0.0]])), fmap)


@pytest.fixture(params=["serial", "pooled"])
def embed_path(request, take_pool):
    """The pipeline's serial loop, or its pool from two blocks on."""
    take_pool(request.param)
    return request.param


def block_ranks(points, fmap):
    """Block index keyed by the first entry of the block's projection, which
    the pipeline computes by the same product on the same rows."""
    blocks = rffkd.features._row_blocks(points.n, fmap.spec.output_dim)
    return {(points.data[a:b] @ fmap.frequencies.T)[0, 0]: i for i, (a, b) in enumerate(blocks)}


def before_trig(monkeypatch, hook):
    """Call hook(proj) before each block's cos/sin."""
    trig = rffkd.features._trig_rows

    def hooked_trig(proj, fmap, out):
        hook(proj)
        return trig(proj, fmap, out)

    monkeypatch.setattr(rffkd.features, "_trig_rows", hooked_trig)


class TestEmbedPipeline:
    """The block pipeline on its serial loop and on the thread pool."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("n", BOUNDARY_NS)
    def test_blocks_equal_whole_matrix_bits(self, monkeypatch, embed_path, variant, n):
        points, fmap = block_case(variant, n)
        whole = whole_matrix_features(points, fmap).tobytes()
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        assert np.vstack(list(embed_blocks(points, fmap))).tobytes() == whole
        assert embed(points, fmap).features.tobytes() == whole

    def test_one_row_tail_breaks_bit_equality(self, monkeypatch, embed_path):
        """Negative control, on both paths: a lone last row changes its bits."""
        points, fmap = block_case(Variant.COS_SIN, 2 * BLOCK_ROWS + 1)
        whole = whole_matrix_features(points, fmap)
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        monkeypatch.setattr(rffkd.features, "_row_blocks", one_row_tail_blocks)
        got = np.vstack(list(embed_blocks(points, fmap)))
        assert got[:-1].tobytes() == whole[:-1].tobytes()
        assert got[-1].tobytes() != whole[-1].tobytes()

    @pytest.mark.parametrize("variant", list(Variant))
    def test_early_blocks_finishing_last_keep_order_and_bits(self, monkeypatch, embed_path, variant):
        """cos/sin of each block waits longer the earlier the block is, so later
        blocks finish first.  Blocks still come out in order, each computed
        from its own projection."""
        points, fmap = block_case(variant, 8 * BLOCK_ROWS)
        whole = whole_matrix_features(points, fmap).tobytes()
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        ranks = block_ranks(points, fmap)
        before_trig(
            monkeypatch, lambda proj: time.sleep(0.003 * (len(ranks) - ranks.get(proj[0, 0], 0)))
        )
        assert np.vstack(list(embed_blocks(points, fmap))).tobytes() == whole
        assert embed(points, fmap).features.tobytes() == whole

    def test_at_most_workers_plus_one_blocks_in_flight(
        self, monkeypatch, report_cpus, embed_path, pools
    ):
        """On the pool, WORKERS = 2 threads and WORKERS + 1 blocks submitted
        ahead of the one being consumed, never more, with 64 CPUs reported; on
        the serial loop no pool."""
        report_cpus(64)
        points, fmap = block_case(Variant.COS_SIN, 8 * BLOCK_ROWS)
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        in_flight = [pools[0].submitted - k if pools else 1
                     for k, _ in enumerate(embed_blocks(points, fmap))]
        depth = WORKERS + 1 if embed_path == "pooled" else 1
        assert depth <= 3
        assert in_flight == [min(depth, 8 - k) for k in range(8)]
        workers = [WORKERS] if embed_path == "pooled" else []
        assert [pool._max_workers for pool in pools] == workers

    @pytest.mark.parametrize("short, pooled", [(1, False), (0, True)])
    def test_pool_only_from_threshold_blocks(self, monkeypatch, pools, short, pooled):
        """At the default threshold, fewer than _POOL_MIN_BLOCKS blocks run
        the serial loop; the bytes are the same either way."""
        blocks = rffkd.features._POOL_MIN_BLOCKS - short
        points, fmap = block_case(Variant.COS_SIN, blocks * BLOCK_ROWS)
        whole = whole_matrix_features(points, fmap).tobytes()
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        got = list(embed_blocks(points, fmap))
        assert len(got) == blocks
        assert np.vstack(got).tobytes() == whole
        assert embed(points, fmap).features.tobytes() == whole
        assert len(pools) == (2 if pooled else 0)

    def test_one_block_builds_no_pool(self, monkeypatch, take_pool, pools):
        take_pool()
        points, fmap = block_case(Variant.COS_SIN, BLOCK_ROWS)
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        assert len(list(embed_blocks(points, fmap))) == 1
        embed(points, fmap)
        assert pools == []

    def test_closing_early_stops_the_pool(self, monkeypatch, take_pool):
        take_pool()
        points, fmap = block_case(Variant.COS_SIN, 8 * BLOCK_ROWS)
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        baseline = threading.active_count()
        blocks = embed_blocks(points, fmap)
        next(blocks)
        assert threading.active_count() > baseline  # the pool is up
        blocks.close()
        assert threading.active_count() == baseline

    def test_error_in_block_two_after_block_one(self, monkeypatch, embed_path):
        points, fmap = block_case(Variant.COS_SIN, 4 * BLOCK_ROWS)
        whole = whole_matrix_features(points, fmap)
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        fail_in_block_two(monkeypatch, points, fmap)
        baseline = threading.active_count()
        blocks = embed_blocks(points, fmap)
        assert next(blocks).tobytes() == whole[:BLOCK_ROWS].tobytes()
        with pytest.raises(RuntimeError, match="block 2"):
            next(blocks)
        assert threading.active_count() == baseline


def fail_in_block_two(monkeypatch, points, fmap):
    """Make cos/sin raise on the second block of points."""
    ranks = block_ranks(points, fmap)

    def fail(proj):
        if ranks[proj[0, 0]] == 1:
            raise RuntimeError("cos/sin failed on block 2")

    before_trig(monkeypatch, fail)


def record_blas_threads(monkeypatch, get):
    """The OpenBLAS thread count at each block's cos/sin, as a growing list."""
    seen = []
    before_trig(monkeypatch, lambda proj: seen.append(get()))
    return seen


class TestBlasPin:
    """The pipeline runs on one OpenBLAS thread and gives the caller's thread
    count back however it ends.  The blas_threads fixture sets that count to
    2, so a count left at 1 shows."""

    @pytest.mark.parametrize("run", ["embed", "embed_blocks"])
    def test_full_run(self, monkeypatch, blas_threads, embed_path, run):
        points, fmap = block_case(Variant.COS_SIN, 4 * BLOCK_ROWS)
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        seen = record_blas_threads(monkeypatch, blas_threads)
        if run == "embed":
            embed(points, fmap)
        else:
            list(embed_blocks(points, fmap))
        assert seen == [1] * 4
        assert blas_threads() == 2

    def test_early_close(self, monkeypatch, blas_threads, embed_path):
        points, fmap = block_case(Variant.COS_SIN, 8 * BLOCK_ROWS)
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        blocks = embed_blocks(points, fmap)
        assert blas_threads() == 2  # the generator has not started
        next(blocks)
        assert blas_threads() == 1
        blocks.close()
        assert blas_threads() == 2

    def test_error_in_block_two(self, monkeypatch, blas_threads, embed_path):
        points, fmap = block_case(Variant.COS_SIN, 4 * BLOCK_ROWS)
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        fail_in_block_two(monkeypatch, points, fmap)
        with pytest.raises(RuntimeError, match="block 2"):
            embed(points, fmap)
        assert blas_threads() == 2

    def test_two_threads_embedding_at_once(self, monkeypatch, blas_threads):
        """Both embeds hold the pin at once; after the first leaves, the
        count stays 1 until the second does."""
        points, fmap = block_case(Variant.COS_SIN, 4 * BLOCK_ROWS)
        whole = whole_matrix_features(points, fmap).tobytes()
        use_small_blocks(monkeypatch, fmap.spec.output_dim)
        both_in, first_out = threading.Barrier(2, timeout=30), threading.Event()
        ranks = block_ranks(points, fmap)

        def meet(proj):
            if ranks[proj[0, 0]] == 0:
                both_in.wait()
                if threading.current_thread().name == "second":
                    assert first_out.wait(timeout=30)

        before_trig(monkeypatch, meet)
        got = {}

        def run():
            got[threading.current_thread().name] = embed(points, fmap).features.tobytes()

        threads = [threading.Thread(target=run, name=name) for name in ("first", "second")]
        for thread in threads:
            thread.start()
        threads[0].join(timeout=30)
        during = blas_threads()  # the second embed still runs
        first_out.set()
        threads[1].join(timeout=30)
        assert during == 1
        assert got == {"first": whole, "second": whole}
        assert blas_threads() == 2

    def test_without_the_symbols(self, monkeypatch, blas_threads, embed_path):
        """Where the lookup fails, the pipeline leaves the count alone and
        gives the bytes of its own calls at that count."""
        monkeypatch.setattr(rffkd._pool, "_OPENBLAS_THREADS", ("no_such_get", "no_such_set"))
        find = rffkd._pool._find_blas_threads
        find.cache_clear()
        try:
            points, fmap = block_case(Variant.COS_SHIFT, 4 * BLOCK_ROWS)
            use_small_blocks(monkeypatch, fmap.spec.output_dim)
            trig = rffkd.features._trig_rows
            want = np.vstack([
                trig(points.data[a:b] @ fmap.frequencies.T, fmap, np.empty((b - a, 64)))
                for a, b in rffkd.features._row_blocks(points.n, 64)
            ])
            seen = record_blas_threads(monkeypatch, blas_threads)
            assert embed(points, fmap).features.tobytes() == want.tobytes()
            assert seen == [2] * 4
            assert find() is None
        finally:
            find.cache_clear()  # a cached None would turn the pin off for later tests


class TestProjections:
    def test_projection_identity(self):
        """<omega_i, x - y> = proj_i ||delta|| exactly for every row."""
        rng = np.random.default_rng(7)
        sigma = Bandwidth(1.7)
        fmap = sample_map(FeatureMapSpec(Variant.COS_SIN, sigma, 40, 9), 6)
        x, y = rng.standard_normal((2, 6))
        diff = ScaledDiff((x - y) / sigma.sigma)
        proj = projected_frequencies(fmap, diff)
        direct = fmap.frequencies @ (x - y)
        np.testing.assert_allclose(proj * diff.norm, direct, rtol=1e-12)

    def test_projections_are_standard_normal(self):
        """sigma <omega, u> for unit u is N(0, 1): moments within 3 se."""
        fmap = sample_map(FeatureMapSpec(Variant.COS_SIN, Bandwidth(3.0), 20000, 10), 8)
        diff = ScaledDiff(np.ones(8) / 3.0)
        w = projected_frequencies(fmap, diff)
        n = w.size
        assert abs(w.mean()) <= 3 / math.sqrt(n)
        assert abs((w**2).mean() - 1.0) <= 3 * math.sqrt(2.0 / n)

    def test_distance_via_projections_matches_embedding(self):
        """(4/t) sum sin^2(w_i r / 2) equals the embedded squared distance."""
        rng = np.random.default_rng(8)
        sigma = Bandwidth(0.9)
        fmap = sample_map(FeatureMapSpec(Variant.COS_SIN, sigma, 33, 11), 5)
        for _ in range(10):
            x, y = rng.standard_normal((2, 5))
            emb = embed(PointSet(np.vstack([x, y])), fmap)
            d2 = float(np.linalg.norm(emb.features[0] - emb.features[1])) ** 2
            diff = ScaledDiff((x - y) / sigma.sigma)
            via = sq_distance_from_projections(projected_frequencies(fmap, diff), diff.norm)
            assert via == pytest.approx(d2, rel=1e-10, abs=1e-13)

    def test_full_precision_at_tiny_scale(self):
        """At r = 1e-9 the sin^2 form reduces to r^2 times the mean squared
        projection with relative error far below 1e-12."""
        w = generator(12).standard_normal(500)
        r = 1e-9
        got = sq_distance_from_projections(w, r)
        chi = float(np.mean(w**2))
        assert got == pytest.approx(r * r * chi, rel=1e-12)

    def test_broadcast_over_scales(self):
        w = generator(13).standard_normal(64)
        rs = np.array([1e-6, 0.1, 1.0, 4.0])
        batch = sq_distance_from_projections(w, rs)
        single = np.array([sq_distance_from_projections(w, float(r)) for r in rs])
        np.testing.assert_allclose(batch, single, rtol=0, atol=0)

    @pytest.mark.parametrize(
        "shape, r",
        [((64,), 0.3), ((64,), np.array([1e-6, 0.1, 1.0, 4.0])), ((5, 64), np.linspace(0.1, 3.0, 5))],
    )
    def test_in_place_equals_out_of_place_bits(self, shape, r):
        """sin^2 computed in place gives the bits of the out-of-place formula
        and leaves the projections as they were."""
        w = generator(14).standard_normal(shape)
        before = w.copy()
        half = 0.5 * w * r[..., np.newaxis] if np.ndim(r) else 0.5 * w * r
        s = np.sin(half)
        want = 4.0 * np.mean(s * s, axis=-1)
        got = sq_distance_from_projections(w, r)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert w.tobytes() == before.tobytes()

    def test_ratio_near_one_for_planned_size(self):
        """With t from the plan for (eps, delta) the distance ratio lands in
        [1 - eps, 1 + eps] for most maps; checked loosely here at 3 se."""
        from rffkd import plan_per_pair

        eps, delta = 0.25, 0.1
        t = plan_per_pair(eps, delta).pair_count
        r = 1.0
        d2 = sq_distance_from_scaled_norm(r)
        bad = 0
        n_maps = 200
        for i in range(n_maps):
            w = generator(derive_seed(3, 5, i)).standard_normal(t)
            ratio = math.sqrt(sq_distance_from_projections(w, r) / d2)
            bad += not (1 - eps <= ratio <= 1 + eps)
        assert bad / n_maps <= delta + 3 * math.sqrt(delta * (1 - delta) / n_maps)

    def test_zero_difference_rejected(self):
        fmap = sample_map(cossin_spec(), 3)
        with pytest.raises(ValueError, match="zero difference"):
            projected_frequencies(fmap, ScaledDiff(np.zeros(3)))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sq_distance_from_projections(np.ones(4), -0.1)
