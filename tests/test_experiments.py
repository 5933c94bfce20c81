"""Experiment harness: pair sampling geometry, the pairs experiment loop,
stress grids, and the synthetic mixture generator.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.spatial.distance import pdist

from rffkd import (
    GRID_SIZE_LIMIT,
    Bandwidth,
    PairExperimentConfig,
    distance_from_scaled_norm,
    gen_grid_stress,
    gen_pairs,
    pairs_experiment,
    synth_dataset,
)
from rffkd.streams import generator


class TestPairConfig:
    def test_reference_defaults(self):
        """The default protocol: 2000 pairs in a radius-500 ball, distances
        spanning 1e-4 to 1e4, t sweep 50..800."""
        cfg = PairExperimentConfig()
        assert cfg.n_pairs == 2000
        assert cfg.ball_radius == 500.0
        assert (cfg.dist_min, cfg.dist_max) == (1e-4, 1e4)
        assert cfg.t_list == (50, 100, 200, 400, 800)
        assert cfg.sigma.sigma == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="n_pairs"):
            PairExperimentConfig(n_pairs=0)
        with pytest.raises(ValueError, match="ball_radius"):
            PairExperimentConfig(ball_radius=0.0)
        with pytest.raises(ValueError, match="dist_min"):
            PairExperimentConfig(dist_min=2.0, dist_max=1.0)
        with pytest.raises(ValueError, match="dist_min"):
            PairExperimentConfig(dist_min=0.0)
        with pytest.raises(ValueError, match="t_list"):
            PairExperimentConfig(t_list=())
        with pytest.raises(ValueError, match="t_list"):
            PairExperimentConfig(t_list=(50, 0))
        with pytest.raises(ValueError, match="seed"):
            PairExperimentConfig(seed=-1)


class TestGenPairs:
    def test_recorded_radii_are_achieved_distances(self):
        """The radii field holds the exact float distance of each pair, so
        recomputation from the points is bit-identical."""
        cfg = PairExperimentConfig(n_pairs=500, seed=1)
        s = gen_pairs(cfg, dim=6)
        np.testing.assert_array_equal(np.linalg.norm(s.ys - s.xs, axis=1), s.radii)

    def test_radii_span_the_requested_range(self):
        cfg = PairExperimentConfig(n_pairs=5000, seed=2)
        s = gen_pairs(cfg, dim=4)
        assert np.all(s.radii >= cfg.dist_min * (1 - 1e-9))
        assert np.all(s.radii <= cfg.dist_max * (1 + 1e-9))
        # eight decades requested; the sample should cover most of them
        assert s.radii.min() < 1e-3 and s.radii.max() > 1e3

    def test_anchors_stay_in_ball(self):
        cfg = PairExperimentConfig(n_pairs=2000, seed=3)
        s = gen_pairs(cfg, dim=5)
        assert float(np.linalg.norm(s.xs, axis=1).max()) <= cfg.ball_radius * (1 + 1e-12)

    def test_log_radii_are_uniform(self):
        """Kolmogorov-Smirnov on the rescaled log radii against U(0, 1)."""
        cfg = PairExperimentConfig(n_pairs=100_000, seed=0)
        s = gen_pairs(cfg, dim=3)
        span = math.log(cfg.dist_max) - math.log(cfg.dist_min)
        u = (np.log(s.radii) - math.log(cfg.dist_min)) / span
        assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_degenerate_distance_range(self):
        cfg = PairExperimentConfig(n_pairs=50, dist_min=2.0, dist_max=2.0, seed=4)
        s = gen_pairs(cfg, dim=3)
        np.testing.assert_allclose(s.radii, 2.0, rtol=1e-12)

    def test_deterministic_and_seed_override(self):
        cfg = PairExperimentConfig(n_pairs=20, seed=5)
        a = gen_pairs(cfg, dim=3)
        b = gen_pairs(cfg, dim=3)
        np.testing.assert_array_equal(a.xs, b.xs)
        c = gen_pairs(cfg, dim=3, seed=99)
        assert not np.array_equal(a.xs, c.xs)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            gen_pairs(PairExperimentConfig(), dim=0)

    @pytest.mark.parametrize(
        "ball_radius, dist_min, dist_max",
        [
            (500.0, 1e-20, 1e-19),  # below the anchors' ulp: x + r u == x
            (1e-300, 1e300, 1e301),  # ||y - x|| overflows
            (1.0, 1e300, 1.7976931348623157e308),  # r or y itself overflows
        ],
    )
    def test_collapsed_or_overflowed_distances_rejected(self, ball_radius, dist_min, dist_max):
        cfg = PairExperimentConfig(
            n_pairs=4, ball_radius=ball_radius, dist_min=dist_min, dist_max=dist_max
        )
        with pytest.raises(ValueError, match=r"dist_min, dist_max.*ball_radius"):
            gen_pairs(cfg, dim=2)


class TestPairsExperiment:
    def run_small(self, seed=5):
        cfg = PairExperimentConfig(n_pairs=100, t_list=(30, 60), seed=seed)
        return cfg, pairs_experiment(cfg, dim=4)

    def test_report_shape_and_consistency(self):
        cfg, reports = self.run_small()
        assert [r.t for r in reports] == [30, 60]
        for rep in reports:
            assert rep.radii.shape == (100,)
            np.testing.assert_array_equal(rep.ratios, rep.d_exact / rep.d_approx)
            assert rep.eps_max == float(np.max(np.abs(rep.ratios - 1.0)))
            want = distance_from_scaled_norm(rep.radii / cfg.sigma.sigma)
            np.testing.assert_array_equal(rep.d_exact, want)
            assert np.all(rep.d_approx > 0)

    def test_fresh_points_per_feature_count(self):
        _, reports = self.run_small()
        assert not np.array_equal(reports[0].radii, reports[1].radii)

    def test_deterministic(self):
        _, a = self.run_small()
        _, b = self.run_small()
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.ratios, rb.ratios)

    def test_tiny_distances_stay_finite_and_tight(self):
        """Pairs six decades below the bandwidth still give finite ratios
        close to one; the stable evaluation does not blow up."""
        cfg = PairExperimentConfig(
            n_pairs=200, dist_min=1e-6, dist_max=1e-5, t_list=(100,), seed=6
        )
        rep = pairs_experiment(cfg, dim=4)[0]
        assert np.all(np.isfinite(rep.ratios))
        assert rep.eps_max <= 0.5

    def test_deviation_profile_depends_on_scale(self):
        """Distances far below the bandwidth see systematically larger
        relative deviation than distances far above it (the small-distance
        ratio carries the full mean-squared-projection noise)."""
        cfg = PairExperimentConfig(n_pairs=2000, t_list=(100,), seed=11)
        rep = pairs_experiment(cfg, dim=10)[0]
        dev = np.abs(rep.ratios - 1.0)
        small = dev[rep.radii < 1e-2]
        large = dev[rep.radii > 1e2]
        assert small.size > 100 and large.size > 100
        assert small.mean() > 1.2 * large.mean()


class TestGridStress:
    def test_reference_grid_count(self):
        """Half-width ten steps in the plane: 21 lattice points per axis,
        441 in total."""
        sigma = Bandwidth(1.0)
        step = math.sqrt(2.0 * math.log(1.0 / 0.25))
        grid = gen_grid_stress(2, 10.0 * step, sigma, 0.25)
        assert grid.n == 441
        assert grid.dim == 2

    def test_pairwise_kernels_at_most_epsilon(self):
        """Every distinct pair sits at least one step apart, so every
        off-diagonal kernel value is at most eps."""
        sigma = Bandwidth(1.3)
        eps = 0.25
        step = sigma.sigma * math.sqrt(2.0 * math.log(1.0 / eps))
        grid = gen_grid_stress(2, 5.0 * step, sigma, eps)
        d = pdist(grid.data)
        kernels = np.exp(-(d**2) / (2.0 * sigma.sigma**2))
        assert float(kernels.max()) <= eps + 1e-12

    def test_contains_origin_and_is_symmetric(self):
        step = math.sqrt(2.0 * math.log(1.0 / 0.25))
        grid = gen_grid_stress(2, 2.0 * step, Bandwidth(1.0), 0.25)
        rows = {tuple(np.round(r, 9)) for r in grid.data}
        assert (0.0, 0.0) in rows
        for r in grid.data:
            assert tuple(np.round(-r, 9)) in rows

    def test_small_diameter_gives_single_point(self):
        step = math.sqrt(2.0 * math.log(1.0 / 0.25))
        grid = gen_grid_stress(3, 0.5 * step, Bandwidth(1.0), 0.25)
        assert grid.n == 1
        np.testing.assert_array_equal(grid.data, np.zeros((1, 3)))

    def test_exact_step_multiple_included(self):
        """A diameter of exactly three steps keeps the boundary points."""
        step = math.sqrt(2.0 * math.log(1.0 / 0.25))
        grid = gen_grid_stress(1, 3.0 * step, Bandwidth(1.0), 0.25)
        assert grid.n == 7
        assert float(np.abs(grid.data).max()) == pytest.approx(3.0 * step, rel=1e-12)

    def test_size_cap_enforced_with_count_in_message(self):
        step = math.sqrt(2.0 * math.log(1.0 / 0.25))
        with pytest.raises(ValueError, match="35937"):
            gen_grid_stress(3, 16.0 * step, Bandwidth(1.0), 0.25)
        assert 33**3 * 3 > GRID_SIZE_LIMIT

    def test_validation(self):
        with pytest.raises(ValueError, match="dim"):
            gen_grid_stress(0, 1.0, Bandwidth(1.0), 0.25)
        with pytest.raises(ValueError, match="diameter"):
            gen_grid_stress(2, 0.0, Bandwidth(1.0), 0.25)
        with pytest.raises(ValueError, match="epsilon"):
            gen_grid_stress(2, 1.0, Bandwidth(1.0), 1.0)

    def test_step_count_overflow_rejected(self):
        """diameter / step overflows to inf before the floor, not inside it."""
        with pytest.raises(ValueError, match=r"^diameter 1e\+308 / grid step .* overflows$"):
            gen_grid_stress(2, 1e308, Bandwidth(1e-10), 0.25)


class TestSynthDataset:
    def test_shape_and_determinism(self):
        a = synth_dataset(40, 6, 4, seed=0)
        b = synth_dataset(40, 6, 4, seed=0)
        assert a.n == 40 and a.dim == 6
        np.testing.assert_array_equal(a.data, b.data)
        c = synth_dataset(40, 6, 4, seed=1)
        assert not np.array_equal(a.data, c.data)

    def test_single_cluster_centers_on_its_mean(self):
        """With one cluster the sample mean recovers the drawn center; the
        center is re-derived from the documented stream layout."""
        pts = synth_dataset(4000, 3, 1, seed=9)
        gen = generator(9)
        center = 4.0 * gen.standard_normal((1, 3))
        gap = np.abs(pts.data.mean(axis=0) - center[0])
        assert float(gap.max()) <= 3.0 / math.sqrt(4000)

    def test_round_robin_cluster_sizes(self):
        """With centers pushed far apart, nearest-center assignment recovers
        balanced cluster sizes (97 points over 10 clusters: sizes 9 or 10)."""
        pts = synth_dataset(97, 5, 10, seed=3, center_spread=1e6)
        gen = generator(3)
        centers = 1e6 * gen.standard_normal((10, 5))
        d2 = ((pts.data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        counts = np.bincount(d2.argmin(axis=1), minlength=10)
        want = np.bincount(np.arange(97) % 10)
        np.testing.assert_array_equal(np.sort(counts), np.sort(want))

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            synth_dataset(0, 3, 1, seed=0)
        with pytest.raises(ValueError, match="clusters"):
            synth_dataset(5, 3, 6, seed=0)
        with pytest.raises(ValueError, match="clusters"):
            synth_dataset(5, 3, 0, seed=0)
        with pytest.raises(ValueError, match="center_spread"):
            synth_dataset(5, 3, 2, seed=0, center_spread=-1.0)
