"""Experiment harness: pair sampling geometry, the pairs experiment loop,
stress grids, and the synthetic mixture generator.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.spatial.distance import pdist

import rffkd.cli
import rffkd.experiments
from rffkd import Bandwidth, Variant, gen_grid_stress, gen_pairs, pairs_experiment, synth_dataset
from rffkd.experiments import GRID_SIZE_LIMIT
from rffkd.kernel import distance_from_scaled_norm
from rffkd.streams import generator


# The helpers default to the reference protocol's geometry, as the CLI's
# defaults give it: a radius-500 ball, distances spanning 1e-4 to 1e4.
def pairs(n_pairs, dim, seed, ball_radius=500.0, dist_min=1e-4, dist_max=1e4):
    return gen_pairs(n_pairs, dim, ball_radius, dist_min, dist_max, seed)


def experiment(n_pairs, dim, t_list, seed, ball_radius=500.0, dist_min=1e-4, dist_max=1e4):
    return pairs_experiment(
        n_pairs, dim, ball_radius, dist_min, dist_max, Bandwidth(1.0), t_list, seed
    )


class TestPairConfig:
    def test_reference_defaults(self, monkeypatch):
        """The default protocol: 2000 pairs in dim 10 in a radius-500 ball,
        distances spanning 1e-4 to 1e4, t sweep 50..800, sigma 1, seed 0,
        CosSin.  The CLI holds these defaults and hands them over as given."""
        calls = []
        monkeypatch.setattr(
            rffkd.experiments, "pairs_experiment", lambda *args, **kw: calls.append((args, kw)) or []
        )
        assert rffkd.cli.main(["pairs"]) == 0
        [(args, kwargs)] = calls
        n_pairs, dim, ball_radius, dist_min, dist_max, sigma, t_list, seed = args
        assert (n_pairs, dim, ball_radius, dist_min, dist_max) == (2000, 10, 500.0, 1e-4, 1e4)
        assert sigma.sigma == 1.0
        assert tuple(t_list) == (50, 100, 200, 400, 800)
        assert seed == 0 and kwargs == {"variant": Variant.COS_SIN}

    def test_validation(self):
        with pytest.raises(ValueError, match="n_pairs"):
            pairs(0, 2, 0)
        with pytest.raises(ValueError, match="ball_radius"):
            pairs(4, 2, 0, ball_radius=0.0)
        with pytest.raises(ValueError, match=r"^dist_min must not exceed dist_max, got \[2.0, 1.0"):
            pairs(4, 2, 0, dist_min=2.0, dist_max=1.0)
        with pytest.raises(ValueError, match="dist_min"):
            pairs(4, 2, 0, dist_min=0.0)
        with pytest.raises(ValueError, match="t_list"):
            experiment(4, 2, (), 0)
        with pytest.raises(ValueError, match="t_list"):
            experiment(4, 2, (50, 0), 0)
        with pytest.raises(ValueError, match="seed"):
            experiment(4, 2, (50,), -1)
        with pytest.raises(ValueError, match="seed"):
            pairs(4, 2, -1)
        with pytest.raises(ValueError, match="cossine"):
            pairs_experiment(4, 2, 1.0, 1.0, 2.0, Bandwidth(1.0), (8,), 0, variant="cossine")


class TestRefusedBeforeWork:
    """Each bad argument of the pair experiment is refused before any map is
    sampled and before any pair is drawn; a list argument carries its bad
    value last, after entries that would start the work."""

    GOOD = dict(
        n_pairs=4, dim=2, ball_radius=1.0, dist_min=0.5, dist_max=2.0,
        sigma=Bandwidth(1.0), t_list=(8, 16), seed=0, variant=Variant.COS_SIN,
    )

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("n_pairs", 0),
            ("n_pairs", 2.5),
            ("dim", 0),
            ("ball_radius", 0.0),
            ("ball_radius", math.nan),
            ("dist_min", 0.0),
            ("dist_min", 4.0),
            ("dist_max", math.inf),
            ("t_list", ()),
            ("t_list", (50, 0)),
            ("t_list", (50, 2.0)),
            ("seed", -1),
            ("seed", True),
            ("variant", "cossine"),
        ],
    )
    def test_refused_before_any_draw(self, monkeypatch, name, bad):
        work = []
        real_sample_map, real_generator = rffkd.experiments.sample_map, rffkd.experiments.generator

        def counted_sample_map(*args):
            work.append("sample_map")
            return real_sample_map(*args)

        def counted_generator(seed):
            work.append("generator")
            return real_generator(seed)

        monkeypatch.setattr(rffkd.experiments, "sample_map", counted_sample_map)
        monkeypatch.setattr(rffkd.experiments, "generator", counted_generator)
        args = dict(self.GOOD)
        rffkd.experiments.pairs_experiment(**args)
        assert work == ["generator", "sample_map"] * 2
        work.clear()
        args[name] = bad
        with pytest.raises(ValueError):
            rffkd.experiments.pairs_experiment(**args)
        assert work == []


class TestGenPairs:
    def test_recorded_radii_are_achieved_distances(self):
        """The radii field holds the exact float distance of each pair, so
        recomputation from the points is bit-identical."""
        xs, ys, radii = pairs(500, 6, seed=1)
        np.testing.assert_array_equal(np.linalg.norm(ys - xs, axis=1), radii)

    def test_radii_span_the_requested_range(self):
        _, _, radii = pairs(5000, 4, seed=2)
        assert np.all(radii >= 1e-4 * (1 - 1e-9))
        assert np.all(radii <= 1e4 * (1 + 1e-9))
        # eight decades requested; the sample should cover most of them
        assert radii.min() < 1e-3 and radii.max() > 1e3

    def test_anchors_stay_in_ball(self):
        xs, _, _ = pairs(2000, 5, seed=3)
        assert float(np.linalg.norm(xs, axis=1).max()) <= 500.0 * (1 + 1e-12)

    def test_log_radii_are_uniform(self):
        """Kolmogorov-Smirnov on the rescaled log radii against U(0, 1)."""
        _, _, radii = pairs(100_000, 3, seed=0)
        span = math.log(1e4) - math.log(1e-4)
        u = (np.log(radii) - math.log(1e-4)) / span
        assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_degenerate_distance_range(self):
        _, _, radii = pairs(50, 3, seed=4, dist_min=2.0, dist_max=2.0)
        np.testing.assert_allclose(radii, 2.0, rtol=1e-12)

    def test_deterministic_and_seed_override(self):
        """The seed alone fixes the draw, and another seed changes it."""
        a, _, _ = pairs(20, 3, seed=5)
        b, _, _ = pairs(20, 3, seed=5)
        np.testing.assert_array_equal(a, b)
        c, _, _ = pairs(20, 3, seed=99)
        assert not np.array_equal(a, c)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            pairs(2000, 0, seed=0)

    @pytest.mark.parametrize(
        "ball_radius, dist_min, dist_max",
        [
            (500.0, 1e-20, 1e-19),  # below the anchors' ulp: x + r u == x
            (1e-300, 1e300, 1e301),  # ||y - x|| overflows
            (1.0, 1e300, 1.7976931348623157e308),  # r or y itself overflows
        ],
    )
    def test_collapsed_or_overflowed_distances_rejected(self, ball_radius, dist_min, dist_max):
        with pytest.raises(ValueError, match=r"dist_min, dist_max.*ball_radius"):
            gen_pairs(4, 2, ball_radius, dist_min, dist_max, 0)


class TestPairsExperiment:
    def run_small(self, seed=5):
        return experiment(100, 4, (30, 60), seed)

    def test_report_shape_and_consistency(self):
        reports = self.run_small()
        assert [r.t for r in reports] == [30, 60]
        for rep in reports:
            assert rep.radii.shape == (100,)
            np.testing.assert_array_equal(rep.ratios, rep.d_exact / rep.d_approx)
            want = distance_from_scaled_norm(rep.radii)  # sigma 1
            np.testing.assert_array_equal(rep.d_exact, want)
            assert np.all(rep.d_approx > 0)

    def test_fresh_points_per_feature_count(self):
        reports = self.run_small()
        assert not np.array_equal(reports[0].radii, reports[1].radii)

    def test_deterministic(self):
        a = self.run_small()
        b = self.run_small()
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.ratios, rb.ratios)

    def test_tiny_distances_stay_finite_and_tight(self):
        """Pairs six decades below the bandwidth still give finite ratios
        close to one; the stable evaluation does not blow up."""
        rep = experiment(200, 4, (100,), 6, dist_min=1e-6, dist_max=1e-5)[0]
        assert np.all(np.isfinite(rep.ratios))
        assert np.max(np.abs(rep.ratios - 1.0)) <= 0.5

    def test_deviation_profile_depends_on_scale(self):
        """Distances far below the bandwidth see systematically larger
        relative deviation than distances far above it (the small-distance
        ratio carries the full mean-squared-projection noise)."""
        rep = experiment(2000, 10, (100,), 11)[0]
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
        """Point i is center i mod 10 plus noise row i, both re-derived from
        the documented stream layout: the centers first, then the noise."""
        pts = synth_dataset(97, 5, 10, seed=3)
        gen = generator(3)
        centers = 4.0 * gen.standard_normal((10, 5))
        noise = gen.standard_normal((97, 5))
        np.testing.assert_array_equal(pts.data, centers[np.arange(97) % 10] + noise)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            synth_dataset(0, 3, 1, seed=0)
        with pytest.raises(ValueError, match="clusters"):
            synth_dataset(5, 3, 6, seed=0)
        with pytest.raises(ValueError, match="clusters"):
            synth_dataset(5, 3, 0, seed=0)
