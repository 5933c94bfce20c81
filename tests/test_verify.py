"""Statistical verification battery: each check passes at its reference
setting, statistics agree with independent recomputation (mpmath quadrature
for the moment generating function), validation is enforced, and the
pass/fail rule matches the reported fields.

Also holds the deterministic per-draw sandwich on the squared-distance
ratio, which needs no Monte Carlo allowance at all.
"""

import concurrent.futures
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

import rffkd.verify as verify
from rffkd import Bandwidth, FeatureMapSpec, Variant, run_battery, sample_map
from rffkd.features import projected_frequencies, sq_distance_from_projections
from rffkd.kernel import ScaledDiff, kernel_from_scaled_norm, sq_distance_from_scaled_norm
from rffkd.streams import derive_seed, generator
from rffkd.verify import (
    check_chi_square,
    check_limit_ratio,
    check_mgf_bound,
    check_scale_sweep,
    check_shift_unbiasedness,
    check_tail_bound,
    check_unbiasedness,
)

mp.dps = 50


def serial_battery(seed, samples):
    """run_battery's ten checks, with its arguments and in its order, one by one."""
    diff = ScaledDiff(generator(derive_seed(seed, 6)).standard_normal(8) / math.sqrt(8.0))
    fmap = sample_map(
        FeatureMapSpec(Variant.COS_SIN, Bandwidth(1.0), 64, derive_seed(seed, 7)), 8
    )
    return [
        check_unbiasedness(0.1, samples, derive_seed(seed, 1)),
        check_unbiasedness(1.0, samples, derive_seed(seed, 2)),
        check_unbiasedness(3.0, samples, derive_seed(seed, 3)),
        check_shift_unbiasedness(1.0, samples, derive_seed(seed, 4)),
        check_chi_square(0.3, 0.2, 1000, derive_seed(seed, 5)),
        check_limit_ratio(diff, fmap, [1.0, 1e-2, 1e-4, 1e-6]),
        check_mgf_bound(0.5, 1.0, samples, derive_seed(seed, 8)),
        check_mgf_bound(1.0, 0.4, samples, derive_seed(seed, 9)),
        check_scale_sweep(0.2, 0.1, derive_seed(seed, 10)),
        check_tail_bound(0.5, 0.25, 0.1, 1000, derive_seed(seed, 11)),
    ]


def chunks_of(x):
    """A draw function that hands out copies of x's values in order."""
    start = 0

    def draw(n):
        nonlocal start
        start += n
        return x[start - n : start].copy()

    return draw


class TestMeanStdInPlace:
    """The streamed helper, which overwrites each drawn chunk in place, against
    numpy's mean and std(ddof=1) of one array: the mean bit for bit and the
    std to 1e-14, at sizes around the edges of numpy's pairwise-sum blocks and
    of the helper's own parts."""

    @pytest.mark.parametrize(
        "n",
        [2, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 65535, 65536, 65537, 131073,
         1_000_003, 3_000_000],
    )
    @pytest.mark.parametrize("shape", ["normal", "cos", "exp"])
    def test_bit_identical(self, n, shape):
        x = generator(n).standard_normal(n)
        if shape == "cos":
            x = np.cos(0.7 * x)
        elif shape == "exp":
            x = np.exp(0.4 * (0.3 - x))
        mean, std = verify._mean_std(chunks_of(x), n)
        assert mean == np.mean(x)
        assert std == pytest.approx(np.std(x, ddof=1), rel=1e-14, abs=0)

    def test_constant_has_zero_spread(self):
        for n in (5, 3 * verify._LEAF + 7):
            assert verify._mean_std(chunks_of(np.full(n, 0.25)), n) == (0.25, 0.0)

    @pytest.mark.parametrize("samples", [2, 129, 8193, 100_003, 3 * verify._LEAF + 5])
    @pytest.mark.parametrize("seed", [0, 105])
    def test_checks_equal_out_of_place_reference(self, seed, samples):
        """The streamed check bodies report the mean that the same formulas
        give out of place on one array, and its standard error to 1e-14."""
        vals = np.cos(generator(seed).standard_normal(samples) * 1.0)
        rep = check_unbiasedness(1.0, samples, seed)
        assert rep.statistic == float(vals.mean())
        assert rep.std_err == pytest.approx(vals.std(ddof=1) / math.sqrt(samples), rel=1e-14)

        w = generator(seed).standard_normal(samples)
        x = np.exp(0.4 * (kernel_from_scaled_norm(1.0) - np.cos(w * 1.0)))
        mean = float(x.mean())
        rep = check_mgf_bound(1.0, 0.4, samples, seed)
        assert rep.statistic == math.log(mean)
        assert rep.std_err == pytest.approx(
            x.std(ddof=1) / (mean * math.sqrt(samples)), rel=1e-14
        )

    @pytest.mark.parametrize("samples", [1_000_000, 4_000_000])
    @pytest.mark.parametrize(
        "check, args",
        [(check_unbiasedness, (1.0,)), (check_shift_unbiasedness, (1.0,)),
         (check_mgf_bound, (1.0, 0.4))],
        ids=["unbiasedness", "shift", "mgf"],
    )
    def test_memory_does_not_grow_with_samples(self, check, args, samples):
        """A streamed check holds at most two chunks (the shift check's normals
        and phases) whatever samples is."""
        check(*args, 2_000, 0)  # lazy imports stay outside the traced peak
        tracemalloc.start()
        try:
            check(*args, samples, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * verify._LEAF + 2**16


class TestUnbiasedness:
    @pytest.mark.parametrize("r", [0.1, 1.0, 3.0])
    def test_passes_at_reference_scales(self, r):
        rep = check_unbiasedness(r, 100_000, seed=0)
        assert rep.passed
        assert rep.bound == pytest.approx(kernel_from_scaled_norm(r), rel=1e-15)
        assert rep.samples == 100_000
        assert rep.std_err > 0

    def test_zero_distance_is_exact(self):
        """cos(0) = 1 for every draw: statistic 1, spread 0."""
        rep = check_unbiasedness(0.0, 100, seed=1)
        assert rep.passed
        assert rep.statistic == 1.0 and rep.bound == 1.0 and rep.std_err == 0.0

    def test_two_sided_rule(self):
        rep = check_unbiasedness(1.0, 50_000, seed=2)
        assert rep.passed == (abs(rep.statistic - rep.bound) <= 3 * rep.std_err)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_unbiasedness(-1.0, 100, seed=0)
        with pytest.raises(ValueError):
            check_unbiasedness(1.0, 1, seed=0)


class TestShiftUnbiasedness:
    def test_passes(self):
        rep = check_shift_unbiasedness(1.0, 200_000, seed=0)
        assert rep.passed
        assert rep.bound == pytest.approx(kernel_from_scaled_norm(1.0), rel=1e-15)

    def test_name_distinguishes_variant(self):
        rep = check_shift_unbiasedness(0.5, 1000, seed=0)
        assert rep.check_name.startswith("shifted_inner_product_unbiased")

    @pytest.mark.parametrize("r", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize(
        "samples",
        [2, verify._LEAF - 1, verify._LEAF, verify._LEAF + 1, 2 * verify._LEAF + 3],
    )
    def test_chunked_phases_equal_two_array_body(self, samples, r):
        """Normals from the seed's stream and phases from a stream of their
        own, drawn a chunk at a time, report what two arrays of every sample
        give (the mean bit for bit, its standard error to 1e-14), around the
        chunk edges."""
        w = generator(7).standard_normal(samples)
        g = 2.0 * math.pi * (1.0 - generator(derive_seed(7, 1)).random(samples))
        vals = 2.0 * np.cos(w * r + g) * np.cos(g)
        rep = check_shift_unbiasedness(r, samples, 7)
        assert rep.statistic == float(vals.mean())
        assert rep.std_err == pytest.approx(vals.std(ddof=1) / math.sqrt(samples), rel=1e-14)


class TestChiSquare:
    def test_passes_at_reference_setting(self):
        rep = check_chi_square(0.3, 0.2, 1000, seed=0)
        assert rep.passed
        assert rep.samples == 1000
        assert rep.bound == 0.2
        assert "t=205" in rep.check_name

    def test_std_err_is_binomial_at_bound(self):
        rep = check_chi_square(0.3, 0.2, 1000, seed=0)
        assert rep.std_err == pytest.approx(math.sqrt(0.2 * 0.8 / 1000), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_chi_square(0.3, 0.2, 0, seed=0)
        with pytest.raises(ValueError):
            check_chi_square(1.2, 0.2, 10, seed=0)


class TestLimitRatio:
    def make_inputs(self, seed=0, t=64, dim=8):
        gen = generator(seed)
        diff = ScaledDiff(gen.standard_normal(dim) / math.sqrt(dim))
        fmap = sample_map(
            FeatureMapSpec(Variant.COS_SIN, Bandwidth(1.0), t, seed + 1000), dim
        )
        return diff, fmap

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_passes_across_maps(self, seed):
        diff, fmap = self.make_inputs(seed)
        rep = check_limit_ratio(diff, fmap, [1.0, 1e-2, 1e-4, 1e-6])
        assert rep.passed
        assert rep.std_err == 0.0

    def test_statistic_matches_manual_recomputation(self):
        diff, fmap = self.make_inputs(7)
        rep = check_limit_ratio(diff, fmap, [1e-1, 1e-6])
        proj = projected_frequencies(fmap, diff)
        chi = float(np.mean(proj**2))
        lam = 1e-6
        ratio = sq_distance_from_projections(proj, lam * diff.norm) / sq_distance_from_scaled_norm(
            lam * diff.norm
        )
        assert rep.statistic == pytest.approx(abs(ratio / chi - 1.0), rel=1e-12, abs=1e-18)

    def test_gap_shrinks_with_scale(self):
        """|ratio - chi| collapses by orders of magnitude from lambda = 1
        down to lambda = 1e-6."""
        diff, fmap = self.make_inputs(9)
        proj = projected_frequencies(fmap, diff)
        chi = float(np.mean(proj**2))
        gaps = []
        for lam in (1.0, 1e-3, 1e-6):
            ratio = sq_distance_from_projections(
                proj, lam * diff.norm
            ) / sq_distance_from_scaled_norm(lam * diff.norm)
            gaps.append(abs(ratio - chi))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] <= 1e-10 * chi

    def test_validation(self):
        diff, fmap = self.make_inputs(1)
        with pytest.raises(ValueError, match="lambdas"):
            check_limit_ratio(diff, fmap, [0.0, 0.5])
        with pytest.raises(ValueError, match="lambdas"):
            check_limit_ratio(diff, fmap, [0.5, 1.5])
        with pytest.raises(ValueError, match="lambda"):
            check_limit_ratio(diff, fmap, [])
        with pytest.raises(ValueError, match="zero difference"):
            check_limit_ratio(ScaledDiff(np.zeros(8)), fmap, [1.0])


class TestMgfBound:
    @pytest.mark.parametrize("r,s", [(0.5, 1.0), (1.0, 0.4)])
    def test_passes_at_reference_settings(self, r, s):
        rep = check_mgf_bound(r, s, 200_000, seed=0)
        assert rep.passed
        assert rep.bound == pytest.approx(0.25 * s * s * r**4, rel=1e-15)

    def test_statistic_matches_quadrature(self):
        """The sampled log moment generating function agrees with 50-digit
        quadrature of E[exp(s (K - cos(w r)))], and the quadrature value
        itself sits below the s^2 r^4 / 4 bound."""
        r, s = 0.5, 1.0
        k = mp.exp(-mp.mpf(r) ** 2 / 2)

        def integrand(w):
            return mp.exp(s * (k - mp.cos(w * r))) * mp.npdf(w)

        truth = float(mp.log(mp.quad(integrand, [-mp.inf, 0, mp.inf])))
        bound = 0.25 * s * s * r**4
        assert truth <= bound
        rep = check_mgf_bound(r, s, 400_000, seed=3)
        assert abs(rep.statistic - truth) <= 4 * rep.std_err

    def test_s_zero_is_trivially_tight(self):
        rep = check_mgf_bound(0.5, 0.0, 100, seed=0)
        assert rep.passed
        assert rep.statistic == 0.0 and rep.bound == 0.0

    def test_window_validation(self):
        with pytest.raises(ValueError, match="s must lie"):
            check_mgf_bound(1.0, 0.5, 100, seed=0)  # window is [0, 0.5)
        with pytest.raises(ValueError, match="s must lie"):
            check_mgf_bound(0.5, -0.1, 100, seed=0)
        with pytest.raises(ValueError, match="<= 1"):
            check_mgf_bound(1.5, 0.1, 100, seed=0)


class TestScaleSweep:
    def test_passes_at_reference_setting(self):
        rep = check_scale_sweep(0.2, 0.1, seed=0)
        assert rep.passed
        assert rep.bound == pytest.approx(0.3, rel=1e-15)
        assert rep.samples == 100

    def test_threshold_norm_recorded(self):
        rep = check_scale_sweep(0.2, 0.1, seed=0)
        r = math.sqrt(0.2) / math.log(10.0)
        assert f"r={r:g}" in rep.check_name

    def test_bound_of_one_or_more_has_no_spread(self):
        """From delta = 1/3 on, the bound 3 delta is at least 1, which no
        fraction exceeds: std_err is 0 and the check passes."""
        rep = check_scale_sweep(0.2, 0.35, 0)
        assert rep.bound == pytest.approx(1.05, rel=1e-15)
        assert rep.std_err == 0.0
        assert rep.passed

    def test_validation(self):
        with pytest.raises(ValueError, match="1/e"):
            check_scale_sweep(0.2, 0.5, seed=0)

    def test_delta_whose_reciprocal_overflows_refused(self):
        """r needs ln(1/delta): the smallest delta whose reciprocal is a finite
        float runs, and the float below it and subnormal deltas are refused."""
        lo = 5.56268464626801e-309
        assert math.isfinite(1.0 / lo) and math.isinf(1.0 / math.nextafter(lo, 0.0))
        assert check_scale_sweep(0.9, lo, 0).passed
        for delta in (math.nextafter(lo, 0.0), 1e-310, 5e-324):
            with pytest.raises(ValueError, match=re.escape(f"1/delta is finite, got {delta!r}")):
                check_scale_sweep(0.9, delta, 0)


class TestTailBound:
    def test_feature_count_formula(self):
        """t = ceil((6/eps^2) (r^4/D^4) ln(2/delta)) = 326 at the reference
        setting; recomputed with mpmath."""
        r, eps, delta = mp.mpf(0.5), mp.mpf(0.25), mp.mpf(0.1)
        d_sq = 2 - 2 * mp.exp(-(r**2) / 2)
        t_oracle = int(mp.ceil((6 / eps**2) * (r**4 / d_sq**2) * mp.log(2 / delta)))
        assert t_oracle == 326
        rep = check_tail_bound(0.5, 0.25, 0.1, trials=50, seed=0)
        assert re.search(r"t=326\]", rep.check_name)

    def test_passes_at_reference_setting(self):
        rep = check_tail_bound(0.5, 0.25, 0.1, trials=400, seed=0)
        assert rep.passed
        assert rep.bound == 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            check_tail_bound(0.0, 0.25, 0.1, trials=10, seed=0)
        with pytest.raises(ValueError, match="epsilon"):
            check_tail_bound(0.5, 0.0, 0.1, trials=10, seed=0)
        with pytest.raises(ValueError, match="delta"):
            check_tail_bound(0.5, 0.25, 1.0, trials=10, seed=0)

    def test_delta_whose_quotient_overflows_refused(self):
        """t needs ln(2/delta): the smallest delta where 2/delta is a finite
        float runs, and the float below it and subnormal deltas are refused."""
        lo = 1.112536929253601e-308
        assert math.isfinite(2.0 / lo) and math.isinf(2.0 / math.nextafter(lo, 0.0))
        assert check_tail_bound(0.5, 0.9, lo, 10, 0).passed
        for delta in (math.nextafter(lo, 0.0), 1e-310, 5e-324):
            with pytest.raises(ValueError, match=re.escape(f"2/delta is finite, got {delta!r}")):
                check_tail_bound(0.5, 0.9, delta, 10, 0)


class TestBattery:
    def test_all_checks_pass(self):
        reports = run_battery(0, samples=50_000)
        assert len(reports) == 10
        for rep in reports:
            assert rep.passed, rep

    def test_deterministic(self):
        assert run_battery(3, samples=5_000) == run_battery(3, samples=5_000)

    def test_names_unique(self):
        names = [r.check_name for r in run_battery(1, samples=2_000)]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("samples", [2_000, 50_000])
    @pytest.mark.parametrize("seed", [0, 3, 105])
    def test_equals_serial_reference(self, seed, samples):
        """Seed 105 at 2000 samples includes a failing check."""
        assert run_battery(seed, samples=samples) == serial_battery(seed, samples)

    def test_concurrent_callers(self):
        want = serial_battery(4, 20_000)
        results = [None] * 4

        def call(i):
            results[i] = run_battery(4, samples=20_000)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
        assert results == [want] * 4

    @pytest.mark.parametrize("samples", [1, 0, -5, 2.5, 1e6, True, "100"])
    def test_samples_validated_before_any_thread(self, monkeypatch, samples):
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="samples must be an integer >= 2"):
            run_battery(0, samples=samples)

    def test_check_error_propagates(self, monkeypatch):
        err = ValueError("check failed inside the pool")

        def broken(*args):
            raise err

        monkeypatch.setattr(verify, "check_mgf_bound", broken)
        with pytest.raises(ValueError) as excinfo:
            run_battery(0, samples=2_000)
        assert excinfo.value is err

    def test_pool_does_not_grow_with_cpus(self, monkeypatch, report_cpus):
        """With 64 CPUs reported, one pool of two threads, and peak traced
        memory within 12 MiB whatever samples is: the streamed checks hold a
        chunk or two each, and the largest others one trials x t array."""
        made = []

        class RecordedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                made.append(max_workers)

        run_battery(0, samples=2_000)  # lazy imports stay outside the traced peak
        report_cpus(64)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordedPool)
        for samples in (1_000_000, 4_000_000):
            tracemalloc.start()
            try:
                run_battery(0, samples=samples)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 12 * 2**20, samples
        assert made == [2, 2]

    def test_pass_rule_consistency(self):
        """Every report's flag is reproducible from its own fields."""
        two_sided = ("inner_product_unbiased", "shifted_inner_product_unbiased")
        for rep in run_battery(2, samples=5_000):
            base = rep.check_name.split("[")[0]
            if base in two_sided:
                want = abs(rep.statistic - rep.bound) <= 3 * rep.std_err
            else:
                want = rep.statistic <= rep.bound + 3 * rep.std_err
            assert rep.passed == want, rep


class TestRatioSandwich:
    """Deterministic bounds on the squared-distance ratio for any draw.

    For a pair at scaled distance x with projections w_i, write
    chi = (1/t) sum w_i^2 and m4 = (1/t) sum w_i^4.  Then, per draw:

      ratio <= chi / (1 - x^2/2)            whenever x^2 < 2
      ratio >= chi - (x^2/12) m4            whenever max |w_i| x <= 1

    with ratio = d_hat^2 / D^2.  No randomness allowance is needed.
    """

    @pytest.mark.parametrize("x", [0.05, 0.3, 0.8, 1.2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_draw_bounds(self, x, seed):
        w = generator(seed).standard_normal(500)
        w = w[np.abs(w) * x <= 1.0]
        assert w.size >= 100
        chi = float(np.mean(w**2))
        m4 = float(np.mean(w**4))
        ratio = sq_distance_from_projections(w, x) / sq_distance_from_scaled_norm(x)
        assert ratio <= chi / (1.0 - x * x / 2.0) + 1e-12
        assert ratio >= chi - (x * x / 12.0) * m4 - 1e-12

    def test_upper_bound_without_projection_cap(self):
        """The upper bound never needs the max |w_i| x condition."""
        for seed in range(3):
            w = generator(100 + seed).standard_normal(400)
            for x in (0.5, 1.0, 1.3):
                ratio = sq_distance_from_projections(w, x) / sq_distance_from_scaled_norm(x)
                chi = float(np.mean(w**2))
                assert ratio <= chi / (1.0 - x * x / 2.0) + 1e-12
