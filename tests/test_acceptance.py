"""End-to-end acceptance gate.

Eleven numbered checks, each printing one [PASS]/[FAIL] line (run pytest
with -s to see them live; on failure the line appears in the captured
output).  Every tolerance is stated inline next to the computation it
guards.  Checks 1, 3, 5, 7 and 8 are Monte Carlo with frozen seeds and
explicit standard-error allowances; the rest are deterministic.

The checks, in order:

 1. embedded inner products are unbiased for the kernel at three scales
 2. every embedded point has unit norm to near machine precision
 3. the planned feature count concentrates the mean squared projection
 4. Taylor sandwiches for the kernel distance on (0, 1]
 5. the centered-cosine moment generating function obeys its bound
 6. the squared-distance ratio reaches its vanishing-distance limit
 7. the planned count delivers the promised relative-error guarantee
 8. halving error costs four times the features (pair-experiment scaling)
 9. embedded kernel PCA residuals converge to the exact tail energy
10. the exact-feature pipeline reproduces spectral tail energies
11. too few features provably distort a kernel stress grid
"""

import math

import numpy as np

from rffkd import (
    Bandwidth,
    FeatureMapSpec,
    PairExperimentConfig,
    PointSet,
    ScaledDiff,
    Variant,
    center_gram,
    check_chi_square,
    check_limit_ratio,
    check_mgf_bound,
    check_unbiasedness,
    distance_from_scaled_norm,
    embed,
    exact_feature_embedding,
    exact_tail_energy,
    gen_grid_stress,
    gram_exact,
    kernel_distance_exact,
    kpca_experiment,
    pairs_experiment,
    plan_per_pair,
    residual_from_centered,
    sample_map,
    sq_distance_from_scaled_norm,
    synth_dataset,
)
from rffkd.streams import derive_seed, generator


def report(num: int, label: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {num:02d} {label}: {detail}")
    assert passed, f"{num:02d} {label}: {detail}"


def test_01_unbiased_inner_products():
    """E[cos(w r)] = exp(-r^2/2) at r in {0.1, 1, 3}, 1e6 samples each,
    two-sided 3-standard-error tolerance."""
    worst = 0.0
    ok = True
    for i, r in enumerate((0.1, 1.0, 3.0)):
        rep = check_unbiasedness(r, 1_000_000, seed=derive_seed(101, i))
        ok &= rep.passed
        worst = max(worst, abs(rep.statistic - rep.bound) / rep.std_err)
    report(1, "unbiased inner products", ok, f"worst gap {worst:.2f} se (allowed 3)")


def test_02_unit_norm_embeddings():
    """10000 points across four orders of magnitude in scale; every CosSin
    embedding row must have norm 1 within 1e-12."""
    gen = generator(102)
    pts = gen.standard_normal((10_000, 6)) * gen.uniform(0.01, 100.0, (10_000, 1))
    fmap = sample_map(
        FeatureMapSpec(Variant.COS_SIN, Bandwidth(0.7), 64, derive_seed(102, 1)), 6
    )
    norms = np.linalg.norm(embed(PointSet(pts), fmap).features, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    report(2, "unit norm embeddings", worst <= 1e-12, f"max |norm - 1| = {worst:.3g} (allowed 1e-12)")


def test_03_planned_count_concentrates():
    """t = 205 from the (eps=0.3, delta=0.2) plan; over 1000 trials the mean
    squared projection leaves [0.7, 1.3] in at most a 0.2379... fraction
    (0.2 plus 3 binomial standard errors)."""
    t = plan_per_pair(0.3, 0.2).pair_count
    rep = check_chi_square(0.3, 0.2, 1000, seed=derive_seed(103, 0))
    allowed = 0.2 + 3.0 * math.sqrt(0.2 * 0.8 / 1000)
    ok = t == 205 and rep.statistic <= allowed
    report(
        3,
        "planned count concentrates",
        ok,
        f"t = {t}, violation rate {rep.statistic:.4f} (allowed {allowed:.17g})",
    )


def test_04_distance_taylor_sandwich():
    """On a 10000-point grid over (0, 1]: r^2 - r^4/4 <= D^2 <= r^2 and
    0.86 r <= D <= r, slack 1e-12."""
    r = np.linspace(1e-4, 1.0, 10_000)
    dsq = sq_distance_from_scaled_norm(r)
    d = distance_from_scaled_norm(r)
    ok = (
        bool(np.all(dsq <= r * r + 1e-12))
        and bool(np.all(dsq >= r * r - 0.25 * r**4 - 1e-12))
        and bool(np.all(d <= r + 1e-12))
        and bool(np.all(d >= 0.86 * r - 1e-12))
    )
    gap = float(np.max(dsq - r * r))
    report(4, "distance taylor sandwich", ok, f"10000 grid points, max upper slack {gap:.3g}")


def test_05_mgf_bound():
    """log E[exp(s (K - cos(w r)))] <= s^2 r^4/4 at (r, s) = (0.5, 1.0) and
    (1.0, 0.4), 1e6 samples, one-sided 3-standard-error tolerance."""
    margins = []
    ok = True
    for i, (r, s) in enumerate(((0.5, 1.0), (1.0, 0.4))):
        rep = check_mgf_bound(r, s, 1_000_000, seed=derive_seed(105, i))
        ok &= rep.passed
        margins.append((rep.bound - rep.statistic) / rep.std_err)
    report(
        5,
        "mgf bound",
        ok,
        f"bound clears statistic by {margins[0]:.1f} and {margins[1]:.1f} se",
    )


def test_06_vanishing_distance_limit():
    """100 independent (difference, map) combinations at t = 64: shrinking
    the pair by 1e-6 puts the squared-distance ratio within 1e-4 of the
    mean squared projection."""
    worst = 0.0
    ok = True
    for i in range(100):
        gen = generator(derive_seed(6, i))
        diff = ScaledDiff(gen.standard_normal(8) / math.sqrt(8.0))
        fmap = sample_map(
            FeatureMapSpec(Variant.COS_SIN, Bandwidth(1.0), 64, derive_seed(6, 1000 + i)), 8
        )
        rep = check_limit_ratio(diff, fmap, [1e-6])
        ok &= rep.passed
        worst = max(worst, rep.statistic)
    report(6, "vanishing distance limit", ok, f"worst relative gap {worst:.3g} (allowed 1e-4)")


def test_07_planned_count_delivers_guarantee():
    """Points one bandwidth apart, eps = 0.25, delta = 0.1: the plan says
    t = 384; over 1000 full sample-embed-measure runs the distance ratio
    leaves [0.75, 1.25] in at most a 0.1284... fraction."""
    eps, delta = 0.25, 0.1
    t = plan_per_pair(eps, delta).pair_count
    sigma = Bandwidth(2.0)
    x = np.array([0.5, -1.0, 2.0])
    y = x + np.array([2.0, 0.0, 0.0])  # ||x - y|| = sigma
    d_exact = kernel_distance_exact(x, y, sigma)
    pts = PointSet(np.vstack([x, y]))
    bad = 0
    n_maps = 1000
    for m in range(n_maps):
        fmap = sample_map(FeatureMapSpec(Variant.COS_SIN, sigma, t, derive_seed(7, m)), 3)
        emb = embed(pts, fmap)
        ratio = float(np.linalg.norm(emb.features[0] - emb.features[1])) / d_exact
        bad += not (1 - eps <= ratio <= 1 + eps)
    rate = bad / n_maps
    allowed = delta + 3.0 * math.sqrt(delta * (1 - delta) / n_maps)
    ok = t == 384 and rate <= allowed
    report(
        7,
        "planned count delivers guarantee",
        ok,
        f"t = {t}, {bad}/{n_maps} violations (allowed rate {allowed:.17g})",
    )


def test_08_error_scaling_in_feature_count():
    """Sixteen times the features should quarter the worst ratio error:
    across 5 repetitions of the pair experiment (2000 pairs, 8 decades of
    distances), the median of eps_max(t=100) / eps_max(t=1600) lies in
    [2.5, 6.5] around the ideal 4."""
    ratios = []
    for rep_i in range(5):
        cfg = PairExperimentConfig(t_list=(100, 1600), seed=derive_seed(42, rep_i))
        reports = pairs_experiment(cfg, dim=10)
        ratios.append(reports[0].eps_max / reports[1].eps_max)
    med = float(np.median(ratios))
    report(
        8,
        "error scaling in feature count",
        2.5 <= med <= 6.5,
        f"median eps_max ratio {med:.3f} over 5 reps (allowed [2.5, 6.5])",
    )


def test_09_kpca_residual_convergence():
    """500 mixture points in 20 dimensions, k = 40, bandwidth 1.5: the mean
    relative residual error must strictly shrink along t = 50, 200, 800,
    each step by a factor in [1.3, 3.1]."""
    pts = synth_dataset(500, 20, 10, seed=0)
    reports = kpca_experiment(pts, Bandwidth(1.5), 40, [50, 200, 800], trials=10, seed=0)
    errs = [r.rel_err for r in reports]
    factors = [errs[0] / errs[1], errs[1] / errs[2]]
    ok = errs[0] > errs[1] > errs[2] and all(1.3 <= f <= 3.1 for f in factors)
    report(
        9,
        "kpca residual convergence",
        ok,
        f"rel errs {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f}, factors "
        f"{factors[0]:.2f}, {factors[1]:.2f} (allowed [1.3, 3.1])",
    )


def test_10_exact_pipeline_consistency():
    """Spectral tail energies and the exact-feature residual pipeline agree
    within 1e-8 on 50-point sets for every tested k."""
    worst = 0.0
    for seed, n, dim in ((110, 50, 5), (111, 12, 3)):
        pts = synth_dataset(n, dim, 3, seed=seed)
        cg = center_gram(gram_exact(pts, Bandwidth(1.0)))
        q = exact_feature_embedding(cg)
        for k in (0, 1, 5, min(40, n - 1)):
            gap = abs(residual_from_centered(q, k) - exact_tail_energy(cg, k))
            worst = max(worst, gap)
    report(10, "exact pipeline consistency", worst <= 1e-8, f"worst |gap| = {worst:.3g} (allowed 1e-8)")


def test_11_stress_grid_defeats_tiny_maps():
    """The 441-point plane lattice with pairwise kernels <= 0.25 must
    defeat t = 2 maps: at least 9 of 10 seeds produce a pair whose distance
    ratio errs by more than 0.25."""
    from scipy.spatial.distance import pdist

    eps = 0.25
    sigma = Bandwidth(1.0)
    step = math.sqrt(2.0 * math.log(1.0 / eps))
    grid = gen_grid_stress(2, 10.0 * step, sigma, eps)
    d_exact = distance_from_scaled_norm(pdist(grid.data) / sigma.sigma)
    violated = 0
    for s in range(10):
        fmap = sample_map(FeatureMapSpec(Variant.COS_SIN, sigma, 2, derive_seed(111, s)), 2)
        d_hat = pdist(embed(grid, fmap).features)
        ratios = d_hat / d_exact
        violated += bool(np.any(np.abs(ratios - 1.0) > eps))
    report(
        11,
        "stress grid defeats tiny maps",
        violated >= 9,
        f"{violated}/10 seeds produced a violating pair (need >= 9)",
    )
