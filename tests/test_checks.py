"""One rule per argument kind, at every public entry point that takes one.

Counts are Python or numpy integers: bools, floats (even integral ones such
as 3.0) and strings are refused rather than truncated or mis-typed.  Ranged
reals are finite numbers: NaN, inf and bools are refused.  Every refusal is
a ValueError whose message starts with the argument's name, and numpy
scalars of the right kind are accepted.
"""

import math
import re

import numpy as np
import pytest

from rffkd import (
    Bandwidth,
    FeatureMapSpec,
    PointSet,
    Variant,
    gen_grid_stress,
    gen_pairs,
    kpca_experiment,
    pairs_experiment,
    plan_bounded_diameter,
    plan_finite_points,
    plan_per_pair,
    run_battery,
    sample_map,
    synth_dataset,
)
from rffkd.kernel import ScaledDiff
from rffkd.kpca import center_gram, exact_tail_energy, gram_exact, residual_from_centered
from rffkd.streams import check_seed, derive_seed, row_generator
from rffkd.verify import (
    check_chi_square,
    check_limit_ratio,
    check_mgf_bound,
    check_scale_sweep,
    check_shift_unbiasedness,
    check_tail_bound,
    check_unbiasedness,
)

SIGMA = Bandwidth(1.0)
SPEC = FeatureMapSpec(Variant.COS_SIN, SIGMA, 4, 0)
POINTS = PointSet(np.random.default_rng(0).standard_normal((8, 2)))
CENTERED = center_gram(gram_exact(POINTS, SIGMA))

# site: (argument name, call with the value in that argument's place).
# Each call succeeds when the value is 3.
COUNTS = {
    "FeatureMapSpec.size": ("size", lambda v: FeatureMapSpec(Variant.COS_SIN, SIGMA, v, 0)),
    "FeatureMapSpec.seed": ("seed", lambda v: FeatureMapSpec(Variant.COS_SIN, SIGMA, 4, v)),
    "sample_map.dim": ("dim", lambda v: sample_map(SPEC, v)),
    "check_seed": ("seed", check_seed),
    "derive_seed.path": ("path entry", lambda v: derive_seed(0, 1, v)),
    "row_generator.row": ("row", lambda v: row_generator(0, v)),
    "exact_tail_energy.k": ("k", lambda v: exact_tail_energy(CENTERED, v)),
    "residual_from_centered.k": ("k", lambda v: residual_from_centered(np.eye(8), v)),
    "kpca_experiment.k": ("k", lambda v: kpca_experiment(POINTS, SIGMA, v, [4], 1, 0)),
    "kpca_experiment.t": ("t_list entry", lambda v: kpca_experiment(POINTS, SIGMA, 1, [v], 1, 0)),
    "kpca_experiment.trials": ("trials", lambda v: kpca_experiment(POINTS, SIGMA, 1, [4], v, 0)),
    "kpca_experiment.seed": ("seed", lambda v: kpca_experiment(POINTS, SIGMA, 1, [4], 1, v)),
    # The pair experiment's entries keep the labels they had when a config
    # class took its arguments, so that their test IDs stay as they were.
    "PairExperimentConfig.n_pairs": ("n_pairs", lambda v: gen_pairs(v, 2, 1.0, 0.5, 2.0, 0)),
    "PairExperimentConfig.t_list": (
        "t_list entry", lambda v: pairs_experiment(4, 2, 1.0, 0.5, 2.0, SIGMA, (4, v), 0)
    ),
    "PairExperimentConfig.seed": (
        "seed", lambda v: pairs_experiment(4, 2, 1.0, 0.5, 2.0, SIGMA, (4,), v)
    ),
    "gen_pairs.dim": ("dim", lambda v: gen_pairs(4, v, 1.0, 0.5, 2.0, 0)),
    "gen_grid_stress.dim": ("dim", lambda v: gen_grid_stress(v, 1.0, SIGMA, 0.25)),
    "synth_dataset.n": ("n", lambda v: synth_dataset(v, 2, 1, 0)),
    "synth_dataset.dim": ("dim", lambda v: synth_dataset(5, v, 2, 0)),
    "synth_dataset.clusters": ("clusters", lambda v: synth_dataset(5, 2, v, 0)),
    "synth_dataset.seed": ("seed", lambda v: synth_dataset(5, 2, 1, v)),
    "plan_finite_points.n": ("n", lambda v: plan_finite_points(0.25, v)),
    "plan_bounded_diameter.dim": ("dim", lambda v: plan_bounded_diameter(0.25, 0.1, v, 10.0)),
    "check_unbiasedness.samples": ("samples", lambda v: check_unbiasedness(0.5, v, 0)),
    "check_shift_unbiasedness.samples": ("samples", lambda v: check_shift_unbiasedness(0.5, v, 0)),
    "check_mgf_bound.samples": ("samples", lambda v: check_mgf_bound(0.5, 0.5, v, 0)),
    "check_chi_square.trials": ("trials", lambda v: check_chi_square(0.3, 0.2, v, 0)),
    "check_tail_bound.trials": ("trials", lambda v: check_tail_bound(0.5, 0.25, 0.1, v, 0)),
    "run_battery.samples": ("samples", lambda v: run_battery(0, samples=v)),
    "run_battery.seed": ("seed", lambda v: run_battery(v, samples=3)),
}

# site: (argument name, call with the value in that argument's place, a value it accepts).
REALS = {
    "Bandwidth.sigma": ("sigma", Bandwidth, 1.5),
    "PairExperimentConfig.ball_radius": (
        "ball_radius", lambda v: gen_pairs(4, 2, v, 0.5, 2.0, 0), 10.0
    ),
    "PairExperimentConfig.dist_min": ("dist_min", lambda v: gen_pairs(4, 2, 1.0, v, 2.0, 0), 1e-3),
    "PairExperimentConfig.dist_max": ("dist_max", lambda v: gen_pairs(4, 2, 1.0, 0.5, v, 0), 1e3),
    "gen_grid_stress.diameter": ("diameter", lambda v: gen_grid_stress(2, v, SIGMA, 0.25), 1.0),
    "gen_grid_stress.epsilon": ("epsilon", lambda v: gen_grid_stress(2, 1.0, SIGMA, v), 0.25),
    "plan_per_pair.epsilon": ("epsilon", lambda v: plan_per_pair(v, 0.2), 0.3),
    "plan_per_pair.delta": ("delta", lambda v: plan_per_pair(0.3, v), 0.2),
    "plan_per_pair.constant": ("constant", lambda v: plan_per_pair(0.3, 0.2, v), 4.0),
    "plan_finite_points.epsilon": ("epsilon", lambda v: plan_finite_points(v, 100), 0.25),
    "plan_finite_points.constant": ("constant", lambda v: plan_finite_points(0.25, 100, v), 4.0),
    "plan_bounded_diameter.epsilon": (
        "epsilon", lambda v: plan_bounded_diameter(v, 0.1, 2, 10.0), 0.25
    ),
    "plan_bounded_diameter.delta": (
        "delta", lambda v: plan_bounded_diameter(0.25, v, 2, 10.0), 0.1
    ),
    "plan_bounded_diameter.diameter": (
        "diameter", lambda v: plan_bounded_diameter(0.25, 0.1, 2, v), 10.0
    ),
    "plan_bounded_diameter.constant": (
        "constant", lambda v: plan_bounded_diameter(0.25, 0.1, 2, 10.0, v), 4.0
    ),
    "check_unbiasedness.delta_norm": ("delta_norm", lambda v: check_unbiasedness(v, 10, 0), 0.5),
    "check_shift_unbiasedness.delta_norm": (
        "delta_norm", lambda v: check_shift_unbiasedness(v, 10, 0), 0.5
    ),
    "check_mgf_bound.delta_norm": ("delta_norm", lambda v: check_mgf_bound(v, 0.5, 10, 0), 0.5),
    "check_mgf_bound.s": ("s", lambda v: check_mgf_bound(0.5, v, 10, 0), 0.5),
    "check_chi_square.epsilon": ("epsilon", lambda v: check_chi_square(v, 0.2, 10, 0), 0.3),
    "check_chi_square.delta": ("delta", lambda v: check_chi_square(0.3, v, 10, 0), 0.2),
    "check_scale_sweep.epsilon": ("epsilon", lambda v: check_scale_sweep(v, 0.1, 0), 0.2),
    "check_scale_sweep.delta": ("delta", lambda v: check_scale_sweep(0.2, v, 0), 0.1),
    "check_tail_bound.delta_norm": (
        "delta_norm", lambda v: check_tail_bound(v, 0.25, 0.1, 10, 0), 0.5
    ),
    "check_tail_bound.epsilon": ("epsilon", lambda v: check_tail_bound(0.5, v, 0.1, 10, 0), 0.25),
    "check_tail_bound.delta": ("delta", lambda v: check_tail_bound(0.5, 0.25, v, 10, 0), 0.1),
}


def names(name):
    return f"^{re.escape(name)} must"


@pytest.mark.parametrize("bad", [True, 2.5, 3.0, "3"])
@pytest.mark.parametrize("site", COUNTS)
def test_count_refuses_non_integers(site, bad):
    name, call = COUNTS[site]
    with pytest.raises(ValueError, match=names(name)):
        call(bad)


@pytest.mark.parametrize("site", COUNTS)
def test_count_accepts_numpy_integer(site):
    COUNTS[site][1](np.int64(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, True])
@pytest.mark.parametrize("site", REALS)
def test_real_refuses_non_finite_and_bool(site, bad):
    name, call, _ = REALS[site]
    with pytest.raises(ValueError, match=names(name)):
        call(bad)


@pytest.mark.parametrize("site", REALS)
def test_real_accepts_numpy_float(site):
    _, call, good = REALS[site]
    call(np.float64(good))


def test_counts_keep_their_value():
    """An accepted numpy integer becomes the Python int it holds."""
    spec = FeatureMapSpec(Variant.COS_SIN, SIGMA, np.int64(3), np.uint64(7))
    assert (type(spec.size), spec.size, type(spec.seed), spec.seed) == (int, 3, int, 7)
    [report] = kpca_experiment(POINTS, SIGMA, np.int64(1), [np.int64(4)], np.int64(2), 0)
    assert (report.t, report.k) == (4, 1)
    assert all(type(v) is int for v in (report.t, report.k))


@pytest.mark.parametrize("lambdas", [[], [0.0, 0.5], [0.5, 1.5], [math.nan]])
def test_shrink_factors_share_one_rule(lambdas):
    """The limit check refuses an empty list and any factor outside (0, 1]."""
    with pytest.raises(ValueError, match="^lambdas must"):
        check_limit_ratio(ScaledDiff(np.ones(2)), sample_map(SPEC, 2), lambdas)
