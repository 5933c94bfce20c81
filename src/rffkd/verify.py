"""Statistical verification battery.

Each check is a Monte Carlo (or, for the limit check, deterministic)
experiment against a quantitative claim about the CosSin map, and returns a
VerifyReport.  Frequencies and means are compared with a three-standard-
error allowance: one-sided checks pass when statistic <= bound + 3 std_err,
two-sided checks when |statistic - target| <= 3 std_err (the target is
stored in the bound field, and deterministic checks carry std_err = 0).

The map enters every pairwise quantity only through the projections of its
frequency rows on the pair's direction, which are i.i.d. standard normals
(see features.projected_frequencies).  The sampling-based checks therefore
draw those scalar projections directly; checks taking a FeatureMap exercise
the full object.  Checks that average `samples` draws stream them in chunks
of at most _LEAF values, so their memory does not grow with `samples`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._checks import integer, real
from ._pool import in_order
from .features import (
    FeatureMap,
    FeatureMapSpec,
    Variant,
    projected_frequencies,
    sample_map,
    sq_distance_from_projections,
)
from .kernel import Bandwidth, ScaledDiff, kernel_from_scaled_norm, sq_distance_from_scaled_norm
from .planner import plan_per_pair
from .streams import check_seed, derive_seed, generator as _generator

__all__ = [
    "VerifyReport",
    "run_battery",
]

# Most values a streamed check draws at once (see _mean_std).
_LEAF = 1 << 16

# Failure-rate allowance for the scale-sweep check: the guarantee holds with
# probability 1 - O(delta); the constant behind the O is fixed here.
SCALE_SWEEP_DELTA_CONSTANT = 3.0


@dataclass(frozen=True)
class VerifyReport:
    check_name: str
    samples: int
    statistic: float
    bound: float
    std_err: float
    passed: bool


def _one_sided(name: str, samples: int, statistic: float, bound: float, std_err: float) -> VerifyReport:
    return VerifyReport(
        check_name=name,
        samples=samples,
        statistic=float(statistic),
        bound=float(bound),
        std_err=float(std_err),
        passed=bool(statistic <= bound + 3.0 * std_err),
    )


def _violation_rate(name: str, violated: np.ndarray, delta: float) -> VerifyReport:
    """One-sided report of the fraction of trials violated, against delta,
    with the binomial standard error of a fraction whose rate is delta (0 from 1 on)."""
    trials = violated.size
    std_err = math.sqrt(max(delta * (1.0 - delta), 0.0) / trials)
    return _one_sided(name, trials, float(np.mean(violated)), delta, std_err)


def _mean_std(draw: Callable[[int], np.ndarray], samples: int) -> tuple[float, float]:
    """Mean and std(ddof=1) of samples values drawn by draw(n), n at a time.

    samples is split as numpy's pairwise sum splits an array, into parts of
    at most _LEAF values that are drawn (and overwritten) one by one; their
    sums are added along the same tree, so the mean is bit-identical to one
    array's.  Squared deviations merge as in Chan, Golub and LeVeque (1983).
    """

    def part(n: int) -> tuple[float, float]:  # (sum, sum of squared deviations)
        if n <= _LEAF:
            x = draw(n)
            total = np.add.reduce(x)
            x -= total / n
            x *= x
            return total, np.add.reduce(x)
        h = n // 2 - (n // 2) % 8
        (sum_a, m2_a), (sum_b, m2_b) = part(h), part(n - h)
        gap = sum_b / (n - h) - sum_a / h
        return sum_a + sum_b, m2_a + m2_b + gap * gap * (h * (n - h) / n)

    total, m2 = part(samples)
    return float(total / samples), float(np.sqrt(m2 / (samples - 1)))


def _kernel_mean(name: str, r: float, samples: int, draw: Callable[[int], np.ndarray]) -> VerifyReport:
    """Two-sided report of the mean of samples draws around the kernel at r."""
    mean, std = _mean_std(draw, samples)
    target, std_err = float(kernel_from_scaled_norm(r)), std / math.sqrt(samples)
    passed = bool(abs(mean - target) <= 3.0 * std_err)
    return VerifyReport(f"{name}[r={r:g}]", samples, mean, target, std_err, passed)


def check_unbiasedness(delta_norm: float, samples: int, seed: int) -> VerifyReport:
    """E[cos(w r)] over w ~ N(0,1) equals exp(-r^2/2).

    This is the expectation of the embedded inner product of a pair at
    scaled distance r under the CosSin map, per frequency row.  Two-sided.
    """
    r = real("delta_norm", delta_norm, 0.0, lo_open=False)
    samples = integer("samples", samples, minimum=2)
    gen = _generator(seed)

    def draw(n: int) -> np.ndarray:  # cos(w r), in place
        x = gen.standard_normal(n)
        x *= r
        return np.cos(x, out=x)

    return _kernel_mean("inner_product_unbiased", r, samples, draw)


def check_shift_unbiasedness(delta_norm: float, samples: int, seed: int) -> VerifyReport:
    """The CosShift embedded inner product is also unbiased for the kernel.

    Per feature, 2 cos(a + g) cos(b + g) with g uniform on (0, 2pi] and
    a - b = w r averages to cos(w r), hence to exp(-r^2/2) over w.
    Two-sided.  No distance guarantee is implied for this variant.
    """
    r = real("delta_norm", delta_norm, 0.0, lo_open=False)
    samples = integer("samples", samples, minimum=2)
    # phases is a stream of its own, so sample i is the same however it is chunked
    gen, phases = _generator(seed), _generator(derive_seed(seed, 1))

    def draw(n: int) -> np.ndarray:  # g = 2 pi (1 - u) and 2 cos(w r + g) cos(g), in place
        v = gen.standard_normal(n)
        g = phases.random(n)
        np.subtract(1.0, g, out=g)
        g *= 2.0 * math.pi
        v *= r
        v += g
        np.cos(v, out=v)
        v *= 2.0
        v *= np.cos(g, out=g)
        return v

    return _kernel_mean("shifted_inner_product_unbiased", r, samples, draw)


def check_chi_square(epsilon: float, delta: float, trials: int, seed: int) -> VerifyReport:
    """Mean squared projection concentrates in [1 - eps, 1 + eps].

    With t = plan_per_pair(eps, delta) frequency rows, the fraction of
    trials whose mean squared projection leaves the window must not exceed
    delta (plus Monte Carlo allowance).  One-sided against delta.
    """
    trials = integer("trials", trials)
    t = plan_per_pair(epsilon, delta).pair_count
    w = _generator(seed).standard_normal((trials, t))
    w *= w
    mean_sq = np.mean(w, axis=1)
    return _violation_rate(
        f"mean_sq_projection_concentration[eps={epsilon:g};delta={delta:g};t={t}]",
        (mean_sq < 1.0 - epsilon) | (mean_sq > 1.0 + epsilon),
        delta,
    )


def _ratio_curve(proj: np.ndarray, scaled_norm: float, lambdas: np.ndarray) -> np.ndarray:
    """Squared-distance ratio (embedded over exact) along a scale sweep."""
    d_hat_sq = sq_distance_from_projections(proj, lambdas * scaled_norm)
    d_sq = sq_distance_from_scaled_norm(lambdas * scaled_norm)
    return d_hat_sq / d_sq


def check_limit_ratio(diff: ScaledDiff, fmap: FeatureMap, lambdas: Sequence[float]) -> VerifyReport:
    """As the pair shrinks, the squared-distance ratio tends to the mean
    squared projection.

    Evaluates the ratio ||phi(x_l) - phi(y_l)||^2 / D(x_l, y_l)^2 along
    points at scaled distance l * r and compares the smallest-l value with
    (1/t) sum_i w_i^2.  Deterministic given the map, so std_err = 0 and the
    tolerance is a fixed 1e-4 relative gap.
    """
    lam = np.asarray(sorted(float(v) for v in lambdas), dtype=np.float64)
    if lam.size == 0 or not np.all((lam > 0.0) & (lam <= 1.0)):
        raise ValueError(f"lambdas must be one or more values in (0, 1], got {lam.tolist()}")
    proj = projected_frequencies(fmap, diff)
    ratios = _ratio_curve(proj, diff.norm, lam)
    chi = float(np.mean(proj * proj))
    statistic = abs(ratios[0] / chi - 1.0)
    return _one_sided(
        f"vanishing_distance_limit[r={diff.norm:g};t={proj.size};lmin={lam[0]:g}]",
        proj.size,
        statistic,
        1e-4,
        std_err=0.0,
    )


def check_mgf_bound(delta_norm: float, s: float, samples: int, seed: int) -> VerifyReport:
    """log E[exp(s (K - cos(w r)))] <= s^2 r^4 / 4 inside the window.

    The centered cosine K(r) - cos(w r) is sub-exponential; its log moment
    generating function at s in [0, 1/(2 r^2)) is bounded by s^2 r^4 / 4.
    One-sided, with a delta-method standard error on the log of the sample
    mean.
    """
    r = real("delta_norm", delta_norm, 0.0, lo_open=False)
    if r > 1.0:
        raise ValueError(f"scaled norm must be <= 1 for this check, got {r}")
    samples = integer("samples", samples, minimum=2)
    window = math.inf if r == 0.0 else 1.0 / (2.0 * r * r)
    s = real("s", s, 0.0, window, lo_open=False)
    gen = _generator(seed)

    def draw(n: int) -> np.ndarray:  # exp(s (K - cos(w r))), in place
        x = gen.standard_normal(n)
        x *= r
        np.cos(x, out=x)
        np.subtract(kernel_from_scaled_norm(r), x, out=x)
        x *= s
        return np.exp(x, out=x)

    mean, std = _mean_std(draw, samples)
    statistic = math.log(mean)
    std_err = std / (mean * math.sqrt(samples))
    bound = 0.25 * s * s * r**4
    return _one_sided(f"centered_cosine_mgf[r={r:g};s={s:g}]", samples, statistic, bound, std_err)


def check_scale_sweep(epsilon: float, delta: float, seed: int) -> VerifyReport:
    """Below the threshold norm, one map handles every scale at once.

    For pairs at scaled distance r = sqrt(eps)/ln(1/delta), a map with
    t = plan_per_pair(eps, delta) rows keeps the squared-distance ratio in
    [1 - eps, 1 + eps] simultaneously for all shrink factors lambda in
    (0, 1], with failure probability O(delta).  The O constant is fixed at
    SCALE_SWEEP_DELTA_CONSTANT = 3, so the reported bound is 3 delta.
    One-sided, over 100 trials of 25 factors log-spaced from 1e-6 to 1.
    """
    t = plan_per_pair(epsilon, delta).pair_count
    if delta >= 1.0 / math.e:
        raise ValueError(f"delta must lie in (0, 1/e) so the threshold norm exists, got {delta}")
    lam = np.logspace(-6, 0, 25)
    r = math.sqrt(epsilon) / math.log(1.0 / delta)
    gen = _generator(seed)
    violated = np.empty(100, dtype=bool)
    for trial in range(violated.size):
        ratios = _ratio_curve(gen.standard_normal(t), r, lam)
        violated[trial] = float(np.max(np.abs(ratios - 1.0))) > epsilon
    return _violation_rate(
        f"ratio_stable_across_scales[eps={epsilon:g};delta={delta:g};r={r:g};t={t}]",
        violated,
        SCALE_SWEEP_DELTA_CONSTANT * delta,
    )


def check_tail_bound(
    delta_norm: float, epsilon: float, delta: float, trials: int, seed: int
) -> VerifyReport:
    """Sub-exponential tail: the explicit feature count controls D^2 error.

    With t = ceil((6/eps^2) (r^4 / D(r)^4) ln(2/delta)) rows, the squared
    embedded distance leaves [1 - eps, 1 + eps] times the exact squared
    distance with probability at most delta.  One-sided against delta.
    """
    r = real("delta_norm", delta_norm, 0.0, lo_open=False)
    if r == 0.0:
        raise ValueError("tail check needs a positive scaled norm")
    real("epsilon", epsilon, 0.0, 1.0)
    real("delta", delta, 0.0, 1.0)
    trials = integer("trials", trials)
    d_sq = sq_distance_from_scaled_norm(r)
    t = math.ceil((6.0 / epsilon**2) * (r**4 / d_sq**2) * math.log(2.0 / delta))
    w = _generator(seed).standard_normal((trials, t))
    d_hat_sq = sq_distance_from_projections(w, r)
    return _violation_rate(
        f"relative_error_tail[r={r:g};eps={epsilon:g};delta={delta:g};t={t}]",
        np.abs(d_hat_sq / d_sq - 1.0) > epsilon,
        delta,
    )


def run_battery(seed: int, samples: int = 1_000_000) -> list[VerifyReport]:
    """Run every check at its reference setting; order is stable.

    The checks are independent and spend their time in numpy calls that
    release the GIL, so they run on the package's pool; the reports, and
    any exception a check raises, are those of running them one by one.
    """
    seed = check_seed(seed)
    samples = integer("samples", samples, minimum=2)
    sigma = Bandwidth(1.0)
    gen = _generator(derive_seed(seed, 6))
    diff = ScaledDiff(gen.standard_normal(8) / math.sqrt(8.0))
    fmap = sample_map(
        FeatureMapSpec(variant=Variant.COS_SIN, sigma=sigma, size=64, seed=derive_seed(seed, 7)), 8
    )
    checks = [
        (check_unbiasedness, 0.1, samples, derive_seed(seed, 1)),
        (check_unbiasedness, 1.0, samples, derive_seed(seed, 2)),
        (check_unbiasedness, 3.0, samples, derive_seed(seed, 3)),
        (check_shift_unbiasedness, 1.0, samples, derive_seed(seed, 4)),
        (check_chi_square, 0.3, 0.2, 1000, derive_seed(seed, 5)),
        (check_limit_ratio, diff, fmap, [1.0, 1e-2, 1e-4, 1e-6]),
        (check_mgf_bound, 0.5, 1.0, samples, derive_seed(seed, 8)),
        (check_mgf_bound, 1.0, 0.4, samples, derive_seed(seed, 9)),
        (check_scale_sweep, 0.2, 0.1, derive_seed(seed, 10)),
        (check_tail_bound, 0.5, 0.25, 0.1, 1000, derive_seed(seed, 11)),
    ]
    return list(in_order(checks, len(checks)))
