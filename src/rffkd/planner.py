"""Feature-count planners.

Given a target relative error eps on kernel distances and a failure budget
delta, these return how many cos/sin feature pairs t to draw.  All three
regimes share the same core bound t = ceil(C / eps^2 * ln(2/delta)) with
C = 8; the finite-points planner union-bounds it over all pairs of an
n-point set, and the bounded-diameter planner extrapolates the same C into
a covering-argument form for a whole ball.  Each returned plan carries a
formula_note recording exactly which expression produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._checks import integer, real

__all__ = [
    "DEFAULT_CONSTANT",
    "DimensionPlan",
    "plan_per_pair",
    "plan_finite_points",
    "plan_bounded_diameter",
]

DEFAULT_CONSTANT = 8.0

_E = math.e


@dataclass(frozen=True)
class DimensionPlan:
    """Planned feature count: t cos/sin pairs, 2t output coordinates."""

    pair_count: int
    output_dim: int
    formula_note: str


def _per_pair_raw(epsilon: float, delta: float, constant: float) -> float:
    return constant * epsilon ** -2 * math.log(2.0 / delta)


def _finite_points_raw(epsilon: float, n: int, constant: float) -> float:
    return constant * epsilon ** -2 * math.log(float(n) * (n - 1))


def _bounded_diameter_raw(
    epsilon: float, delta: float, dim: int, diameter: float, constant: float
) -> float:
    # M below 1 is clamped via max(M, e); the whole log argument is floored
    # at e so the count stays positive for any admissible input.
    arg = (dim / epsilon) * (max(diameter, _E) / delta)
    return constant * dim * epsilon ** -2 * math.log(max(arg, _E))


def _plan(raw: float, note: str) -> DimensionPlan:
    t = int(math.ceil(raw))
    return DimensionPlan(pair_count=t, output_dim=2 * t, formula_note=note)


def plan_per_pair(epsilon: float, delta: float, constant: float | None = None) -> DimensionPlan:
    """Pairs needed so one fixed pair's distance ratio stays within 1 +/- eps
    with probability at least 1 - delta: t = ceil(C/eps^2 * ln(2/delta))."""
    real("epsilon", epsilon, 0.0, 1.0)
    real("delta", delta, 0.0, 1.0)
    c = DEFAULT_CONSTANT if constant is None else real("constant", constant, 0.0)
    raw = _per_pair_raw(epsilon, delta, c)
    note = f"t = ceil({c:g} * eps^-2 * ln(2/delta)) = ceil({raw:.6g})"
    return _plan(raw, note)


def plan_finite_points(epsilon: float, n: int, constant: float | None = None) -> DimensionPlan:
    """Pairs needed for all distances among n points at once.

    Union-bounds the per-pair guarantee over the n(n-1)/2 pairs with an
    overall failure budget of 1/n: t = ceil(C/eps^2 * ln(n(n-1))).
    """
    real("epsilon", epsilon, 0.0, 1.0)
    n = integer("n", n, minimum=2)
    c = DEFAULT_CONSTANT if constant is None else real("constant", constant, 0.0)
    raw = _finite_points_raw(epsilon, n, c)
    note = (
        f"t = ceil({c:g} * eps^-2 * ln(n*(n-1))) = ceil({raw:.6g}); "
        "per-pair bound union-bounded over all pairs at delta = 1/n"
    )
    return _plan(raw, note)


def plan_bounded_diameter(
    epsilon: float,
    delta: float,
    dim: int,
    diameter: float,
    constant: float | None = None,
) -> DimensionPlan:
    """Pairs needed for every pair inside a radius-M ball in R^dim.

    t = ceil(C * dim / eps^2 * ln((dim/eps) * (max(M, e)/delta))).  The
    constant C = 8 is carried over from the per-pair bound; the covering
    argument behind this regime fixes only the shape of the expression, so
    the note records the extrapolation.
    """
    real("epsilon", epsilon, 0.0, 1.0)
    real("delta", delta, 0.0, 1.0)
    dim = integer("dim", dim)
    real("diameter", diameter, 0.0, lo_open=False)
    c = DEFAULT_CONSTANT if constant is None else real("constant", constant, 0.0)
    raw = _bounded_diameter_raw(epsilon, delta, dim, diameter, c)
    note = (
        f"t = ceil({c:g} * dim * eps^-2 * ln((dim/eps) * (max(M, e)/delta))) = ceil({raw:.6g}); "
        f"C = {c:g} extrapolated from the per-pair bound, M < 1 clamped to e"
    )
    return _plan(raw, note)

