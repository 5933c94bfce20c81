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
import operator
from dataclasses import dataclass

__all__ = [
    "DEFAULT_CONSTANT",
    "DimensionPlan",
    "DimensionRequest",
    "plan_per_pair",
    "plan_finite_points",
    "plan_bounded_diameter",
    "plan",
]

DEFAULT_CONSTANT = 8.0

_E = math.e


@dataclass(frozen=True)
class DimensionPlan:
    """Planned feature count: t cos/sin pairs, 2t output coordinates."""

    pair_count: int
    output_dim: int
    regime: str
    formula_note: str


@dataclass(frozen=True)
class DimensionRequest:
    """Planner input; which fields are required depends on the regime.

    regime "per-pair" uses (epsilon, delta); "finite-points" uses
    (epsilon, n) with delta fixed at 1/n; "bounded-diameter" uses
    (epsilon, delta, dim, diameter).  Fields a regime does not use must be
    left None.
    """

    regime: str
    epsilon: float
    delta: float = None  # type: ignore[assignment]
    n: int = None  # type: ignore[assignment]
    dim: int = None  # type: ignore[assignment]
    diameter: float = None  # type: ignore[assignment]
    constant_override: float = None  # type: ignore[assignment]


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _constant(override: float | None) -> float:
    c = DEFAULT_CONSTANT if override is None else float(override)
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"constant must be positive and finite, got {c}")
    return c


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


def _plan(raw: float, regime: str, note: str) -> DimensionPlan:
    t = int(math.ceil(raw))
    return DimensionPlan(pair_count=t, output_dim=2 * t, regime=regime, formula_note=note)


def plan_per_pair(epsilon: float, delta: float, constant: float | None = None) -> DimensionPlan:
    """Pairs needed so one fixed pair's distance ratio stays within 1 +/- eps
    with probability at least 1 - delta: t = ceil(C/eps^2 * ln(2/delta))."""
    _check_epsilon(epsilon)
    _check_delta(delta)
    c = _constant(constant)
    raw = _per_pair_raw(epsilon, delta, c)
    note = f"t = ceil({c:g} * eps^-2 * ln(2/delta)) = ceil({raw:.6g})"
    return _plan(raw, "per-pair", note)


def plan_finite_points(epsilon: float, n: int, constant: float | None = None) -> DimensionPlan:
    """Pairs needed for all distances among n points at once.

    Union-bounds the per-pair guarantee over the n(n-1)/2 pairs with an
    overall failure budget of 1/n: t = ceil(C/eps^2 * ln(n(n-1))).
    """
    _check_epsilon(epsilon)
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer >= 2, got {n!r}") from None
    if n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    c = _constant(constant)
    raw = _finite_points_raw(epsilon, n, c)
    note = (
        f"t = ceil({c:g} * eps^-2 * ln(n*(n-1))) = ceil({raw:.6g}); "
        "per-pair bound union-bounded over all pairs at delta = 1/n"
    )
    return _plan(raw, "finite-points", note)


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
    _check_epsilon(epsilon)
    _check_delta(delta)
    try:
        dim = operator.index(dim)
    except TypeError:
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}") from None
    if dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim}")
    if not (diameter >= 0.0 and math.isfinite(diameter)):
        raise ValueError(f"diameter must be nonnegative and finite, got {diameter}")
    c = _constant(constant)
    raw = _bounded_diameter_raw(epsilon, delta, dim, diameter, c)
    note = (
        f"t = ceil({c:g} * dim * eps^-2 * ln((dim/eps) * (max(M, e)/delta))) = ceil({raw:.6g}); "
        f"C = {c:g} extrapolated from the per-pair bound, M < 1 clamped to e"
    )
    return _plan(raw, "bounded-diameter", note)


# Request fields each regime ignores; setting one is an error, so no report
# shows an input that its plan did not use.
_UNUSED_FIELDS = {
    "per-pair": ("n", "dim", "diameter"),
    "finite-points": ("delta", "dim", "diameter"),
    "bounded-diameter": ("n",),
}


def plan(request: DimensionRequest) -> DimensionPlan:
    """Dispatch a DimensionRequest to the matching planner."""
    unused = [f for f in _UNUSED_FIELDS.get(request.regime, ()) if getattr(request, f) is not None]
    if unused:
        raise ValueError(f"{request.regime} regime does not use {', '.join(unused)}")
    if request.regime == "per-pair":
        if request.delta is None:
            raise ValueError("per-pair regime requires delta")
        return plan_per_pair(request.epsilon, request.delta, request.constant_override)
    if request.regime == "finite-points":
        if request.n is None:
            raise ValueError("finite-points regime requires n")
        return plan_finite_points(request.epsilon, request.n, request.constant_override)
    if request.regime == "bounded-diameter":
        if request.delta is None or request.dim is None or request.diameter is None:
            raise ValueError("bounded-diameter regime requires delta, dim and diameter")
        return plan_bounded_diameter(
            request.epsilon, request.delta, request.dim, request.diameter, request.constant_override
        )
    raise ValueError(f"unknown regime {request.regime!r}")
