"""Exact Gaussian kernel and the kernel-induced distance.

For bandwidth sigma > 0 the kernel is K(x, y) = exp(-||x - y||^2 / (2 sigma^2))
and the distance between the feature-space images of x and y is
D(x, y) = sqrt(2 - 2 K(x, y)).  Everything is parametrised by the scaled
difference (x - y) / sigma, so most functions here take either raw points
plus a bandwidth or the norm of the scaled difference directly.

All functions are pure and operate on float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import real

__all__ = [
    "Bandwidth",
    "ScaledDiff",
    "PointSet",
    "kernel_exact",
    "kernel_distance_exact",
    "kernel_from_scaled_norm",
    "sq_distance_from_scaled_norm",
    "distance_from_scaled_norm",
]


@dataclass(frozen=True)
class Bandwidth:
    """Kernel bandwidth sigma, in [2^-511, 2^511): the range where sigma,
    sigma^2 and 1/sigma^2 are all finite normal doubles."""

    sigma: float

    def __post_init__(self) -> None:
        real("sigma", self.sigma, 2.0**-511, 2.0**511, lo_open=False)


@dataclass(frozen=True)
class ScaledDiff:
    """Bandwidth-scaled difference delta = (x - y) / sigma with its cached norm."""

    delta: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self) -> None:
        vec = np.asarray(self.delta, dtype=np.float64)
        if vec.ndim != 1:
            raise ValueError("scaled difference must be a 1-d vector")
        if not np.all(np.isfinite(vec)):
            raise ValueError("scaled difference must be finite")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "delta", vec)
        object.__setattr__(self, "norm", float(np.linalg.norm(vec)))

    @property
    def dim(self) -> int:
        return self.delta.shape[0]


def _immutable(arr) -> bool:
    """Whether arr is a read-only, C-contiguous float64 array whose memory no
    writable array can reach: it owns that memory, or views a bytes object.

    A read-only owner is taken to have been frozen by whoever made it, before
    any writable view of it was taken.
    """
    if not (
        type(arr) is np.ndarray
        and arr.dtype == np.float64
        and arr.flags.c_contiguous
        and not arr.flags.writeable
    ):
        return False
    if arr.flags.owndata:
        return True
    base = arr.base
    while isinstance(base, np.ndarray):
        base = base.base
    return type(base) is bytes


class PointSet:
    """Immutable n x d matrix of points, one row per point.

    An input array that nothing can write to, such as the read-only view
    that read_matrix(..., "raw-f64") returns, is kept as given; anything else
    is copied, so a later write to the input never changes the set.
    """

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = data if _immutable(data) else np.array(data, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"points must form a 2-d array, got ndim={arr.ndim}")
        n, d = arr.shape
        if n < 1 or d < 1:
            raise ValueError(f"point set must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("points must be finite")
        arr.setflags(write=False)
        self.data = arr

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, dim={self.dim})"


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("points must be 1-d vectors")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("points must be finite")
    return x, y


def _nonnegative(norm) -> np.ndarray:
    r = np.asarray(norm, dtype=np.float64)
    if np.any(r < 0):
        raise ValueError("scaled norm must be nonnegative")
    return r


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def kernel_from_scaled_norm(norm):
    """K as a function of r = ||x - y|| / sigma: exp(-r^2 / 2).  Vectorized."""
    r = _nonnegative(norm)
    return _scalar_or_array(np.exp(-0.5 * r * r))


def sq_distance_from_scaled_norm(norm):
    """Squared kernel distance 2 - 2 K as a function of r = ||x - y|| / sigma.

    Evaluated as 2 * (-expm1(-r^2 / 2)) so that the r -> 0 limit keeps full
    relative precision (the naive form loses all digits once K is close
    to 1).  Vectorized.
    """
    r = _nonnegative(norm)
    return _scalar_or_array(-2.0 * np.expm1(-0.5 * r * r))


def distance_from_scaled_norm(norm):
    """Kernel distance sqrt(2 - 2 K) as a function of r = ||x - y|| / sigma."""
    return _scalar_or_array(np.sqrt(sq_distance_from_scaled_norm(norm)))


def kernel_exact(x, y, sigma: Bandwidth) -> float:
    """Gaussian kernel K(x, y) = exp(-||x - y||^2 / (2 sigma^2))."""
    x, y = _check_pair(x, y)
    r = np.linalg.norm(x - y) / sigma.sigma
    return kernel_from_scaled_norm(r)


def kernel_distance_exact(x, y, sigma: Bandwidth) -> float:
    """Kernel distance D(x, y) = sqrt(2 - 2 K(x, y)).

    This is the Euclidean distance between the (unit-norm) feature-space
    images of x and y, so it is a metric bounded by sqrt(2).
    """
    x, y = _check_pair(x, y)
    r = np.linalg.norm(x - y) / sigma.sigma
    return distance_from_scaled_norm(r)
