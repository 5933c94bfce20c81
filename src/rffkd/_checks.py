"""The package's argument rules, for counts, ranged reals and quotients.

Each raises ValueError naming the argument.  Counts refuse bools and floats,
even integral ones such as 3.0, rather than truncate them.
"""

from __future__ import annotations

import math
import numbers
import operator


def integer(name: str, value, minimum: int = 1) -> int:
    """value as an int, which must be at least minimum."""
    if not isinstance(value, bool):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count >= minimum:
                return count
    raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def real(name: str, value, lo: float, hi: float = math.inf, lo_open: bool = True) -> float:
    """value as a float, finite and in (lo, hi), or in [lo, hi) when lo_open is false."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        x = float(value)
        if math.isfinite(x) and (lo < x if lo_open else lo <= x) and x < hi:
            return x
    interval = f"{'(' if lo_open else '['}{lo:g}, {hi:g})"
    raise ValueError(f"{name} must lie in {interval}, got {value!r}")


def quotient(name: str, numerator: float, value: float) -> float:
    """numerator / value, which must not overflow a float, as it does where value is subnormal."""
    ratio = numerator / float(value)
    if math.isinf(ratio):
        raise ValueError(
            f"{name} must be large enough that {numerator:g}/{name} is finite, got {value!r}"
        )
    return ratio
