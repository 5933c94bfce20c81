"""The CSV text kernel against the formatting it replaces.

reference() is the writer's per-row loop before the kernel: one '%.17g' per
value, ',' between values and '\\n' after each row.  csv_text must give the
same text for every float64, whether it takes the fixed-notation path
(1e-4 <= |x| < 1e16) or the '%' placeholders beside it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffkd._csvtext import csv_text

DBL_MAX = np.finfo(np.float64).max
SMALLEST_SUBNORMAL = 5e-324


def reference(a: np.ndarray) -> str:
    fmt = ",".join(["%.17g"] * a.shape[1]) + "\n"
    return "".join(fmt % tuple(row.tolist()) for row in a)


def assert_same_text(values, cols: int = 1) -> None:
    a = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    assert csv_text(a) == reference(a)


def bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def as_float(pattern: int) -> float:
    return float(np.uint64(pattern).view(np.float64))


# every magnitude in the fixed-notation range, as bit patterns
FIXED_BITS = st.integers(bits(1e-4), bits(np.nextafter(1e16, 0)))


def below(x: float) -> float:
    return float(np.nextafter(x, 0.0))


def above(x: float) -> float:
    return float(np.nextafter(x, math.inf))


POWERS = [float(f"1e{e}") for e in range(-5, 19)]


class TestAgainstPercent:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=48), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, patterns, cols):
        values = [as_float(p) for p in patterns]
        values += [1.0] * (-len(values) % cols)
        assert_same_text(values, cols)

    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1), FIXED_BITS), min_size=1, max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern_beside_fixed_values(self, pairs):
        """Most random bit patterns fall outside the fixed range; beside as
        many fixed values, they take the placeholders of the joined text."""
        values = [as_float(p) for pair in pairs for p in pair] + [1.0]
        assert_same_text(values + [1.0] * (-len(values) % 3), 3)

    @given(st.lists(st.tuples(FIXED_BITS, st.booleans()), min_size=1, max_size=48))
    @settings(max_examples=300, deadline=None)
    def test_any_fixed_notation_value(self, signed):
        """Random bit patterns mostly land outside the fixed range; these all
        land inside it."""
        assert_same_text([-as_float(p) if neg else as_float(p) for p, neg in signed], 1)

    @pytest.mark.parametrize(
        "value",
        [
            1234567890123456.25,  # exact ties at the 17th digit: half to even
            1234567890123456.75,
            1000000000000000.5,
            0.5,
            0.25,
            0.125,
            2.0**-13,
        ],
    )
    def test_exact_ties(self, value):
        assert_same_text([value, -value])

    @pytest.mark.parametrize("power", POWERS)
    def test_powers_of_ten_and_neighbours(self, power):
        """The largest double below each power of ten, such as
        nextafter(0.01, 0), is where log10 misjudges the exponent."""
        values = [power, below(power), above(power)]
        assert_same_text(values + [-v for v in values])

    @pytest.mark.parametrize(
        "value",
        [
            1e-4, below(1e-4), above(1e-4),  # fixed from 1e-4, scientific below
            1e16, below(1e16), above(1e16),  # %g's fixed notation reaches 1e17
            1e17, below(1e17), above(1e17),
            0.0, -0.0, math.inf, -math.inf, math.nan,
            SMALLEST_SUBNORMAL, below(2.2250738585072014e-308), 2.2250738585072014e-308,
            DBL_MAX, -DBL_MAX,
        ],
    )
    def test_range_edges_and_special_values(self, value):
        assert_same_text([value, -value, 1.0])

    def test_quarter_integers(self):
        assert_same_text(np.arange(-4000, 4000) / 4.0, 16)

    def test_integers_and_short_decimals(self):
        """Trailing zeros go, and so does a '.' with no digit after it."""
        assert_same_text([1.0, 10.0, 100.0, 123.0, 1e15, 0.1, 0.01, 0.001, 2.5, 120.5], 5)

    def test_every_value_falls_back(self):
        a = np.array([[0.0, -0.0, 1e-300], [5e-5, 3e20, math.nan]])
        assert csv_text(a) == reference(a)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5)])
    def test_separators(self, shape):
        a = np.random.default_rng(sum(shape)).standard_normal(shape)
        assert csv_text(a) == reference(a)

    def test_embedded_feature_scale(self):
        """Values as embed writes them at t = 800: about +-0.035, a few below 1e-4."""
        a = np.random.default_rng(0).standard_normal((16, 1600)) * 0.035
        assert np.any(np.abs(a) < 1e-4)
        assert csv_text(a) == reference(a)

    def test_non_contiguous_rows(self):
        a = np.random.default_rng(1).standard_normal((6, 8))[:, ::2] * 1e3
        assert csv_text(a) == reference(a)
