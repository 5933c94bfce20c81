"""Exact kernel and kernel distance: closed-form values, metric behaviour,
Taylor sandwiches, and numerical stability at tiny distances.

High-precision reference values are computed with mpmath inside the tests,
so every frozen expectation is checked against an independent evaluation.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from rffkd import Bandwidth, PointSet, kernel_distance_exact
from rffkd.kernel import (
    ScaledDiff,
    distance_from_scaled_norm,
    kernel_exact,
    kernel_from_scaled_norm,
    sq_distance_from_scaled_norm,
)
from rffkd.matrixio import read_matrix, write_matrix

mp.dps = 50


def mp_kernel(r: float) -> float:
    return float(mp.exp(-mp.mpf(r) ** 2 / 2))


def mp_sq_distance(r: float) -> float:
    return float(2 - 2 * mp.exp(-mp.mpf(r) ** 2 / 2))


class TestKernelExact:
    def test_identical_points_give_one(self):
        x = np.array([1.5, -2.0, 0.25])
        assert kernel_exact(x, x, Bandwidth(3.0)) == 1.0

    def test_value_at_one_bandwidth(self):
        """K = exp(-1/2) when the points are one bandwidth apart."""
        x = np.array([0.0, 0.0])
        y = np.array([3.0, 4.0])
        got = kernel_exact(x, y, Bandwidth(5.0))
        assert got == pytest.approx(mp_kernel(1.0), rel=1e-15)

    def test_value_at_two_bandwidths(self):
        """K = exp(-2) at twice the bandwidth."""
        x = np.zeros(4)
        y = np.array([2.0, 0.0, 0.0, 0.0])
        got = kernel_exact(x, y, Bandwidth(1.0))
        assert got == pytest.approx(mp_kernel(2.0), rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        sig = Bandwidth(1.7)
        for _ in range(25):
            x, y = rng.standard_normal((2, 6))
            assert kernel_exact(x, y, sig) == kernel_exact(y, x, sig)

    def test_bounds(self):
        rng = np.random.default_rng(7)
        sig = Bandwidth(0.9)
        for _ in range(50):
            x, y = rng.standard_normal((2, 3)) * 5
            k = kernel_exact(x, y, sig)
            assert 0.0 <= k <= 1.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            kernel_exact(np.zeros(2), np.zeros(3), Bandwidth(1.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            kernel_exact(np.array([np.nan]), np.array([0.0]), Bandwidth(1.0))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_bandwidth_must_be_positive_finite(self, bad):
        with pytest.raises(ValueError):
            Bandwidth(bad)

    @pytest.mark.parametrize(
        "bad", [np.nextafter(2.0**-511, 0.0), 1e-200, 1e-320, 2.0**511, 1e300]
    )
    def test_bandwidth_outside_the_normal_range_rejected(self, bad):
        """Below 2^-511, sigma^2 is subnormal or zero; from 2^511, it overflows."""
        with pytest.raises(ValueError, match=r"^sigma must lie in \[1.49167e-154, 6.7039e\+153\)"):
            Bandwidth(bad)

    @pytest.mark.parametrize("edge", [2.0**-511, np.nextafter(2.0**511, 0.0)])
    def test_bandwidth_range_edges_accepted(self, edge):
        sigma = Bandwidth(edge).sigma
        for value in (sigma, sigma**2, 1.0 / sigma**2):
            assert math.isfinite(value) and abs(value) >= np.finfo(np.float64).tiny


class TestKernelDistance:
    def test_zero_at_identical_points(self):
        x = np.array([2.0, 1.0])
        assert kernel_distance_exact(x, x, Bandwidth(2.0)) == 0.0

    def test_value_at_one_bandwidth(self):
        """D = sqrt(2 - 2 exp(-1/2)) at one bandwidth of separation."""
        x = np.zeros(3)
        y = np.array([2.0, 0.0, 0.0])
        want = float(mp.sqrt(2 - 2 * mp.exp(mp.mpf(-1) / 2)))
        assert kernel_distance_exact(x, y, Bandwidth(2.0)) == pytest.approx(want, rel=1e-15)

    def test_squared_identity_with_kernel(self):
        """D^2 = 2 - 2K to full float precision on generic pairs."""
        rng = np.random.default_rng(3)
        sig = Bandwidth(1.3)
        for _ in range(100):
            x, y = rng.standard_normal((2, 5)) * 3
            d = kernel_distance_exact(x, y, sig)
            k = kernel_exact(x, y, sig)
            assert d * d == pytest.approx(2 - 2 * k, rel=1e-12, abs=1e-15)

    def test_full_relative_precision_at_tiny_distance(self):
        """The expm1 form keeps relative accuracy where 2 - 2K would be 0."""
        for r in (1e-3, 1e-6, 1e-8):
            want = mp_sq_distance(r)
            assert sq_distance_from_scaled_norm(r) == pytest.approx(want, rel=1e-13)
            assert want > 0.0

    def test_monotone_in_distance(self):
        r = np.linspace(0.0, 6.0, 400)
        d = distance_from_scaled_norm(r)
        assert np.all(np.diff(d) > 0)

    def test_bounded_by_sqrt_two(self):
        assert distance_from_scaled_norm(50.0) <= math.sqrt(2.0)
        assert distance_from_scaled_norm(1e8) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_triangle_inequality(self):
        """D is the Euclidean distance between unit feature images, so the
        triangle inequality must hold for every triple."""
        rng = np.random.default_rng(11)
        sig = Bandwidth(1.0)
        for _ in range(200):
            x, y, z = rng.standard_normal((3, 4)) * rng.uniform(0.1, 4.0)
            dxz = kernel_distance_exact(x, z, sig)
            dxy = kernel_distance_exact(x, y, sig)
            dyz = kernel_distance_exact(y, z, sig)
            assert dxz <= dxy + dyz + 1e-12

    def test_separated_pairs_have_large_distance(self):
        """Beyond one bandwidth the kernel is at most 1/sqrt(e) <= 0.61,
        so the squared distance is at least 0.78."""
        assert float(1 / mp.sqrt(mp.e)) <= 0.61
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = rng.uniform(1.0, 8.0)
            assert kernel_from_scaled_norm(r) <= 0.61
            assert sq_distance_from_scaled_norm(r) >= 0.78

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sq_distance_from_scaled_norm(-0.5)


class TestTaylorSandwich:
    def test_squared_distance_sandwich_on_grid(self):
        """r^2 - r^4/4 <= D^2 <= r^2 for r in (0, 1]."""
        r = np.linspace(1e-4, 1.0, 2000)
        dsq = sq_distance_from_scaled_norm(r)
        assert np.all(dsq <= r * r + 1e-12)
        assert np.all(dsq >= r * r - 0.25 * r**4 - 1e-12)

    def test_distance_sandwich_on_grid(self):
        """0.86 r <= D <= r for r in (0, 1]."""
        r = np.linspace(1e-4, 1.0, 2000)
        d = distance_from_scaled_norm(r)
        assert np.all(d <= r + 1e-12)
        assert np.all(d >= 0.86 * r - 1e-12)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_sandwich_pointwise(self, r):
        dsq = sq_distance_from_scaled_norm(r)
        assert r * r - 0.25 * r**4 - 1e-12 <= dsq <= r * r + 1e-12
        d = math.sqrt(dsq)
        assert 0.86 * r - 1e-12 <= d <= r + 1e-12

    @given(
        st.floats(min_value=1e-6, max_value=0.999),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_relative_window_below_threshold(self, epsilon, frac):
        """(1 - eps) r^2 <= D^2 <= r^2 whenever r <= 2 sqrt(eps)."""
        r = frac * 2.0 * math.sqrt(epsilon)
        dsq = sq_distance_from_scaled_norm(r)
        assert dsq <= r * r + 1e-12
        assert dsq >= (1.0 - epsilon) * r * r - 1e-12


class TestScaledDiff:
    def test_three_four_five(self):
        d = ScaledDiff(np.array([3.0, 4.0]) / 5.0)
        assert d.norm == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(d.delta, [0.6, 0.8], rtol=1e-15)

    def test_norm_matches_vector(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x, y = rng.standard_normal((2, 7))
            d = ScaledDiff((x - y) / 0.7)
            assert d.norm == float(np.linalg.norm(d.delta))

    def test_delta_is_readonly(self):
        d = ScaledDiff(np.array([1.0]))
        with pytest.raises(ValueError):
            d.delta[0] = 5.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ScaledDiff(np.array([np.inf]))

    def test_norm_is_not_an_argument(self):
        """The norm is computed from delta; a norm passed in is refused, not ignored."""
        with pytest.raises(TypeError, match="norm"):
            ScaledDiff(np.array([3.0, 4.0]), norm=99.0)


class TestPointSet:
    def test_shape_properties(self):
        p = PointSet(np.zeros((4, 3)))
        assert p.n == 4 and p.dim == 3

    def test_rejects_empty_and_flat(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            PointSet(np.zeros(5))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointSet(np.array([[1.0, np.nan]]))

    def test_data_is_copied_and_readonly(self):
        raw = np.ones((2, 2))
        p = PointSet(raw)
        raw[0, 0] = 7.0
        assert p.data[0, 0] == 1.0
        with pytest.raises(ValueError):
            p.data[0, 0] = 3.0

    def test_raw_read_is_kept_as_given(self, tmp_path):
        """The read-only view of the bytes read_matrix returns is not copied."""
        path = tmp_path / "pts.bin"
        write_matrix(path, np.arange(12.0).reshape(3, 4), fmt="raw-f64")
        raw = read_matrix(path, fmt="raw-f64")
        assert np.shares_memory(PointSet(raw).data, raw)

    def test_read_only_owner_is_kept_as_given(self):
        arr = np.ones((2, 3))
        arr.setflags(write=False)
        assert PointSet(arr).data is arr

    def test_read_only_view_of_writable_base_is_copied(self):
        base = np.ones((2, 2))
        view = base[:]
        view.setflags(write=False)
        p = PointSet(view)
        base[0, 0] = 7.0
        assert view[0, 0] == 7.0 and p.data[0, 0] == 1.0

    def test_read_only_view_of_bytearray_is_copied(self):
        buf = bytearray(np.ones(4).tobytes())
        view = np.frombuffer(buf).reshape(2, 2)
        view.setflags(write=False)
        p = PointSet(view)
        buf[:8] = np.float64(7.0).tobytes()
        assert view[0, 0] == 7.0 and p.data[0, 0] == 1.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.asfortranarray(np.arange(12.0).reshape(3, 4)),
            lambda: np.arange(12.0, dtype=np.float32).reshape(3, 4),
            lambda: np.arange(24.0).reshape(3, 8)[:, ::2],
        ],
        ids=["fortran", "float32", "strided"],
    )
    def test_read_only_other_layouts_are_copied(self, make):
        arr = make()
        arr.setflags(write=False)
        p = PointSet(arr)
        assert not np.shares_memory(p.data, arr)
        assert np.array_equal(p.data, arr)

    def test_raw_read_held_once(self, tmp_path):
        """A PointSet of raw input holds the payload once, plus the finiteness
        check's one byte per value."""
        pts = np.random.default_rng(0).standard_normal((20000, 64))
        path = tmp_path / "pts.bin"
        write_matrix(path, pts, fmt="raw-f64")
        tracemalloc.start()
        try:
            p = PointSet(read_matrix(path, fmt="raw-f64"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.n == 20000
        assert peak <= pts.nbytes * 9 // 8 + 2**17
