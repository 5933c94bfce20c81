"""Feature-count planners: frozen example values recomputed with mpmath,
closed-form inversions, and monotonicity in every argument; and the regime
dispatch, which `rffkd dims` does from the CLI's regime table.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from rffkd import DEFAULT_CONSTANT, plan_bounded_diameter, plan_finite_points, plan_per_pair
from rffkd.cli import main
from rffkd.planner import _bounded_diameter_raw, _finite_points_raw, _per_pair_raw

mp.dps = 50


class TestPerPair:
    def test_frozen_example(self):
        """eps = 0.3, delta = 0.2 plans 205 pairs (410 output coordinates)."""
        oracle = mp.mpf(8) / mp.mpf(0.3) ** 2 * mp.log(2 / mp.mpf(0.2))
        assert int(mp.ceil(oracle)) == 205
        got = plan_per_pair(0.3, 0.2)
        assert got.pair_count == 205
        assert got.output_dim == 410

    def test_tight_example(self):
        """eps = 0.1, delta = 0.01 plans 4239 pairs."""
        oracle = mp.mpf(8) / mp.mpf(0.1) ** 2 * mp.log(2 / mp.mpf(0.01))
        assert int(mp.ceil(oracle)) == 4239
        assert plan_per_pair(0.1, 0.01).pair_count == 4239

    def test_raw_value_matches_high_precision(self):
        for eps, delta in [(0.3, 0.2), (0.1, 0.01), (0.5, 0.5), (0.05, 0.001)]:
            want = mp.mpf(8) / mp.mpf(eps) ** 2 * mp.log(2 / mp.mpf(delta))
            got = _per_pair_raw(eps, delta, 8.0)
            assert got == pytest.approx(float(want), rel=1e-13)

    def test_inversion_recovers_delta(self):
        """Solving the pre-ceiling count back for delta returns the input."""
        for eps, delta in [(0.3, 0.2), (0.15, 0.05), (0.7, 0.9)]:
            raw = _per_pair_raw(eps, delta, DEFAULT_CONSTANT)
            recovered = 2.0 * math.exp(-raw * eps**2 / DEFAULT_CONSTANT)
            assert recovered == pytest.approx(delta, rel=1e-12)

    def test_ceiled_count_meets_budget(self):
        """The integer count never loosens the bound: plugging t back in
        gives a failure budget at most delta."""
        for eps, delta in [(0.3, 0.2), (0.12, 0.03)]:
            t = plan_per_pair(eps, delta).pair_count
            implied = 2.0 * math.exp(-t * eps**2 / DEFAULT_CONSTANT)
            assert implied <= delta * (1 + 1e-12)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_both_arguments(self, eps, delta):
        base = plan_per_pair(eps, delta).pair_count
        assert plan_per_pair(eps / 2, delta).pair_count >= base
        assert plan_per_pair(eps, delta / 2).pair_count >= base

    def test_constant_override_scales_raw(self):
        full = _per_pair_raw(0.3, 0.2, 8.0)
        half = _per_pair_raw(0.3, 0.2, 4.0)
        assert half == pytest.approx(full / 2, rel=1e-15)
        assert plan_per_pair(0.3, 0.2, constant=4.0).pair_count == 103

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_epsilon_out_of_range(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            plan_per_pair(eps, 0.1)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 2.0])
    def test_delta_out_of_range(self, delta):
        with pytest.raises(ValueError, match="delta"):
            plan_per_pair(0.3, delta)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf])
    def test_bad_constant_rejected(self, c):
        with pytest.raises(ValueError, match="constant"):
            plan_per_pair(0.3, 0.2, constant=c)


class TestFinitePoints:
    def test_frozen_example(self):
        """eps = 0.2, n = 2000 plans 3041 pairs."""
        oracle = mp.mpf(8) / mp.mpf(0.2) ** 2 * mp.log(mp.mpf(2000) * 1999)
        assert int(mp.ceil(oracle)) == 3041
        got = plan_finite_points(0.2, 2000)
        assert got.pair_count == 3041

    def test_smallest_set(self):
        """n = 2 has a single pair; the count reduces to C eps^-2 ln 2."""
        oracle = mp.mpf(8) / mp.mpf(0.2) ** 2 * mp.log(2)
        assert int(mp.ceil(oracle)) == 139
        assert plan_finite_points(0.2, 2).pair_count == 139

    @given(st.integers(min_value=3, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_dominates_per_pair_at_matching_budget(self, n):
        """For n >= 3 the union-bound count covers a single pair run at
        delta = 1/n, since ln(n(n-1)) >= ln(2n)."""
        for eps in (0.1, 0.3, 0.7):
            joint = plan_finite_points(eps, n).pair_count
            single = plan_per_pair(eps, 1.0 / n).pair_count
            assert joint >= single

    @given(st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_n(self, n):
        assert plan_finite_points(0.2, 2 * n).pair_count >= plan_finite_points(0.2, n).pair_count

    def test_doubling_n_adds_bounded_increment(self):
        """Doubling n raises the pre-ceiling count by at most C eps^-2 ln 6,
        the worst case of ln(2(2n-1)/(n-1))."""
        cap = 8.0 / 0.2**2 * math.log(6.0)
        for n in (2, 3, 10, 1000, 10**7):
            gap = _finite_points_raw(0.2, 2 * n, 8.0) - _finite_points_raw(0.2, n, 8.0)
            assert 0.0 < gap <= cap * (1 + 1e-12)

    def test_accepts_numpy_integer(self):
        assert plan_finite_points(0.2, np.int64(2000)).pair_count == 3041

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_too_few_points_rejected(self, n):
        with pytest.raises(ValueError, match="n must be"):
            plan_finite_points(0.2, n)

    def test_non_integer_n_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            plan_finite_points(0.2, 3.5)


class TestBoundedDiameter:
    def test_frozen_example(self):
        """eps = 0.25, delta = 0.1, dim = 2, diameter = 100 plans 2301 pairs."""
        arg = (2 / mp.mpf(0.25)) * (100 / mp.mpf(0.1))
        oracle = mp.mpf(8) * 2 / mp.mpf(0.25) ** 2 * mp.log(arg)
        assert int(mp.ceil(oracle)) == 2301
        got = plan_bounded_diameter(0.25, 0.1, dim=2, diameter=100.0)
        assert got.pair_count == 2301

    def test_golden_raw_value(self):
        """At eps = 1/sqrt(8), delta = 1/e, dim = 1, M = e the count collapses
        to 64 * (ln sqrt(8) + 2)."""
        eps = 1.0 / math.sqrt(8.0)
        raw = _bounded_diameter_raw(eps, 1.0 / math.e, 1, math.e, 8.0)
        oracle = 64 * (mp.log(mp.sqrt(8)) + 2)
        assert raw == pytest.approx(194.54212933375476, rel=1e-13)
        assert raw == pytest.approx(float(oracle), rel=1e-12)

    def test_tenfold_diameter_adds_exact_log_term(self):
        """Scaling M by 10 (with M >= e) adds exactly C dim eps^-2 ln 10
        before ceiling."""
        for dim, m in [(1, 3.0), (4, 10.0), (16, 250.0)]:
            lo = _bounded_diameter_raw(0.25, 0.1, dim, m, 8.0)
            hi = _bounded_diameter_raw(0.25, 0.1, dim, 10 * m, 8.0)
            want = 8.0 * dim / 0.25**2 * math.log(10.0)
            assert hi - lo == pytest.approx(want, rel=1e-12)

    def test_small_diameter_clamped(self):
        """Diameters below e all plan identically: max(M, e) kicks in."""
        base = plan_bounded_diameter(0.25, 0.1, dim=2, diameter=math.e)
        for m in (0.0, 0.001, 1.0, 2.5):
            assert plan_bounded_diameter(0.25, 0.1, dim=2, diameter=m) == base

    def test_log_floor_keeps_count_positive(self):
        """Even with a tiny log argument the count is at least C dim eps^-2."""
        got = plan_bounded_diameter(0.9, 0.9, dim=1, diameter=0.0)
        floor = 8.0 * 1 / 0.9**2 * 1.0
        assert got.pair_count >= math.floor(floor)

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_dim(self, dim):
        a = plan_bounded_diameter(0.25, 0.1, dim=dim, diameter=10.0).pair_count
        b = plan_bounded_diameter(0.25, 0.1, dim=dim + 1, diameter=10.0).pair_count
        assert b >= a

    @given(st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_diameter(self, m):
        a = plan_bounded_diameter(0.25, 0.1, dim=3, diameter=m).pair_count
        b = plan_bounded_diameter(0.25, 0.1, dim=3, diameter=2 * m + 1).pair_count
        assert b >= a

    @pytest.mark.parametrize("dim", [0, -1])
    def test_bad_dim_rejected(self, dim):
        with pytest.raises(ValueError, match="dim"):
            plan_bounded_diameter(0.25, 0.1, dim=dim, diameter=1.0)

    @pytest.mark.parametrize("m", [-1.0, math.inf, math.nan])
    def test_bad_diameter_rejected(self, m):
        with pytest.raises(ValueError, match="diameter"):
            plan_bounded_diameter(0.25, 0.1, dim=2, diameter=m)


# Per regime: the flags a complete run gives, and a value for each other regime flag.
USED = {
    "per-pair": {"delta": 0.2},
    "finite-points": {"n": 2000},
    "bounded-diameter": {"delta": 0.1, "dim": 2, "diameter": 100.0},
}
UNUSED = {
    "per-pair": {"n": 2000, "dim": 2, "diameter": 100.0},
    "finite-points": {"delta": 0.1, "dim": 2, "diameter": 100.0},
    "bounded-diameter": {"n": 2000},
}


def dims(capsys, regime, epsilon, **flags):
    """rffkd dims: exit code, the report row (None unless exit 0) and stderr."""
    argv = ["dims", "--regime", regime, "--epsilon", str(epsilon)]
    for name, value in flags.items():
        argv += [f"--{name}", str(value)]
    rc = main(argv)
    out, err = capsys.readouterr()
    if rc != 0:
        assert out == ""
        return rc, None, err
    header, row = csv.reader(io.StringIO(out))
    return rc, dict(zip(header, row)), err


def refusal(flag, regime):
    return f"rffkd: error: --{flag} does not apply to dims --regime {regime}\n"


class TestDispatch:
    def test_per_pair_route(self, capsys):
        _, row, _ = dims(capsys, "per-pair", 0.3, delta=0.2)
        want = plan_per_pair(0.3, 0.2)
        assert (row["pair_count"], row["formula_note"]) == (str(want.pair_count), want.formula_note)

    def test_finite_points_route(self, capsys):
        _, row, _ = dims(capsys, "finite-points", 0.2, n=2000)
        want = plan_finite_points(0.2, 2000)
        assert (row["pair_count"], row["formula_note"]) == (str(want.pair_count), want.formula_note)

    def test_bounded_diameter_route(self, capsys):
        _, row, _ = dims(capsys, "bounded-diameter", 0.25, delta=0.1, dim=2, diameter=100.0)
        want = plan_bounded_diameter(0.25, 0.1, 2, 100.0)
        assert (row["pair_count"], row["formula_note"]) == (str(want.pair_count), want.formula_note)

    def test_constant_override_passes_through(self, capsys):
        _, row, _ = dims(capsys, "per-pair", 0.3, delta=0.2, constant=4)
        assert (row["constant"], row["pair_count"]) == ("4", "103")

    def test_missing_fields_rejected(self, capsys):
        for regime, given, missing in [
            ("per-pair", {}, "delta"),
            ("finite-points", {}, "n"),
            ("bounded-diameter", {"delta": 0.1}, "dim"),
            ("bounded-diameter", {"delta": 0.1, "dim": 2}, "diameter"),
            ("bounded-diameter", {"dim": 2, "diameter": 100.0}, "delta"),
        ]:
            rc, _, err = dims(capsys, regime, 0.3, **given)
            want = f"rffkd: error: --{missing} is required for dims --regime {regime}\n"
            assert (rc, err) == (2, want)

    @pytest.mark.parametrize(
        "regime, field", [(r, f) for r, fields in UNUSED.items() for f in fields]
    )
    def test_unused_field_rejected(self, capsys, regime, field):
        rc, _, err = dims(capsys, regime, 0.25, **USED[regime], **{field: UNUSED[regime][field]})
        assert (rc, err) == (2, refusal(field, regime))

    @pytest.mark.parametrize("regime", list(UNUSED))
    def test_every_unused_field_is_named(self, capsys, regime):
        """Every regime flag is one that the regime takes or one it refuses;
        given together, the refused flags are named one at a time, first given first."""
        assert sorted({*USED[regime], *UNUSED[regime]}) == ["delta", "diameter", "dim", "n"]
        unused = dict(UNUSED[regime])
        while unused:
            rc, _, err = dims(capsys, regime, 0.25, **USED[regime], **unused)
            first = next(iter(unused))
            assert (rc, err) == (2, refusal(first, regime))
            del unused[first]
        assert dims(capsys, regime, 0.25, **USED[regime])[0] == 0

    @pytest.mark.parametrize("field", ["delta", "dim", "diameter"])
    def test_zero_counts_as_set(self, capsys, field):
        """A flag given as 0 is still given, and refused where it does not apply."""
        rc, _, err = dims(capsys, "finite-points", 0.25, n=10, **{field: 0})
        assert (rc, err) == (2, refusal(field, "finite-points"))

    def test_unknown_regime_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            dims(capsys, "global", 0.3, delta=0.2)
        assert info.value.code == 2
        assert "invalid choice: 'global'" in capsys.readouterr().err

    def test_notes_record_the_formula(self):
        note = plan_per_pair(0.3, 0.2).formula_note
        assert "ln(2/delta)" in note
        note = plan_bounded_diameter(0.25, 0.1, 2, 100.0).formula_note
        assert "extrapolated" in note
