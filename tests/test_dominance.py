import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdorder as sd
import support
from sdorder.dominance import OrderTag, _settle, _weighted_slack_candidates
from sdorder.geometry import pair_geometry
from sdorder.piecewise import DivisionByZeroGamma, merge_grids
from test_geometry import RAMP, STEP, cdfs


@pytest.fixture(scope="module")
def spread_pair():
    F, G, g = sd.example_identical_means(2.0, 1.0)
    return F, G, g


@pytest.fixture(scope="module")
def crossing_pair():
    return sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.25)


class TestFirstOrder:
    def test_shifted_pair_holds(self):
        G = sd.DiscretePMF(((0.0, 0.5), (1.0, 0.5))).to_distribution()
        F = sd.DiscretePMF(((-1.0, 0.5), (0.0, 0.5))).to_distribution()
        v = sd.check_fsd(F, G)
        assert v.holds and v.order_tag is sd.OrderTag.FSD
        assert v.margin == 0.0

    def test_spread_pair_fails_where_cdfs_cross(self, spread_pair):
        F, G, _ = spread_pair
        v = sd.check_fsd(F, G)
        assert not v.holds
        assert v.witness_t == 2.0
        assert v.margin == -0.5

    def test_diagnostics_cover_every_candidate(self, spread_pair):
        F, G, _ = spread_pair
        v = sd.check_fsd(F, G)
        assert all(len(row) == 3 for row in v.diagnostics)
        assert any(t == v.witness_t for t, _, _ in v.diagnostics)


class TestSecondOrder:
    def test_spread_pair_holds_with_binding_margin(self, spread_pair):
        F, G, _ = spread_pair
        v = sd.check_ssd(F, G)
        assert v.holds and v.margin == 0.0

    def test_reversed_pair_fails(self, spread_pair):
        F, G, _ = spread_pair
        v = sd.check_ssd(G, F)
        assert not v.holds and v.margin < 0.0


class TestConstantWeight:
    def test_gamma_outside_unit_interval_rejected(self, spread_pair):
        F, G, _ = spread_pair
        with pytest.raises(sd.RangeViolation):
            sd.check_fractional(F, G, 1.5)
        with pytest.raises(sd.RangeViolation):
            sd.check_fractional(F, G, -0.1)

    @pytest.mark.parametrize("c", [1 + 5e-10, -5e-10, 1.5, -0.1])
    def test_range_is_the_membership_range(self, spread_pair, c):
        F, G, _ = spread_pair
        u = sd.UtilityPWL((0.0,), (1.0, 1.0))

        def outcome(call):
            try:
                call()
            except sd.RangeViolation:
                return "RangeViolation"
            return "accepted"

        frac = outcome(lambda: sd.check_fractional(F, G, c))
        assert frac == outcome(lambda: sd.check_membership_fractional(u, c))
        assert (frac == "accepted") == (-1e-9 <= c <= 1 + 1e-9)

    def test_a_bare_weight_is_checked_under_the_given_tol(self):
        F = sd.from_samples([0, 1])
        near, far = 1 + 1e-6, 1 + 1e-2
        assert sd.check_fractional(F, F, near, tol=1e-3).holds
        for check in (sd.check_mfsd, sd.check_ffsd):
            assert check(F, F, sd.PiecewiseFn.constant(near), tol=1e-3).holds
            with pytest.raises(sd.RangeViolation):
                check(F, F, sd.PiecewiseFn.constant(far), tol=1e-3)
        with pytest.raises(sd.RangeViolation):
            sd.check_fractional(F, F, far, tol=1e-3)

    def test_spread_pair_fails_below_one(self, spread_pair):
        F, G, _ = spread_pair
        for c in (0.0, 0.5, 0.99):
            v = sd.check_fractional(F, G, c)
            assert not v.holds
            assert v.witness_t == pytest.approx(3.0, abs=1e-9)
        assert sd.check_fractional(F, G, 1.0).holds

    def test_crossing_pair_threshold(self, crossing_pair):
        F, G = crossing_pair
        assert sd.check_fractional(F, G, 0.5).holds
        v = sd.check_fractional(F, G, 0.499)
        assert not v.holds

    def test_tolerance_band_counts_as_holding(self, crossing_pair):
        F, G = crossing_pair
        v = sd.check_fractional(F, G, 0.5 - 1e-12)
        assert v.holds and v.margin < 0.0


class TestGradedWeight:
    def test_interpolating_ramp_binds(self, spread_pair):
        F, G, g = spread_pair
        v = sd.check_mfsd(F, G, g)
        assert v.holds
        assert v.order_tag is sd.OrderTag.MFSD
        assert abs(v.margin) <= 1e-9
        assert 2.0 < v.witness_t <= 3.0

    def test_carrier_is_validated_on_the_way_in(self, spread_pair):
        F, G, _ = spread_pair
        v = sd.check_mfsd(F, G, sd.PiecewiseFn.constant(1.0))
        assert v.holds
        with pytest.raises(sd.NotMonotone):
            sd.check_mfsd(F, G, sd.PiecewiseFn.step((0.0,), (1.0, 0.5)))

    def test_step_weight_below_the_ramp_fails(self, spread_pair):
        F, G, _ = spread_pair
        g = sd.validate_gamma(sd.PiecewiseFn.step((2.5,), (0.0, 0.9)))
        v = sd.check_mfsd(F, G, g)
        assert not v.holds


class TestReweightedOrder:
    def test_threshold_behavior(self, crossing_pair):
        F, G = crossing_pair
        hold = sd.check_ffsd(F, G, sd.GammaFn.const(0.5))
        assert hold.holds and hold.margin == pytest.approx(0.0, abs=1e-12)
        fail = sd.check_ffsd(F, G, sd.GammaFn.const(0.4))
        assert not fail.holds
        assert fail.witness_t == pytest.approx(0.5, abs=1e-12)
        assert fail.margin == pytest.approx(-0.0625, abs=1e-12)

    def test_zero_weight_before_first_crossing_is_fine(self, crossing_pair):
        F, G = crossing_pair
        # crossing sits at 0; the weight may vanish strictly left of it
        g = sd.validate_gamma(sd.PiecewiseFn.step((-0.5,), (0.0, 0.5)))
        assert sd.check_ffsd(F, G, g).holds

    def test_zero_weight_under_deficit_mass_raises(self, crossing_pair):
        F, G = crossing_pair
        with pytest.raises(DivisionByZeroGamma):
            sd.check_ffsd(F, G, sd.GammaFn.const(0.0))

    def test_implies_graded_order(self):
        rng = random.Random(7)
        for _ in range(25):
            F, G = support.ssd_pair(rng, max_atoms=8)
            g = support.step_gamma(rng, positive=True)
            if sd.check_ffsd(F, G, g).holds:
                assert sd.check_mfsd(F, G, g).holds


class TestSingleInequality:
    def test_margin_identity_on_crossing_pair(self, crossing_pair):
        F, G = crossing_pair
        v = sd.check_easd(F, G, sd.EpsilonFn.const(0.3))
        assert not v.holds
        assert v.witness_t is None
        assert v.margin == pytest.approx(-1.0 / 24.0, abs=1e-12)
        w = sd.check_easd(F, G, sd.EpsilonFn.const(1.0 / 3.0))
        assert w.holds and w.margin == pytest.approx(0.0, abs=1e-12)

    def test_identical_distributions_hold_vacuously(self):
        F = sd.dirac(0.0)
        v = sd.check_easd(F, F, sd.EpsilonFn.const(0.25))
        assert v.holds and v.margin == 0.0

    def test_step_weight_prices_each_deficit_cell(self):
        # deficit cells at [1, 2) and [3, 4); pricing differs per cell
        F = sd.DiscretePMF(((0.0, 0.5), (2.0, 0.25), (4.0, 0.25))).to_distribution()
        G = sd.DiscretePMF(((1.0, 0.75), (3.0, 0.25))).to_distribution()
        e = sd.validate_epsilon(sd.PiecewiseFn.step((2.5,), (0.25, 0.4)))
        v = sd.check_easd(F, G, e)
        # areas: surplus 0.5 on [0,1); deficits 0.25 each on [1,2), [3,4)
        lhs = 0.25 / 0.25 + 0.25 / 0.4
        rhs = 0.5 + 0.5
        assert v.margin == pytest.approx(rhs - lhs, abs=1e-12)
        assert v.holds == (rhs - lhs >= -1e-9)


# -- the settle and the candidate rows -------------------------------------

SLACKS = st.sampled_from([0.0, -0.0, 1.0 / 3.0, -1.0 / 3.0, 0.5, -0.5, 1e-10, -1e-10, 2.0])


def _settle_by_flagged_candidates(rows, limits, tol):
    """The scan over (t, lhs, rhs, attained_at_point) candidates that
    `_settle` replaced: holds, witness and margin."""
    cands = [(t, lhs, rhs, i not in limits) for i, (t, lhs, rhs) in enumerate(rows)]
    margin = min(r - l for _, l, r, _ in cands)
    best_key = best_t = None
    for t, l, r, at_point in cands:
        if (r - l) - margin <= tol:
            key = (abs(l) + abs(r) <= tol, not at_point, t)
            if best_key is None or key < best_key:
                best_key, best_t = key, t
    return margin >= -tol, best_t, margin


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4).map(lambda k: k / 3.0), SLACKS, SLACKS),
                min_size=1, max_size=12),
       st.sets(st.integers(0, 11)), st.sampled_from([0.0, 1e-9, 0.25]))
def test_settle_picks_the_witness_the_flagged_scan_picks(rows, limits, tol):
    # the scans list their candidates in witness order: points, then limits, each left to right
    order = sorted(range(len(rows)), key=lambda i: (i in limits, rows[i][0]))
    rows, limits = [rows[i] for i in order], {k for k, i in enumerate(order) if i in limits}
    v = _settle(OrderTag.SSD, [r - l for _, l, r in rows], rows.__getitem__,
                lambda: tuple(rows), tol)
    assert repr((v.holds, v.witness_t, v.margin)) == repr(
        _settle_by_flagged_candidates(rows, limits, tol))
    assert v.diagnostics == tuple(rows)


@settings(max_examples=60, deadline=None)
@given(cdfs(), cdfs())
def test_ffsd_reads_the_surplus_that_point_evaluation_gives(F, G):
    v = sd.check_ffsd(F, G, STEP)
    Ap = pair_geometry(F, G).Ap
    assert [repr(rhs) for _, _, rhs in v.diagnostics] == [
        repr(Ap.value(t)) for t, _, _ in v.diagnostics]


@settings(max_examples=60, deadline=None)
@given(cdfs(), cdfs(), st.sampled_from([RAMP, STEP, sd.GammaFn.const(1.0 / 3.0)]))
def test_left_limit_rows_are_the_cell_ends(F, G, gamma):
    geom = pair_geometry(F, G)
    slack, row, built = _weighted_slack_candidates(geom.Ap, geom.An, gamma.carrier)
    rows = [row(i) for i in range(len(slack))]
    assert sorted(map(repr, rows)) == sorted(map(repr, built()))
    # candidate 0 is the left limit at the first break; the points follow, left to right; a
    # left limit closes each bounded cell at the break where the next starts, and they come last
    grid = merge_grids(geom.grid, gamma.carrier.breaks)
    points, ends = rows[1:len(rows) - len(grid) + 1], rows[len(rows) - len(grid) + 1:]
    assert rows[0][0] == grid[0] and [t for t, _, _ in ends] == list(grid[1:])
    assert all(a[0] <= b[0] for a, b in zip(points, points[1:]))
    assert set(grid) <= {t for t, _, _ in points}


def test_the_weight_below_the_first_break_keeps_the_sign_of_a_zero_margin():
    # F against itself: every slack is a zero, and the -0.0 weight left of 0
    # makes the left limit at the first break the one -0.0 among them
    F = sd.DiscretePMF(((0.0, 0.5), (2.0, 0.5))).to_distribution()
    v = sd.check_mfsd(F, F, sd.PiecewiseFn.step((0.0,), (-0.0, 0.5)))
    assert repr((v.holds, v.witness_t, v.margin)) == "(True, 0.0, -0.0)"


# -- a pair whose span overflows a float ----------------------------------

SPAN_CALLS = [sd.check_fsd, sd.check_ssd, lambda A, B: sd.check_fractional(A, B, 0.5),
              lambda A, B: sd.check_mfsd(A, B, sd.GammaFn.const(0.5)),
              lambda A, B: sd.check_ffsd(A, B, sd.GammaFn.const(0.5)),
              lambda A, B: sd.check_easd(A, B, sd.EpsilonFn.const(0.25)),
              sd.min_gamma, sd.min_constant_gamma, sd.min_constant_epsilon]


@pytest.mark.parametrize("linear", [False, True], ids=["steps", "linear"])
def test_a_pair_whose_span_overflows_is_refused_by_every_call(linear):
    # 9e307 - (-9e307) is inf: widths and areas past it would be inf or nan
    G = sd.dirac(9e307)
    F = sd.dirac(-9e307) if not linear else sd.Distribution(sd.PiecewiseFn(
        (-9e307, -8e307), 0.0, ((0.0, 1e-307, 0.0), (1.0, 0.0, 0.0))), -8.5e307, -9e307)
    for call in SPAN_CALLS:
        for A, B in ((F, G), (G, F)):
            with pytest.raises(ValueError, match="pair span must be finite, got inf"):
                call(A, B)
