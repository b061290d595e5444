import bisect
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdorder as sd
import support
from sdorder.geometry import pair_geometry
from sdorder.utility import _cell_rep


def seeded(seed):
    return random.Random(seed)


@st.composite
def dyadic_utility(draw):
    breaks = sorted(draw(st.lists(st.sampled_from(support.GRID), max_size=5, unique=True)))
    slopes = draw(st.lists(st.floats(0.0, 4.0), min_size=len(breaks) + 1,
                           max_size=len(breaks) + 1))
    anchor = (draw(st.sampled_from(support.GRID)), draw(st.floats(-5.0, 5.0)))
    return sd.UtilityPWL(tuple(breaks), tuple(slopes), anchor=anchor)


@st.composite
def tight_utility(draw):
    """Up to five breaks, at adjacent floats, past 2**53 in magnitude or
    both, with unequal slopes on either side of each."""
    b = draw(st.sampled_from([0.0, 1.0, -2.5, 2.0 ** 53, -1e17, 2.0 ** 62])
             | st.floats(-2.0 ** 62, 2.0 ** 62))
    breaks = []
    for step in draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0 ** 12]), max_size=5)):
        breaks.append(b)
        b = max(b + step, math.nextafter(b, math.inf))  # a step of 0: the next float
    slopes = [draw(st.floats(0.0, 4.0))]
    for _ in breaks:
        slopes.append(draw(st.floats(0.0, 4.0).filter(slopes[-1].__ne__)))
    return sd.UtilityPWL(tuple(breaks), tuple(slopes))


@st.composite
def shiftable_case(draw):
    """(u, v, gamma breaks, gamma levels, c): two utilities and a step
    weight with at most 4 grid steps of 2**e either side of 0, and a
    shift c = +-2**k, k <= 60, that moves every such point exactly: e is
    -3, or k - 48 when that is larger."""
    k = draw(st.sampled_from(range(61)))
    q = 2.0 ** max(-3, k - 48)

    def breaks(n):
        return tuple(j * q for j in sorted(draw(st.sets(st.integers(-4, 4), max_size=n))))

    def utility():
        bs = breaks(4)
        slopes = draw(st.lists(st.sampled_from([0.5, 0.8, 1.0, 2.0]),
                               min_size=len(bs) + 1, max_size=len(bs) + 1))
        return sd.UtilityPWL(bs, tuple(slopes))

    gb = breaks(3)
    levels = sorted(draw(st.lists(st.sampled_from([0.0, 0.5, 0.8, 1.0]),
                                  min_size=len(gb) + 1, max_size=len(gb) + 1)))
    return utility(), utility(), gb, tuple(levels), draw(st.sampled_from([1.0, -1.0])) * 2.0 ** k


def two_touches(k):
    """test_two_touch_exclusion_points as a shiftable_case with shift 2**k."""
    q = 2.0 ** max(-3, k - 48)
    u = sd.UtilityPWL((-2.0 * q, -q, 0.0), (1.0, 2.0, 0.8, 1.0))
    return u, u, (-q,), (0.5, 0.8), 2.0 ** k


def _shifted(u, c):
    return sd.UtilityPWL(tuple(b + c for b in u.breaks), u.slopes)


class TestUtilityPWL:
    def test_validation(self):
        with pytest.raises(ValueError):
            sd.UtilityPWL((0.0,), (1.0,))
        with pytest.raises(ValueError):
            sd.UtilityPWL((1.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            sd.UtilityPWL((0.0,), (1.0, -0.5))

    @pytest.mark.parametrize("breaks", [(0.0, 0.0), (1.0, 0.0), (0.0, math.nan),
                                        (math.nan, 0.0)],
                             ids=["equal", "decreasing", "nan-last", "nan-first"])
    def test_breaks_must_strictly_increase(self, breaks):
        with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
            sd.UtilityPWL(breaks, (1.0,) * (len(breaks) + 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, args", [
        ("slope", lambda v: ((0.0,), (v, 1.0))),
        ("slope", lambda v: ((0.0,), (1.0, v))),
        ("first_break", lambda v: ((v,), (1.0, 1.0))),
        ("anchor_x", lambda v: ((0.0,), (1.0, 1.0), (v, 0.0))),
        ("anchor_value", lambda v: ((0.0,), (1.0, 1.0), (0.0, v))),
    ])
    def test_rejects_non_finite_fields(self, field, args, bad):
        # either end of the breaks gets the breakpoint gate's message
        name = "breakpoint" if field == "first_break" else field
        with pytest.raises(ValueError, match=f"utility {name} must be finite"):
            sd.UtilityPWL(*args(bad))

    @pytest.mark.parametrize("breaks, end", [((-math.inf, 0.0), "first_break"),
                                             ((0.0, math.inf), "last_break")])
    def test_rejects_an_infinite_end_of_increasing_breaks(self, breaks, end):
        with pytest.raises(ValueError, match="utility breakpoint must be finite"):
            sd.UtilityPWL(breaks, (1.0, 1.0, 1.0))

    def test_a_zero_break_is_stored_unsigned(self):
        u = sd.UtilityPWL((-0.0, 1.0), (1.0, 0.5, 0.25))
        assert math.copysign(1.0, u.breaks[0]) == 1.0
        assert u == sd.UtilityPWL((0.0, 1.0), (1.0, 0.5, 0.25))

    def test_value_integrates_slopes_from_anchor(self):
        u = sd.UtilityPWL((0.0, 1.0), (2.0, 1.0, 0.0), anchor=(0.0, 5.0))
        assert u.value(0.0) == 5.0
        assert u.value(-1.0) == 3.0
        assert u.value(0.5) == 5.5
        assert u.value(1.0) == 6.0
        assert u.value(10.0) == 6.0  # flat tail

    def test_increment_is_exact_on_flat_spans(self):
        u = sd.UtilityPWL((0.0,), (1.0, 0.0))
        assert u.increment(5.0, 7.0) == 0.0
        assert u.increment(-2.0, -1.0) == 1.0
        assert u.increment(-1.0, 1.0) == 1.0

    def test_slope_lookups(self):
        u = sd.UtilityPWL((0.0,), (1.0, 2.0))
        assert u.slope_at(0.0) == 2.0
        assert u.slope_at(-1.0) == 1.0

    def test_translate_moves_the_pattern_left(self):
        u = sd.UtilityPWL((1.0,), (1.0, 0.5), anchor=(0.0, 0.0))
        t = sd.translate(u, 2.0)
        for x in (-3.0, -1.0, 0.0, 2.0):
            assert t.value(x) == pytest.approx(u.value(x + 2.0), abs=1e-12)
        with pytest.raises(ValueError):
            sd.translate(u, -1.0)


class TestExpectedUtilityGap:
    def test_matches_direct_atom_sum(self):
        rng = seeded(11)
        for _ in range(30):
            Fp = support.dyadic_pmf(rng)
            Gp = support.dyadic_pmf(rng)
            u = support.concave_utility(rng)
            direct = (sum(m * u.value(x) for x, m in Gp.atoms)
                      - sum(m * u.value(x) for x, m in Fp.atoms))
            got = sd.expected_utility_gap(
                Fp.to_distribution(), Gp.to_distribution(), u)
            assert got == pytest.approx(direct, abs=1e-10)

    @given(st.integers(0, 10 ** 9), dyadic_utility())
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_atom_sum_for_any_slopes(self, seed, u):
        # summed with UtilityPWL.value alone, so it shares no algebra with
        # the integration by parts under test
        rng = seeded(seed)
        Fp, Gp = support.dyadic_pmf(rng), support.dyadic_pmf(rng)
        direct = (sum(p * u.value(x) for x, p in Gp.atoms)
                  - sum(p * u.value(x) for x, p in Fp.atoms))
        scale = max(1.0, *(abs(u.value(x)) for x, _ in Fp.atoms + Gp.atoms))
        got = sd.expected_utility_gap(Fp.to_distribution(), Gp.to_distribution(), u)
        assert abs(got - direct) <= 1e-12 * scale

    def test_combination_is_linear_in_the_utility(self):
        rng = seeded(12)
        F, G = support.arb_pair(rng)
        u1 = support.concave_utility(rng)
        u2 = support.concave_utility(rng)
        mixed = sd.combine([(0.75, u1), (1.5, u2)])
        want = (0.75 * sd.expected_utility_gap(F, G, u1)
                + 1.5 * sd.expected_utility_gap(F, G, u2))
        assert sd.expected_utility_gap(F, G, mixed) == pytest.approx(want, abs=1e-10)


class TestCombine:
    @pytest.mark.parametrize("breaks, slopes", [
        ((1e17,), (2.0, 1.0)),
        ((1.0000000000000002, 1.0000000000000004), (3.0, 2.0, 1.0)),
    ], ids=["past-2**53", "adjacent-floats"])
    def test_slopes_are_read_where_each_segment_starts(self, breaks, slopes):
        # a probe at hi - 1.0 or at the midpoint rounds onto the next segment here
        u = sd.combine([(1.0, sd.UtilityPWL(breaks, slopes))])
        assert (u.breaks, u.slopes) == (breaks, slopes)

    @given(tight_utility())
    @settings(max_examples=200, deadline=None)
    def test_a_single_unit_term_keeps_the_utility(self, u):
        c = sd.combine([(1.0, u)])
        assert (c.breaks, c.slopes) == (u.breaks, u.slopes)

    @given(shiftable_case(), st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([0.0, 0.25, 2.0]))
    @settings(max_examples=300, deadline=None)
    def test_combine_commutes_with_an_exact_shift(self, case, a, b):
        u, v, _, _, c = case
        w = sd.combine([(a, u), (b, v)])
        ws = sd.combine([(a, _shifted(u, c)), (b, _shifted(v, c))])
        assert ws.breaks == tuple(x + c for x in w.breaks) and ws.slopes == w.slopes


class TestBaseConstructors:
    def test_graded_base_matches_pointwise_slack(self):
        # the defining identity: the base utility's expected-utility gap
        # at threshold t equals gamma(t)*surplus(t) - deficit(t)
        rng = seeded(13)
        for _ in range(25):
            F, G = support.ssd_pair(rng, max_atoms=8)
            g = support.step_gamma(rng)
            geom = pair_geometry(F, G)
            Ap, An = geom.Ap, geom.An
            for t in support.probe_grid(F, G, g):
                u = sd.make_base_mf(t, F, G, g)
                assert sd.check_dpm_gamma(u, g).member
                want = g.value(t) * Ap.value(t) - An.value(t)
                got = sd.expected_utility_gap(F, G, u)
                assert got == pytest.approx(want, abs=1e-10)

    def test_cutoff_free_base_matches_margin(self):
        F, G = sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.25)
        g = sd.GammaFn.const(0.4)
        v = sd.check_ffsd(F, G, g)
        u = sd.make_base_ff(v.witness_t, F, G, g)
        gap = sd.expected_utility_gap(F, G, u)
        assert gap == pytest.approx(v.margin, abs=1e-12)

    def test_single_inequality_base_matches_margin(self):
        F, G = sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.25)
        e = sd.EpsilonFn.const(0.3)
        v = sd.check_easd(F, G, e)
        u = sd.make_base_asd(F, G, e)
        gap = sd.expected_utility_gap(F, G, u)
        assert gap == pytest.approx(v.margin, abs=1e-12)

    def test_single_inequality_base_needs_cellwise_constant_weight(self):
        F, G = sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.25)
        ramp = sd.PiecewiseFn((0.2, 0.3), 0.25,
                              ((0.25, 1.0, 0.0), (0.35, 0.0, 0.0)))
        with pytest.raises(sd.NonStepGammaOnNegativeRegion):
            sd.make_base_asd(F, G, sd.validate_epsilon(ramp))

    def test_base_mf_gap_equals_margin_at_witness(self):
        F, G, g = sd.example_identical_means(2.0, 1.0)
        v = sd.check_mfsd(F, G, g)
        u = sd.make_base_mf(v.witness_t, F, G, g)
        assert sd.expected_utility_gap(F, G, u) == pytest.approx(
            v.margin, abs=1e-12)


class TestMembership:
    def test_two_touch_fixture_is_a_member(self):
        u = sd.UtilityPWL((-2.0, -1.0, 0.0), (1.0, 2.0, 0.8, 1.0))
        g = sd.validate_gamma(sd.PiecewiseFn.step((-1.0,), (0.5, 0.8)))
        m = sd.check_dpm_gamma(u, g)
        assert m.member and m.pair is None

    def test_violation_reports_an_ordered_pair(self):
        u = sd.UtilityPWL((0.0,), (0.5, 2.0))
        g = sd.GammaFn.const(0.5)
        m = sd.check_dpm_gamma(u, g)
        assert not m.member
        x, y = m.pair
        assert x <= y
        # the reported pair really violates the weighted slope condition
        assert g.value(y) * u.slope_at(y) > u.slope_at(x) + 1e-9

    def test_constant_weight_membership_shortcut(self):
        u = sd.UtilityPWL((0.0,), (1.0, 1.5))
        assert sd.check_membership_fractional(u, 0.5).member
        assert not sd.check_membership_fractional(u, 0.9).member

    @pytest.mark.parametrize("c", [-0.5, 1.5])
    def test_constant_weight_membership_rejects_a_weight_outside_the_unit_interval(self, c):
        u = sd.UtilityPWL((0.0,), (1.0, 1.5))
        with pytest.raises(sd.RangeViolation):
            sd.check_membership_fractional(u, c)

    def test_single_inequality_membership(self):
        e = sd.EpsilonFn.const(0.25)  # slope ceiling = 3 * min slope
        ok = sd.UtilityPWL((0.0,), (1.0, 3.0))
        assert sd.check_membership_asd(ok, e).member
        bad = sd.UtilityPWL((0.0,), (1.0, 3.2))
        v = sd.check_membership_asd(bad, e)
        assert not v.member and v.pair is not None

    def test_sampled_members_verify(self):
        rng = seeded(14)
        for _ in range(40):
            g = support.step_gamma(rng, positive=True)
            u = support.weighted_member_utility(rng, g)
            assert sd.check_dpm_gamma(u, g).member


class TestGreediness:
    def test_concave_profile_is_flat_one(self):
        u = sd.UtilityPWL((0.0, 1.0), (3.0, 2.0, 1.0))
        prof = sd.greediness_profile(u)
        assert prof.values == (1.0, 1.0, 1.0)
        assert sd.global_greediness(u) == 1.0

    def test_kinked_profile_golden(self):
        u = sd.UtilityPWL((0.0,), (2.0, 3.0))
        prof = sd.greediness_profile(u)
        assert prof.values == (1.5, 1.0)
        assert sd.partial_greediness(u, -5.0) == 1.5
        assert sd.partial_greediness(u, 0.0) == 1.0

    def test_two_touch_profile_golden(self):
        u = sd.UtilityPWL((-2.0, -1.0, 0.0), (1.0, 2.0, 0.8, 1.0))
        prof = sd.greediness_profile(u)
        assert prof.values == (2.0, 1.25, 1.25, 1.0)

    def test_zero_slope_conventions(self):
        flat = sd.UtilityPWL((0.0,), (0.0, 0.0))
        assert sd.global_greediness(flat) == 1.0
        plateau_then_rise = sd.UtilityPWL((0.0,), (0.0, 1.0))
        assert sd.global_greediness(plateau_then_rise) == math.inf
        rise_then_plateau = sd.UtilityPWL((0.0,), (1.0, 0.0))
        assert sd.global_greediness(rise_then_plateau) == 1.0

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_profile_shape_invariants(self, seed):
        rng = seeded(seed)
        g = support.step_gamma(rng, positive=True)
        u = support.weighted_member_utility(rng, g)
        prof = sd.greediness_profile(u)
        assert len(prof.values) == len(u.slopes)
        assert all(v >= 1.0 for v in prof.values)
        assert all(a >= b for a, b in zip(prof.values, prof.values[1:]))


class TestExclusion:
    def test_concave_members_certify(self):
        rng = seeded(15)
        for _ in range(10):
            u = support.concave_utility(rng)
            g = support.step_gamma(rng, positive=True)
            v = sd.mfsd_exclusion(u, g)
            assert v.kind is sd.ExclusionKind.MEMBER_BY_CONSTRUCTION

    def test_combined_witnesses_certify(self):
        F, G, g = sd.example_identical_means(2.0, 1.0)
        u = sd.combine([(1.0, sd.make_base_mf(2.5, F, G, g))])
        v = sd.mfsd_exclusion(u, g)
        assert v.kind is sd.ExclusionKind.MEMBER_BY_CONSTRUCTION

    def test_two_touch_exclusion_points(self):
        u = sd.UtilityPWL((-2.0, -1.0, 0.0), (1.0, 2.0, 0.8, 1.0))
        g = sd.validate_gamma(sd.PiecewiseFn.step((-1.0,), (0.5, 0.8)))
        v = sd.mfsd_exclusion(u, g)
        assert v.kind is sd.ExclusionKind.EXCLUDED_TWO_TOUCHES
        assert v.points == (-3.0, -0.5)

    def test_staircase_family_excluded_by_strict_increase(self):
        u, g = sd.example_theta_family(0.25, "FF", 8)
        v = sd.mfsd_exclusion(u, g)
        assert v.kind is sd.ExclusionKind.EXCLUDED_STRICT_INCREASE
        assert len(v.points) == 1

    def test_non_member_is_inconclusive(self):
        u = sd.UtilityPWL((0.0,), (0.5, 2.0))
        v = sd.mfsd_exclusion(u, sd.GammaFn.const(0.9))
        assert v.kind is sd.ExclusionKind.INCONCLUSIVE
        assert "outside" in v.reason

    @given(shiftable_case())
    @example(two_touches(0))  # random draws seldom touch twice
    @example(two_touches(60))
    @settings(max_examples=300, deadline=None)
    def test_exclusion_commutes_with_an_exact_shift(self, case):
        u, _, gb, levels, c = case
        g = sd.validate_gamma(sd.PiecewiseFn.step(gb, levels))
        gs = sd.validate_gamma(sd.PiecewiseFn.step(tuple(x + c for x in gb), levels))
        e, es = sd.mfsd_exclusion(u, g), sd.mfsd_exclusion(_shifted(u, c), gs)
        assert es.kind is e.kind
        # unshifted, each point lies inside the cell it represents; shifted,
        # the verdict reports the representative of the shifted cell
        grid = tuple(sorted({*u.breaks, *gb}))
        ends = [((-math.inf, *grid)[i], (*grid, math.inf)[i])
                for i in (bisect.bisect_right(grid, p) for p in e.points)]
        assert es.points == tuple(_cell_rep(lo + c, hi + c) for lo, hi in ends)
        assert all(lo + c <= p < hi + c for p, (lo, hi) in zip(es.points, ends))


@pytest.mark.parametrize("lo, hi", [
    (-math.inf, 2.0 ** 54),  # hi - 1 rounds onto hi
    (1.0000000000000002, 1.0000000000000004),  # the midpoint rounds onto hi
    (1e308, 1.5e308),  # the midpoint overflows
    (-1.5e308, -1e308),
])
def test_cell_rep_lies_inside_its_cell(lo, hi):
    assert lo <= _cell_rep(lo, hi) < hi


class TestAraReport:
    def test_rejects_flat_segments(self):
        u = sd.UtilityPWL((0.0,), (1.0, 0.0))
        with pytest.raises(sd.NonPositiveSlope):
            sd.ara_bound_report(u, sd.GammaFn.const(0.5))

    def test_all_rows_pass_exactly_for_members(self):
        u = sd.UtilityPWL((-2.0, -1.0, 0.0), (1.0, 2.0, 0.8, 1.0))
        g = sd.validate_gamma(sd.PiecewiseFn.step((-1.0,), (0.5, 0.8)))
        rows = sd.ara_bound_report(u, g)
        assert rows and all(ok for *_, ok in rows)

    def test_violating_row_shows_up_for_non_members(self):
        u = sd.UtilityPWL((0.0,), (0.5, 2.0))
        rows = sd.ara_bound_report(u, sd.GammaFn.const(0.9))
        assert any(not ok for *_, ok in rows)
