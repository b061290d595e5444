import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdorder as sd
import support
from sdorder.gamma import (
    EpsilonOutOfRange,
    NotMonotone,
    RangeViolation,
)
from sdorder.geometry import pair_geometry


class TestValidateGamma:
    def test_accepts_step_and_ramp(self):
        g = sd.validate_gamma(sd.PiecewiseFn.step((0.0,), (0.25, 0.75)))
        assert (g.lower, g.upper) == (0.25, 0.75)
        ramp = sd.PiecewiseFn((0.0, 1.0), 0.0, ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)))
        r = sd.validate_gamma(ramp)
        assert r.value(0.5) == 0.5 and r.upper == 1.0

    def test_idempotent_on_wrapped_weight(self):
        g = sd.GammaFn.const(0.3)
        assert sd.validate_gamma(g) is g

    def test_rejects_downward_jump(self):
        with pytest.raises(NotMonotone):
            sd.validate_gamma(sd.PiecewiseFn.step((0.0,), (0.5, 0.25)))

    def test_rejects_decreasing_segment(self):
        f = sd.PiecewiseFn((0.0, 1.0), 0.0, ((0.5, -0.25, 0.0), (0.5, 0.0, 0.0)))
        with pytest.raises(NotMonotone):
            sd.validate_gamma(f)

    def test_rejects_range_escapes(self):
        with pytest.raises(RangeViolation):
            sd.validate_gamma(sd.PiecewiseFn.constant(-0.5))
        with pytest.raises(RangeViolation):
            sd.validate_gamma(sd.PiecewiseFn.step((0.0,), (0.0, 1.5)))
        # a last segment that keeps climbing has no finite upper value
        with pytest.raises(RangeViolation):
            sd.validate_gamma(sd.PiecewiseFn((0.0,), 0.0, ((0.0, 0.1, 0.0),)))

    def test_tolerance_slack_is_honored(self):
        g = sd.validate_gamma(sd.PiecewiseFn.constant(1.0 + 1e-10))
        assert g.upper == pytest.approx(1.0, abs=1e-9)


class TestValidateEpsilon:
    def test_accepts_non_monotone_step(self):
        e = sd.validate_epsilon(sd.PiecewiseFn.step((0.0,), (0.4, 0.1)))
        assert e.value(-1.0) == 0.4 and e.value(1.0) == 0.1

    def test_rejects_band_escapes(self):
        with pytest.raises(EpsilonOutOfRange):
            sd.EpsilonFn.const(0.0)
        with pytest.raises(EpsilonOutOfRange):
            sd.EpsilonFn.const(0.5)
        with pytest.raises(EpsilonOutOfRange):
            sd.validate_epsilon(sd.PiecewiseFn.step((0.0,), (0.25, 0.5)))

    def test_one_sided_limits_may_touch_the_band_edge(self):
        # the ramp's left limit at 1 equals 0.5 but 0.5 is never attained
        f = sd.PiecewiseFn((0.0, 1.0), 0.25,
                           ((0.25, 0.25, 0.0), (0.25, 0.0, 0.0)))
        e = sd.validate_epsilon(f)
        assert e.carrier.left_limit(1.0) == 0.5
        assert e.value(1.0) == 0.25


class TestMinGamma:
    def test_two_point_spread_envelope(self):
        F, G, _ = sd.example_identical_means(2.0, 1.0)
        g = sd.min_gamma(F, G)
        assert g.carrier.breaks == (2.0, 3.0)
        assert g.carrier.coeffs == ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0))
        assert g.upper == 1.0

    def test_single_crossing_pair(self):
        F, G = sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.25)
        g = sd.min_gamma(F, G)
        assert g.value(-1.0) == 0.0
        assert g.upper == pytest.approx(0.5, abs=1e-12)
        assert sd.check_mfsd(F, G, g).margin >= -1e-9

    def test_no_crossing_gives_zero(self):
        F = sd.dirac(0.0)
        G = sd.dirac(1.0)
        g = sd.min_gamma(F, G)
        assert g.carrier.breaks == () and g.upper == 0.0

    def test_not_second_order_comparable(self):
        F = sd.DiscretePMF(((-1.0, 0.5), (1.0, 0.5))).to_distribution()
        G = sd.dirac(-0.25)
        with pytest.raises(sd.NotSSDOrdered) as exc:
            sd.min_gamma(F, G)
        assert exc.value.ratio == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_reversed_spread_fails_immediately(self):
        F, G, _ = sd.example_identical_means(2.0, 1.0)
        with pytest.raises(sd.NotSSDOrdered):
            sd.min_gamma(G, F)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_envelope_is_minimal_and_sufficient(self, seed):
        rng = random.Random(seed)
        F, G = support.ssd_pair(rng, max_atoms=8)
        g = sd.min_gamma(F, G)
        assert 0.0 <= g.upper <= 1.0 + 1e-9
        assert sd.check_mfsd(F, G, g).margin >= -1e-9
        # non-decreasing along a probe walk
        pts = sorted(set(g.carrier.breaks) | set(F.carrier.breaks)
                     | set(G.carrier.breaks))
        vals = [g.value(x) for x in pts] + [g.upper]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestConstants:
    def test_constant_gamma_goldens(self):
        F, G, _ = sd.example_identical_means(2.0, 1.0)
        assert sd.min_constant_gamma(F, G) == 1.0
        F2, G2 = sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.25)
        assert sd.min_constant_gamma(F2, G2) == pytest.approx(0.5, abs=1e-12)

    def test_constant_gamma_infeasible_marker(self):
        F = sd.DiscretePMF(((-1.0, 0.5), (1.0, 0.5))).to_distribution()
        G = sd.dirac(-0.25)
        r = sd.min_constant_gamma(F, G)
        assert isinstance(r, sd.Infeasible)
        assert r.value == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_constant_epsilon_goldens(self):
        F, G = sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.25)
        assert sd.min_constant_epsilon(F, G) == pytest.approx(1.0 / 3.0, abs=1e-12)
        F2, G2, _ = sd.example_identical_means(2.0, 1.0)
        r = sd.min_constant_epsilon(F2, G2)
        assert isinstance(r, sd.Infeasible) and r.value == 0.5

    def test_constant_epsilon_degenerate_cases(self):
        F = sd.dirac(0.0)
        assert sd.min_constant_epsilon(F, F) == 0.0
        assert sd.min_constant_epsilon(F, sd.dirac(1.0)) == 0.0

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_constant_epsilon_matches_total_areas(self, seed):
        rng = random.Random(seed)
        F, G = support.arb_pair(rng)
        geom = pair_geometry(F, G)
        dn, up = geom.deficit, geom.surplus
        r = sd.min_constant_epsilon(F, G)
        got = r.value if isinstance(r, sd.Infeasible) else r
        if dn + up > 0.0:
            assert got == pytest.approx(dn / (dn + up), abs=1e-12)
        else:
            assert got == 0.0
