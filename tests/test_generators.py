"""Ready-made instance constructors: shapes, verdicts, preconditions."""

import itertools
import math

import pytest

import sdorder as sd
from sdorder.geometry import pair_geometry
from sdorder.generators import (
    NoValidRational,
    ParameterViolation,
    ThetaVariant,
)
from sdorder.utility import ExclusionKind, check_dpm_gamma, mfsd_exclusion


def _area_ratio(F, G):
    geom = pair_geometry(F, G)
    return geom.deficit / geom.surplus


class TestIdenticalMeans:
    def test_structure(self):
        F, G, g = sd.example_identical_means(2.0, 1.0)
        assert F.carrier.breaks == (1.0, 3.0)
        assert F.carrier.coeffs == ((0.5, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert G.carrier.breaks == (2.0,)
        assert F.mean == G.mean == 2.0
        assert g.carrier.breaks == (2.0, 3.0)
        assert g.carrier.coeffs == ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0))
        assert (g.lower, g.upper) == (0.0, 1.0)
        assert g.value(2.0) == 0.0
        assert g.value(2.5) == 0.5
        assert g.value(3.0) == 1.0

    def test_ramp_slope_scales_with_spread(self):
        F, _, g = sd.example_identical_means(5.0, 0.5)
        assert F.carrier.breaks == (4.5, 5.5)
        assert g.carrier.coeffs[0] == (0.0, 2.0, 0.0)

    def test_ramp_is_binding_and_minimal(self):
        F, G, g = sd.example_identical_means(2.0, 1.0)
        v = sd.check_mfsd(F, G, g)
        assert v.holds
        assert v.margin == pytest.approx(0.0, abs=1e-12)
        # the bundled ramp is exactly the smallest admissible weight
        env = sd.min_gamma(F, G)
        assert env.carrier == g.carrier
        # while any constant below 1 fails at the top of the ramp
        w = sd.check_fractional(F, G, 0.99)
        assert not w.holds and w.witness_t == pytest.approx(3.0)

    @pytest.mark.parametrize("mu,eps", [(1.0, 1.0), (2.0, 0.0),
                                        (0.5, 1.0), (2.0, -1.0)])
    def test_rejects_bad_parameters(self, mu, eps):
        with pytest.raises(ParameterViolation):
            sd.example_identical_means(mu, eps)


class TestLocalInterpolation:
    def test_three_plateau_shape(self):
        g = sd.example_local_interpolation(2.0, 2.5, 0.6)
        assert isinstance(g, sd.GammaFn)
        assert g.carrier.breaks == (2.0, 2.5)
        assert g.carrier.left == 0.0
        assert g.value(1.9) == 0.0
        assert g.value(2.0) == 0.6
        assert g.value(2.4) == 0.6
        assert g.value(2.5) == 1.0

    def test_plateau_against_the_spread_ramp(self):
        F, G, _ = sd.example_identical_means(2.0, 1.0)
        # mid plateau above the ramp until the final jump: dominates it
        assert sd.check_mfsd(F, G, sd.example_local_interpolation(2.0, 2.5, 0.6)).holds
        # too low a plateau held too long falls under the ramp
        low = sd.example_local_interpolation(2.0, 2.9, 0.3)
        v = sd.check_mfsd(F, G, low)
        assert not v.holds
        assert 2.3 < v.witness_t <= 2.9

    @pytest.mark.parametrize("t1,t2,mid", [(2.5, 2.5, 0.5), (3.0, 2.0, 0.5),
                                           (0.0, 1.0, 0.0), (0.0, 1.0, 1.0)])
    def test_rejects_bad_parameters(self, t1, t2, mid):
        with pytest.raises(ParameterViolation):
            sd.example_local_interpolation(t1, t2, mid)


class TestSquares:
    def test_flat_above_target_sits_left_of_t0(self):
        F, G = sd.example_squares(0.5, sd.GammaFn.const(0.75), 1.0)
        assert F.carrier.breaks == pytest.approx((0.0, 2.0 / 15.0))
        assert F.carrier.coeffs[0][0] == pytest.approx(1.0 / 3.0)
        assert G.carrier.breaks == pytest.approx((1.0 / 15.0, 2.0 / 15.0))
        assert G.carrier.coeffs[0][0] == pytest.approx(8.0 / 15.0)
        assert max(G.carrier.breaks) <= 1.0
        assert _area_ratio(F, G) == pytest.approx(0.6, abs=1e-12)
        assert sd.check_mfsd(F, G, sd.GammaFn.const(0.75)).holds
        assert not sd.check_fractional(F, G, 0.5).holds

    def test_flat_below_target_sits_right_of_t0(self):
        F, G = sd.example_squares(0.5, sd.GammaFn.const(0.25), 1.0)
        assert F.carrier.breaks == pytest.approx((1.0, 1.1))
        assert F.carrier.coeffs[0][0] == pytest.approx(0.25)
        assert G.carrier.breaks == pytest.approx((1.05, 1.1))
        assert G.carrier.coeffs[0][0] == pytest.approx(0.35)
        assert min(F.carrier.breaks) >= 1.0
        assert _area_ratio(F, G) == pytest.approx(0.4, abs=1e-12)
        assert not sd.check_mfsd(F, G, sd.GammaFn.const(0.25)).holds
        assert sd.check_fractional(F, G, 0.5).holds

    def test_cell_shrinks_until_jumps_fit(self):
        # target 0 against weight 1 wants ratio 1/3; the raw cell would
        # push the taller jump past full mass, so it gets rescaled
        F, G = sd.example_squares(0.0, sd.GammaFn.const(1.0), 1.0)
        assert F.carrier.breaks == pytest.approx((0.0, 1.0 / 3.0))
        assert G.carrier.coeffs[0][0] == pytest.approx(2.0 / 3.0)
        assert _area_ratio(F, G) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert sd.check_mfsd(F, G, sd.GammaFn.const(1.0)).holds
        assert not sd.check_fractional(F, G, 0.0).holds

    def test_ratio_is_wedged_and_verdicts_flip(self):
        targets = [0.0, 0.125, 0.25, 0.5, 0.75, 0.875]
        levels = [0.125, 0.375, 0.625, 1.0]
        for tgt, v in itertools.product(targets, levels):
            if tgt == v:
                continue
            F, G = sd.example_squares(tgt, sd.GammaFn.const(v), 0.0)
            r = _area_ratio(F, G)
            assert min(tgt, v) < r < max(tgt, v)
            above = v > tgt
            assert sd.check_mfsd(F, G, sd.GammaFn.const(v)).holds == above
            assert sd.check_fractional(F, G, tgt).holds == (not above)

    def test_squares_on_a_step_plateau(self):
        g = sd.example_local_interpolation(0.0, 1.0, 0.5)
        F, G = sd.example_squares(0.75, g, 0.5)
        assert min(F.carrier.breaks) >= 0.5
        assert max(G.carrier.breaks) <= 1.0
        assert 0.5 < _area_ratio(F, G) < 0.75
        assert not sd.check_mfsd(F, G, g).holds

    def test_equal_weight_and_target_has_no_room(self):
        with pytest.raises(NoValidRational):
            sd.example_squares(0.5, sd.GammaFn.const(0.5), 0.0)

    def test_rejects_bad_parameters(self):
        _, _, ramp = sd.example_identical_means(2.0, 1.0)
        with pytest.raises(ParameterViolation):
            sd.example_squares(1.5, sd.GammaFn.const(0.5), 0.0)
        with pytest.raises(ParameterViolation):
            # weight rises through t0: no flat stretch on the left
            sd.example_squares(0.25, ramp, 2.5)
        with pytest.raises(ParameterViolation):
            # and none on the right either
            sd.example_squares(0.9, ramp, 2.5)


class TestStrictInclusion:
    def test_block_geometry(self):
        F, G = sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.25)
        assert F.carrier.breaks == (-0.5, 0.5)
        assert F.carrier.coeffs == ((0.5, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert G.carrier.breaks == (0.0, 0.5)
        assert G.carrier.coeffs[0][0] == pytest.approx(0.75)
        geom = pair_geometry(F, G)
        assert geom.surplus == pytest.approx(0.25)
        assert geom.deficit == pytest.approx(0.125)
        assert sd.first_negative_point(F.carrier.sub(G.carrier)) == 0.0

    def test_weight_is_read_right_continuously_at_the_crossing(self):
        g = sd.validate_gamma(sd.PiecewiseFn.step((0.0,), (0.2, 0.8)))
        F, G = sd.example_strict_inclusion(0.0, g, 0.25)
        assert _area_ratio(F, G) == pytest.approx(0.8, abs=1e-12)
        assert sd.min_constant_gamma(F, G) == pytest.approx(0.8, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterViolation):
            sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.0)
        with pytest.raises(ParameterViolation):
            # sides 0.5 and 0.5: the stacked jump reaches full mass
            sd.example_strict_inclusion(0.0, sd.GammaFn.const(1.0), 0.25)
        with pytest.raises(ParameterViolation):
            sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.49)


class TestThetaFamily:
    def test_mf_sum_structure(self):
        u, g = sd.example_theta_family(3.0, "MF")
        gt = 1.0 - math.exp(-2.0)
        assert u.breaks == (gt, 3.0)
        assert u.slopes == (2.0 * gt, 1.0 + gt, gt)
        assert u.provenance == "combine"
        assert g.carrier.breaks == tuple(1.0 + 0.25 * k for k in range(8))
        assert g.value(0.99) == 0.0
        assert g.value(2.75) == gt
        assert g.upper == gt

    def test_mf_step_rides_above_the_curve(self):
        _, g = sd.example_theta_family(2.0, ThetaVariant.MF, grid=4)
        gt = 1.0 - math.exp(-1.0)
        assert g.carrier.breaks == (1.0, 1.25, 1.5, 1.75)
        assert g.value(1.75) == gt
        # dominates the smooth curve across the discretized span [1, theta]
        for x in (0.5, 1.1, 1.3, 1.6, 1.9, 2.0):
            assert g.value(x) >= 1.0 - math.exp(1.0 - x) - 1e-12
        # beyond theta the step stays capped at the endpoint value
        assert g.value(2.5) == gt

    def test_mf_is_admissible_and_flagged_by_provenance(self):
        u, g = sd.example_theta_family(3.0, "mf")
        assert check_dpm_gamma(u, g).member
        verdict = mfsd_exclusion(u, g)
        assert verdict.kind is ExclusionKind.MEMBER_BY_CONSTRUCTION
        assert "combine" in verdict.reason

    def test_ff_staircase_structure(self):
        u, g = sd.example_theta_family(0.25, "FF", grid=8)
        assert u.breaks == tuple(0.25 + 0.03125 * k for k in range(8)) + (0.5,)
        assert u.slopes == (0.5,) + tuple(0.25 + 0.03125 * k
                                          for k in range(7)) + (0.5, 0.25)
        assert g.carrier.breaks == (0.0, 1.0)
        assert g.carrier.coeffs == ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0))

    def test_ff_member_but_tight_against_rising_weight(self):
        u, g = sd.example_theta_family(0.25, "FF", grid=8)
        assert check_dpm_gamma(u, g).member
        verdict = mfsd_exclusion(u, g)
        assert verdict.kind is ExclusionKind.EXCLUDED_STRICT_INCREASE
        assert len(verdict.points) == 1
        other = mfsd_exclusion(*sd.example_theta_family(0.64, "FF", grid=4))
        assert other.kind is ExclusionKind.EXCLUDED_STRICT_INCREASE

    def test_variant_spelling(self):
        a, _ = sd.example_theta_family(2.0, "mf", grid=4)
        b, _ = sd.example_theta_family(2.0, ThetaVariant.MF, grid=4)
        assert a == b
        with pytest.raises(ValueError):
            sd.example_theta_family(2.0, "xx")

    @pytest.mark.parametrize("theta,variant,grid", [
        (1.0, "MF", 8), (0.5, "MF", 8),
        (0.0, "FF", 8), (1.0, "FF", 8), (1.3, "FF", 8),
        (3.0, "MF", 1), (0.25, "FF", 0),
    ])
    def test_rejects_bad_parameters(self, theta, variant, grid):
        with pytest.raises(ParameterViolation):
            sd.example_theta_family(theta, variant, grid)
