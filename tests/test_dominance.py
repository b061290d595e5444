import math
import random

import pytest

import sdorder as sd
import support
from sdorder.dominance import GammaOutOfRange
from sdorder.piecewise import DivisionByZeroGamma


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
        with pytest.raises(GammaOutOfRange):
            sd.check_fractional(F, G, 1.5)
        with pytest.raises(GammaOutOfRange):
            sd.check_fractional(F, G, -0.1)

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
