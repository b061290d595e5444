import math
import random

import pytest

import sdorder as sd
import support


@pytest.fixture(scope="module")
def spread():
    F, G, g = sd.example_identical_means(2.0, 1.0)
    return F, G, g


def _cfg(F, G, g=None, **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("count", 60)
    return sd.SamplerConfig(t_grid=support.probe_grid(F, G, g), **kw)


class TestSharedGeometry:
    @pytest.mark.parametrize("count", [8, 64])
    def test_one_difference_per_agreement_call(self, spread, monkeypatch, count):
        F, G, g = spread
        calls = []
        sub = sd.PiecewiseFn.sub

        def counted(self, other):
            calls.append(1)
            return sub(self, other)

        monkeypatch.setattr(sd.PiecewiseFn, "sub", counted)
        cfg = _cfg(F, G, g, count=count)
        step = sd.validate_gamma(sd.PiecewiseFn.step((2.5,), (0.5, 1.0)))
        runs = (lambda: sd.agreement_mfsd(F, G, sd.GammaFn.const(0.25), cfg),
                lambda: sd.agreement_ffsd(F, G, step, cfg),
                lambda: sd.agreement_easd(F, G, sd.EpsilonFn.const(0.25), cfg))
        for run in runs:
            calls.clear()
            rep = run()
            # failing verdicts, so the witness step runs too
            assert not rep.verdict.holds and rep.count == count + 1
            assert len(calls) <= 1


class TestSamplerConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            sd.SamplerConfig(t_grid=(), count=10)
        with pytest.raises(ValueError):
            sd.SamplerConfig(t_grid=(0.0,), count=0)
        with pytest.raises(ValueError):
            sd.SamplerConfig(t_grid=(0.0,), slope_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            sd.SamplerConfig(t_grid=(0.0,), slope_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            sd.SamplerConfig(t_grid=(0.0,), max_terms=0)


class TestGradedSampler:
    def test_first_sample_is_the_leftmost_base_type(self, spread):
        F, G, g = spread
        cfg = _cfg(F, G, g)
        us = sd.sample_mf_utilities(F, G, g, cfg)
        assert len(us) == cfg.count
        assert us[0].provenance == "base_mf"
        assert us[0].anchor[0] == cfg.t_grid[0]

    def test_every_sample_is_admissible(self, spread):
        F, G, g = spread
        us = sd.sample_mf_utilities(F, G, g, _cfg(F, G, g))
        for u in us:
            assert sd.check_dpm_gamma(u, g).member

    def test_sampling_is_deterministic_per_seed(self, spread):
        F, G, g = spread
        a = sd.sample_mf_utilities(F, G, g, _cfg(F, G, g, seed=3))
        b = sd.sample_mf_utilities(F, G, g, _cfg(F, G, g, seed=3))
        c = sd.sample_mf_utilities(F, G, g, _cfg(F, G, g, seed=4))
        ga = [sd.expected_utility_gap(F, G, u) for u in a]
        gb = [sd.expected_utility_gap(F, G, u) for u in b]
        gc = [sd.expected_utility_gap(F, G, u) for u in c]
        assert ga == gb
        assert ga != gc

    def test_admissibility_holds_for_random_weights(self):
        rng = random.Random(21)
        for _ in range(10):
            F, G = support.arb_pair(rng)
            g = support.step_gamma(rng)
            us = sd.sample_mf_utilities(F, G, g, _cfg(F, G, g, count=30))
            for u in us:
                assert sd.check_dpm_gamma(u, g).member


class TestCutoffFreeSampler:
    def test_sound_on_holding_instances(self):
        F, G = sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.25)
        g = sd.GammaFn.const(0.5)
        assert sd.check_ffsd(F, G, g).holds
        cfg = _cfg(F, G, g, count=80)
        for u in sd.sample_ff_utilities(g, cfg):
            assert sd.expected_utility_gap(F, G, u) >= -1e-9


class TestAgreement:
    def test_graded_holding_instance(self, spread):
        F, G, g = spread
        rep = sd.agreement_mfsd(F, G, g, _cfg(F, G, g, count=200))
        assert rep.verdict.holds and rep.agree
        assert rep.min_gap >= -1e-9
        assert rep.violating is None
        assert "no counterexample" in rep.summary()

    def test_graded_failing_instance_produces_witness(self, spread):
        F, G, _ = spread
        g = sd.GammaFn.const(0.9)
        rep = sd.agreement_mfsd(F, G, g, _cfg(F, G, g, count=100))
        assert not rep.verdict.holds and rep.agree
        # the constructed witness alone guarantees the margin's depth;
        # sampled members are free to dip further (the class is a cone)
        assert rep.min_gap <= -0.05 + 1e-9
        assert rep.violating is not None
        assert rep.count >= 100
        assert "violating utility" in rep.summary()
        # the reported witness really achieves the reported gap
        assert sd.expected_utility_gap(F, G, rep.violating) == pytest.approx(
            rep.min_gap, abs=1e-12)

    def test_left_limit_binding_needs_the_descent(self, spread):
        # margin is approached only from the left of 3 because the
        # weight jumps to 1 exactly at 3; the witness must step inside
        F, G, _ = spread
        g = sd.validate_gamma(sd.PiecewiseFn.step((3.0,), (0.9, 1.0)))
        v = sd.check_mfsd(F, G, g)
        assert not v.holds
        rep = sd.agreement_mfsd(F, G, g, _cfg(F, G, g, count=50))
        assert rep.agree
        assert rep.min_gap < -0.04

    def test_cutoff_free_both_sides(self):
        F, G = sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.25)
        hold = sd.agreement_ffsd(F, G, sd.GammaFn.const(0.5),
                                 _cfg(F, G, count=100))
        assert hold.verdict.holds and hold.agree
        fail = sd.agreement_ffsd(F, G, sd.GammaFn.const(0.4),
                                 _cfg(F, G, count=100))
        assert not fail.verdict.holds and fail.agree
        assert fail.min_gap == pytest.approx(-0.0625, abs=1e-9)

    def test_single_inequality_both_sides(self):
        F, G = sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.25)
        fail = sd.agreement_easd(F, G, sd.EpsilonFn.const(0.3),
                                 _cfg(F, G, count=100))
        assert not fail.verdict.holds and fail.agree
        assert fail.min_gap == pytest.approx(-1.0 / 24.0, abs=1e-12)
        hold = sd.agreement_easd(F, G, sd.EpsilonFn.const(1.0 / 3.0),
                                 _cfg(F, G, count=100))
        assert hold.verdict.holds and hold.agree


class TestGreedinessOracle:
    def test_grid_size_floor(self):
        u = sd.UtilityPWL((0.0,), (2.0, 3.0))
        with pytest.raises(ValueError):
            sd.greediness_oracle(u, -1.0, grid_size=3)

    def test_goldens(self):
        lin = sd.UtilityPWL((), (1.0,))
        assert sd.greediness_oracle(lin, 0.0) == 1.0
        kink = sd.UtilityPWL((0.0,), (2.0, 3.0))
        assert sd.greediness_oracle(kink, -1.0) == 1.5
        two = sd.UtilityPWL((-2.0, -1.0, 0.0), (1.0, 2.0, 0.8, 1.0))
        assert sd.greediness_oracle(two, -5.0) == 2.0

    def test_breakpoint_coverage_makes_small_grids_exact(self):
        u = sd.UtilityPWL((0.0, 4.0), (1.0, 0.5, 0.75))
        for gs in (4, 11, 50):
            assert sd.greediness_oracle(u, -1.0, grid_size=gs) == pytest.approx(
                sd.partial_greediness(u, -1.0), abs=1e-12)

    def test_matches_profile_on_random_members(self):
        rng = random.Random(22)
        for _ in range(30):
            g = support.step_gamma(rng, positive=True)
            u = support.weighted_member_utility(rng, g)
            x = rng.choice([u.breaks[0] - 0.5, u.breaks[0],
                            (u.breaks[0] + u.breaks[-1]) / 2.0])
            assert sd.greediness_oracle(u, x) == pytest.approx(
                sd.partial_greediness(u, x), abs=1e-9)
