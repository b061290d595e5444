"""End-to-end acceptance gate.

Each numbered test is one acceptance criterion; conftest prints a
one-line PASS/FAIL summary per criterion after the run. Random
instances draw from dyadic grids (see support) so every margin is exact
in binary floating point and no assertion sits on a tolerance edge.
"""

import math
import random

import sdorder as sd
import support
from sdorder.geometry import pair_geometry


def _total_ratio(F, G):
    geom = pair_geometry(F, G)
    return geom.deficit / geom.surplus


def test_criterion_01_two_point_spread_battery():
    F, G, g = sd.example_identical_means(2.0, 1.0)
    v = sd.check_mfsd(F, G, g)
    assert v.holds
    assert abs(v.margin) <= 1e-9
    assert 2.0 < v.witness_t <= 3.0
    for c in (0.0, 0.25, 0.5, 0.9, 0.99):
        w = sd.check_fractional(F, G, c)
        assert not w.holds
        assert abs(w.witness_t - 3.0) <= 1e-9


def test_criterion_02_flat_stretch_squares():
    g = sd.validate_gamma(sd.PiecewiseFn.step((0.25, 2.0), (0.0, 0.75, 1.0)))
    assert g.value(1.0) == 0.75
    F, G = sd.example_squares(0.5, g, 1.0)
    assert sd.check_mfsd(F, G, g).holds
    assert not sd.check_fractional(F, G, 0.5).holds
    assert abs(_total_ratio(F, G) - 0.6) <= 1e-12


def test_criterion_03_strict_inclusion_constants():
    F, G = sd.example_strict_inclusion(0.0, sd.GammaFn.const(0.5), 0.25)
    geom = pair_geometry(F, G)
    assert geom.surplus == 0.25
    assert geom.deficit == 0.125
    assert abs(sd.min_constant_gamma(F, G) - 0.5) <= 1e-12
    assert abs(sd.min_constant_epsilon(F, G) - 1.0 / 3.0) <= 1e-12


def _shrunk(g: sd.GammaFn, factor: float) -> sd.GammaFn:
    car = g.carrier
    coeffs = tuple((c0 * factor, c1 * factor, c2 * factor)
                   for c0, c1, c2 in car.coeffs)
    return sd.validate_gamma(sd.PiecewiseFn(car.breaks, car.left * factor, coeffs))


def test_criterion_04_minimal_gamma_optimality():
    rng = random.Random(404)
    crossing = 0
    broken = 0
    for _ in range(200):
        F, G = support.ssd_pair(rng, max_atoms=12)
        g = sd.min_gamma(F, G)
        assert sd.check_mfsd(F, G, g).margin >= -1e-9
        if pair_geometry(F, G).deficit <= 0.0:
            continue
        # genuine crossing: the envelope is 0 through the first sign
        # change, so scaling the whole carrier only shrinks it beyond
        crossing += 1
        if not sd.check_mfsd(F, G, _shrunk(g, 0.999)).holds:
            broken += 1
    assert crossing > 100
    assert broken >= 0.95 * crossing


def test_criterion_05_graded_order_oracle_agreement():
    rng = random.Random(505)
    for i in range(100):
        if i % 2 == 0:
            F, G = support.ssd_pair(rng)
        else:
            F, G = support.arb_pair(rng)
        g = support.step_gamma(rng)
        cfg = sd.SamplerConfig(t_grid=support.probe_grid(F, G, g),
                               seed=1000 + i, count=500)
        rep = sd.agreement_mfsd(F, G, g, cfg)
        assert rep.agree, rep.summary()
        if not rep.verdict.holds:
            assert rep.min_gap < -1e-12


def test_criterion_06_cutoff_free_order_oracle_agreement():
    rng = random.Random(606)
    for i in range(100):
        if i % 2 == 0:
            F, G = support.ssd_pair(rng)
        else:
            F, G = support.arb_pair(rng)
        g = support.step_gamma(rng, positive=True)
        cfg = sd.SamplerConfig(t_grid=support.probe_grid(F, G, g),
                               seed=3000 + i, count=500)
        rep = sd.agreement_ffsd(F, G, g, cfg)
        assert rep.agree, rep.summary()
        if not rep.verdict.holds:
            assert rep.min_gap < -1e-12


def test_criterion_07_single_inequality_closed_form():
    rng = random.Random(707)
    for _ in range(200):
        F, G = support.arb_pair(rng)
        r = sd.min_constant_epsilon(F, G)
        ratio = r.value if isinstance(r, sd.Infeasible) else r
        while True:
            c = rng.randint(1, 31) / 64.0
            if abs(c - ratio) > 1e-4:
                break
        v = sd.check_easd(F, G, sd.EpsilonFn.const(c))
        assert v.holds == (c >= ratio)
    for i in range(50):
        if i % 2 == 0:
            F, G = support.ssd_pair(rng)
        else:
            F, G = support.arb_pair(rng)
        e = support.step_epsilon(rng)
        cfg = sd.SamplerConfig(t_grid=support.probe_grid(F, G),
                               seed=4000 + i, count=500)
        rep = sd.agreement_easd(F, G, e, cfg)
        assert rep.agree, rep.summary()


def test_criterion_08_greediness_coincidence():
    rng = random.Random(808)
    for _ in range(100):
        g = support.step_gamma(rng, positive=True)
        u = support.weighted_member_utility(rng, g)
        assert sd.check_dpm_gamma(u, g).member
        prof = sd.greediness_profile(u)
        vals = prof.values
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(v >= 1.0 for v in vals)
        for j, b in enumerate(prof.breaks):
            assert sd.partial_greediness(u, b) == vals[j + 1]
        probes = [u.breaks[0] - 1.0, u.breaks[-1] + 1.0,
                  (u.breaks[0] + u.breaks[-1]) / 2.0,
                  u.breaks[0], u.breaks[0] + 0.0625][:5]
        for x in probes:
            po = sd.greediness_oracle(u, x)
            pg = sd.partial_greediness(u, x)
            if math.isinf(pg):
                assert math.isinf(po)
            else:
                assert abs(po - pg) <= 1e-9
            gv = g.value(x)
            bound = math.inf if gv == 0.0 else 1.0 / gv
            assert pg <= bound + 1e-9


def test_criterion_09_exclusion_fixtures():
    u2 = sd.UtilityPWL((-2.0, -1.0, 0.0), (1.0, 2.0, 0.8, 1.0))
    g2 = sd.validate_gamma(sd.PiecewiseFn.step((-1.0,), (0.5, 0.8)))
    ff_u, ff_g = sd.example_theta_family(0.25, "FF", 8)
    rng = random.Random(909)
    for _ in range(10):
        ex2 = sd.mfsd_exclusion(u2, g2)
        assert ex2.kind is sd.ExclusionKind.EXCLUDED_TWO_TOUCHES
        assert ex2.points == (-3.0, -0.5)
        exf = sd.mfsd_exclusion(ff_u, ff_g)
        assert exf.kind is sd.ExclusionKind.EXCLUDED_STRICT_INCREASE
        g = support.step_gamma(rng, positive=True)
        cu = support.concave_utility(rng)
        exc = sd.mfsd_exclusion(cu, g)
        assert exc.kind is sd.ExclusionKind.MEMBER_BY_CONSTRUCTION


def _step_levels(g: sd.GammaFn) -> tuple[tuple[float, ...], tuple[float, ...]]:
    car = g.carrier
    return car.breaks, (car.left,) + tuple(c0 for c0, _, _ in car.coeffs)


def test_criterion_10_stability_operations():
    rng = random.Random(1010)
    for _ in range(100):
        F, G = support.ssd_pair(rng)
        g = sd.min_gamma(F, G)
        assert sd.check_mfsd(F, G, g).holds
        c = rng.choice([0.0, 0.125, 0.5, 1.25, 2.0])
        assert sd.check_mfsd(sd.shift(F, c), sd.shift(G, c), g).holds
    for _ in range(100):
        Fp, Gp = support.ssd_pmf_pair(rng, max_atoms=6)
        F, G = Fp.to_distribution(), Gp.to_distribution()
        g = sd.min_gamma(F, G)
        zx = sorted(rng.sample([k / 8.0 for k in range(0, 17)], 2))
        Z = sd.DiscretePMF(((zx[0], 0.5), (zx[1], 0.5)))
        FZ = sd.convolve(Fp, Z).to_distribution()
        GZ = sd.convolve(Gp, Z).to_distribution()
        assert sd.check_mfsd(FZ, GZ, g).holds
    for _ in range(100):
        F1, G1 = support.ssd_pair(rng, max_atoms=6)
        F2, G2 = support.ssd_pair(rng, max_atoms=6)
        g = support.gamma_max(sd.min_gamma(F1, G1), sd.min_gamma(F2, G2))
        assert sd.check_mfsd(F1, G1, g).holds
        assert sd.check_mfsd(F2, G2, g).holds
        w = rng.randint(1, 15) / 16.0
        FM = sd.mixture([F1, F2], [w, 1.0 - w])
        GM = sd.mixture([G1, G2], [w, 1.0 - w])
        assert sd.check_mfsd(FM, GM, g).holds
    for _ in range(100):
        F, G = support.ssd_pair(rng, max_atoms=8)
        g = support.step_gamma(rng)
        bs, levels = _step_levels(g)
        v = sd.check_mfsd(F, G, g)
        if v.holds:
            # every enlarged weight up the ladder must agree
            for n in (1, 2, 4, 8, 64):
                gn = sd.validate_gamma(sd.PiecewiseFn.step(
                    bs, tuple(min(1.0, lv + 1.0 / n) for lv in levels)))
                assert sd.check_mfsd(F, G, gn).holds
        else:
            # limit closure, contrapositive: a failing limit weight must
            # be witnessed by some finite ladder element failing too
            found = False
            n = 1
            while n <= 2 ** 20:
                gn = sd.validate_gamma(sd.PiecewiseFn.step(
                    bs, tuple(min(1.0, lv + 1.0 / n) for lv in levels)))
                if not sd.check_mfsd(F, G, gn).holds:
                    found = True
                    break
                n *= 2
            assert found


def test_criterion_11_implication_chain():
    rng = random.Random(1111)
    seen = {"first": 0, "cutoff_free": 0, "graded": 0}
    for i in range(500):
        kind = i % 3
        if kind == 0:
            F, G = support.fsd_pair(rng)
        elif kind == 1:
            F, G = support.ssd_pair(rng, max_atoms=8)
        else:
            F, G = support.arb_pair(rng)
        g = support.step_gamma(rng, positive=True)
        first = sd.check_fsd(F, G)
        cutoff_free = sd.check_ffsd(F, G, g)
        graded = sd.check_mfsd(F, G, g)
        second = sd.check_ssd(F, G)
        if first.holds:
            seen["first"] += 1
            assert cutoff_free.holds
        if cutoff_free.holds:
            seen["cutoff_free"] += 1
            assert graded.holds
        if graded.holds:
            seen["graded"] += 1
            assert second.holds
    assert all(n > 0 for n in seen.values())
