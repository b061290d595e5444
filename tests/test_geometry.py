"""The pair-geometry cache: successive calls on the same F and G objects,
in either order, share one geometry; matches are by identity; the
geometry lives only while both objects do. A step pair's geometry, built
in one merge, and check_fsd on it give the bits of the passes they
replace (ports in support.py)."""

import gc
import importlib.util
import random
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdorder as sd
import sdorder.geometry as geometry
import support
from sdorder.geometry import pair_geometry

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(autouse=True)
def _empty_cache():
    """Each test starts without a cached pair."""
    geometry._last = None
    yield
    geometry._last = None


def _copy(F: sd.Distribution) -> sd.Distribution:
    """Equal to F, but a distinct object."""
    return sd.Distribution(F.carrier, F.mean, F.left_support)


def _spread_pair():
    return (sd.DiscretePMF(((-1.0, 0.25), (0.5, 0.5), (2.0, 0.25))).to_distribution(),
            sd.DiscretePMF(((0.0, 0.5), (1.0, 0.5))).to_distribution())


def test_same_pair_shares_one_geometry():
    F, G = _spread_pair()
    geom = pair_geometry(F, G)
    assert pair_geometry(F, G) is geom
    assert pair_geometry(F, G).Ap is geom.Ap


def test_reverse_swaps_parts_and_built_areas():
    F, G = _spread_pair()
    fwd = pair_geometry(F, G)
    Ap, An = fwd.Ap, fwd.An
    rev = pair_geometry(G, F)
    assert (rev.pos, rev.neg, rev.Ap, rev.An) == (fwd.neg, fwd.pos, An, Ap)
    assert rev.Ap is An and rev.An is Ap
    assert repr(rev.diff) == repr(G.carrier.sub(F.carrier))
    assert pair_geometry(G, F) is rev


def test_equal_but_distinct_distributions_get_a_fresh_build():
    F, G = _spread_pair()
    geom = pair_geometry(F, G)
    F2, G2 = _copy(F), _copy(G)
    assert pair_geometry(F2, G) is not geom
    assert pair_geometry(F, G2) is not geom
    assert pair_geometry(G2, F2) is not geom


def test_geometry_dies_with_either_distribution():
    for drop in (0, 1):
        pair = list(_spread_pair())
        ref = weakref.ref(pair_geometry(*pair))
        survivor = pair[1 - drop]  # only the other one dies
        del pair
        gc.collect()
        assert ref() is None
        assert survivor.carrier.breaks


def test_cache_keeps_no_distribution_alive():
    F, G = _spread_pair()
    pair_geometry(F, G)
    ref = weakref.ref(F)
    del F
    gc.collect()
    assert ref() is None
    assert geometry._last is None


def test_freed_and_rebuilt_pairs_never_get_a_stale_geometry():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        F = sd.from_samples([rng.randint(-8, 8) / 3.0 for _ in range(n)])
        G = sd.from_samples([rng.randint(-8, 8) / 5.0 for _ in range(n)])
        for a, b in ((F, G), (G, F)):
            assert repr(pair_geometry(a, b).diff) == repr(a.carrier.sub(b.carrier))
        del F, G


def _count_builds(monkeypatch) -> list:
    """Record every pair geometry built from scratch: a step pair's one
    merge, or the split of any other pair's difference."""
    calls = []
    for name in ("_step_geometry", "signed_parts"):
        build = getattr(geometry, name)
        monkeypatch.setattr(geometry, name,
                            lambda *args, build=build: calls.append(args) or build(*args))
    return calls


def test_zeros_of_opposite_sign_share_one_split(monkeypatch):
    # carriers store zero breaks unsigned, so -0.0 and 0.0 samples give one grid
    F = sd.from_samples([-0.0, 1.0])
    G = sd.from_samples([0.0, 2.0])
    calls = _count_builds(monkeypatch)
    pair_geometry(F, G)
    rev = pair_geometry(G, F)
    assert len(calls) == 1
    assert repr(rev.grid) == repr(pair_geometry(_copy(G), _copy(F)).grid)
    assert repr(sd.check_ssd(G, F)) == repr(sd.check_ssd(_copy(G), _copy(F)))


# -- every public result is the same through the cache as on fresh copies --

DENOMS = (3, 5, 7)


@st.composite
def cdfs(draw):
    """A step or linear-piece CDF with masses k/3, k/5 or k/7, on points
    k/3 that may include a negative zero."""
    d = draw(st.sampled_from(DENOMS))
    n = draw(st.integers(1, d))
    xs = sorted(draw(st.sets(st.integers(-9, 9), min_size=n + 1, max_size=n + 1)))
    xs = [k / 3.0 for k in xs]
    if 0.0 in xs and draw(st.booleans()):
        xs[xs.index(0.0)] = -0.0
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), min_size=n - 1, max_size=n - 1)))
    masses = [Fraction(b - a, d) for a, b in zip([0, *cuts], [*cuts, d])]
    linear = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if not any(linear):
        return sd.DiscretePMF(tuple(zip(xs, map(float, masses)))).to_distribution()
    coeffs, run = [], Fraction(0)
    for (x, nxt), m, spread in zip(zip(xs, xs[1:]), masses, linear):
        if spread:
            coeffs.append((float(run), float(m) / (nxt - x), 0.0))
        else:
            coeffs.append((float(run + m), 0.0, 0.0))
        run += m
    coeffs.append((1.0, 0.0, 0.0))
    return sd.Distribution.from_cdf(sd.PiecewiseFn(tuple(xs), 0.0, tuple(coeffs)))


@st.composite
def steps(draw):
    """A step CDF with masses k/3, k/5 or k/7 on points k/3 that may include
    a negative zero, and may have a first level of 0. Either the zero
    slopes of its pieces carry either sign, or the level 0 may be -0.0."""
    d = draw(st.sampled_from(DENOMS))
    n = draw(st.integers(1, d))
    xs = [k / 3.0 for k in sorted(draw(st.sets(st.integers(-9, 9), min_size=n, max_size=n)))]
    if 0.0 in xs and draw(st.booleans()):
        xs[xs.index(0.0)] = -0.0
    cuts = sorted(draw(st.sets(st.integers(0, d - 1), min_size=n - 1, max_size=n - 1)))
    signed = draw(st.booleans())
    zero = st.sampled_from((0.0, -0.0)) if signed else st.just(0.0)
    level = st.just(0.0) if signed else st.sampled_from((0.0, -0.0))
    coeffs = tuple((float(Fraction(c, d)) if c else draw(level), draw(zero), draw(zero))
                   for c in [*cuts, d])
    return sd.Distribution.from_cdf(sd.PiecewiseFn(tuple(xs), 0.0, coeffs))


GEOMETRY_VIEWS = ("diff", "pos", "neg", "Ap", "An", "neg_runs", "C")


@settings(max_examples=300, deadline=None)
@given(st.one_of(steps(), steps(), cdfs()), st.one_of(steps(), steps(), cdfs()))
def test_geometry_matches_the_three_passes(F, G):
    # one merge for a step pair, sub + signed_parts + cum_area_fn otherwise;
    # built afresh in each direction; test_reverse_through_the_cache_matches_fresh_copies
    # judges a (G, F) derived from the (F, G) entry
    for A, B in ((F, G), (G, F)):
        geometry._last = None
        geom, port = pair_geometry(A, B), support.three_pass_geometry(A, B)
        for view in GEOMETRY_VIEWS:
            assert repr(getattr(geom, view)) == repr(getattr(port, view)), view
        for view in GEOMETRY_VIEWS[:5]:
            assert getattr(geom, view).degree() == getattr(port, view).degree(), view


@settings(max_examples=300, deadline=None)
@given(st.one_of(steps(), steps(), cdfs()), st.one_of(steps(), steps(), cdfs()),
       st.sampled_from((1e-9, 0.0, 0.25)))
def test_check_fsd_matches_the_merge_walk(F, G, tol):
    for A, B in ((F, G), (G, F)):
        expect = repr(support.merge_walk_fsd(A, B, tol))
        geometry._last = None
        assert repr(sd.check_fsd(A, B, tol)) == expect  # fresh, and on the cached geometry
        assert repr(sd.check_fsd(A, B, tol)) == expect


STEP = sd.validate_gamma(sd.PiecewiseFn.step((-1.0 / 3.0, 2.0 / 3.0), (2 / 7, 3 / 5, 1.0)))
RAMP = sd.validate_gamma(sd.PiecewiseFn((0.0, 5.0 / 3.0), 1.0 / 7.0,
                                        ((1.0 / 7.0, 3.0 / 7.0, 0.0), (6.0 / 7.0, 0.0, 0.0))))
EPS = sd.EpsilonFn.const(2.0 / 7.0)


def _public_results(F, G) -> list[str]:
    """repr of every public (F, G) result, an exception counting as one."""
    merged = sorted({*F.carrier.breaks, *G.carrier.breaks})
    ts = [merged[0] - 1.0, *merged[::2], merged[-1] + 1.0]
    calls = [lambda: sd.check_fsd(F, G), lambda: sd.check_ssd(F, G),
             lambda: sd.check_fractional(F, G, 1.0 / 3.0),
             lambda: sd.check_mfsd(F, G, RAMP), lambda: sd.check_mfsd(F, G, STEP),
             lambda: sd.check_ffsd(F, G, STEP), lambda: sd.check_ffsd(F, G, RAMP),
             lambda: sd.check_easd(F, G, EPS), lambda: sd.min_gamma(F, G),
             lambda: sd.min_constant_gamma(F, G), lambda: sd.min_constant_epsilon(F, G),
             lambda: sd.make_base_asd(F, G, EPS)]
    for t in ts:
        calls += [lambda t=t: sd.make_base_mf(t, F, G, RAMP),
                  lambda t=t: sd.make_base_ff(t, F, G, STEP),
                  lambda t=t: sd.expected_utility_gap(F, G, sd.make_base_mf(t, F, G, STEP))]
    out = []
    for call in calls:
        try:
            out.append(repr(call()))
        except (ValueError, ZeroDivisionError) as e:
            out.append(f"{type(e).__name__}: {e}")
    return out


@settings(max_examples=80, deadline=None)
@given(cdfs(), cdfs())
def test_reverse_through_the_cache_matches_fresh_copies(F, G):
    forward = _public_results(F, G)
    reverse = _public_results(G, F)        # derived from the (F, G) entry
    assert reverse == _public_results(_copy(G), _copy(F))
    assert _public_results(F, G) == forward  # derived back from (G, F)


# -- the bench's decide suite builds each pair's geometry once -------------


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("sdorder_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_decide_suite_splits_the_pair_once(monkeypatch):
    wl = _bench_workloads()
    f, g = wl.spread_pair(random.Random(3), 64)
    F, G = sd.from_samples(f), sd.from_samples(g)
    calls = _count_builds(monkeypatch)
    suite = wl.Decide(sd, wl.make_weights(sd), wl.EXPECT).suite
    fg, gf = suite(F, G), suite(G, F)
    assert len(fg) == len(gf) == 8
    assert wl.suite_problems(fg, wl.EXPECT["FG"]) == []
    assert wl.suite_problems(gf, wl.EXPECT["GF"]) == []
    assert len(calls) == 1

