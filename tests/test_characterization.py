"""The minimal weights characterize the deciders.

min_gamma finds its answer with a running-sup envelope of the area ratio
An/Ap; the deciders find theirs with a candidate scan. These are two
algorithms for the same facts: for a non-decreasing gamma, An <= gamma * Ap
holds everywhere exactly when gamma(t) >= sup over s <= t of An(s)/Ap(s)
(Mueller, Scarsini, Tsetlin & Winkler, "Between first- and second-order
stochastic dominance", Management Science 2017). Each property below pins
one consequence on step and linear-piece CDFs.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import sdorder as sd
from sdorder.piecewise import _poly_value

TOL = 1e-9
DENOMS = (8, 3, 5, 7)
RUNS = settings(max_examples=120, deadline=None)


@st.composite
def cdf_carriers(draw, summed=False):
    """The carrier of a step or linear-piece CDF on points k/d with masses
    j/e, for d and e among 8, 3, 5 and 7. Every level is its exact value
    rounded once, so two CDFs that agree exactly also agree in every bit.
    With summed, every level is instead the float sum of the rounded
    masses before it, as a file of jumps gives it, and the last level may
    miss 1 by a rounding."""
    d, e = draw(st.sampled_from(DENOMS)), draw(st.sampled_from(DENOMS))
    n = draw(st.integers(1, min(e, 5)))
    ks = sorted(draw(st.sets(st.integers(-2 * d, 2 * d), min_size=n + 1, max_size=n + 1)))
    xs = [k / d for k in ks]
    cuts = sorted(draw(st.sets(st.integers(1, e - 1), min_size=n - 1, max_size=n - 1)))
    masses = [Fraction(b - a, e) for a, b in zip([0, *cuts], [*cuts, e])]
    linear = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    run, total, coeffs = Fraction(0), 0.0, []
    for x, nxt, m, spread in zip(xs, xs[1:], masses, linear):
        level = total if summed else float(run)
        coeffs.append((level, float(m / (Fraction(nxt) - Fraction(x))), 0.0) if spread
                      else (total + float(m) if summed else float(run + m), 0.0, 0.0))
        run, total = run + m, total + float(m)
    coeffs.append((total if summed else 1.0, 0.0, 0.0))
    if not any(linear):  # a step CDF: the last point carries no mass
        xs, coeffs = xs[:-1], coeffs[:-1]
    return sd.PiecewiseFn(tuple(xs), 0.0, tuple(coeffs))


def cdfs(summed=False):
    return cdf_carriers(summed).map(sd.Distribution.from_cdf)


@st.composite
def gammas(draw):
    """A non-decreasing weight into [0, 1] with levels j/16 and breaks on
    the quarter grid; its bounded cells are flat or, on request, ramps."""
    k = draw(st.integers(1, 3))
    bs = [b / 4 for b in sorted(draw(st.sets(st.integers(-8, 8), min_size=k, max_size=k)))]
    # the left tail, then start and end of each bounded cell, then the last cell
    v = [j / 16 for j in sorted(draw(st.lists(st.integers(0, 16), min_size=2 * k,
                                               max_size=2 * k)))]
    ramps = draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1))
    coeffs = []
    for i, (lo, hi, ramp) in enumerate(zip(bs, bs[1:], ramps)):
        start, end = v[1 + 2 * i], v[2 + 2 * i]
        coeffs.append((start, (end - start) / (hi - lo) if ramp else 0.0, 0.0))
    coeffs.append((v[-1], 0.0, 0.0))
    return sd.GammaFn(sd.PiecewiseFn(tuple(bs), v[0], tuple(coeffs)))


def _min_gamma(F, G):
    """min_gamma(F, G), or None when it raises NotSSDOrdered."""
    try:
        return sd.min_gamma(F, G, TOL)
    except sd.NotSSDOrdered:
        return None


def _near(m: sd.GammaFn) -> tuple[sd.GammaFn, sd.GammaFn]:
    """Two weights that touch m at each of its breaks: every piece of m
    replaced by the line between its ends, and by its starting value.
    The line dips below m inside a cell where m is concave, so only an
    interior point of the slack tells the verdict; the steps stay below m
    where it rises, so only a left limit does."""
    cells = list(m.carrier.cells())
    chord = [(c[0], (_poly_value(c, h) - c[0]) / h if h < math.inf else 0.0, 0.0)
             for _, h, c in cells]
    steps = [(c[0], 0.0, 0.0) for _, _, c in cells]
    return tuple(sd.GammaFn(sd.PiecewiseFn(m.carrier.breaks, m.carrier.left, tuple(cs)))
                 for cs in (chord, steps))


def _clears(g: sd.GammaFn, m: sd.GammaFn) -> bool:
    """g - m >= -TOL everywhere. On every cell of the merged grid both are
    polynomials, so the low points are each break's value and left limit,
    and a vertex where the difference curves upward."""
    diff = g.carrier.sub(m.carrier)
    lows = [diff.left]
    for b, h, c in diff.cells():
        lows += (diff.value(b), diff.left_limit(b))
        if c[2] > 0.0 and 0.0 < -c[1] / (2.0 * c[2]) < h:
            lows.append(_poly_value(c, -c[1] / (2.0 * c[2])))
    return min(lows) >= -TOL


@given(cdfs(), cdfs())
@RUNS
def test_ssd_holds_exactly_when_min_gamma_exists(F, G):
    assert sd.check_ssd(F, G, TOL).holds == (_min_gamma(F, G) is not None)


@given(cdfs(summed=True), cdfs(summed=True))
@RUNS
def test_ssd_holds_exactly_when_min_gamma_exists_on_summed_levels(F, G):
    """A last level that misses 1 by a rounding is stored as 1, so F - G
    has no area past the last break and the two answers still agree."""
    assert sd.check_ssd(F, G, TOL).holds == (_min_gamma(F, G) is not None)
    assert F.carrier.coeffs[-1][0] == G.carrier.coeffs[-1][0] == 1.0


@given(cdfs(), cdfs())
@RUNS
def test_fsd_holds_exactly_when_min_gamma_stays_at_zero(F, G):
    m = _min_gamma(F, G)
    assert sd.check_fsd(F, G, TOL).holds == (m is not None and m.upper <= TOL)


@given(cdfs(), cdfs(), st.integers(0, 16))
@RUNS
def test_frac_holds_exactly_from_min_constant_gamma_on(F, G, j):
    floor = sd.min_constant_gamma(F, G, TOL)
    feasible = not isinstance(floor, sd.Infeasible)
    for c in [j / 16, floor] if feasible else [j / 16]:
        assert sd.check_fractional(F, G, c, TOL).holds == (feasible and c >= floor - TOL)


@given(cdfs(), cdfs(), st.integers(1, 7))
@RUNS
def test_easd_holds_exactly_from_min_constant_epsilon_on(F, G, j):
    floor = sd.min_constant_epsilon(F, G)
    feasible = not isinstance(floor, sd.Infeasible)
    for e in [j / 16, floor] if feasible and floor > 0.0 else [j / 16]:
        holds = sd.check_easd(F, G, sd.EpsilonFn.const(e), TOL).holds
        assert holds == (feasible and e >= floor - TOL)


@given(cdfs(), cdfs(), gammas())
@RUNS
def test_mfsd_holds_exactly_when_gamma_clears_min_gamma(F, G, g):
    m = _min_gamma(F, G)
    if m is None:  # the graded order implies the second
        assert not sd.check_mfsd(F, G, g, TOL).holds
        return
    for w in (g, m, *_near(m)):
        assert sd.check_mfsd(F, G, w, TOL).holds == _clears(w, m)


@given(cdfs(), cdfs())
@RUNS
def test_ffsd_under_weight_one_is_ssd(F, G):
    one = sd.GammaFn.const(1.0)
    assert sd.check_ffsd(F, G, one, TOL).holds == sd.check_ssd(F, G, TOL).holds


# the benchmark's FFSD step weight: 1/2, then 3/4 from -1/2, then 1 from 1/2
BENCH_STEP = sd.GammaFn(sd.PiecewiseFn.step((-0.5, 0.5), (0.5, 0.75, 1.0)))
MIXED_ORDERS = {
    "fsd": sd.check_fsd,
    "ssd": sd.check_ssd,
    "frac": lambda F, G, tol: sd.check_fractional(F, G, 0.5, tol),
    "ffsd": lambda F, G, tol: sd.check_ffsd(F, G, BENCH_STEP, tol),
    "easd": lambda F, G, tol: sd.check_easd(F, G, sd.EpsilonFn.const(0.25), tol),
}


@given(cdfs(), cdfs(), cdfs(), st.sampled_from([0.25, 1 / 3, 0.5, 0.75]))
@RUNS
def test_mixing_in_a_common_distribution_keeps_every_clear_verdict(F, G, H, a):
    """a F + (1 - a) H against a G + (1 - a) H scales both sides of every
    inequality by a, so a verdict away from its tie cannot move."""
    mixed = [sd.mixture([D, H], [a, 1 - a]) for D in (F, G)]
    for name, check in MIXED_ORDERS.items():
        v = check(F, G, TOL)
        if abs(v.margin) > 1e-6:
            assert check(*mixed, TOL).holds == v.holds, name


def test_the_cdf_strategy_draws_every_kind_of_pair():
    """The draws above reach both verdicts and both CDF shapes."""
    seen = set()

    @given(cdfs(), cdfs())
    @settings(max_examples=200, deadline=None)
    def probe(F, G):
        seen.add((sd.check_ssd(F, G).holds, F.carrier.degree(), G.carrier.degree()))

    probe()
    assert {holds for holds, _, _ in seen} == {True, False}
    assert {deg for _, deg, _ in seen} == {0, 1}


def test_summed_levels_sometimes_miss_one():
    """Some summed draws end at 1 and some miss it, before from_cdf."""
    seen = set()

    @given(cdf_carriers(summed=True))
    @settings(max_examples=300, deadline=None)
    def probe(f):
        seen.add(f.coeffs[-1][0] == 1.0)

    probe()
    assert seen == {True, False}
