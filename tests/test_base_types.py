"""Base-type utilities built from the pair's sign runs.

make_base_mf, make_base_ff and make_base_asd read the table of sign runs
that the pair geometry keeps, not its cells. The properties below pin
them against a port of the cell-by-cell constructors they replaced:
the same utility, compared by `==` and by `repr`, or the same exception
type and message.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import sdorder as sd
from sdorder.geometry import PairGeometry, pair_geometry
from sdorder.piecewise import DivisionByZeroGamma, common_grid, signed_parts
from sdorder.utility import NonStepGammaOnNegativeRegion, _compress
from test_geometry import _copy, cdfs

# -- the cell-by-cell constructors the sign runs replaced ------------------


def _cells_make_base_mf(t, F, G, g):
    gt = sd.validate_gamma(g).value(t)
    geom = pair_geometry(F, G)
    breaks, slopes = [], [gt]
    for b, c in zip(geom.grid, geom.neg.coeffs):
        if b >= t:
            break
        breaks.append(b)
        slopes.append(1.0 if any(c) else gt)
    cb, cs = _compress(breaks + [t], slopes + [0.0])
    return sd.UtilityPWL(cb, cs, anchor=(t, 0.0), provenance="base_mf")


def _cells_reweighted_slopes(F, G, w, t, name, slope):
    grid, (ng, wm) = common_grid(pair_geometry(F, G).neg, w)
    breaks, slopes = [], [1.0]
    for b, neg, (w0, w1, w2) in zip(grid, ng, wm):
        if b >= t:
            break
        s = 1.0
        if any(neg):
            if w1 != 0.0 or w2 != 0.0:
                raise NonStepGammaOnNegativeRegion(
                    f"{name} varies on a cell where the difference is negative")
            if w0 <= 0.0:
                raise DivisionByZeroGamma(f"{name} vanishes on a negative cell")
            s = slope(w0)
        breaks.append(b)
        slopes.append(s)
    return breaks, slopes


def _cells_make_base_ff(t, F, G, g):
    gf = sd.validate_gamma(g)
    breaks, slopes = _cells_reweighted_slopes(F, G, gf.carrier, t, "gamma", lambda g0: 1.0 / g0)
    cb, cs = _compress(breaks + [t], slopes + [0.0])
    return sd.UtilityPWL(cb, cs, anchor=(t, 0.0), provenance="base_ff")


def _cells_make_base_asd(F, G, e):
    ef = sd.validate_epsilon(e)
    breaks, slopes = _cells_reweighted_slopes(F, G, ef.carrier, math.inf, "epsilon",
                                              lambda e0: (1.0 - e0) / e0)
    cb, cs = _compress(breaks, slopes)
    return sd.UtilityPWL(cb, cs, anchor=(0.0, 0.0), provenance="base_asd")


# -- weights and thresholds ------------------------------------------------

LEVELS = (0.0, 0.25, 0.3, 0.5, 1.0)


@st.composite
def weights(draw):
    """A constant 0, 1 or 0.3, a non-decreasing step or a ramp, with
    breaks on the sixths, so on, between and off the cdfs() points."""
    kind = draw(st.sampled_from(("const", "step", "ramp")))
    if kind == "const":
        return sd.PiecewiseFn.constant(draw(st.sampled_from((0.0, 1.0, 0.3))))
    xs = sorted(draw(st.sets(st.integers(-20, 20), min_size=1, max_size=3)))
    xs = tuple(k / 6.0 for k in xs)
    if kind == "step":
        levels = sorted(draw(st.lists(st.sampled_from(LEVELS),
                                      min_size=len(xs) + 1, max_size=len(xs) + 1)))
        return sd.PiecewiseFn.step(xs, tuple(levels))
    lo, hi = sorted(draw(st.lists(st.sampled_from(LEVELS), min_size=2, max_size=2,
                                  unique=True)))
    end = xs[0] + draw(st.sampled_from((1.0 / 6.0, 0.5, 2.0)))
    return sd.PiecewiseFn((xs[0], end), lo, ((lo, (hi - lo) / (end - xs[0]), 0.0),
                                             (hi, 0.0, 0.0)))


def _thresholds(F, G):
    """Every grid point, every midpoint, a point either side of the
    support, and a NaN, which the cell walk compared its way past."""
    grid = pair_geometry(F, G).grid
    mids = [0.5 * (a + b) for a, b in zip(grid, grid[1:])]
    return [grid[0] - 1.0, *grid, *mids, grid[-1] + 1.0, math.nan]


def _outcome(make):
    try:
        u = make()
    except (ValueError, ZeroDivisionError) as e:
        return None, f"{type(e).__name__}: {e}"
    return u, repr(u)


def _same(new, old):
    (u, shown), (v, expected) = _outcome(new), _outcome(old)
    assert shown == expected
    assert u == v


# -- properties --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(cdfs(), cdfs(), weights())
def test_base_types_match_the_cell_by_cell_constructors(F, G, w):
    for A, B in ((F, G), (G, F)):
        for t in _thresholds(A, B):
            _same(lambda: sd.make_base_mf(t, A, B, w), lambda: _cells_make_base_mf(t, A, B, w))
            _same(lambda: sd.make_base_ff(t, A, B, w), lambda: _cells_make_base_ff(t, A, B, w))
        for e in (w, w.scale(0.45)):
            _same(lambda: sd.make_base_asd(A, B, e), lambda: _cells_make_base_asd(A, B, e))


@settings(max_examples=100, deadline=None)
@given(cdfs(), cdfs())
def test_reversed_geometry_has_the_runs_of_a_fresh_one(F, G):
    pair_geometry(F, G).neg_runs
    rev = pair_geometry(G, F)             # derived from the (F, G) entry
    diff = _copy(G).carrier.sub(_copy(F).carrier)
    fresh = PairGeometry(diff, *signed_parts(diff))
    assert repr(rev.neg_runs) == repr(fresh.neg_runs)


def test_runs_start_where_the_sign_changes():
    # F - G: 1/2 on [0, 1), 0 on [1, 2), -1/2 on [2, 3), 0 from 3 on
    F, G = sd.from_samples([0.0, 3.0]), sd.from_samples([1.0, 2.0])
    assert pair_geometry(F, G).neg_runs == ((0.0, 2.0, 3.0), (False, True, False))


def test_weight_one_gives_a_single_slope():
    F, G = sd.from_samples([0.0, 3.0]), sd.from_samples([1.0, 2.0])
    for t in (-1.0, 0.5, 2.5, 3.5):
        u = sd.make_base_mf(t, F, G, sd.GammaFn.const(1.0))
        assert (u.breaks, u.slopes) == ((t,), (1.0, 0.0))


def test_weight_zero_drops_a_threshold_inside_a_non_negative_run():
    F, G = sd.from_samples([0.0, 3.0]), sd.from_samples([1.0, 2.0])
    zero = sd.GammaFn.const(0.0)
    u = sd.make_base_mf(3.5, F, G, zero)
    assert (u.breaks, u.slopes, u.anchor) == ((2.0, 3.0), (0.0, 1.0, 0.0), (3.5, 0.0))
    u = sd.make_base_mf(2.5, F, G, zero)   # inside the negative run: kept
    assert (u.breaks, u.slopes) == ((2.0, 2.5), (0.0, 1.0, 0.0))
