"""The verdict the deciders return: settled from slack floats, with
diagnostics built on first read.

Each decider computes only the slack rhs - lhs of every candidate, and
`_settle` builds a candidate's row only to rank witnesses; the rows
themselves are built when `Verdict.diagnostics` is first read. The
properties below pin that against a port of the eager row builders and
the settle step that the deciders used before, byte for byte.
"""

import math
import pickle
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdorder as sd
import sdorder.dominance as dominance
from sdorder.geometry import pair_geometry
from sdorder.piecewise import _weighted_segment, _widths, common_grid, merge_grids
from test_geometry import RAMP, STEP, cdfs

# quadratic weights: the scan's curved cells and their stationary points
CONVEX = sd.GammaFn(sd.PiecewiseFn((-1.0, 1.0), 0.0, ((0.0, 0.0, 0.25), (1.0, 0.0, 0.0))))
CONCAVE = sd.GammaFn(sd.PiecewiseFn((-1.0, 1.0), 0.25,
                                    ((0.25, 0.5, -0.125), (0.75, 0.0, 0.0))))
EPS = sd.EpsilonFn(sd.PiecewiseFn.step((0.0,), (0.25, 0.375)))


# -- the eager builders and settle step the lazy verdict replaced ----------

def _eager_fsd(F, G):
    grid = merge_grids(F.carrier.breaks, G.carrier.breaks)
    rows = []
    for b, (gv, gl), (fv, fl) in zip(grid, G.carrier._values_on(grid),
                                     F.carrier._values_on(grid)):
        rows += ((b, gv, fv), (b, gl, fl))
    return rows, range(1, len(rows), 2)


def _eager_graded(F, G, gamma):
    geom = pair_geometry(F, G)
    Ap, An = geom.Ap, geom.An
    grid, (apc, anc, gmc) = common_grid(Ap, An, gamma)
    rows = [(grid[0], An.left, gamma.left * Ap.left)]
    curved = gamma.degree() > 1 or An.degree() > 1
    limits = {0} if curved else range(0, 2 * len(grid) - 1, 2)
    for b, end, (a0, a1, a2), (n0, n1, n2), (g0, g1, g2) in zip(grid, grid[1:], apc, anc, gmc):
        h = end - b
        rows += ((b, n0, g0 * a0), (end, n0 + h * (n1 + h * n2),
                                    (g0 + h * (g1 + h * g2)) * (a0 + h * (a1 + h * a2))))
        if curved:
            limits.add(len(rows) - 1)
            c = g1 * a0 - n1
            s = 2.0 * (g2 * a0 - n2)
            if (n1 != 0.0 or n2 != 0.0) and s != 0.0:
                d = -c / s
                if 0.0 < d < h:
                    rows.append((b + d, n0 + d * (n1 + d * n2), (g0 + d * (g1 + d * g2)) * a0))
    rows.append((grid[-1], anc[-1][0], gmc[-1][0] * apc[-1][0]))
    return rows, limits


def _eager_weighted(f, w):
    grid, (fc, wc) = common_grid(f, w)
    total, out = 0.0, []
    for h, num, den in zip(_widths(grid), fc, wc):
        out.append(total)
        if any(num):
            total += _weighted_segment(num, den, h)
    return grid, tuple(out)


def _eager_ffsd(F, G, g):
    geom = pair_geometry(F, G)
    grid, weighted = _eager_weighted(geom.neg, g.carrier)
    return list(zip(grid, weighted, [c[0] for c in geom.Ap._coeffs_on(grid)])), ()


def _eager_settle(rows, limits, tol):
    slack = [r - l for _, l, r in rows]
    margin = min(slack)
    best = min(((abs(rows[i][1]) + abs(rows[i][2]) <= tol, i in limits, rows[i][0])
                for i, s in enumerate(slack) if s - margin <= tol), default=None)
    return margin >= -tol, best[2] if best else None, margin, tuple(rows)


def _shown(v):
    return repr((v.holds, v.witness_t, v.margin, v.diagnostics))


def _cases(F, G, tol):
    """(lazy verdict, eager rows and limits) for every decider that scans."""
    yield sd.check_fsd(F, G, tol), _eager_fsd(F, G)
    yield sd.check_ssd(F, G, tol), _eager_graded(F, G, sd.PiecewiseFn.constant(1.0))
    frac = sd.GammaFn.const(1.0 / 3.0).carrier
    yield sd.check_fractional(F, G, 1.0 / 3.0, tol), _eager_graded(F, G, frac)
    for g in (STEP, RAMP, CONVEX, CONCAVE):
        yield sd.check_mfsd(F, G, g, tol), _eager_graded(F, G, g.carrier)
    for g in (STEP, RAMP):
        yield sd.check_ffsd(F, G, g, tol), _eager_ffsd(F, G, g)


@settings(max_examples=150, deadline=None)
@given(cdfs(), cdfs(), st.sampled_from([1e-9, 0.0, 0.25]))
def test_lazy_verdicts_match_the_eager_rows_and_settle(F, G, tol):
    for v, (rows, limits) in _cases(F, G, tol):
        assert _shown(v) == repr(_eager_settle(rows, limits, tol))


@settings(max_examples=150, deadline=None)
@given(cdfs(), cdfs())
def test_easd_total_is_the_last_node_of_the_eager_cumulative(F, G):
    v = sd.check_easd(F, G, EPS)
    geom = pair_geometry(F, G)
    _, weighted = _eager_weighted(geom.neg, EPS.carrier)
    lhs = weighted[-1] if weighted else 0.0
    rhs = geom.surplus + geom.deficit
    assert _shown(v) == repr((rhs - lhs >= -1e-9, None, rhs - lhs, ((math.inf, lhs, rhs),)))


def test_the_strategies_reach_curved_cells_with_stationary_points():
    """Some draws above put a stationary point among the graded rows."""
    seen = []

    @given(cdfs(), cdfs(), st.sampled_from([CONVEX, CONCAVE]))
    @settings(max_examples=200, deadline=None)
    def probe(F, G, g):
        rows, _ = _eager_graded(F, G, g.carrier)
        grid = merge_grids(pair_geometry(F, G).grid, g.carrier.breaks)
        seen.append(len(rows) > 2 * len(grid))

    probe()
    assert any(seen) and not all(seen)


# -- the witness tie-break, through the public deciders --------------------

def _pmf(*atoms):
    return sd.DiscretePMF(atoms).to_distribution()


class TestWitnessTieBreak:
    def test_a_point_wins_over_a_left_limit(self):
        # F - G is -1/2 on [1, 2): the value at 1 and the limit at 2 tie
        v = sd.check_fsd(_pmf((0.0, 0.5), (2.0, 0.5)), _pmf((1.0, 1.0)))
        assert (v.margin, v.witness_t) == (-0.5, 1.0)

    def test_a_row_with_mass_wins_over_an_all_zero_row(self):
        # slack 0 left of every atom, with nothing on either side, and at 1,
        # where the surplus and the deficit both reach 1/2
        v = sd.check_ssd(_pmf((-1.0, 0.5), (1.0, 0.5)), _pmf((0.0, 1.0)))
        assert (v.holds, v.margin, v.witness_t) == (True, 0.0, 1.0)

    def test_the_leftmost_of_the_rest_wins(self):
        # F - G is -1/2 on [1, 2) and again on [3, 4)
        v = sd.check_fsd(_pmf((2.0, 0.5), (4.0, 0.5)), _pmf((1.0, 0.5), (3.0, 0.5)))
        assert (v.margin, v.witness_t) == (-0.5, 1.0)


# -- rows are built when read, once ----------------------------------------

def test_ssd_builds_its_rows_only_when_diagnostics_is_read(monkeypatch):
    # a step pair under SSD's constant weight is scanned at its cell starts
    calls = {"row": 0, "rows": 0}
    scan = dominance._cell_starts

    def counting(*args):
        slack, row, rows = scan(*args)

        def counted_row(i):
            calls["row"] += 1
            return row(i)

        def counted_rows():
            calls["rows"] += 1
            return rows()
        return slack, counted_row, counted_rows

    monkeypatch.setattr(dominance, "_cell_starts", counting)
    # F lags G by 1/16 at each of 32 atoms: the deficit binds from the last one on
    F = _pmf(*((k / 8.0 + 0.0625, 1.0 / 32.0) for k in range(32)))
    G = _pmf(*((k / 8.0, 1.0 / 32.0) for k in range(32)))
    v = sd.check_ssd(F, G)
    assert (v.holds, v.witness_t) == (False, 31 / 8 + 0.0625)
    # ranking the witness read the one row it needed, and built no others
    assert calls == {"row": 1, "rows": 0}
    assert len(v.diagnostics) == 2 * 64
    repr(v), hash(v), v == v, v.diagnostics
    assert calls == {"row": 1, "rows": 1}


# -- the type behaves as the frozen dataclass it replaced ------------------

FrozenVerdict = make_dataclass(
    "Verdict", ["holds", "witness_t", "margin", "order_tag", "diagnostics"], frozen=True)


@pytest.fixture
def spread():
    F, G, _ = sd.example_identical_means(2.0, 1.0)
    return F, G


def test_repr_eq_and_hash_are_the_dataclass_ones(spread):
    for v in (sd.check_fsd(*spread), sd.check_ssd(*spread), sd.check_easd(*spread, EPS)):
        old = FrozenVerdict(v.holds, v.witness_t, v.margin, v.order_tag, v.diagnostics)
        assert repr(v) == repr(old)
        assert repr(v).startswith("Verdict(holds=")
        assert hash(v) == hash(old)
    lazy, eager = sd.check_ssd(*spread), sd.check_ssd(*spread)
    assert lazy == sd.Verdict(eager.holds, eager.witness_t, eager.margin, eager.order_tag,
                              eager.diagnostics)
    assert lazy != sd.check_ssd(*reversed(spread))
    assert lazy != old and (lazy == 0) is False


def test_pickle_round_trips_an_unread_verdict(spread):
    v = sd.check_mfsd(*spread, RAMP)
    back = pickle.loads(pickle.dumps(v))
    assert back == v and repr(back) == repr(v)
    assert type(back.diagnostics) is tuple


def test_no_field_can_be_set_or_deleted(spread):
    v = sd.check_ssd(*spread)
    for name in ("holds", "witness_t", "margin", "order_tag", "diagnostics", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v.holds and v.diagnostics
