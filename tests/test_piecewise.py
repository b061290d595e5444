import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdorder.geometry import pair_geometry, total_area_from_cum
from sdorder.piecewise import (
    DivisionByZeroGamma,
    NonIntegrableTail,
    PiecewiseFn,
    _cell_signs,
    _poly_shift,
    _poly_value,
    compress,
    cum_area_fn,
    merge_grids,
    signed_parts,
    weighted_area_fn_values,
)
import support
from support import crossings, first_negative_point
from test_geometry import RAMP, STEP, cdfs, steps

DY = [k / 8.0 for k in range(-24, 25)]


@st.composite
def linear_pwl(draw, max_breaks=5, compact=False):
    """Random piecewise-linear function with dyadic data.

    compact=True forces a zero left tail and a zero final segment, the
    shape integration routines accept.
    """
    k = draw(st.integers(2 if compact else 1, max_breaks))
    bs = tuple(sorted(draw(st.lists(
        st.sampled_from(DY), min_size=k, max_size=k, unique=True))))
    def coeff():
        return (draw(st.integers(-8, 8)) / 4.0, draw(st.integers(-8, 8)) / 4.0, 0.0)
    coeffs = [coeff() for _ in range(k)]
    left = 0.0 if compact else draw(st.integers(-8, 8)) / 4.0
    if compact:
        coeffs[-1] = (0.0, 0.0, 0.0)
    return PiecewiseFn(bs, left, tuple(coeffs))


def probe_points(f: PiecewiseFn) -> list[float]:
    pts = [f.breaks[0] - 1.5]
    for a, b in zip(f.breaks, f.breaks[1:]):
        pts += [a, (a + b) / 2.0]
    pts += [f.breaks[-1], f.breaks[-1] + 1.5]
    return pts


QUARTERS = st.integers(-8, 8).map(lambda k: k / 4.0)
DELTA = 2.0 ** -20


@st.composite
def quadratic_pwl(draw, max_breaks=5):
    """Degree <= 2 carrier with breaks on the 1/8 grid and coefficients and
    left tail in quarters from -2 to 2: values at dyadic points are exact,
    roots inside one piece lie at least 1/8 apart, and the last piece's
    roots lie within 9 of its start (Cauchy's bound)."""
    k = draw(st.integers(1, max_breaks))
    bs = tuple(sorted(draw(st.lists(
        st.sampled_from(DY), min_size=k, max_size=k, unique=True))))
    coeffs = tuple(draw(st.tuples(QUARTERS, QUARTERS, QUARTERS)) for _ in bs)
    return PiecewiseFn(bs, draw(QUARTERS), coeffs)


# levels of a step carrier: a zero of either sign half the time, else a
# third, fifth or seventh in [-1, 1], which is not dyadic
ZEROS = st.sampled_from([0.0, -0.0])
LEVELS = st.one_of(ZEROS, st.sampled_from(sorted({k / d for d in (3, 5, 7)
                                                  for k in range(-d, d + 1) if k})))


@st.composite
def step_pwl(draw, max_breaks=5):
    """Degree-0 carrier: constant cells at LEVELS, each slope and
    curvature a zero of either sign, as the negative part of a step
    function carries them."""
    k = draw(st.integers(1, max_breaks))
    bs = tuple(sorted(draw(st.lists(
        st.sampled_from(DY), min_size=k, max_size=k, unique=True))))
    coeffs = tuple(draw(st.tuples(LEVELS, ZEROS, ZEROS)) for _ in bs)
    return PiecewiseFn(bs, draw(LEVELS), coeffs)


def _scanned_degree(f: PiecewiseFn) -> int:
    """The degree read off the coefficients, as the carrier defines it."""
    if any(c2 != 0.0 for _, _, c2 in f.coeffs):
        return 2
    return 1 if any(c1 != 0.0 for _, c1, _ in f.coeffs) else 0


def dense_probes(f: PiecewiseFn, marks=()) -> list[float]:
    """A 1/256 grid from left of the first break to past every root of the
    last piece, one far-right point, and each finite mark with points
    DELTA either side of it."""
    lo, hi = f.breaks[0] - 1.0, f.breaks[-1] + 10.0
    pts = {lo + k / 256.0 for k in range(int((hi - lo) * 256) + 1)}
    pts.add(f.breaks[-1] + 1e3)
    for x in marks:
        if math.isfinite(x):
            pts.update((x - DELTA, x, x + DELTA))
    return sorted(pts)


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PiecewiseFn((0.0, 0.0), 0.0, ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        PiecewiseFn((1.0, 0.0), 0.0, ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        PiecewiseFn((0.0,), 0.0, ())


@pytest.mark.parametrize("breaks", [
    (0.0, 0.0), (1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, math.nan), (math.nan, 0.0),
    (-1.0, math.nan, 1.0),
], ids=["equal", "decreasing", "equal-last", "nan-last", "nan-first", "nan-middle"])
def test_breaks_must_strictly_increase(breaks):
    coeffs = ((1.0, 0.0, 0.0),) * len(breaks)
    with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
        PiecewiseFn(breaks, 0.0, coeffs)


@example([], math.inf)
@example([-0.0, 0.5], math.nan)
@given(st.lists(st.sampled_from([*DY, -0.0]), max_size=5, unique=True),
       st.sampled_from([math.nan, math.inf, -math.inf]))
@settings(max_examples=60, deadline=None)
def test_carriers_have_finite_ends_and_unsigned_zero_breaks(xs, bad):
    bs = tuple(sorted(xs))
    flat = ((0.25, 0.0, 0.0),)
    f = PiecewiseFn(bs, 0.5, flat * len(bs))
    assert f.breaks == bs
    assert all(math.copysign(1.0, b) > 0.0 for b in f.breaks if b == 0.0)
    with pytest.raises(ValueError, match=f"carrier left must be finite, got {bad!r}"):
        PiecewiseFn(bs, bad, flat * len(bs))
    # a non-finite end that passes the order test: a lone NaN, -inf first, +inf last
    ends = (bad,) if math.isnan(bad) else (bad, *bs) if bad < 0.0 else (*bs, bad)
    with pytest.raises(ValueError, match=f"carrier breakpoint must be finite, got {bad!r}"):
        PiecewiseFn(ends, 0.5, flat * len(ends))
    # each end is tested on its own, so ends near the float range's edge are fine
    assert PiecewiseFn((-1e308, *bs, 1e308), 0.5, flat * (len(bs) + 2)).breaks[1:-1] == bs


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("at,field", [(0, "value"), (1, "slope"), (2, "quad")])
def test_carriers_reject_non_finite_coefficients(bad, at, field):
    coeff = [0.5, 0.0, 0.0]
    coeff[at] = bad
    coeffs = ((0.25, 0.0, 0.0), tuple(coeff))
    with pytest.raises(ValueError, match=f"carrier {field} must be finite, got {bad!r}"):
        PiecewiseFn((0.0, 1.0), 0.0, coeffs)
    assert PiecewiseFn._trusted((0.0, 1.0), 0.0, coeffs).coeffs == coeffs  # left unchecked
    if at == 0:  # a step's levels are its values; its slopes are the literal 0.0
        with pytest.raises(ValueError, match=f"carrier value must be finite, got {bad!r}"):
            PiecewiseFn.step((0.0, 1.0), (0.0, 0.25, bad))
    step = PiecewiseFn.step((-0.0, 1), (0, 0.25, 1))
    assert repr(step) == repr(PiecewiseFn(step.breaks, step.left, step.coeffs))
    assert step.degree() == 0


def test_shift_still_checks_the_breaks_it_moves():
    # distributions.shift reports these ValueErrors as ShiftCollapse
    f = PiecewiseFn((1.0, 1.0 + 2.0 ** -52), 0.0, ((0.5, 0.0, 0.0), (1.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
        f.shift(1e9)
    with pytest.raises(ValueError, match="carrier breakpoint must be finite, got inf"):
        PiecewiseFn((0.0, 1e308), 0.0, f.coeffs).shift(1e308)
    assert f.shift(-1.0).breaks == (0.0, 2.0 ** -52)


@pytest.mark.parametrize("grid", [(1.0, 0.5), (0.5, 0.5), (math.inf,), (-math.inf, 0.5), (math.nan,)],
                         ids=["decreasing", "equal", "inf", "-inf", "nan"])
def test_with_breaks_checks_the_grid_it_is_given(grid):
    f = PiecewiseFn((0.0, 1.0), 0.0, ((0.5, 0.0, 0.0), (1.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        f.with_breaks(grid)
    # a negative zero is stored unsigned, as the checking constructor stores it
    assert repr(PiecewiseFn((1.0,), 0.0, ((1.0, 0.0, 0.0),)).with_breaks((-0.0,)).breaks) == "(0.0, 1.0)"


@given(st.one_of(step_pwl(), linear_pwl(), quadratic_pwl()),
       st.one_of(step_pwl(), linear_pwl(), quadratic_pwl()),
       st.lists(st.sampled_from([*DY, -0.0]), max_size=4), st.sampled_from([0.0, -0.0, 0.75, -3.0]))
@settings(max_examples=150, deadline=None)
def test_trusted_builders_give_what_the_checking_constructor_gives(f, other, extra, a):
    # the builders skip the break checks on the grids they merge or copy
    built = [f.sub(other), f.add(other), f.scale(a), f.with_breaks(tuple(sorted(set(extra)))),
             *signed_parts(f.sub(other))]
    if f.degree() < 2:
        built.append(cum_area_fn(PiecewiseFn(f.breaks, 0.0, f.coeffs)))
    for h in built:
        checked = PiecewiseFn(h.breaks, h.left, h.coeffs)
        assert repr(h) == repr(checked)
        assert h.degree() == checked.degree() == _scanned_degree(h)


def test_point_evaluation_is_right_continuous():
    f = PiecewiseFn.step((0.0, 1.0), (0.0, 0.5, 1.0))
    assert f.value(-0.01) == 0.0
    assert f.value(0.0) == 0.5
    assert f.left_limit(0.0) == 0.0
    assert f.left_limit(1.0) == 0.5
    assert f.value(1.0) == 1.0


def test_local_coordinates_anchor_each_segment():
    # value on [2, 4) is 1 + 3*(x-2), not 1 + 3*x
    f = PiecewiseFn((2.0, 4.0), 0.0, ((1.0, 3.0, 0.0), (7.0, 0.0, 0.0)))
    assert f.value(2.0) == 1.0
    assert f.value(3.0) == 4.0
    assert f.left_limit(4.0) == 7.0


def test_constant_and_degree():
    c = PiecewiseFn.constant(2.5)
    assert c.value(-1e9) == 2.5 and c.value(1e9) == 2.5
    assert c.degree() == 0
    lin = PiecewiseFn((0.0,), 0.0, ((0.0, 1.0, 0.0),))
    assert lin.degree() == 1
    quad = PiecewiseFn((0.0,), 0.0, ((0.0, 0.0, 1.0),))
    assert quad.degree() == 2


def test_step_requires_matching_lengths():
    with pytest.raises(ValueError):
        PiecewiseFn.step((0.0,), (0.0,))


@given(linear_pwl())
@settings(max_examples=60, deadline=None)
def test_refinement_preserves_values(f):
    g = f.with_breaks(tuple(x + 1.0 / 16.0 for x in f.breaks))
    for x in probe_points(f):
        assert g.value(x) == pytest.approx(f.value(x), abs=1e-12)
    # a grid that shares points with f keeps f's coefficients at them
    mixed = f.with_breaks(merge_grids(f.breaks[1:], (f.breaks[0] - 0.5,)))
    assert mixed.breaks[1:] == f.breaks
    assert mixed.coeffs[1:] == f.coeffs
    assert mixed.coeffs[0] == (f.left, 0.0, 0.0)
    # a grid that adds no point leaves the function as it is
    assert f.with_breaks(f.breaks[::2]) is f


@given(st.one_of(quadratic_pwl(), step_pwl()), st.lists(st.sampled_from([*DY, -0.0]), max_size=6),
       st.booleans())
@settings(max_examples=120, deadline=None)
def test_values_on_a_grid_match_point_evaluation(f, extra, extra_first):
    # grids are merged from the breaks of carriers, which store zeros unsigned
    extra = tuple(sorted(set(extra)))
    extra = PiecewiseFn(extra, 0.0, ((0.0, 0.0, 0.0),) * len(extra)).breaks
    grid = merge_grids(extra, f.breaks) if extra_first else merge_grids(f.breaks, extra)
    # the same numbers, bit for bit, as value and left_limit at each point
    assert ([tuple(map(repr, p)) for p in f._values_on(grid)]
            == [(repr(f.value(b)), repr(f.left_limit(b))) for b in grid])


@given(step_pwl(), st.lists(st.sampled_from(DY), max_size=6))
@settings(max_examples=120, deadline=None)
def test_constant_cells_give_the_bits_of_the_quadratic_formulas(f, extra):
    assert f.degree() == 0
    grid = merge_grids(f.breaks, tuple(sorted(set(extra))))
    expect = []
    for b in grid:
        i = f.segment_index(b)
        expect.append((f.left, 0.0, 0.0) if i < 0 else f.coeffs[i] if f.breaks[i] == b
                      else _poly_shift(f.coeffs[i], b - f.breaks[i]))
    assert repr(f._coeffs_on(grid)) == repr(tuple(expect))
    # a cell's sign is its midpoint's, or its start's when that is zero;
    # the unbounded last cell is flat, so its constant's
    g, left_sign, signs = _cell_signs(f)
    assert g is f and left_sign == _sign(f.left)
    assert signs == [_sign(_poly_value(c, h / 2) if h < math.inf else c[0]) or _sign(c[0])
                     for _, h, c in f.cells()]
    pos, neg = signed_parts(f)
    zero = (0.0, 0.0, 0.0)
    assert repr(pos) == repr(PiecewiseFn(f.breaks, f.left if left_sign > 0 else 0.0, tuple(
        c if s > 0 else zero for c, s in zip(f.coeffs, signs))))
    assert repr(neg) == repr(PiecewiseFn(f.breaks, -f.left if left_sign < 0 else 0.0, tuple(
        (-c[0], -c[1], -c[2]) if s < 0 else zero for c, s in zip(f.coeffs, signs))))
    # the cumulative area of the same cells, integrated as degree-1 pieces
    flat = PiecewiseFn(f.breaks, 0.0, f.coeffs)
    total, expect = 0.0, []
    for _, h, (c0, c1, _) in flat.cells():
        expect.append((total, c0, c1 / 2.0))
        total += h * (c0 + h * (c1 / 2.0))
    assert repr(cum_area_fn(flat).coeffs) == repr(tuple(expect))


@given(step_pwl(), st.one_of(step_pwl(), linear_pwl(), quadratic_pwl()),
       st.lists(st.sampled_from(DY), max_size=4))
@settings(max_examples=80, deadline=None)
def test_degree_is_kept_by_every_builder(f, other, extra):
    diff = f.sub(other)
    pos, neg = signed_parts(diff)
    built = [diff, pos, neg, f.with_breaks(tuple(sorted(set(extra)))),
             other.with_breaks(tuple(sorted(set(extra))))]
    # cumulative areas of the same cells with the left tail cut to zero
    flat = PiecewiseFn(f.breaks, 0.0, f.coeffs)
    built += [cum_area_fn(flat), cum_area_fn(signed_parts(flat)[1])]
    if diff.degree() < 2:
        built.append(cum_area_fn(PiecewiseFn(diff.breaks, 0.0, diff.coeffs)))
    for h in built:
        assert h.degree() == _scanned_degree(h)
    assert pos.degree() <= diff.degree() and neg.degree() <= diff.degree()


def test_merge_grids_is_the_sorted_union():
    assert merge_grids((0.0, 1.0, 2.0), (1.0, 1.5, 3.0)) == (0.0, 1.0, 1.5, 2.0, 3.0)
    assert merge_grids((), (1.0,)) == (1.0,)
    assert merge_grids((1.0,), ()) == (1.0,)
    assert merge_grids((), ()) == ()


@given(linear_pwl(), linear_pwl())
@settings(max_examples=60, deadline=None)
def test_add_sub_are_pointwise(f, g):
    s = f.add(g)
    d = f.sub(g)
    for x in probe_points(f) + probe_points(g):
        assert s.value(x) == pytest.approx(f.value(x) + g.value(x), abs=1e-12)
        assert d.value(x) == pytest.approx(f.value(x) - g.value(x), abs=1e-12)


@given(linear_pwl())
@settings(max_examples=40, deadline=None)
def test_shift_and_scale(f):
    for x in probe_points(f):
        assert f.shift(0.75).value(x + 0.75) == pytest.approx(f.value(x), abs=1e-12)
        assert f.scale(-2.0).value(x) == pytest.approx(-2.0 * f.value(x), abs=1e-12)


def test_compress_drops_continuing_pieces():
    # the middle break continues the ramp started at 0
    f = PiecewiseFn((0.0, 1.0, 2.0), 0.0,
                    ((0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (5.0, 0.0, 0.0)))
    g = compress(f)
    assert g.breaks == (0.0, 2.0)
    for x in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        assert g.value(x) == f.value(x)
    assert compress(g) == g


@given(st.one_of(step_pwl(), linear_pwl(), quadratic_pwl()),
       st.lists(st.sampled_from([*DY, -0.0]), max_size=4))
@settings(max_examples=150, deadline=None)
def test_compress_folds_as_the_walk_it_replaced(f, extra):
    # refining adds breaks that only continue a piece: compress drops them
    g = f.with_breaks(tuple(sorted(set(extra))))
    assert repr(compress(g)) == repr(support._compress(g))
    assert repr(compress(f)) == repr(support._compress(f))


def test_compress_normalizes_negative_zero():
    f = PiecewiseFn((0.0,), 0.0, ((1.0, -0.0, -0.0),))
    g = compress(f)
    assert str(g.coeffs[0][1]) == "0.0"


def test_compress_constant_collapses_to_left_tail():
    f = PiecewiseFn((0.0, 1.0), 2.0, ((2.0, 0.0, 0.0), (2.0, 0.0, 0.0)))
    g = compress(f)
    assert g.breaks == () and g.left == 2.0


@given(quadratic_pwl())
@settings(max_examples=100, deadline=None)
def test_signed_parts_reassemble(f):
    pos, neg = signed_parts(f)
    grid = pos.breaks
    assert neg.breaks == grid and set(f.breaks) <= set(grid)
    inside = [grid[0] - 1.0, *((a + b) / 2.0 for a, b in zip(grid, grid[1:])), grid[-1] + 1.0]
    for x in inside:
        p, n = pos.value(x), neg.value(x)
        assert p >= 0.0 and n >= 0.0
        assert p - n == pytest.approx(f.value(x), abs=1e-12)
    for x in grid:
        # a cell that starts at a computed root starts at exactly 0
        p, n = pos.value(x), neg.value(x)
        assert p >= 0.0 and n >= 0.0
        assert p - n == pytest.approx(f.value(x), abs=1e-12)


def test_signed_parts_split_quadratic_at_interior_roots():
    # (x-1)(x-3) on [0, 4): negative exactly on (1, 3)
    f = PiecewiseFn((0.0, 4.0), 0.0, ((3.0, -4.0, 1.0), (0.0, 0.0, 0.0)))
    pos, neg = signed_parts(f)
    assert 1.0 in pos.breaks and 3.0 in pos.breaks
    for x in (0.5, 1.0, 2.0, 2.9, 3.5):
        assert pos.value(x) == pytest.approx(max(f.value(x), 0.0), abs=1e-12)
        assert neg.value(x) == pytest.approx(max(-f.value(x), 0.0), abs=1e-12)


def _simpson_area(f: PiecewiseFn) -> float:
    # independent route: per-segment Simpson, exact for linear pieces
    total = 0.0
    for a, b in zip(f.breaks, f.breaks[1:]):
        m = (a + b) / 2.0
        fa = f.value(a)
        fm = f.value(m)
        fb = f.left_limit(b)
        total += (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return total


@given(linear_pwl(compact=True))
@settings(max_examples=60, deadline=None)
def test_total_area_matches_quadrature(f):
    assert total_area_from_cum(cum_area_fn(f)) == pytest.approx(_simpson_area(f), abs=1e-9)


@given(linear_pwl(compact=True))
@settings(max_examples=40, deadline=None)
def test_cumulative_area_is_continuous_antiderivative(f):
    C = cum_area_fn(f)
    for b in f.breaks:
        assert C.left_limit(b) == pytest.approx(C.value(b), abs=1e-12)
    run = 0.0
    for a, b in zip(f.breaks, f.breaks[1:]):
        assert C.value(a) == pytest.approx(run, abs=1e-9)
        m = (a + b) / 2.0
        run += (b - a) / 6.0 * (f.value(a) + 4.0 * f.value(m) + f.left_limit(b))
    assert C.value(f.breaks[-1]) == pytest.approx(run, abs=1e-9)


def test_integration_rejects_bad_tails():
    with pytest.raises(NonIntegrableTail):
        cum_area_fn(PiecewiseFn((0.0,), 1.0, ((0.0, 0.0, 0.0),)))
    with pytest.raises(ValueError):
        cum_area_fn(PiecewiseFn((0.0, 1.0), 0.0,
                                ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0))))


def _weighted_at(f, w, t):
    """Node value of the cumulative f/w at the grid point t."""
    grid, values = weighted_area_fn_values(f, w)
    return values[grid.index(t)]


def test_weighted_area_log_branch():
    f = PiecewiseFn((0.0, 1.0), 0.0, ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    w = PiecewiseFn((0.0,), 1.0, ((1.0, 1.0, 0.0),))
    assert _weighted_at(f, w, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)
    # a break at 0.5 puts a node there without changing f
    assert _weighted_at(f.with_breaks((0.5,)), w, 0.5) == pytest.approx(
        math.log(1.5), abs=1e-12)


def test_weighted_area_constant_weight_reduces_to_division():
    f = PiecewiseFn((0.0, 2.0), 0.0, ((0.5, 0.25, 0.0), (0.0, 0.0, 0.0)))
    w = PiecewiseFn.constant(0.5)
    plain = cum_area_fn(f).value(2.0)
    assert _weighted_at(f, w, 2.0) == pytest.approx(plain / 0.5, abs=1e-12)


def test_weighted_area_zero_weight_only_matters_with_mass():
    f = PiecewiseFn((1.0, 2.0), 0.0, ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    w_ok = PiecewiseFn.step((1.0,), (0.0, 0.5))   # zero only where f is zero
    assert _weighted_at(f, w_ok, 2.0) == pytest.approx(2.0, abs=1e-12)
    w_bad = PiecewiseFn.step((1.5,), (0.0, 0.5))  # zero under live mass
    with pytest.raises(DivisionByZeroGamma):
        weighted_area_fn_values(f, w_bad)


# weights for the walk: steps, a ramp, constants (0 among them), a curved weight
# (quadratic on [-1, 1)), a sloped epsilon, and a slope that reaches 0 at x = 0
WALK_WEIGHTS = [STEP.carrier, RAMP.carrier, *map(PiecewiseFn.constant, (0.0, 1.0 / 3.0, 1.0)),
                PiecewiseFn((-1.0, 1.0), 0.25, ((0.25, 0.5, -0.125), (0.75, 0.0, 0.0))),
                PiecewiseFn((0.0, 1.0), 0.1, ((0.1, 0.2, 0.0), (0.3, 0.0, 0.0))),
                PiecewiseFn((-1.0, 1.0), 0.5, ((0.5, -0.5, 0.0), (0.25, 0.0, 0.0)))]


def _result(call, *args) -> str:
    """repr of a result, or the type and message of the error it raised."""
    try:
        return repr(call(*args))
    except (ValueError, ZeroDivisionError) as e:
        return f"{type(e).__name__}: {e}"


@settings(max_examples=300, deadline=None)
@given(st.one_of(steps(), cdfs()), st.one_of(steps(), cdfs()), st.sampled_from(WALK_WEIGHTS))
def test_weighted_walk_matches_the_accumulated_port(F, G, w):
    geom = pair_geometry(F, G)
    for f in (geom.neg, geom.pos, geom.diff):
        assert _result(weighted_area_fn_values, f, w) == _result(
            support.accumulated_weighted_values, f, w)


def test_weighted_area_raises_on_each_piece_it_cannot_integrate():
    unit = PiecewiseFn((0.0, 2.0), 0.0, ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    with pytest.raises(NonIntegrableTail, match="left tail"):
        weighted_area_fn_values(PiecewiseFn((0.0,), 1.0, ((0.0, 0.0, 0.0),)), unit)
    with pytest.raises(NonIntegrableTail, match="right tail"):
        weighted_area_fn_values(PiecewiseFn((0.0,), 0.0, ((1.0, 0.0, 0.0),)), unit)
    quad = PiecewiseFn((0.0, 1.0), 0.0, ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="degree <= 1"):
        weighted_area_fn_values(quad, PiecewiseFn.constant(1.0))
    with pytest.raises(ValueError, match="degree <= 1"):
        weighted_area_fn_values(unit, PiecewiseFn((0.0,), 1.0, ((1.0, 0.0, 1.0),)))
    # 1 - d/2 reaches 0 at the end of the unit's cell [0, 2)
    with pytest.raises(DivisionByZeroGamma, match="stay positive"):
        weighted_area_fn_values(unit, PiecewiseFn((0.0,), 1.0, ((1.0, -0.5, 0.0),)))
    with pytest.raises(DivisionByZeroGamma, match="zero weight"):
        weighted_area_fn_values(unit, PiecewiseFn.constant(0.0))


def test_crossings_attribute_zero_runs_to_the_later_region():
    f = PiecewiseFn.step((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 0.0, -1.0, 0.0))
    assert crossings(f) == [2.0]
    same_sign = PiecewiseFn.step((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 0.0, 1.0, 0.0))
    assert crossings(same_sign) == []


def test_crossings_find_interior_linear_root():
    f = PiecewiseFn((0.0, 2.0), 0.0, ((-1.0, 1.0, 0.0), (0.0, 0.0, 0.0)))
    assert crossings(f) == [1.0]


def test_first_negative_point_cases():
    assert first_negative_point(PiecewiseFn.constant(-1.0)) == -math.inf
    assert first_negative_point(PiecewiseFn.step((0.0,), (0.0, 1.0))) == math.inf
    f = PiecewiseFn.step((0.0, 1.0), (0.0, -0.5, 0.0))
    assert first_negative_point(f) == 0.0


def test_unbounded_last_cell_takes_its_far_right_sign():
    # -x / 100 stays inside a 0.05 band up to x = 5 and leaves it after
    f = PiecewiseFn((0.0,), 0.0, ((0.0, -0.01, 0.0),))
    assert first_negative_point(f, tol=0.05) == 0.0
    assert crossings(PiecewiseFn((0.0,), 1.0, ((0.0, -0.01, 0.0),)), tol=0.05) == [0.0]
    assert first_negative_point(PiecewiseFn((0.0,), 0.0, ((-0.01, 0.0, 0.0),)), tol=0.05) \
        == math.inf


@given(quadratic_pwl())
@settings(max_examples=60, deadline=None)
def test_cells_walk_every_segment(f):
    cells = list(f.cells())
    assert [b for b, _, _ in cells] == list(f.breaks)
    assert [c for _, _, c in cells] == list(f.coeffs)
    assert [h for _, h, _ in cells] == [b - a for a, b in zip(f.breaks, f.breaks[1:])] + [math.inf]
    assert list(PiecewiseFn.constant(f.left).cells()) == []


@given(quadratic_pwl())
@settings(max_examples=100, deadline=None)
def test_first_negative_point_starts_the_first_negative_cell(f):
    x0 = first_negative_point(f)
    if f.left < 0.0:
        assert x0 == -math.inf
        return
    assert all(f.value(x) >= 0.0 for x in dense_probes(f, (x0,)) if x < x0)
    if x0 < math.inf:
        assert f.value(x0 + DELTA) < 0.0
        assert x0 in f.breaks or abs(f.value(x0)) <= 1e-12


@given(quadratic_pwl())
@settings(max_examples=100, deadline=None)
def test_crossings_mark_each_sign_change_at_its_start(f):
    cs = crossings(f)
    for c in cs:
        after = _sign(f.value(c + DELTA))
        assert after != 0 and _sign(f.value(c - DELTA)) != after
    # (last point of the old sign, first point of the new one) per change;
    # zero values sit between regions and change nothing
    changes = []
    last_x, last_s = -math.inf, _sign(f.left)
    for x in dense_probes(f, cs):
        s = _sign(f.value(x))
        if s:
            if last_s and s != last_s:
                changes.append((last_x, x))
            last_x, last_s = x, s
    assert len(cs) == len(changes)
    # a crossing at a computed root may sit an ulp inside the old region
    assert all(a <= c <= b for c, (a, b) in zip(cs, changes))
