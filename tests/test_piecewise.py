import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdorder.piecewise import (
    DivisionByZeroGamma,
    NonIntegrableTail,
    PiecewiseFn,
    compress,
    crossings,
    cum_area,
    cum_area_fn,
    eval as pw_eval,
    first_negative_point,
    merge_grids,
    signed_parts,
    total_area,
    weighted_area_fn_values,
)

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


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PiecewiseFn((0.0, 0.0), 0.0, ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        PiecewiseFn((1.0, 0.0), 0.0, ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        PiecewiseFn((0.0,), 0.0, ())


def test_point_evaluation_is_right_continuous():
    f = PiecewiseFn.step((0.0, 1.0), (0.0, 0.5, 1.0))
    assert f.value(-0.01) == 0.0
    assert f.value(0.0) == 0.5
    assert f.left_limit(0.0) == 0.0
    assert f.left_limit(1.0) == 0.5
    assert f.value(1.0) == 1.0
    assert pw_eval(f, 0.5) == 0.5


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


def test_compress_normalizes_negative_zero():
    f = PiecewiseFn((0.0,), 0.0, ((1.0, -0.0, -0.0),))
    g = compress(f)
    assert str(g.coeffs[0][1]) == "0.0"


def test_compress_constant_collapses_to_left_tail():
    f = PiecewiseFn((0.0, 1.0), 2.0, ((2.0, 0.0, 0.0), (2.0, 0.0, 0.0)))
    g = compress(f)
    assert g.breaks == () and g.left == 2.0


@given(linear_pwl())
@settings(max_examples=60, deadline=None)
def test_signed_parts_reassemble(f):
    pos, neg = signed_parts(f)
    for x in probe_points(f):
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
    assert total_area(f) == pytest.approx(_simpson_area(f), abs=1e-9)


@given(linear_pwl(compact=True))
@settings(max_examples=40, deadline=None)
def test_cumulative_area_is_continuous_antiderivative(f):
    C = cum_area_fn(f)
    for b in f.breaks:
        assert C.left_limit(b) == pytest.approx(C.value(b), abs=1e-12)
    run = 0.0
    for a, b in zip(f.breaks, f.breaks[1:]):
        assert cum_area(f, a) == pytest.approx(run, abs=1e-9)
        m = (a + b) / 2.0
        run += (b - a) / 6.0 * (f.value(a) + 4.0 * f.value(m) + f.left_limit(b))
    assert cum_area(f, f.breaks[-1]) == pytest.approx(run, abs=1e-9)


def test_integration_rejects_bad_tails():
    with pytest.raises(NonIntegrableTail):
        total_area(PiecewiseFn((0.0,), 1.0, ((0.0, 0.0, 0.0),)))
    with pytest.raises(NonIntegrableTail):
        total_area(PiecewiseFn((0.0,), 0.0, ((1.0, 0.0, 0.0),)))
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
    plain = cum_area(f, 2.0)
    assert _weighted_at(f, w, 2.0) == pytest.approx(plain / 0.5, abs=1e-12)


def test_weighted_area_zero_weight_only_matters_with_mass():
    f = PiecewiseFn((1.0, 2.0), 0.0, ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    w_ok = PiecewiseFn.step((1.0,), (0.0, 0.5))   # zero only where f is zero
    assert _weighted_at(f, w_ok, 2.0) == pytest.approx(2.0, abs=1e-12)
    w_bad = PiecewiseFn.step((1.5,), (0.0, 0.5))  # zero under live mass
    with pytest.raises(DivisionByZeroGamma):
        weighted_area_fn_values(f, w_bad)


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
