"""Deciders for the six dominance orders.

Every order is settled by minimizing the signed slack of its defining
inequality over all of the real line. The slack is piecewise polynomial
(or piecewise monotone, for the weighted variants) on the grid obtained
by refining the CDF difference at its sign changes and merging in the
weight function's breakpoints, so the infimum is attained at finitely
many candidate points: segment starts, left limits at segment ends, and
interior stationary points. No gridding, no sampling. Each scan lists
points before left limits, each kind left to right, so the witness is
the first candidate near the margin, one with mass if any: no sort. On a
step pair a left limit repeats the next cell's start, so SSD, FRAC and a
constant MFSD read the starts alone, and EASD under a constant epsilon
sums the deficit cells in one pass, at half the cost of the general walk.

A margin of at least -tol counts as holding; ties at zero are holds,
matching the weak inequalities that define the orders.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from enum import Enum
from functools import reduce
from itertools import chain

from .distributions import Distribution
from .gamma import EpsilonFn, GammaFn, validate_epsilon, validate_gamma
from .geometry import PairGeometry, pair_geometry
from .piecewise import Frozen, PiecewiseFn, _widths, common_grid, weighted_area_fn_values
from .piecewise import signed_parts  # noqa: F401 - bench/test_bench.py reads it here

__all__ = [
    "OrderTag",
    "Verdict",
    "check_easd",
    "check_ffsd",
    "check_fractional",
    "check_fsd",
    "check_mfsd",
    "check_ssd",
]


class OrderTag(Enum):
    FSD = "FSD"
    SSD = "SSD"
    FRAC = "FRAC"
    MFSD = "MFSD"
    FFSD = "FFSD"
    EASD = "EASD"


class Verdict(Frozen):
    """Outcome of one dominance check: margin is the minimal slack
    rhs - lhs of the defining inequality over all t, and the check holds
    iff margin >= -tol. witness_t attains the margin (None only for the
    single-inequality order). diagnostics lists (t, lhs, rhs) at every
    candidate the scan inspected; it is given as the rows or as a callable
    that builds them on first read. Repr, ==, hash and pickle read the
    rows."""

    holds: bool
    witness_t: float | None
    margin: float
    order_tag: OrderTag
    diagnostics: tuple[tuple[float, float, float], ...]

    @property
    def diagnostics(self) -> tuple[tuple[float, float, float], ...]:
        rows = self.__dict__["diagnostics"]
        if callable(rows):
            rows = self.__dict__["diagnostics"] = rows()
        return rows

    def __reduce__(self) -> tuple:
        return Verdict, self._values(self._fields)


def _settle(tag: OrderTag, slack: list[float], row, rows, tol: float) -> Verdict:
    """Verdict from the slack rhs - lhs of every candidate, listed in the
    order that ranks witnesses: points before one-sided limits, each kind
    left to right. row(i) is candidate i as (t, lhs, rhs); rows() all rows."""
    margin = min(slack)
    # the first row within tol of the margin with real mass on either side, else the first row
    near = (row(i) for i, s in enumerate(slack) if s - margin <= tol)
    first = next(near, None)
    best = next((r for r in chain((first,), near) if r and not abs(r[1]) + abs(r[2]) <= tol), first)
    return Verdict(margin >= -tol, None if best is None else best[0], margin, tag, rows)


def check_fsd(F: Distribution, G: Distribution, tol: float = 1e-9) -> Verdict:
    """First order: F(x) >= G(x) everywhere."""
    diff, f, g, flat = pair_geometry(F, G).diff, F.carrier, G.carrier, chain.from_iterable
    grid, walk = diff.breaks, lambda c: flat(c._values_on(diff.breaks))
    m = len(grid)
    if f._degree or g._degree:
        # candidate k is the value at grid[k], m + k the left limit there
        slack = [*map(operator.sub, *(flat(zip(*c._values_on(grid))) for c in (f, g)))]
    else:
        # a step pair's F - G at grid[k] is diff's cell there read as c0 + (c1 + c2); a left
        # limit past grid[0] repeats the value before it, which wins its ties, so it is left out
        slack = [*(c0 + (c1 + c2) for c0, c1, c2 in diff.coeffs), diff.left]
    at = lambda c, i: (c.value if i < m else c.left_limit)(grid[i % m])  # noqa: E731
    return _settle(OrderTag.FSD, slack, lambda i: (grid[i % m], at(g, i), at(f, i)),
                   lambda: tuple(zip(flat(zip(grid, grid)), walk(g), walk(f))), tol)


def _weighted_slack_candidates(Ap: PiecewiseFn, An: PiecewiseFn, gamma: PiecewiseFn):
    """(slack, row, rows) for _settle; the slack is gamma(t) * surplus(t) -
    deficit(t). Candidate 0, the left limit at the first break, ties with
    the first start (both areas are 0) and keeps the sign of a zero margin;
    each cell's start and stationary point, the start of the unbounded cell
    and each cell end's left limit follow. On deficit stretches the surplus
    side is frozen, so the slack's derivative is linear and its lone
    stationary point exact; elsewhere the slack is monotone on each cell."""
    grid, (apc, anc, gmc) = common_grid(Ap, An, gamma)
    # (t, lhs, rhs) of every candidate, flat: each point, then each cell end's
    # limit; inner holds the numbers of the stationary points
    flat, ends, inner = [grid[0], An.left, gamma.left * Ap.left], [], set()
    # bounded cells: a left limit sits at the next break itself, not at b + h
    for b, end, (a0, a1, a2), (n0, n1, n2), (g0, g1, g2) in zip(grid, grid[1:], apc, anc, gmc):
        h = end - b
        flat += (b, n0, g0 * a0)
        ends += (end, n0 + h * (n1 + h * n2), (g0 + h * (g1 + h * g2)) * (a0 + h * (a1 + h * a2)))
        if (g2 or n2) and (n1 != 0.0 or n2 != 0.0):
            # slack' = gamma'(d) * surplus - deficit'(d), linear in d
            s = 2.0 * (g2 * a0 - n2)
            d = -(g1 * a0 - n1) / s if s != 0.0 else h
            if 0.0 < d < h:
                inner.add(len(flat) // 3)
                flat += (b + d, n0 + d * (n1 + d * n2), (g0 + d * (g1 + d * g2)) * a0)
    # past the last break nothing accrues: its start is the last point
    flat += (grid[-1], anc[-1][0], gmc[-1][0] * apc[-1][0])
    last = len(flat) // 3 - 1
    flat += ends

    def row(i: int) -> tuple[float, float, float]:
        return tuple(flat[3 * i:3 * i + 3])

    def rows() -> tuple[tuple[float, float, float], ...]:
        # each cell's start, the left limit at its end, then its stationary point, if any
        ends = iter(range(last + 1, len(flat) // 3))
        cells = ((i,) if i in inner else (i, next(ends)) for i in range(1, last))
        order = chain((0,), chain.from_iterable(cells), (last,))
        return tuple(map([*zip(flat[::3], flat[1::3], flat[2::3])].__getitem__, order))

    return [*map(operator.sub, flat[2::3], flat[1::3])], row, rows


def _cell_starts(geom: PairGeometry, gamma: PiecewiseFn):
    """The candidates of a step pair under a constant weight g: g * Ap - An
    at each cell start. Ap and An are continuous and start at 0, so each left
    limit repeats the start there (its row reads g + 0.0) and loses its tie."""
    grid, g = geom.grid, gamma.left
    ap, an = [c[0] for c in geom.Ap.coeffs], [c[0] for c in geom.An.coeffs]

    def rows() -> tuple[tuple[float, float, float], ...]:
        starts, lim = [*zip(grid, an, [g * a for a in ap])], g + 0.0
        ends = zip(grid[1:], an[1:], [lim * a for a in ap[1:]])
        return (starts[0], *chain.from_iterable(zip(starts, ends)), starts[-1])

    return [g * a - n for a, n in zip(ap, an)], lambda k: (grid[k], an[k], g * ap[k]), rows


def _graded(tag: OrderTag, F: Distribution, G: Distribution, gamma: PiecewiseFn,
            tol: float) -> Verdict:
    """Settle deficit(t) <= gamma(t) * surplus(t) over every t."""
    geom = pair_geometry(F, G)
    if geom.diff._degree or gamma.breaks:
        return _settle(tag, *_weighted_slack_candidates(geom.Ap, geom.An, gamma), tol)
    return _settle(tag, *_cell_starts(geom, gamma), tol)


def check_ssd(F: Distribution, G: Distribution, tol: float = 1e-9) -> Verdict:
    """Second order: cumulative surplus covers cumulative deficit at every t."""
    return _graded(OrderTag.SSD, F, G, PiecewiseFn.constant(1.0), tol)


def check_fractional(F: Distribution, G: Distribution, gamma: float,
                     tol: float = 1e-9) -> Verdict:
    """Constant-weight order: deficit(t) <= gamma * surplus(t) for all t.
    The graded order under that constant weight, checked under tol."""
    return _graded(OrderTag.FRAC, F, G, GammaFn(PiecewiseFn.constant(gamma), tol=tol).carrier, tol)


def check_mfsd(F: Distribution, G: Distribution, g: GammaFn | PiecewiseFn,
               tol: float = 1e-9) -> Verdict:
    """Graded order: deficit(t) <= gamma(t) * surplus(t) for all t."""
    return _graded(OrderTag.MFSD, F, G, validate_gamma(g, tol).carrier, tol)


def check_ffsd(F: Distribution, G: Distribution, g: GammaFn | PiecewiseFn,
               tol: float = 1e-9) -> Verdict:
    """Reweighted order: the deficit is inflated by 1/gamma pointwise
    before it is accumulated, and the running comparison must hold at
    every t. Zeros of gamma left of the first crossing never see deficit
    mass and are accepted; a zero at or after it raises
    DivisionByZeroGamma.
    """
    w, geom = validate_gamma(g, tol).carrier, pair_geometry(F, G)
    grid, weighted = weighted_area_fn_values(geom.neg, w)
    # Ap at every node: c0 at its own breaks, which are neg's, and its value at each
    # break of w between them, inserted right to left; past the last break both sides
    # are frozen, so the final node carries the t -> infinity comparison
    Ap = geom.Ap
    ap = [c[0] for c in Ap.coeffs]
    for t in reversed(w.breaks):
        i = bisect_left(Ap.breaks, t)
        if Ap.breaks[i:i + 1] != (t,):
            ap.insert(i, Ap.value(t))
    return _settle(OrderTag.FFSD, [*map(operator.sub, ap, weighted)],
                   lambda i: (grid[i], weighted[i], ap[i]),
                   lambda: tuple(zip(grid, weighted, ap)), tol)


def check_easd(F: Distribution, G: Distribution, e: EpsilonFn | PiecewiseFn,
               tol: float = 1e-9) -> Verdict:
    """Single-inequality order: the 1/epsilon-inflated total deficit must
    not exceed the total variation between the CDFs."""
    ef, geom = validate_epsilon(e), pair_geometry(F, G)
    if geom.diff._degree or ef.carrier.breaks:
        lhs = weighted_area_fn_values(geom.neg, ef.carrier)[1][-1]
    else:  # a step pair's deficit cells under a constant weight, in one pass
        cells, level = zip(geom.neg.coeffs, _widths(geom.grid)), ef.carrier.left
        lhs = reduce(operator.add, (v * h / level for (v, _, _), h in cells if v), 0.0)
    rhs = geom.surplus + geom.deficit
    margin = rhs - lhs
    return Verdict(margin >= -tol, None, margin, OrderTag.EASD, ((math.inf, lhs, rhs),))
