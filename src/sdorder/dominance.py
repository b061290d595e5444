"""Deciders for the six dominance orders.

Every order is settled by minimizing the signed slack of its defining
inequality over all of the real line. The slack is piecewise polynomial
(or piecewise monotone, for the weighted variants) on the grid obtained
by refining the CDF difference at its sign changes and merging in the
weight function's breakpoints, so the infimum is attained at finitely
many candidate points: segment starts, left limits at segment ends, and
interior stationary points. No gridding, no sampling. On a step pair the
surplus and deficit are continuous and linear on each cell of the
geometry, so a left limit repeats the next cell's start and loses its tie
to it: SSD, FRAC and a constant MFSD read the cell starts alone, and FFSD
(step weight) and EASD (constant) walk the cells and weight breaks once.

A margin of at least -tol counts as holding; ties at zero are holds,
matching the weak inequalities that define the orders.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from functools import reduce
from itertools import chain

from .distributions import Distribution
from .gamma import DivisionByZeroGamma, EpsilonFn, GammaFn, validate_epsilon, validate_gamma
from .geometry import PairGeometry, pair_geometry
from .piecewise import PiecewiseFn, _widths, common_grid, merge_grids, weighted_area_fn_values
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


class Verdict:
    """Outcome of one dominance check: margin is the minimal slack
    rhs - lhs of the defining inequality over all t, and the check holds
    iff margin >= -tol. witness_t attains the margin (None only for the
    single-inequality order). diagnostics lists (t, lhs, rhs) at every
    candidate the scan inspected; it is given as the rows or as a callable
    that builds them on first read. Repr, ==, hash and pickle read the
    rows, and no field can be set."""

    __slots__ = ("holds", "witness_t", "margin", "order_tag", "_rows")

    def __init__(self, holds, witness_t, margin, order_tag, diagnostics) -> None:
        for name, value in zip(self.__slots__, (holds, witness_t, margin, order_tag, diagnostics)):
            object.__setattr__(self, name, value)

    @property
    def diagnostics(self) -> tuple[tuple[float, float, float], ...]:
        if callable(self._rows):
            object.__setattr__(self, "_rows", self._rows())
        return self._rows

    def __reduce__(self) -> tuple:
        return Verdict, (self.holds, self.witness_t, self.margin, self.order_tag, self.diagnostics)

    def __repr__(self) -> str:
        names = (*self.__slots__[:4], "diagnostics")
        return f"Verdict({', '.join(map('{}={!r}'.format, names, self.__reduce__()[1]))})"

    def __eq__(self, other: object) -> bool:
        return (self.__reduce__() == other.__reduce__() if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


def _settle(tag: OrderTag, slack: list[float], row, place, rows, tol: float) -> Verdict:
    """Verdict from the slack rhs - lhs of every candidate. row(i) is
    candidate i as (t, lhs, rhs) and place(i) is (limit, t), limit telling
    that its value is approached from below t; rows() builds them all."""
    margin = min(slack)
    # Among the rows within tol of the margin, prefer witnesses with real mass
    # on both sides, then points over one-sided limits, then the leftmost.
    near = sorted((i for i, s in enumerate(slack) if s - margin <= tol), key=place)
    massive = (i for i in near for _, l, r in (row(i),) if not abs(l) + abs(r) <= tol)
    best = next(massive, near[0] if near else None)
    return Verdict(margin >= -tol, None if best is None else place(best)[1], margin, tag, rows)


def check_fsd(F: Distribution, G: Distribution, tol: float = 1e-9) -> Verdict:
    """First order: F(x) >= G(x) everywhere."""
    diff, f, g, flat = pair_geometry(F, G).diff, F.carrier, G.carrier, chain.from_iterable
    grid, walk = diff.breaks, lambda c: flat(c._values_on(diff.breaks))
    if f._degree or g._degree:
        # candidates 2k and 2k + 1: the value and the left limit at grid[k]
        slack, place = [*map(operator.sub, walk(f), walk(g))], lambda i: (i & 1, grid[i >> 1])
    else:
        # a step pair's F - G at grid[k] is diff's cell there read as c0 + (c1 + c2); a left
        # limit past grid[0] repeats the value before it, which wins its ties, so it is left out
        d = [c0 + (c1 + c2) for c0, c1, c2 in diff.coeffs]
        slack, place = [d[0], diff.left, *d[1:]], lambda i: (i == 1, grid[i - (i > 0)])
    at = lambda c, i: (c.left_limit if place(i)[0] else c.value)(place(i)[1])  # noqa: E731
    return _settle(OrderTag.FSD, slack, lambda i: (place(i)[1], at(g, i), at(f, i)), place,
                   lambda: tuple(zip(flat(zip(grid, grid)), walk(g), walk(f))), tol)


def _weighted_slack_candidates(Ap: PiecewiseFn, An: PiecewiseFn, gamma: PiecewiseFn):
    """(slack, row, place, rows) for _settle; the slack is gamma(t) *
    surplus(t) - deficit(t). Candidate 0 is the left limit at the first
    break, 2k + 1 and 2k + 2 the start of cell k and the left limit at its
    end; the start of the unbounded cell and the stationary points follow.
    On deficit stretches the surplus side is frozen, so the slack's
    derivative is linear there and its lone stationary point is solved
    exactly; everywhere else the slack is monotone on each cell."""
    grid, (apc, anc, gmc) = common_grid(Ap, An, gamma)
    first = grid[0], An.left, gamma.left * Ap.left
    last = grid[-1], anc[-1][0], gmc[-1][0] * apc[-1][0]
    slack = [first[2] - first[1]]
    inner = {}  # cell -> offset of its stationary point
    # bounded cells: a left limit sits at the next break itself, not at b + h
    for b, end, (a0, a1, a2), (n0, n1, n2), (g0, g1, g2) in zip(grid, grid[1:], apc, anc, gmc):
        h = end - b
        slack += (g0 * a0 - n0, (g0 + h * (g1 + h * g2)) * (a0 + h * (a1 + h * a2))
                  - (n0 + h * (n1 + h * n2)))
        if (g2 or n2) and (n1 != 0.0 or n2 != 0.0):
            # slack' = gamma'(d) * surplus - deficit'(d), linear in d
            s = 2.0 * (g2 * a0 - n2)
            d = -(g1 * a0 - n1) / s if s != 0.0 else h
            if 0.0 < d < h:
                inner[len(slack) // 2 - 1] = d
    # past the last break nothing accrues: its start is the last candidate
    slack.append(last[2] - last[1])

    def cell(k: int) -> list[tuple[float, float, float]]:  # start, end's limit, stationary point
        b, end, d = grid[k], grid[k + 1], inner.get(k)
        (a0, a1, a2), (n0, n1, n2), (g0, g1, g2), h = apc[k], anc[k], gmc[k], end - b
        out = [(b, n0, g0 * a0), (end, n0 + h * (n1 + h * n2),
                                  (g0 + h * (g1 + h * g2)) * (a0 + h * (a1 + h * a2)))]
        if d is not None:
            out.append((b + d, n0 + d * (n1 + d * n2), (g0 + d * (g1 + d * g2)) * a0))
        return out

    n, curved = len(slack), [*inner]
    slack += [r - l for k in curved for _, l, r in (cell(k)[2],)]

    def row(i: int) -> tuple[float, float, float]:
        k, end = divmod(i - 1, 2)
        return (cell(curved[i - n])[2] if i >= n else first if k < 0
                else last if i == n - 1 else cell(k)[end])

    return (slack, row, lambda i: (not i & 1, grid[i >> 1]) if i < n else (False, row(i)[0]),
            lambda: (first, *chain.from_iterable(map(cell, range(n // 2 - 1))), last))


def _cell_starts(geom: PairGeometry, gamma: PiecewiseFn):
    """The candidates of a step pair under a constant weight g: g * Ap - An
    at each cell start. Ap and An are continuous and start at 0, so each left
    limit has the bits and row of the start after it and loses its tie."""
    grid, g = geom.grid, gamma.left
    ap, an = [c[0] for c in geom.Ap.coeffs], [c[0] for c in geom.An.coeffs]
    return ([g * a - n for a, n in zip(ap, an)], lambda k: (grid[k], an[k], g * ap[k]),
            lambda k: (False, grid[k]),
            lambda: _weighted_slack_candidates(geom.Ap, geom.An, gamma)[3]())


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
    if geom.diff._degree or w._degree:
        grid, weighted = weighted_area_fn_values(geom.neg, w)
        # Ap at every node from one walk: c0 there is the number value gives
        ap = [c[0] for c in geom.Ap._coeffs_on(grid)]
    else:  # a step pair under a step weight: one walk of its cells and the weight's breaks
        grid, ap, weighted = merge_grids(geom.grid, w.breaks), [], [0.0]
        cells, breaks, i, j = (*geom.grid, math.inf), (*w.breaks, math.inf), 0, 0
        a0, a1, v, start, level = 0.0, 0.0, 0.0, cells[0], w.left  # left of every cell
        for t, h in zip(grid, _widths(grid)):
            if t == cells[i]:
                (a0, a1, _), (v, _, _), start, i = geom.Ap.coeffs[i], geom.neg.coeffs[i], t, i + 1
            if t == breaks[j]:
                level, j = w.coeffs[j][0], j + 1
            if v and not level > 0.0:
                raise DivisionByZeroGamma("zero weight on a segment with mass")
            ap.append(a0 + (t - start) * a1)  # Ap's shift: its quad term is a zero
            weighted.append(weighted[-1] + v * h / level if v else weighted[-1])  # 0 past the end
    # beyond the last break both sides are frozen, so the final node
    # already carries the t -> infinity comparison
    return _settle(OrderTag.FFSD, [*map(operator.sub, ap, weighted)],
                   lambda i: (grid[i], weighted[i], ap[i]), lambda i: (False, grid[i]),
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
