"""Deciders for the six dominance orders.

Every order is settled by minimizing the signed slack of its defining
inequality over all of the real line. The slack is piecewise polynomial
(or piecewise monotone, for the weighted variants) on the grid obtained
by refining the CDF difference at its sign changes and merging in the
weight function's breakpoints, so the infimum is attained at finitely
many candidate points: segment starts, left limits at segment ends, and
interior stationary points. No gridding, no sampling.

A margin of at least -tol counts as holding; ties at zero are holds,
matching the weak inequalities that define the orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .distributions import Distribution
from .gamma import EpsilonFn, GammaFn, validate_epsilon, validate_gamma
from .geometry import pair_geometry
from .piecewise import (
    PiecewiseFn,
    common_grid,
    merge_grids,
    signed_parts,  # noqa: F401 - kept importable here: bench/test_bench.py reads it
    weighted_area_fn_values,
)

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


@dataclass(frozen=True)
class Verdict:
    """Outcome of one dominance check.

    margin is the minimal slack rhs - lhs of the defining inequality
    over all t; the check holds iff margin >= -tol. witness_t attains
    the margin (None only for the single-inequality order, which has no
    per-t structure). diagnostics lists (t, lhs, rhs) at every candidate
    the scan inspected.
    """

    holds: bool
    witness_t: float | None
    margin: float
    order_tag: OrderTag
    diagnostics: tuple[tuple[float, float, float], ...]


def _settle(tag: OrderTag, rows: list[tuple[float, float, float]], limits,
            tol: float) -> Verdict:
    """Verdict over the candidate rows (t, lhs, rhs); limits holds the
    indices of the rows whose value is approached from below t, not
    taken at t itself."""
    slack = [r - l for _, l, r in rows]
    margin = min(slack)
    # Among the rows within tol of the margin, prefer witnesses where the
    # inequality is active with real mass on both sides, then points over
    # one-sided limits, then the leftmost location.
    best = min(((abs(rows[i][1]) + abs(rows[i][2]) <= tol, i in limits, rows[i][0])
                for i, s in enumerate(slack) if s - margin <= tol), default=None)
    return Verdict(margin >= -tol, best[2] if best else None, margin, tag, tuple(rows))


def check_fsd(F: Distribution, G: Distribution, tol: float = 1e-9) -> Verdict:
    """First order: F(x) >= G(x) everywhere."""
    grid = merge_grids(F.carrier.breaks, G.carrier.breaks)
    rows = []
    for b, (gv, gl), (fv, fl) in zip(grid, G.carrier._values_on(grid),
                                     F.carrier._values_on(grid)):
        rows += ((b, gv, fv), (b, gl, fl))
    return _settle(OrderTag.FSD, rows, range(1, len(rows), 2), tol)


def _weighted_slack_candidates(Ap: PiecewiseFn, An: PiecewiseFn, gamma: PiecewiseFn
                               ) -> tuple[list[tuple[float, float, float]], set[int] | range]:
    """Candidate rows for the slack gamma(t) * surplus(t) - deficit(t),
    and the indices of the left-limit rows among them.

    On deficit stretches the surplus side is frozen, so the slack's
    derivative is linear there and its lone stationary point is solved
    exactly; everywhere else the slack is monotone on each cell.
    """
    grid, (apc, anc, gmc) = common_grid(Ap, An, gamma)
    rows = [(grid[0], An.left, gamma.left * Ap.left)]
    # Each cell adds its start, then its left limit at the next break. A
    # stationary point, which needs a quadratic weight or deficit, would
    # follow it and move the later limits off the even rows.
    curved = gamma.degree() > 1 or An.degree() > 1
    limits = {0} if curved else range(0, 2 * len(grid) - 1, 2)
    # bounded cells: a left limit sits at the next break itself, not at b + h
    bounded = zip(grid, grid[1:], apc, anc, gmc)
    for b, end, (a0, a1, a2), (n0, n1, n2), (g0, g1, g2) in bounded:
        h = end - b
        rows += ((b, n0, g0 * a0), (end, n0 + h * (n1 + h * n2),
                                    (g0 + h * (g1 + h * g2)) * (a0 + h * (a1 + h * a2))))
        if curved:
            limits.add(len(rows) - 1)
            # slack' = gamma'(d) * surplus - deficit'(d), linear in d
            c = g1 * a0 - n1
            s = 2.0 * (g2 * a0 - n2)
            if (n1 != 0.0 or n2 != 0.0) and s != 0.0:
                d = -c / s
                if 0.0 < d < h:
                    rows.append((b + d, n0 + d * (n1 + d * n2), (g0 + d * (g1 + d * g2)) * a0))
    # past the last break nothing accrues: its start is the last candidate
    rows.append((grid[-1], anc[-1][0], gmc[-1][0] * apc[-1][0]))
    return rows, limits


def _graded(tag: OrderTag, F: Distribution, G: Distribution, gamma: PiecewiseFn,
            tol: float) -> Verdict:
    """Settle deficit(t) <= gamma(t) * surplus(t) over every t."""
    geom = pair_geometry(F, G)
    return _settle(tag, *_weighted_slack_candidates(geom.Ap, geom.An, gamma), tol)


def check_ssd(F: Distribution, G: Distribution, tol: float = 1e-9) -> Verdict:
    """Second order: cumulative surplus covers cumulative deficit at every t."""
    return _graded(OrderTag.SSD, F, G, PiecewiseFn.constant(1.0), tol)


def check_fractional(F: Distribution, G: Distribution, gamma: float,
                     tol: float = 1e-9) -> Verdict:
    """Constant-weight order: deficit(t) <= gamma * surplus(t) for all t.
    The graded order under GammaFn.const(gamma), whose range it shares."""
    return _graded(OrderTag.FRAC, F, G, GammaFn.const(gamma).carrier, tol)


def check_mfsd(F: Distribution, G: Distribution, g: GammaFn | PiecewiseFn,
               tol: float = 1e-9) -> Verdict:
    """Graded order: deficit(t) <= gamma(t) * surplus(t) for all t."""
    gf = validate_gamma(g)
    return _graded(OrderTag.MFSD, F, G, gf.carrier, tol)


def check_ffsd(F: Distribution, G: Distribution, g: GammaFn | PiecewiseFn,
               tol: float = 1e-9) -> Verdict:
    """Reweighted order: the deficit is inflated by 1/gamma pointwise
    before it is accumulated, and the running comparison must hold at
    every t. Zeros of gamma left of the first crossing never see deficit
    mass and are accepted; a zero at or after it raises
    DivisionByZeroGamma.
    """
    gf = validate_gamma(g)
    geom = pair_geometry(F, G)
    grid, weighted = weighted_area_fn_values(geom.neg, gf.carrier)
    # Ap at every node from one walk: c0 there is the number value gives
    rows = list(zip(grid, weighted, [c[0] for c in geom.Ap._coeffs_on(grid)]))
    # beyond the last break both sides are frozen, so the final node
    # already carries the t -> infinity comparison
    return _settle(OrderTag.FFSD, rows, (), tol)


def check_easd(F: Distribution, G: Distribution, e: EpsilonFn | PiecewiseFn,
               tol: float = 1e-9) -> Verdict:
    """Single-inequality order: the 1/epsilon-inflated total deficit must
    not exceed the total variation between the CDFs."""
    ef = validate_epsilon(e)
    geom = pair_geometry(F, G)
    _, weighted = weighted_area_fn_values(geom.neg, ef.carrier)
    lhs = weighted[-1] if weighted else 0.0
    rhs = geom.surplus + geom.deficit
    margin = rhs - lhs
    return Verdict(margin >= -tol, None, margin, OrderTag.EASD,
                   ((math.inf, lhs, rhs),))
