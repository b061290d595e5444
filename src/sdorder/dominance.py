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
from .gamma import (
    EpsilonFn,
    GammaFn,
    GammaOutOfRange,
    validate_epsilon,
    validate_gamma,
)
from .geometry import PairGeometry, pair_geometry
from .piecewise import (
    PiecewiseFn,
    _poly_value,
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


# Candidate = (t, lhs, rhs, attained_at_point). Left-limit candidates
# carry attained_at_point=False: their value is approached from below t,
# not taken at t itself.
_Cand = tuple[float, float, float, bool]


def _settle(tag: OrderTag, cands: list[_Cand], tol: float) -> Verdict:
    margin = min(r - l for _, l, r, _ in cands)
    best_key = None
    best_t = None
    for t, l, r, at_point in cands:
        if (r - l) - margin <= tol:
            # Prefer witnesses where the inequality is active with real
            # mass on both sides, then points over one-sided limits,
            # then the leftmost location.
            key = (abs(l) + abs(r) <= tol, not at_point, t)
            if best_key is None or key < best_key:
                best_key = key
                best_t = t
    diags = tuple((t, l, r) for t, l, r, _ in cands)
    return Verdict(margin >= -tol, best_t, margin, tag, diags)


def check_fsd(F: Distribution, G: Distribution, tol: float = 1e-9) -> Verdict:
    """First order: F(x) >= G(x) everywhere."""
    grid = merge_grids(F.carrier.breaks, G.carrier.breaks)
    cands: list[_Cand] = []
    for b in grid:
        cands.append((b, G.carrier.value(b), F.carrier.value(b), True))
        cands.append((b, G.carrier.left_limit(b), F.carrier.left_limit(b), False))
    return _settle(OrderTag.FSD, cands, tol)


def _weighted_slack_candidates(Ap: PiecewiseFn, An: PiecewiseFn,
                               gamma: PiecewiseFn) -> list[_Cand]:
    """Candidates for the slack gamma(t) * surplus(t) - deficit(t).

    On deficit stretches the surplus side is frozen, so the slack's
    derivative is linear there and its lone stationary point is solved
    exactly; everywhere else the slack is monotone on each cell.
    """
    grid = merge_grids(An.breaks, gamma.breaks)
    ap = Ap.with_breaks(grid)
    an = An.with_breaks(grid)
    gm = gamma.with_breaks(grid)
    cands: list[_Cand] = []
    first = grid[0]
    cands.append((first, an.left, gm.left * ap.left, False))
    for i, b in enumerate(grid):
        a0, a1, a2 = ap.coeffs[i]
        n0, n1, n2 = an.coeffs[i]
        g0, g1, g2 = gm.coeffs[i]
        cands.append((b, n0, g0 * a0, True))
        if i + 1 == len(grid):
            break
        h = grid[i + 1] - b
        lhs_end = _poly_value((n0, n1, n2), h)
        rhs_end = _poly_value((g0, g1, g2), h) * _poly_value((a0, a1, a2), h)
        cands.append((grid[i + 1], lhs_end, rhs_end, False))
        if n1 != 0.0 or n2 != 0.0:
            # slack' = gamma'(d) * surplus - deficit'(d), linear in d
            c = g1 * a0 - n1
            s = 2.0 * (g2 * a0 - n2)
            if s != 0.0:
                d = -c / s
                if 0.0 < d < h:
                    lhs = _poly_value((n0, n1, n2), d)
                    rhs = _poly_value((g0, g1, g2), d) * a0
                    cands.append((b + d, lhs, rhs, True))
    return cands


def _graded(tag: OrderTag, geom: PairGeometry, gamma: PiecewiseFn,
            tol: float) -> Verdict:
    """Settle deficit(t) <= gamma(t) * surplus(t) over every t."""
    return _settle(tag, _weighted_slack_candidates(geom.Ap, geom.An, gamma), tol)


def check_ssd(F: Distribution, G: Distribution, tol: float = 1e-9) -> Verdict:
    """Second order: cumulative surplus covers cumulative deficit at every t."""
    return _graded(OrderTag.SSD, pair_geometry(F, G), PiecewiseFn.constant(1.0), tol)


def check_fractional(F: Distribution, G: Distribution, gamma: float,
                     tol: float = 1e-9) -> Verdict:
    """Constant-weight order: deficit(t) <= gamma * surplus(t) for all t."""
    if not 0.0 <= gamma <= 1.0:
        raise GammaOutOfRange("constant gamma must lie in [0, 1]")
    return _graded(OrderTag.FRAC, pair_geometry(F, G), PiecewiseFn.constant(gamma), tol)


def check_mfsd(F: Distribution, G: Distribution, g: GammaFn | PiecewiseFn,
               tol: float = 1e-9) -> Verdict:
    """Graded order: deficit(t) <= gamma(t) * surplus(t) for all t."""
    gf = validate_gamma(g)
    return _graded(OrderTag.MFSD, pair_geometry(F, G), gf.carrier, tol)


def _ffsd(geom: PairGeometry, gf: GammaFn, tol: float) -> Verdict:
    grid, weighted = weighted_area_fn_values(geom.neg, gf.carrier)
    cands = [(t, w, geom.Ap.value(t), True) for t, w in zip(grid, weighted)]
    # beyond the last break both sides are frozen, so the final node
    # already carries the t -> infinity comparison
    return _settle(OrderTag.FFSD, cands, tol)


def check_ffsd(F: Distribution, G: Distribution, g: GammaFn | PiecewiseFn,
               tol: float = 1e-9) -> Verdict:
    """Reweighted order: the deficit is inflated by 1/gamma pointwise
    before it is accumulated, and the running comparison must hold at
    every t. Zeros of gamma left of the first crossing never see deficit
    mass and are accepted; a zero at or after it raises
    DivisionByZeroGamma.
    """
    gf = validate_gamma(g)
    return _ffsd(pair_geometry(F, G), gf, tol)


def _easd(geom: PairGeometry, ef: EpsilonFn, tol: float) -> Verdict:
    _, weighted = weighted_area_fn_values(geom.neg, ef.carrier)
    lhs = weighted[-1] if weighted else 0.0
    rhs = geom.surplus + geom.deficit
    margin = rhs - lhs
    return Verdict(margin >= -tol, None, margin, OrderTag.EASD,
                   ((math.inf, lhs, rhs),))


def check_easd(F: Distribution, G: Distribution, e: EpsilonFn | PiecewiseFn,
               tol: float = 1e-9) -> Verdict:
    """Single-inequality order: the 1/epsilon-inflated total deficit must
    not exceed the total variation between the CDFs."""
    ef = validate_epsilon(e)
    return _easd(pair_geometry(F, G), ef, tol)
