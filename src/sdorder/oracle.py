"""Brute-force expected-utility cross-checks for the order deciders.

Every decider verdict can be replayed against a bag of sampled test
utilities: if the order holds, every class-conforming utility must give a
non-negative expected-utility gap, and if it fails, the constructed
witness utility must expose a strictly negative gap.  The samplers here
are constructive (never rejection loops), deterministic under a seed, and
independent of the closed-form margin scans they audit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .distributions import Distribution
from .dominance import OrderTag, Verdict, _easd, _ffsd, _graded
from .gamma import EpsilonFn, GammaFn, validate_epsilon, validate_gamma
from .geometry import PairGeometry, pair_geometry
from .piecewise import _poly_max, merge_grids
from .utility import UtilityPWL, _base_asd, _base_ff, _base_mf, _gap, combine

__all__ = [
    "SamplerConfig",
    "AgreementReport",
    "sample_mf_utilities",
    "sample_ff_utilities",
    "agreement_mfsd",
    "agreement_ffsd",
    "agreement_easd",
    "greediness_oracle",
]


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the utility samplers.

    t_grid: threshold parameters the base-type utilities are drawn from.
    slope_range: positive interval the free slopes are drawn from.
    """

    t_grid: tuple[float, ...]
    seed: int = 0
    count: int = 100
    max_terms: int = 3
    slope_range: tuple[float, float] = (0.1, 2.0)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("sample count must be at least 1")
        if not self.t_grid:
            raise ValueError("threshold grid must be non-empty")
        lo, hi = self.slope_range
        if not (0.0 < lo <= hi):
            raise ValueError("slope range must be positive and ordered")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


@dataclass(frozen=True)
class AgreementReport:
    """Outcome of replaying a decider verdict against sampled utilities.

    agree means: verdict-holds and no sampled gap fell below -tol, or
    verdict-fails and some evaluated utility (the constructed witness)
    has gap below -tol.
    """

    verdict: Verdict
    count: int
    min_gap: float
    violating: UtilityPWL | None
    agree: bool

    def summary(self) -> str:
        if self.violating is None:
            return (
                f"no counterexample among {self.count} sampled utilities "
                f"(min gap {self.min_gap:.6g})"
            )
        return (
            f"violating utility found among {self.count} evaluated "
            f"(min gap {self.min_gap:.6g})"
        )


def _segment_sups(gamma: GammaFn, breaks: list[float]) -> list[float]:
    """Supremum of gamma over each cell cut by `breaks` (monotone gamma).

    Cell i is (breaks[i-1], breaks[i]) with an unbounded first and last
    cell; the sup of a non-decreasing function on a cell is its left
    limit at the right endpoint, and the last cell tops out at the
    global upper value.
    """
    sups = []
    for i in range(len(breaks)):
        sups.append(gamma.carrier.left_limit(breaks[i]))
    sups.append(gamma.upper)
    return sups


def _draw_dpm_slopes(
    rng: random.Random,
    gamma: GammaFn,
    breaks: list[float],
    slope_range: tuple[float, float],
) -> list[float]:
    """Slopes admissible for `gamma`, drawn left to right.

    Each new slope obeys sup-of-gamma-on-its-cell times slope <= running
    minimum of earlier slopes, which is exactly the decreasing-marginal
    constraint the membership checker enforces.  gamma identically 0
    leaves the draw unconstrained.
    """
    lo, hi = slope_range
    sups = _segment_sups(gamma, breaks)
    slopes = [rng.uniform(lo, hi)]
    prefix_min = slopes[0]
    for i in range(1, len(breaks) + 1):
        cap = hi if sups[i] <= 0.0 else min(hi, prefix_min / sups[i])
        s = rng.uniform(0.0, cap)
        slopes.append(s)
        prefix_min = min(prefix_min, s)
    return slopes


def _random_breaks(rng: random.Random, span: tuple[float, float], k: int) -> list[float]:
    a, b = span
    if b <= a:
        a, b = a - 1.0, a + 1.0
    pts = sorted(set(rng.uniform(a, b) for _ in range(k)))
    return pts


def _span_of(cfg: SamplerConfig) -> tuple[float, float]:
    a, b = min(cfg.t_grid), max(cfg.t_grid)
    if b - a <= 0.0:
        return a - 1.0, a + 1.0
    return a, b


def _sample_mf(geom: PairGeometry, gamma: GammaFn,
               cfg: SamplerConfig) -> list[UtilityPWL]:
    rng = random.Random(cfg.seed)
    out: list[UtilityPWL] = [_base_mf(cfg.t_grid[0], geom, gamma)]
    cap = GammaFn.const(gamma.upper)
    span = _span_of(cfg)
    while len(out) < cfg.count:
        k = rng.randint(1, cfg.max_terms)
        terms: list[tuple[float, UtilityPWL]] = []
        for _ in range(k):
            w = rng.uniform(0.1, 1.0)
            if rng.random() < 0.7:
                t = rng.choice(cfg.t_grid)
                terms.append((w, _base_mf(t, geom, gamma)))
            else:
                brk = _random_breaks(rng, span, rng.randint(1, 3))
                slopes = _draw_dpm_slopes(rng, cap, brk, cfg.slope_range)
                terms.append((w, UtilityPWL(tuple(brk), tuple(slopes))))
        out.append(combine(terms))
    return out


def sample_mf_utilities(
    F: Distribution,
    G: Distribution,
    gamma: GammaFn,
    cfg: SamplerConfig,
) -> list[UtilityPWL]:
    """Sample utilities from the class matched to the pointwise order.

    The first sample is always the plain base-type utility at the first
    grid threshold, so a single-threshold, count-1 config returns exactly
    that utility.  The rest are positive combinations of base types over
    cfg.t_grid, with some terms drawn from the constant-cap admissible
    class at the gamma upper value.
    """
    return _sample_mf(pair_geometry(F, G), validate_gamma(gamma), cfg)


def sample_ff_utilities(gamma: GammaFn, cfg: SamplerConfig) -> list[UtilityPWL]:
    """Sample utilities admissible for `gamma` under the slope-cap rule.

    Constructive left-to-right draws: each slope is capped by the prefix
    minimum divided by the sup of gamma on its cell, so every sample
    passes the membership check by construction.  gamma identically 1
    yields concave samples; gamma identically 0 yields unconstrained
    non-negative slopes.
    """
    rng = random.Random(cfg.seed)
    span = _span_of(cfg)
    out: list[UtilityPWL] = []
    for _ in range(cfg.count):
        brk = _random_breaks(rng, span, rng.randint(1, 4))
        slopes = _draw_dpm_slopes(rng, gamma, brk, cfg.slope_range)
        out.append(UtilityPWL(tuple(brk), tuple(slopes)))
    return out


def _eps_sup(eps: EpsilonFn) -> float:
    """Global supremum of the threshold function over the whole line."""
    carrier = eps.carrier
    best = carrier.left
    ends = carrier.breaks[1:] + (math.inf,)
    for b, end, coeff in zip(carrier.breaks, ends, carrier.coeffs):
        best = max(best, _poly_max(coeff, end - b))
    return best


def _sample_asd_utilities(eps: EpsilonFn, cfg: SamplerConfig) -> list[UtilityPWL]:
    """Utilities whose slopes stay within the epsilon ratio bound.

    Every slope lies in [m, m * (1 - sup eps) / sup eps] for the sample's
    own minimum slope m, with one cell pinned at m so the bound binds on
    the actual minimum.  Using the global sup is conservative, hence
    membership holds on every cell.
    """
    rng = random.Random(cfg.seed)
    span = _span_of(cfg)
    sup = _eps_sup(eps)
    factor = (1.0 - sup) / sup if sup > 0.0 else 4.0
    factor = max(1.0, factor)
    out: list[UtilityPWL] = []
    for _ in range(cfg.count):
        brk = _random_breaks(rng, span, rng.randint(1, 4))
        m = rng.uniform(*cfg.slope_range)
        slopes = [m * rng.uniform(1.0, factor) for _ in range(len(brk) + 1)]
        slopes[rng.randrange(len(slopes))] = m
        out.append(UtilityPWL(tuple(brk), tuple(slopes)))
    return out


def _descend_mf_witness(
    geom: PairGeometry,
    gamma: GammaFn,
    t_star: float,
    tol: float,
) -> UtilityPWL:
    """Base-type witness with a certified negative gap near t_star.

    When the margin minimum is attained only as a left limit (gamma jumps
    up exactly at t_star), the base type at t_star itself has a
    non-negative gap; stepping the threshold left inside the adjacent
    cell recovers a strict violator.
    """
    w = _base_mf(t_star, geom, gamma)
    gap = _gap(geom, w)
    if gap < -tol:
        return w
    grid = merge_grids(geom.An.breaks, gamma.carrier.breaks)
    prev = max((p for p in grid if p < t_star), default=t_star - 1.0)
    step = (t_star - prev) / 2.0
    for _ in range(80):
        cand = _base_mf(t_star - step, geom, gamma)
        cand_gap = _gap(geom, cand)
        if cand_gap < gap:
            w, gap = cand, cand_gap
        step /= 2.0
    return w


def _replay(verdict: Verdict, geom: PairGeometry, samples: list[UtilityPWL],
            witness, tol: float) -> AgreementReport:
    """Evaluate every sample and, for a failing verdict, the utility
    that `witness()` constructs."""
    min_gap, argmin = math.inf, None
    for u in samples:
        gap = _gap(geom, u)
        if gap < min_gap:
            min_gap, argmin = gap, u
    count = len(samples)
    if not verdict.holds:
        w = witness()
        wgap = _gap(geom, w)
        count += 1
        if wgap < min_gap:
            min_gap, argmin = wgap, w
    agree = (min_gap >= -tol) if verdict.holds else (min_gap < -tol)
    violating = argmin if min_gap < -tol else None
    return AgreementReport(verdict, count, min_gap, violating, agree)


def agreement_mfsd(
    F: Distribution,
    G: Distribution,
    gamma: GammaFn,
    cfg: SamplerConfig,
    tol: float = 1e-9,
) -> AgreementReport:
    """Replay the pointwise-weight decider against sampled utilities."""
    gamma = validate_gamma(gamma)
    geom = pair_geometry(F, G)
    verdict = _graded(OrderTag.MFSD, geom, gamma.carrier, tol)
    return _replay(verdict, geom, _sample_mf(geom, gamma, cfg),
                   lambda: _descend_mf_witness(geom, gamma, verdict.witness_t, tol), tol)


def agreement_ffsd(
    F: Distribution,
    G: Distribution,
    gamma: GammaFn,
    cfg: SamplerConfig,
    tol: float = 1e-9,
) -> AgreementReport:
    """Replay the integrated-weight decider against sampled utilities.

    Requires a step-valued gamma that is positive wherever the deficit
    carries mass, matching the witness constructor's own contract.
    """
    gamma = validate_gamma(gamma)
    geom = pair_geometry(F, G)
    verdict = _ffsd(geom, gamma, tol)
    return _replay(verdict, geom, sample_ff_utilities(gamma, cfg),
                   lambda: _base_ff(verdict.witness_t, geom, gamma), tol)


def agreement_easd(
    F: Distribution,
    G: Distribution,
    eps: EpsilonFn,
    cfg: SamplerConfig,
    tol: float = 1e-9,
) -> AgreementReport:
    """Replay the single-inequality decider against sampled utilities.

    The decider margin equals the witness utility's gap algebraically,
    so a failing verdict always comes with a strict violator.
    """
    eps = validate_epsilon(eps)
    geom = pair_geometry(F, G)
    verdict = _easd(geom, eps, tol)
    return _replay(verdict, geom, _sample_asd_utilities(eps, cfg),
                   lambda: _base_asd(geom, eps), tol)


def greediness_oracle(u: UtilityPWL, x: float, grid_size: int = 50) -> float:
    """Discrete greediness: sup of later-over-earlier difference quotient
    ratios over grid quadruples x < x1 < x2 <= x3 < x4.

    The grid is a uniform mesh on [x, end] joined with u's breakpoints,
    anchored at x itself so the cell touching x is never skipped; the
    discrete sup is exact once every kink is a grid node.  Any span's
    quotient is a convex combination of the quotients of the grid cells
    it covers, so the sup over quadruples is attained on single-cell
    spans; that reduces the search to cell pairs and a prefix minimum.
    Conventions: 0/0 counts as 1, positive/0 as infinity, and the result
    is floored at 1 (equal spans are always admissible).
    """
    if grid_size < 4:
        raise ValueError("grid must allow at least one quadruple")
    tail = max((b for b in u.breaks), default=x)
    end = max(tail, x) + 1.0
    pts = {x + i * (end - x) / grid_size for i in range(grid_size + 1)}
    pts.update(b for b in u.breaks if b > x)
    grid = sorted(pts)
    quots = []
    for a, b in zip(grid, grid[1:]):
        quots.append(u.increment(a, b) / (b - a))
    best = 1.0
    prefix_min = math.inf
    for j in range(1, len(quots)):
        prefix_min = min(prefix_min, quots[j - 1])
        q = quots[j]
        if prefix_min <= 0.0:
            ratio = 1.0 if q <= 0.0 else math.inf
        else:
            ratio = q / prefix_min
        if ratio > best:
            best = ratio
    return best
