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

from .distributions import Distribution
from .dominance import Verdict, check_easd, check_ffsd, check_mfsd
from .gamma import EpsilonFn, GammaFn, validate_epsilon, validate_gamma
from .piecewise import Frozen, _poly_max
from .utility import (
    UtilityPWL,
    combine,
    expected_utility_gap,
    make_base_asd,
    make_base_ff,
    make_base_mf,
)

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


# A combined graded sample has at most _MAX_TERMS terms; free slopes are
# drawn from the positive interval _SLOPE_RANGE.
_MAX_TERMS = 3
_SLOPE_RANGE = (0.1, 2.0)


class SamplerConfig(Frozen):
    """Knobs for the utility samplers.

    t_grid: threshold parameters the base-type utilities are drawn from.
    """

    t_grid: tuple[float, ...]
    seed: int
    count: int

    def __init__(self, t_grid, seed=0, count=100) -> None:
        if count < 1:
            raise ValueError("sample count must be at least 1")
        if not t_grid:
            raise ValueError("threshold grid must be non-empty")
        for t in t_grid:
            if not math.isfinite(t):
                raise ValueError(f"t_grid threshold must be finite, got {t!r}")
        self.__dict__.update(t_grid=t_grid, seed=seed, count=count)


class AgreementReport(Frozen):
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


def _draw_dpm_slopes(rng: random.Random, gamma: GammaFn, breaks: list[float]) -> list[float]:
    """Slopes admissible for `gamma`, drawn left to right.

    Each new slope obeys sup-of-gamma-on-its-cell times slope <= running
    minimum of earlier slopes, which is exactly the decreasing-marginal
    constraint the membership checker enforces.  gamma identically 0
    leaves the draw unconstrained.  Cell i is (breaks[i-1], breaks[i]),
    unbounded at both ends; the sup of a non-decreasing gamma on a cell
    is its left limit at the right endpoint, and the last cell tops out
    at the global upper value.
    """
    lo, hi = _SLOPE_RANGE
    sups = [*map(gamma.carrier.left_limit, breaks), gamma.upper]
    slopes = [rng.uniform(lo, hi)]
    prefix_min = slopes[0]
    for i in range(1, len(breaks) + 1):
        cap = hi if sups[i] <= 0.0 else min(hi, prefix_min / sups[i])
        s = rng.uniform(0.0, cap)
        slopes.append(s)
        prefix_min = min(prefix_min, s)
    return slopes


def _random_breaks(rng: random.Random, span: tuple[float, float], k: int) -> list[float]:
    """k uniform draws on span (from _span_of, so a < b), sorted, repeats dropped."""
    a, b = span
    return sorted(set(rng.uniform(a, b) for _ in range(k)))


def _span_of(cfg: SamplerConfig) -> tuple[float, float]:
    a, b = min(cfg.t_grid), max(cfg.t_grid)
    if b - a <= 0.0:
        return a - 1.0, a + 1.0
    return a, b


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
    gamma = validate_gamma(gamma)
    rng = random.Random(cfg.seed)
    out: list[UtilityPWL] = [make_base_mf(cfg.t_grid[0], F, G, gamma)]
    cap = GammaFn.const(gamma.upper)
    span = _span_of(cfg)
    while len(out) < cfg.count:
        k = rng.randint(1, _MAX_TERMS)
        terms: list[tuple[float, UtilityPWL]] = []
        for _ in range(k):
            w = rng.uniform(0.1, 1.0)
            if rng.random() < 0.7:
                t = rng.choice(cfg.t_grid)
                terms.append((w, make_base_mf(t, F, G, gamma)))
            else:
                brk = _random_breaks(rng, span, rng.randint(1, 3))
                slopes = _draw_dpm_slopes(rng, cap, brk)
                terms.append((w, UtilityPWL(tuple(brk), tuple(slopes))))
        out.append(combine(terms))
    return out


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
        slopes = _draw_dpm_slopes(rng, gamma, brk)
        out.append(UtilityPWL(tuple(brk), tuple(slopes)))
    return out


def _eps_sup(eps: EpsilonFn) -> float:
    """Global supremum of the threshold function over the whole line."""
    carrier = eps.carrier
    return max([carrier.left, *(_poly_max(c, h) for _, h, c in carrier.cells())])


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
        m = rng.uniform(*_SLOPE_RANGE)
        slopes = [m * rng.uniform(1.0, factor) for _ in range(len(brk) + 1)]
        slopes[rng.randrange(len(slopes))] = m
        out.append(UtilityPWL(tuple(brk), tuple(slopes)))
    return out


def _mf_witness(F: Distribution, G: Distribution, gamma: GammaFn,
                t_star: float) -> UtilityPWL:
    """Base-type witness at t_star, whose gap is the margin.

    Where gamma jumps up at t_star the margin is the left-limit slack
    gamma(t_star-) * surplus(t_star) - deficit(t_star), the gap of the
    base type under the constant gamma(t_star-).  It stays in gamma's
    class: left of t_star gamma is at most gamma(t_star-).
    """
    below = gamma.carrier.left_limit(t_star)
    if below < gamma.value(t_star):
        gamma = GammaFn.const(below)
    return make_base_mf(t_star, F, G, gamma)


def _replay(verdict: Verdict, F: Distribution, G: Distribution,
            samples: list[UtilityPWL], witness, tol: float) -> AgreementReport:
    """Evaluate every sample and, for a failing verdict, the utility
    that `witness()` constructs."""
    min_gap, argmin = math.inf, None
    for u in samples:
        gap = expected_utility_gap(F, G, u)
        if gap < min_gap:
            min_gap, argmin = gap, u
    count = len(samples)
    if not verdict.holds:
        w = witness()
        wgap = expected_utility_gap(F, G, w)
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
    verdict = check_mfsd(F, G, gamma, tol)
    return _replay(verdict, F, G, sample_mf_utilities(F, G, gamma, cfg),
                   lambda: _mf_witness(F, G, gamma, verdict.witness_t), tol)


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
    verdict = check_ffsd(F, G, gamma, tol)
    return _replay(verdict, F, G, sample_ff_utilities(gamma, cfg),
                   lambda: make_base_ff(verdict.witness_t, F, G, gamma), tol)


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
    verdict = check_easd(F, G, eps, tol)
    return _replay(verdict, F, G, _sample_asd_utilities(eps, cfg),
                   lambda: make_base_asd(F, G, eps), tol)


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
