"""Piecewise-linear utilities, slope-class membership, and greediness.

A utility here is continuous, non-decreasing, and has a constant right
derivative on each of finitely many segments. That restriction keeps
every quantity in this module exact: expected-utility gaps are finite
sums, slope-ratio suprema are maxima over finitely many pairs, and the
two exclusion criteria for the graded dominance class reduce to
closed-form touch detection.

Zero slopes follow the conventions 0/0 = 1 and p/0 = infinity for
p > 0, so flat tails behave as constants rather than poisoning ratios.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from enum import Enum

from .distributions import Distribution
from .gamma import EpsilonFn, GammaFn, validate_epsilon, validate_gamma
from .geometry import PairGeometry, pair_geometry, total_area_from_cum
from .piecewise import (
    DivisionByZeroGamma,
    PiecewiseFn,
    _poly_max,
    _poly_roots,
    _poly_value,
    merge_grids,
)

__all__ = [
    "ExclusionKind",
    "ExclusionVerdict",
    "GreedinessProfile",
    "MembershipVerdict",
    "NonPositiveSlope",
    "NonStepGammaOnNegativeRegion",
    "UtilityPWL",
    "ara_bound_report",
    "check_dpm_gamma",
    "check_membership_asd",
    "check_membership_fractional",
    "combine",
    "expected_utility_gap",
    "global_greediness",
    "greediness_profile",
    "make_base_asd",
    "make_base_ff",
    "make_base_mf",
    "mfsd_exclusion",
    "partial_greediness",
    "translate",
]


class NonPositiveSlope(ValueError):
    """The log-ratio report needs strictly increasing utilities."""


class NonStepGammaOnNegativeRegion(ValueError):
    """Base-type construction needs a locally constant weight where the
    CDF difference is negative; approximating would change the witness."""


@dataclass(frozen=True)
class UtilityPWL:
    """Continuous non-decreasing function with piecewise-constant slope.

    slopes[0] applies on (-inf, breaks[0]), slopes[i] on
    [breaks[i-1], breaks[i]), and the last entry beyond the final
    breakpoint. Values are reconstructed by integrating the slope away
    from the anchor point, so the representation is continuous by
    construction. provenance records which constructor produced the
    function; it never affects equality.
    """

    breaks: tuple[float, ...]
    slopes: tuple[float, ...]
    anchor: tuple[float, float] = (0.0, 0.0)
    provenance: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.slopes) != len(self.breaks) + 1:
            raise ValueError("need exactly one more slope than breakpoints")
        for a, b in zip(self.breaks, self.breaks[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        for s in self.slopes:
            if s < 0.0:
                raise ValueError("slopes must be non-negative")

    def slope_at(self, x: float) -> float:
        """Right derivative at x."""
        return self.slopes[bisect.bisect_right(self.breaks, x)]

    def left_slope_at(self, x: float) -> float:
        """Left derivative at x (= previous segment's slope at breakpoints)."""
        return self.slopes[bisect.bisect_left(self.breaks, x)]

    def increment(self, lo: float, hi: float) -> float:
        """u(hi) - u(lo) for lo <= hi, as an exact slope-overlap sum.

        Spans inside a flat segment give exactly 0.0, with no
        cancellation residue from subtracting two reconstructed values.
        """
        total = 0.0
        points = (-math.inf,) + self.breaks + (math.inf,)
        for i, s in enumerate(self.slopes):
            a = max(points[i], lo)
            b = min(points[i + 1], hi)
            if b > a and s != 0.0:
                total += s * (b - a)
        return total

    def value(self, x: float) -> float:
        x0, v0 = self.anchor
        if x0 <= x:
            return v0 + self.increment(x0, x)
        return v0 - self.increment(x, x0)


@dataclass(frozen=True)
class GreedinessProfile:
    """Right-continuous non-increasing step map x -> worst forward slope
    ratio strictly right of x; values in [1, infinity]."""

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def value(self, x: float) -> float:
        return self.values[bisect.bisect_right(self.breaks, x)]


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    pair: tuple[float, float] | None
    note: str


class ExclusionKind(str, Enum):
    MEMBER_BY_CONSTRUCTION = "member_by_construction"
    EXCLUDED_STRICT_INCREASE = "excluded_strict_increase"
    EXCLUDED_TWO_TOUCHES = "excluded_two_touches"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ExclusionVerdict:
    kind: ExclusionKind
    points: tuple[float, ...]
    reason: str


def _segment_rep(breaks: tuple[float, ...], i: int) -> float:
    """Deterministic representative point of slope segment i."""
    if not breaks:
        return 0.0
    if i == 0:
        return breaks[0] - 1.0
    if i == len(breaks):
        return breaks[-1] + 1.0
    return 0.5 * (breaks[i - 1] + breaks[i])


# -- base-type constructors -----------------------------------------------


def _compress(breaks: list[float], slopes: list[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Drop breakpoints that separate equal slopes."""
    out_b: list[float] = []
    out_s: list[float] = [slopes[0]]
    for b, s in zip(breaks, slopes[1:]):
        if s != out_s[-1]:
            out_b.append(b)
            out_s.append(s)
    return tuple(out_b), tuple(out_s)


def _base_mf(t: float, geom: PairGeometry, gf: GammaFn) -> UtilityPWL:
    gt = gf.value(t)
    breaks: list[float] = []
    slopes: list[float] = [gt]
    for b, is_neg in zip(geom.grid, geom.neg_flags):
        if b >= t:
            break
        breaks.append(b)
        slopes.append(1.0 if is_neg else gt)
    cb, cs = _compress(breaks + [t], slopes + [0.0])
    return UtilityPWL(cb, cs, anchor=(t, 0.0), provenance="base_mf")


def make_base_mf(t: float, F: Distribution, G: Distribution,
                 g: GammaFn | PiecewiseFn) -> UtilityPWL:
    """Witness utility for the graded order at threshold t.

    Slope gamma(t) wherever the CDF difference is non-negative (up to
    t), slope 1 where it is negative, flat after t; anchored to 0 at t.
    Its expected-utility gap against (F, G) equals
    gamma(t) * surplus(t) - deficit(t) exactly.
    """
    gf = validate_gamma(g)
    return _base_mf(t, pair_geometry(F, G), gf)


def _reweighted_slopes(geom: PairGeometry, w: PiecewiseFn, t: float, name: str,
                       slope) -> tuple[list[float], list[float]]:
    """Breaks and slopes left of t: 1 on non-negative cells, slope(w) on
    negative cells, where w must be constant and positive."""
    grid = merge_grids(geom.grid, w.breaks)
    wm = w.with_breaks(grid)
    ng = geom.neg.with_breaks(grid)
    breaks: list[float] = []
    slopes: list[float] = [1.0]
    for i, b in enumerate(grid):
        if b >= t:
            break
        s = 1.0
        if any(c != 0.0 for c in ng.coeffs[i]):
            w0, w1, w2 = wm.coeffs[i]
            if w1 != 0.0 or w2 != 0.0:
                raise NonStepGammaOnNegativeRegion(
                    f"{name} varies on a cell where the difference is negative")
            if w0 <= 0.0:
                raise DivisionByZeroGamma(f"{name} vanishes on a negative cell")
            s = slope(w0)
        breaks.append(b)
        slopes.append(s)
    return breaks, slopes


def _base_ff(t: float, geom: PairGeometry, gf: GammaFn) -> UtilityPWL:
    breaks, slopes = _reweighted_slopes(geom, gf.carrier, t, "gamma", lambda g0: 1.0 / g0)
    cb, cs = _compress(breaks + [t], slopes + [0.0])
    return UtilityPWL(cb, cs, anchor=(t, 0.0), provenance="base_ff")


def make_base_ff(t: float, F: Distribution, G: Distribution,
                 g: GammaFn | PiecewiseFn) -> UtilityPWL:
    """Witness utility with slope 1 on non-negative cells and 1/gamma(x)
    on negative cells up to t, flat after t.

    gamma must be constant across each negative cell (pre-discretize
    otherwise) and positive there.
    """
    gf = validate_gamma(g)
    return _base_ff(t, pair_geometry(F, G), gf)


def _base_asd(geom: PairGeometry, ef: EpsilonFn) -> UtilityPWL:
    breaks, slopes = _reweighted_slopes(geom, ef.carrier, math.inf, "epsilon",
                                        lambda e0: (1.0 - e0) / e0)
    cb, cs = _compress(breaks, slopes)
    return UtilityPWL(cb, cs, anchor=(0.0, 0.0), provenance="base_asd")


def make_base_asd(F: Distribution, G: Distribution,
                  e: EpsilonFn | PiecewiseFn) -> UtilityPWL:
    """Witness utility for the single-inequality order: slope 1 on
    non-negative cells, (1 - eps(x)) / eps(x) on negative cells, no
    cutoff. epsilon must be constant across each negative cell."""
    ef = validate_epsilon(e)
    return _base_asd(pair_geometry(F, G), ef)


# -- expected utility ------------------------------------------------------


def _gap(geom: PairGeometry, u: UtilityPWL) -> float:
    C = geom.C
    final = total_area_from_cum(C)
    total = 0.0
    prev = 0.0
    for i, s in enumerate(u.slopes):
        end = C.value(u.breaks[i]) if i < len(u.breaks) else final
        if s != 0.0:
            total += s * (end - prev)
        prev = end
    return total


def expected_utility_gap(F: Distribution, G: Distribution, u: UtilityPWL) -> float:
    """E_G[u] - E_F[u], via integration by parts: the slope-weighted sum
    of the CDF-difference area accrued on each utility segment."""
    return _gap(pair_geometry(F, G), u)


# -- membership ------------------------------------------------------------


def check_membership_fractional(u: UtilityPWL, gamma: float,
                                tol: float = 1e-9) -> MembershipVerdict:
    """Constant-weight slope class: gamma * later slope <= every earlier
    slope (inclusive prefix minimum)."""
    pref = math.inf
    pref_idx = 0
    for j, s in enumerate(u.slopes):
        if s < pref:
            pref = s
            pref_idx = j
        if gamma * s > pref + tol:
            x = _segment_rep(u.breaks, pref_idx)
            y = _segment_rep(u.breaks, j)
            return MembershipVerdict(
                False, (x, y),
                f"gamma*u'({y!r}) = {gamma * s!r} exceeds u'({x!r}) = {pref!r}")
    return MembershipVerdict(True, None, "inclusive prefix-minimum scan passed")


def _refined_cells(u: UtilityPWL, carrier: PiecewiseFn):
    """Merge a weight carrier's breaks into the utility grid.

    Yields (cell start or -inf, cell end or +inf, slope, weight poly,
    weight sup over the cell). The weight sup of the last cell is its
    constant value; validated weights level off there.
    """
    grid = merge_grids(u.breaks, carrier.breaks)
    w = carrier.with_breaks(grid)
    cells = []
    if not grid:
        cells.append((-math.inf, math.inf, u.slopes[0], (carrier.left, 0.0, 0.0),
                      carrier.left))
        return cells
    cells.append((-math.inf, grid[0], u.slopes[0], (w.left, 0.0, 0.0), w.left))
    for i, b in enumerate(grid):
        s = u.slopes[bisect.bisect_right(u.breaks, b)]
        coeff = w.coeffs[i]
        if i + 1 < len(grid):
            end = grid[i + 1]
            sup = _poly_value(coeff, end - b)  # monotone carriers peak at the end
        else:
            end = math.inf
            sup = coeff[0]
        cells.append((b, end, s, coeff, sup))
    return cells


def _cell_rep(lo: float, hi: float) -> float:
    if not math.isfinite(lo):
        return 0.0 if not math.isfinite(hi) else hi - 1.0
    if not math.isfinite(hi):
        return lo + 1.0
    return 0.5 * (lo + hi)


def check_dpm_gamma(u: UtilityPWL, g: GammaFn | PiecewiseFn,
                    tol: float = 1e-9) -> MembershipVerdict:
    """Graded slope class: sup of gamma over each cell times that cell's
    slope must not exceed the inclusive prefix minimum of slopes.
    """
    gf = validate_gamma(g)
    cells = _refined_cells(u, gf.carrier)
    pref = math.inf
    pref_at = 0.0
    for lo, hi, s, _, sup in cells:
        if s < pref:
            pref = s
            pref_at = _cell_rep(lo, hi)
        if sup * s > pref + tol:
            y = _cell_rep(lo, hi)
            return MembershipVerdict(
                False, (pref_at, y),
                f"gamma_sup*u'({y!r}) = {sup * s!r} exceeds u'({pref_at!r}) = {pref!r}")
    return MembershipVerdict(True, None, "cellwise weighted prefix-minimum scan passed")


def check_membership_asd(u: UtilityPWL, e: EpsilonFn | PiecewiseFn,
                         tol: float = 1e-9) -> MembershipVerdict:
    """Single-inequality slope class: every slope is bounded by the
    global minimum slope scaled by inf over the cell of (1-eps)/eps."""
    ef = validate_epsilon(e)
    m = min(u.slopes)
    for lo, hi, s, coeff, _ in _refined_cells(u, ef.carrier):
        eps_sup = _poly_max(coeff, hi - lo)
        bound = m * (1.0 - eps_sup) / eps_sup
        if s > bound + tol:
            y = _cell_rep(lo, hi)
            return MembershipVerdict(
                False, (y, y),
                f"u'({y!r}) = {s!r} exceeds {bound!r} from the inf-slope bound")
    return MembershipVerdict(True, None, "inf-slope ratio bound holds on every cell")


# -- greediness ------------------------------------------------------------


def greediness_profile(u: UtilityPWL) -> GreedinessProfile:
    """Suffix scan of the worst forward slope ratio.

    For segment i the ratio is (max slope from i on) / slope_i under the
    zero conventions; the profile value on segment i is the max ratio
    over segments at or right of i, which telescopes right to left.
    """
    n = len(u.slopes)
    values = [1.0] * n
    suffmax = 0.0
    run = 1.0
    for i in range(n - 1, -1, -1):
        s = u.slopes[i]
        suffmax = max(suffmax, s)
        if suffmax == 0.0:
            r = 1.0
        elif s == 0.0:
            r = math.inf
        else:
            r = suffmax / s
        run = max(run, r)
        values[i] = run
    return GreedinessProfile(u.breaks, tuple(values))


def partial_greediness(u: UtilityPWL, x: float) -> float:
    """Worst slope ratio over ordered segment pairs strictly right of x."""
    return greediness_profile(u).value(x)


def global_greediness(u: UtilityPWL) -> float:
    """Limit of the profile at -infinity."""
    return greediness_profile(u).values[0]


# -- combinations ----------------------------------------------------------


def combine(terms: list[tuple[float, UtilityPWL]]) -> UtilityPWL:
    """Non-negative linear combination; slopes add pointwise."""
    if not terms:
        raise ValueError("need at least one term")
    for wgt, _ in terms:
        if wgt < 0.0:
            raise ValueError("weights must be non-negative")
    grid = tuple(sorted(set().union(*(t.breaks for _, t in terms))))
    slopes = []
    for i in range(len(grid) + 1):
        x = _segment_rep(grid, i)
        slopes.append(sum(wgt * t.slope_at(x) for wgt, t in terms))
    v0 = sum(wgt * t.value(0.0) for wgt, t in terms)
    cb, cs = _compress(list(grid), slopes)
    return UtilityPWL(cb, cs, anchor=(0.0, v0), provenance="combine")


def translate(u: UtilityPWL, c: float) -> UtilityPWL:
    """x -> u(x + c) for c >= 0; the whole slope pattern moves left."""
    if c < 0.0:
        raise ValueError("translation amount must be non-negative")
    if c == 0.0:
        return u
    return replace(u,
                   breaks=tuple(b - c for b in u.breaks),
                   anchor=(u.anchor[0] - c, u.anchor[1]))


# -- exclusion criteria ----------------------------------------------------


def _is_concave(u: UtilityPWL, tol: float) -> bool:
    return all(b <= a + tol for a, b in zip(u.slopes, u.slopes[1:]))


def _profile_region_rep(u: UtilityPWL, profile: GreedinessProfile,
                        ratio: float, tol: float) -> float | None:
    """Representative of the first maximal run of segments whose profile
    value realizes the given ratio."""
    scale = max(1.0, abs(ratio))
    n = len(profile.values)
    i = 0
    while i < n:
        if abs(profile.values[i] - ratio) <= tol * scale:
            j = i
            while j + 1 < n and abs(profile.values[j + 1] - ratio) <= tol * scale:
                j += 1
            lo = -math.inf if i == 0 else u.breaks[i - 1]
            hi = math.inf if j == n - 1 else u.breaks[j]
            return _cell_rep(lo, hi)
        i += 1
    return None


def mfsd_exclusion(u: UtilityPWL, g: GammaFn | PiecewiseFn,
                   tol: float = 1e-9) -> ExclusionVerdict:
    """Decide what the greediness criteria say about graded-class
    membership of u under gamma.

    Order of tests: construction guarantees (concavity, provenance),
    then exact touches of the profile against 1/gamma (strict-increase
    and two-touch exclusions), then tightness of the weighted
    prefix-minimum bound, whose touch location is reported through the
    profile region that realizes the touching ratio. When nothing
    fires the answer is Inconclusive: the criteria are one-sided.
    """
    gf = validate_gamma(g)
    dm = check_dpm_gamma(u, gf, tol=tol)
    if not dm.member:
        return ExclusionVerdict(ExclusionKind.INCONCLUSIVE, (),
                                "outside the weighted slope class: " + dm.note)
    if _is_concave(u, tol):
        return ExclusionVerdict(ExclusionKind.MEMBER_BY_CONSTRUCTION, (),
                                "concave and non-decreasing")
    if u.provenance in ("base_mf", "combine"):
        return ExclusionVerdict(ExclusionKind.MEMBER_BY_CONSTRUCTION, (),
                                f"produced by {u.provenance}")
    profile = greediness_profile(u)
    gamma_breaks = set(gf.carrier.breaks)
    touches: list[tuple[float, float, bool]] = []  # (x0, gamma(x0), strict_rise)
    cells = _refined_cells(u, gf.carrier)
    for lo, hi, _, coeff, _ in cells:
        v = profile.value(lo if math.isfinite(lo) else hi - 1.0)
        if not math.isfinite(v) or v < 1.0:
            continue
        target = 1.0 / v
        g0, g1, g2 = coeff
        if g1 == 0.0 and g2 == 0.0:
            if abs(v - (1.0 / g0 if g0 > 0.0 else math.inf)) <= tol * max(1.0, v):
                touches.append((_cell_rep(lo, hi), g0, False))
        elif math.isfinite(lo) and math.isfinite(hi):
            # weight rises across this cell; an exact touch is isolated
            for d in _poly_roots((g0 - target, g1, g2), 0.0, hi - lo):
                if g1 + 2.0 * g2 * d > 0.0:
                    touches.append((lo + d, target, True))
            if abs(g0 - target) <= tol and g1 > 0.0 and lo not in gamma_breaks:
                touches.append((lo, g0, True))
    for x0, gx, rising in touches:
        if rising and tol < gx <= 1.0 + tol:
            return ExclusionVerdict(
                ExclusionKind.EXCLUDED_STRICT_INCREASE, (x0,),
                "profile touches 1/gamma where gamma strictly increases")
    strict_band = [t for t in touches if tol < t[1] < 1.0 - tol]
    for a in range(len(strict_band)):
        for b in range(a + 1, len(strict_band)):
            if abs(strict_band[a][1] - strict_band[b][1]) > tol:
                return ExclusionVerdict(
                    ExclusionKind.EXCLUDED_TWO_TOUCHES,
                    (strict_band[a][0], strict_band[b][0]),
                    "bound attained at two points with different gamma values")
    # tightness of the weighted prefix-minimum bound
    pref = math.inf
    for idx, (lo, hi, s, coeff, sup) in enumerate(cells):
        pref = min(pref, s)
        tight = abs(sup * s - pref) <= tol and pref > tol
        if not tight or not (tol < sup < 1.0 - tol):
            continue
        if not (math.isfinite(lo) and math.isfinite(hi)):
            continue
        # the sup is approached at the cell's right end; the criterion
        # needs gamma genuinely rising into it
        if coeff[1] + 2.0 * coeff[2] * (hi - lo) <= 0.0:
            continue
        if not any(c[2] > tol for c in cells[idx + 1:]):
            continue
        rep = _profile_region_rep(u, profile, 1.0 / sup, tol)
        if rep is not None:
            return ExclusionVerdict(
                ExclusionKind.EXCLUDED_STRICT_INCREASE, (rep,),
                "weighted prefix-minimum bound is tight against a rising gamma")
    return ExclusionVerdict(ExclusionKind.INCONCLUSIVE, (),
                            "no exclusion criterion fires; membership undecided")


# -- diagnostics -----------------------------------------------------------


def ara_bound_report(u: UtilityPWL, g: GammaFn | PiecewiseFn,
                     tol: float = 1e-9) -> list[tuple[float, float, float, float, bool]]:
    """Log-ratio view of the weighted slope condition.

    Entries (x, y, ln(u'(x)/u'(y)), ln gamma_sup(y), pass) over ordered
    cell pairs; all pass exactly when the weighted prefix-minimum scan
    accepts. Requires strictly positive slopes.
    """
    if any(s <= 0.0 for s in u.slopes):
        raise NonPositiveSlope("log ratios need strictly positive slopes")
    gf = validate_gamma(g)
    cells = _refined_cells(u, gf.carrier)
    out: list[tuple[float, float, float, float, bool]] = []
    for i in range(len(cells)):
        lo_i, hi_i, s_i, _, _ = cells[i]
        x = _cell_rep(lo_i, hi_i)
        for j in range(i, len(cells)):
            lo_j, hi_j, s_j, _, sup_j = cells[j]
            y = _cell_rep(lo_j, hi_j)
            lhs = math.log(s_i / s_j)
            rhs = math.log(sup_j) if sup_j > 0.0 else -math.inf
            out.append((x, y, lhs, rhs, lhs >= rhs - tol))
    return out
