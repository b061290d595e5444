"""Shared random-instance builders for the test suite.

Everything draws from dyadic grids: breakpoints are multiples of 1/8 in
[-4, 4] and masses are multiples of 1/32 (or 1/64 after splits), so area
bookkeeping stays exact in binary floating point and verdicts never
wobble near tolerance boundaries.
"""

import math
import operator
import random
from itertools import accumulate, chain

import sdorder as sd
from sdorder.geometry import PairGeometry, pair_geometry
from sdorder.piecewise import (_ZERO, DivisionByZeroGamma, NonIntegrableTail, _cell_signs,
                               _poly_roots, _poly_shift, _poly_value, _weighted_segment, _widths,
                               common_grid, compress, cum_area_fn, merge_grids, signed_parts)

GRID = [k / 8.0 for k in range(-32, 33)]


def dyadic_pmf(rng: random.Random, max_atoms: int = 6) -> sd.DiscretePMF:
    """Step distribution with dyadic locations and masses summing to 1."""
    n = rng.randint(2, max_atoms)
    xs = sorted(rng.sample(GRID, n))
    cuts = sorted(rng.sample(range(1, 32), n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [32])]
    return sd.DiscretePMF(tuple((x, p / 32.0) for x, p in zip(xs, parts)))


def arb_pair(rng: random.Random, max_atoms: int = 6):
    F = dyadic_pmf(rng, max_atoms).to_distribution()
    G = dyadic_pmf(rng, max_atoms).to_distribution()
    return F, G


def _merge(atoms: list) -> list:
    acc: dict = {}
    for x, m in atoms:
        acc[x] = acc.get(x, 0.0) + m
    return sorted(acc.items())


def ssd_pmf_pair(rng: random.Random, max_atoms: int = 12):
    """(F, G) as PMFs with F dominated by G in the second order.

    F starts as a copy of G and is degraded by mean-preserving splits
    and an occasional uniform left shift; both operations only ever
    raise the running CDF-difference integral.
    """
    base = dyadic_pmf(rng, max_atoms=max(2, max_atoms // 2))
    atoms = list(base.atoms)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(atoms))
        x, m = atoms[i]
        if m < 0.0625 or len(atoms) >= max_atoms:
            continue
        d = rng.choice([0.125, 0.25, 0.5, 1.0])
        half = m / 2.0
        atoms[i] = (x - d, half)
        atoms.append((x + d, half))
        atoms = _merge(atoms)
    if rng.random() < 0.3:
        c = rng.choice([0.125, 0.25, 0.5])
        atoms = [(x - c, m) for x, m in atoms]
    return sd.DiscretePMF(tuple(atoms)), base


def ssd_pair(rng: random.Random, max_atoms: int = 12):
    Fp, Gp = ssd_pmf_pair(rng, max_atoms)
    return Fp.to_distribution(), Gp.to_distribution()


def fsd_pair(rng: random.Random, max_atoms: int = 6):
    """F equal to G pushed left, so the first-order comparison holds."""
    base = dyadic_pmf(rng, max_atoms)
    c = rng.choice([0.125, 0.25, 0.5, 1.0])
    shifted = sd.DiscretePMF(tuple((x - c, m) for x, m in base.atoms))
    return shifted.to_distribution(), base.to_distribution()


def step_gamma(rng: random.Random, positive: bool = False) -> sd.GammaFn:
    """Random non-decreasing step weight with dyadic levels in [0, 1]."""
    k = rng.randint(1, 3)
    bs = sorted(rng.sample(GRID, k))
    lo = 1 if positive else 0
    levels = sorted(rng.randint(lo, 16) / 16.0 for _ in range(k + 1))
    return sd.validate_gamma(sd.PiecewiseFn.step(tuple(bs), tuple(levels)))


def step_epsilon(rng: random.Random) -> sd.EpsilonFn:
    """Random step weight with dyadic levels inside (0, 1/2)."""
    k = rng.randint(0, 3)
    if k == 0:
        return sd.EpsilonFn.const(rng.randint(1, 7) / 16.0)
    bs = sorted(rng.sample(GRID, k))
    vals = tuple(rng.randint(1, 7) / 16.0 for _ in range(k + 1))
    return sd.validate_epsilon(sd.PiecewiseFn.step(tuple(bs), vals))


def concave_utility(rng: random.Random) -> sd.UtilityPWL:
    k = rng.randint(1, 4)
    bs = sorted(rng.sample(GRID, k))
    slopes = sorted((rng.uniform(0.05, 3.0) for _ in range(k + 1)), reverse=True)
    return sd.UtilityPWL(tuple(bs), tuple(slopes))


def weighted_member_utility(rng: random.Random, g: sd.GammaFn) -> sd.UtilityPWL:
    """Utility admissible for g by a conservative prefix-minimum draw.

    Each new slope stays below (running min slope) / sup gamma, which is
    sufficient for the pointwise weighted condition yet still allows
    slope increases (greediness above 1) whenever sup gamma < 1.
    """
    k = rng.randint(1, 4)
    bs = sorted(rng.sample(GRID, k))
    cap = max(g.upper, 1e-6)
    slopes = [rng.uniform(0.2, 2.0)]
    pref = slopes[0]
    for _ in bs:
        s = rng.uniform(0.1, 1.0) * (pref / cap)
        slopes.append(s)
        pref = min(pref, s)
    return sd.UtilityPWL(tuple(bs), tuple(slopes))


def probe_grid(F: sd.Distribution, G: sd.Distribution,
               g: sd.GammaFn | None = None) -> tuple:
    pts = set(F.carrier.breaks) | set(G.carrier.breaks)
    if g is not None:
        pts |= set(g.carrier.breaks)
    return tuple(sorted(pts))


def gamma_max(g1: sd.GammaFn, g2: sd.GammaFn) -> sd.GammaFn:
    """Pointwise maximum of two weights (still non-decreasing)."""
    pos, _ = signed_parts(g2.carrier.sub(g1.carrier))
    return sd.validate_gamma(g1.carrier.add(pos))


def crossings(f: sd.PiecewiseFn, tol: float = 0.0) -> list[float]:
    """Points where f changes sign (start of each newly signed region).

    Runs of zero between regions of equal sign do not produce crossings;
    a transition across a zero run is attributed to the start of the
    later signed region.
    """
    g, prev, signs = _cell_signs(f, tol)
    out: list[float] = []
    for b, s in zip(g.breaks, signs):
        if s:
            if prev and s != prev:
                out.append(b)
            prev = s
    return out


def first_negative_point(f: sd.PiecewiseFn, tol: float = 0.0) -> float:
    """Infimum of the support of the negative part; +inf when none."""
    g, sl, signs = _cell_signs(f, tol)
    if sl < 0:
        return -math.inf
    return next((b for b, s in zip(g.breaks, signs) if s < 0), math.inf)


def two_branch_min_gamma(F: sd.Distribution, G: sd.Distribution,
                         tol: float = 1e-9) -> sd.GammaFn:
    """min_gamma as it was built before one rule covered every cell: a
    cell where the deficit is frozen took its own branch."""
    geom = pair_geometry(F, G)
    Ap, An = geom.Ap, geom.An
    cur = 0.0
    env_breaks: list[float] = []
    env_coeffs: list[tuple[float, float, float]] = []

    def emit(b, coeff):
        if env_breaks and env_breaks[-1] == b:
            env_coeffs[-1] = coeff
        else:
            env_breaks.append(b)
            env_coeffs.append(coeff)

    for (b, h, anc), apc in zip(An.cells(), Ap.coeffs):
        rising = anc[1] != 0.0 or anc[2] != 0.0
        if not rising:
            if apc[0] <= 0.0:
                if anc[0] > tol:
                    raise sd.NotSSDOrdered(math.inf)
                r0 = 0.0
            else:
                r0 = anc[0] / apc[0]
            cur = max(cur, r0)
            if cur > 1.0 + tol:
                raise sd.NotSSDOrdered(cur)
            emit(b, (cur, 0.0, 0.0))
            continue
        ap0 = apc[0]
        if ap0 <= 0.0:
            if _poly_value(anc, h) > tol:
                raise sd.NotSSDOrdered(math.inf)
            emit(b, (cur, 0.0, 0.0))
            continue
        rc = (anc[0] / ap0, anc[1] / ap0, anc[2] / ap0)
        r_end = _poly_value(rc, h)
        if r_end <= cur:
            emit(b, (cur, 0.0, 0.0))
        elif rc[0] >= cur:
            emit(b, rc)
            cur = r_end
        else:
            cross = _poly_roots((rc[0] - cur, rc[1], rc[2]), 0.0, h)
            if cross:
                emit(b, (cur, 0.0, 0.0))
                emit(b + cross[0], _poly_shift(rc, cross[0]))
            else:  # the mended fallback, as in folded_min_gamma
                emit(b, rc if _poly_value(rc, h / 2.0) > cur else (cur, 0.0, 0.0))
            cur = r_end
        if cur > 1.0 + tol:
            raise sd.NotSSDOrdered(cur)
    env = compress(sd.PiecewiseFn(tuple(env_breaks), 0.0, tuple(env_coeffs)))
    return sd.validate_gamma(env, tol)


# -- the pair geometry and check_fsd as they were built before a pair of
#    step CDFs got its one merge. Each carrier went through the checking
#    constructor, and degree 0 took its own branch in signed_parts,
#    cum_area_fn and PiecewiseFn._values_on; the other branches are today's.


def _three_pass_signed_parts(f: sd.PiecewiseFn) -> tuple[sd.PiecewiseFn, sd.PiecewiseFn]:
    if f.degree():
        g, sl, signs = _cell_signs(f)
    else:
        g, sl, signs = f, (f.left > 0.0) - (f.left < 0.0), [(c0 > 0.0) - (c0 < 0.0)
                                                           for c0, _, _ in f.coeffs]
    pos = tuple(c if s > 0 else _ZERO for c, s in zip(g.coeffs, signs))
    neg = tuple((-c[0], -c[1], -c[2]) if s < 0 else _ZERO for c, s in zip(g.coeffs, signs))
    return (sd.PiecewiseFn(g.breaks, g.left if sl > 0 else 0.0, pos),
            sd.PiecewiseFn(g.breaks, -g.left if sl < 0 else 0.0, neg))


def _three_pass_cum_area(f: sd.PiecewiseFn) -> sd.PiecewiseFn:
    if f.degree():
        c = cum_area_fn(f)
        return sd.PiecewiseFn(c.breaks, c.left, c.coeffs)
    total, coeffs = 0.0, []
    for _, h, (c0, c1, _) in f.cells():
        coeffs.append((total, c0, c1))
        total += h * c0
    return sd.PiecewiseFn(f.breaks, 0.0, tuple(coeffs))


def three_pass_geometry(F: sd.Distribution, G: sd.Distribution) -> PairGeometry:
    """The geometry of (F, G) from sub, signed_parts and cum_area_fn, with
    Ap, An and C built: no cache is read or written."""
    grid, (a, b) = common_grid(F.carrier, G.carrier)
    diff = sd.PiecewiseFn(grid, F.carrier.left - G.carrier.left, tuple(
        (p[0] - q[0], p[1] - q[1], p[2] - q[2]) for p, q in zip(a, b)))
    geom = PairGeometry(diff, *_three_pass_signed_parts(diff))
    geom.__dict__.update(Ap=_three_pass_cum_area(geom.pos), An=_three_pass_cum_area(geom.neg),
                         C=_three_pass_cum_area(diff))
    return geom


def _walked_values(f: sd.PiecewiseFn, grid: tuple) -> list[tuple[float, float]]:
    if f.degree():
        return f._values_on(grid)
    own, coeffs, n = f.breaks, f.coeffs, len(f.breaks)
    out, i, v = [], -1, f.left
    for b in grid:
        if i + 1 < n and own[i + 1] == b:
            i += 1
            c0, c1, c2 = coeffs[i]
            lim, v = v, c0 + (c1 + c2)
            out.append((v, lim))
        else:
            out.append((v, v))
    return out


def merge_walk_fsd(F: sd.Distribution, G: sd.Distribution, tol: float = 1e-9) -> sd.Verdict:
    """check_fsd as it merged the two break sets itself and walked each CDF
    onto the merge: candidates 2k and 2k + 1 are the value and the left
    limit at grid[k]."""
    grid = merge_grids(F.carrier.breaks, G.carrier.breaks)
    gv, fv, flat = _walked_values(G.carrier, grid), _walked_values(F.carrier, grid), chain.from_iterable
    return _sorting_settle(sd.OrderTag.FSD, [*map(operator.sub, flat(fv), flat(gv))],
                           lambda i: (grid[i >> 1], gv[i >> 1][i & 1], fv[i >> 1][i & 1]),
                           lambda i: (i & 1, grid[i >> 1]),
                           lambda: tuple(zip(flat(zip(grid, grid)), flat(gv), flat(fv))), tol)


# -- the scans of a step pair as they were before they read the geometry's
#    own cells: SSD, FRAC and a constant MFSD walked Ap, An and the weight
#    onto a merged grid and settled 2n candidates sorted by place; FFSD and
#    EASD walked the deficit and the weight for weighted_area_fn_values,
#    whose constant pieces skipped _weighted_segment; min_gamma emitted a
#    piece per cell and folded them with compress.


def _sorting_settle(tag, slack, row, place, rows, tol):
    margin = min(slack)
    near = sorted((i for i, s in enumerate(slack) if s - margin <= tol), key=place)
    massive = (i for i in near for _, l, r in (row(i),) if not abs(l) + abs(r) <= tol)
    best = next(massive, near[0] if near else None)
    return sd.Verdict(margin >= -tol, None if best is None else place(best)[1], margin, tag, rows)


def _constant_weight_candidates(Ap, An, gamma):
    grid, (apc, anc, gmc) = common_grid(Ap, An, gamma)
    first = grid[0], An.left, gamma.left * Ap.left
    last = grid[-1], anc[-1][0], gmc[-1][0] * apc[-1][0]
    slack = [first[2] - first[1]]
    for b, end, (a0, a1, a2), (n0, n1, n2), (g0, g1, g2) in zip(grid, grid[1:], apc, anc, gmc):
        h = end - b
        slack += (g0 * a0 - n0, (g0 + h * (g1 + h * g2)) * (a0 + h * (a1 + h * a2))
                  - (n0 + h * (n1 + h * n2)))
        assert not ((g2 or n2) and (n1 != 0.0 or n2 != 0.0)), "a stationary point"
    slack.append(last[2] - last[1])

    def cell(k):
        b, end = grid[k], grid[k + 1]
        (a0, a1, a2), (n0, n1, n2), (g0, g1, g2), h = apc[k], anc[k], gmc[k], end - b
        return [(b, n0, g0 * a0), (end, n0 + h * (n1 + h * n2),
                                   (g0 + h * (g1 + h * g2)) * (a0 + h * (a1 + h * a2)))]

    n = len(slack)

    def row(i):
        k, end = divmod(i - 1, 2)
        return first if k < 0 else last if i == n - 1 else cell(k)[end]

    return (slack, row, lambda i: (not i & 1, grid[i >> 1]),
            lambda: (first, *chain.from_iterable(map(cell, range(n // 2 - 1))), last))


def walked_graded(tag, F, G, gamma, tol=1e-9):
    """SSD, FRAC or MFSD of (F, G) under the constant carrier gamma, on a
    geometry built by three_pass_geometry."""
    geom = three_pass_geometry(F, G)
    return _sorting_settle(tag, *_constant_weight_candidates(geom.Ap, geom.An, gamma), tol)


def _walked_weighted_values(f, w):
    grid, (fc, wc) = common_grid(f, w)
    flat = not (f.degree() or w.degree())

    def area(h, num, den):
        if not any(num):
            return 0.0
        if h == math.inf:
            raise NonIntegrableTail("right tail must be identically zero")
        return num[0] * h / den[0] if flat and den[0] > 0.0 else _weighted_segment(num, den, h)

    return grid, tuple(accumulate(map(area, _widths(grid), fc, wc), initial=0.0))[:-1]


def walked_ffsd(F, G, g, tol=1e-9):
    gf, geom = sd.validate_gamma(g, tol), three_pass_geometry(F, G)
    grid, weighted = _walked_weighted_values(geom.neg, gf.carrier)
    ap = [c[0] for c in geom.Ap._coeffs_on(grid)]
    return _sorting_settle(sd.OrderTag.FFSD, [*map(operator.sub, ap, weighted)],
                           lambda i: (grid[i], weighted[i], ap[i]), lambda i: (False, grid[i]),
                           lambda: tuple(zip(grid, weighted, ap)), tol)


def walked_easd(F, G, e, tol=1e-9):
    ef, geom = sd.validate_epsilon(e), three_pass_geometry(F, G)
    lhs = _walked_weighted_values(geom.neg, ef.carrier)[1][-1]
    rhs = geom.surplus + geom.deficit
    margin = rhs - lhs
    return sd.Verdict(margin >= -tol, None, margin, sd.OrderTag.EASD, ((math.inf, lhs, rhs),))


def _compress(f):
    def norm(c):
        c0, c1, c2 = c
        return (c0 + 0.0, c1 + 0.0, c2 + 0.0)

    breaks, coeffs, active, active_start = [], [], (f.left, 0.0, 0.0), -math.inf
    for b, c in zip(f.breaks, f.coeffs):
        cur = norm(c)
        shifted = (norm(_poly_shift(active, b - active_start)) if math.isfinite(active_start)
                   else active)
        if shifted == cur:
            continue
        breaks.append(b)
        coeffs.append(cur)
        active, active_start = cur, b
    return sd.PiecewiseFn(tuple(breaks), f.left, tuple(coeffs))


def folded_min_gamma(F, G, tol=1e-9):
    """min_gamma as it emitted a piece per cell and folded the envelope
    with compress afterwards. Its no-root fallback is the mended one:
    before, it emitted the ratio from the cell's start in every case."""
    geom = three_pass_geometry(F, G)
    cur, env_breaks, env_coeffs = 0.0, [], []

    def emit(b, coeff):
        if env_breaks and env_breaks[-1] == b:
            env_coeffs[-1] = coeff
        else:
            env_breaks.append(b)
            env_coeffs.append(coeff)

    for (b, h, anc), apc in zip(geom.An.cells(), geom.Ap.coeffs):
        reach = h if anc[1] != 0.0 or anc[2] != 0.0 else 0.0
        ap0 = apc[0]
        if ap0 <= 0.0:
            if _poly_value(anc, reach) > tol:
                raise sd.NotSSDOrdered(math.inf)
            emit(b, (cur, 0.0, 0.0))
            continue
        rc = (anc[0] / ap0, anc[1] / ap0, anc[2] / ap0)
        r_end = _poly_value(rc, reach)
        if r_end <= cur:
            emit(b, (cur, 0.0, 0.0))
        elif rc[0] >= cur:
            emit(b, rc)
            cur = r_end
        else:
            cross = _poly_roots((rc[0] - cur, rc[1], rc[2]), 0.0, h)
            if cross:
                emit(b, (cur, 0.0, 0.0))
                emit(b + cross[0], _poly_shift(rc, cross[0]))
            else:
                emit(b, rc if _poly_value(rc, h / 2.0) > cur else (cur, 0.0, 0.0))
            cur = r_end
        if cur > 1.0 + tol:
            raise sd.NotSSDOrdered(cur)
    return sd.validate_gamma(_compress(sd.PiecewiseFn(tuple(env_breaks), 0.0, tuple(env_coeffs))),
                             tol)


# -- weighted_area_fn_values as it walked f and w onto their merged grid
#    with common_grid and summed the cells' areas with accumulate, each
#    through _weighted_segment as it was then


def _segment_area(num, den, h):
    n0, n1, n2 = num
    g0, g1, g2 = den
    if n2 != 0.0 or g2 != 0.0:
        raise ValueError("weighted integration is defined for degree <= 1 pieces")
    if h == 0.0 or (n0 == 0.0 and n1 == 0.0):
        return 0.0
    if g1 == 0.0:
        if g0 <= 0.0:
            raise DivisionByZeroGamma("zero weight on a segment with mass")
        return (n0 * h + n1 * h * h / 2.0) / g0
    end = g0 + g1 * h
    if g0 <= 0.0 or end <= 0.0:
        raise DivisionByZeroGamma("weight must stay positive across the segment")
    log_term = math.log(end / g0) / g1
    return (n1 / g1) * h + (n0 - n1 * g0 / g1) * log_term


def accumulated_weighted_values(f, w):
    if f.left != 0.0:
        raise NonIntegrableTail("left tail must be identically zero")
    grid, (fc, wc) = common_grid(f, w)

    def area(h, num, den):
        if not any(num):
            return 0.0
        if h == math.inf:
            raise NonIntegrableTail("right tail must be identically zero")
        return _segment_area(num, den, h)

    return grid, tuple(accumulate(map(area, _widths(grid), fc, wc), initial=0.0))[:-1]
