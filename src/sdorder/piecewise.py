"""Piecewise-polynomial function algebra on the real line.

Everything downstream (CDFs, gamma weights, cumulative areas, decision
margins) is represented by one carrier: a right-continuous function that
is polynomial of degree at most two on finitely many half-open segments
``[b_i, b_{i+1})`` and constant on the unbounded left tail. Segment
polynomials are stored in local coordinates ``d = x - b_i``, which keeps
coefficients well scaled no matter where the segments sit.

All operations here are closed form. There is no sampling and no
quadrature; integrals of degree <= 1 pieces are written down exactly, so
equality-sensitive checks elsewhere can use tight tolerances.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass


class NonIntegrableTail(ValueError):
    """Cumulative integration from -inf needs a vanishing left tail."""


class DivisionByZeroGamma(ZeroDivisionError):
    """A weight function vanishes somewhere its integrand carries mass."""


_ZERO = (0.0, 0.0, 0.0)


def _poly_value(coeff: tuple[float, float, float], d: float) -> float:
    c0, c1, c2 = coeff
    return c0 + d * (c1 + d * c2)


def _poly_shift(coeff: tuple[float, float, float], s: float) -> tuple[float, float, float]:
    # Re-anchor c0 + c1 d + c2 d^2 at a point s to the right.
    c0, c1, c2 = coeff
    return (c0 + s * (c1 + s * c2), c1 + 2.0 * c2 * s, c2)


def _poly_max(coeff: tuple[float, float, float], h: float) -> float:
    """Sup of the local polynomial over [0, h); c0 when h is infinite,
    where carriers level off."""
    c0, c1, c2 = coeff
    if not math.isfinite(h):
        return c0
    best = max(c0, _poly_value(coeff, h))
    vertex = -c1 / (2.0 * c2) if c2 != 0.0 else 0.0
    if 0.0 < vertex < h:
        best = max(best, _poly_value(coeff, vertex))
    return best


def _poly_roots(coeff: tuple[float, float, float], lo: float, hi: float) -> list[float]:
    """Roots of the local polynomial strictly inside (lo, hi), ascending."""
    c0, c1, c2 = coeff
    out: list[float] = []
    if c2 == 0.0:
        if c1 != 0.0:
            r = -c0 / c1
            if lo < r < hi:
                out.append(r)
        return out
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return out
    sq = math.sqrt(disc)
    # Citardauq form for the root that would subtract like terms.
    if c1 >= 0.0:
        r1 = (-c1 - sq) / (2.0 * c2)
        r2 = (2.0 * c0) / (-c1 - sq) if (c1 + sq) != 0.0 else r1
    else:
        r1 = (-c1 + sq) / (2.0 * c2)
        r2 = (2.0 * c0) / (-c1 + sq) if (sq - c1) != 0.0 else r1
    for r in sorted({r1, r2}):
        if lo < r < hi:
            out.append(r)
    return out


@dataclass(frozen=True)
class PiecewiseFn:
    """Right-continuous piecewise polynomial, degree <= 2 per segment.

    ``breaks`` is strictly increasing. ``left`` is the constant value on
    ``(-inf, breaks[0])``. ``coeffs[i]`` covers ``[breaks[i], breaks[i+1])``
    in the local coordinate ``x - breaks[i]``; the final entry covers the
    unbounded right segment. With no breaks the function is the constant
    ``left`` everywhere.
    """

    breaks: tuple[float, ...]
    left: float
    coeffs: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.breaks):
            raise ValueError("one coefficient triple per breakpoint required")
        for a, b in zip(self.breaks, self.breaks[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")

    # -- point evaluation -------------------------------------------------

    def segment_index(self, x: float) -> int:
        """Index into coeffs for the segment containing x; -1 is the left tail."""
        return bisect.bisect_right(self.breaks, x) - 1

    def value(self, x: float) -> float:
        i = self.segment_index(x)
        if i < 0:
            return self.left
        return _poly_value(self.coeffs[i], x - self.breaks[i])

    def left_limit(self, x: float) -> float:
        """Limit from below; differs from value(x) only at jump breakpoints."""
        i = bisect.bisect_left(self.breaks, x) - 1
        if i < 0:
            return self.left
        return _poly_value(self.coeffs[i], x - self.breaks[i])

    def segment_coeff(self, i: int) -> tuple[float, float, float]:
        return (self.left, 0.0, 0.0) if i < 0 else self.coeffs[i]

    # -- structure --------------------------------------------------------

    @staticmethod
    def constant(v: float) -> "PiecewiseFn":
        return PiecewiseFn((), float(v), ())

    @staticmethod
    def step(breaks: tuple[float, ...], values: tuple[float, ...]) -> "PiecewiseFn":
        """Right-continuous step function; values[0] is the left-tail value."""
        if len(values) != len(breaks) + 1:
            raise ValueError("need one more value than breakpoints")
        return PiecewiseFn(
            tuple(float(b) for b in breaks),
            float(values[0]),
            tuple((float(v), 0.0, 0.0) for v in values[1:]),
        )

    def with_breaks(self, grid: tuple[float, ...]) -> "PiecewiseFn":
        """Refine onto a superset grid without changing the function.

        Returns self when grid adds no point; otherwise one forward walk
        keeps the coefficients at the function's own breaks and re-anchors
        the piece in force at each new point."""
        merged = merge_grids(self.breaks, grid)
        if len(merged) == len(self.breaks):
            return self
        own, n = self.breaks, len(self.breaks)
        coeffs = []
        i = -1
        for b in merged:
            if i + 1 < n and own[i + 1] == b:
                i += 1
                coeffs.append(self.coeffs[i])
            elif i < 0:
                coeffs.append((self.left, 0.0, 0.0))
            else:
                coeffs.append(_poly_shift(self.coeffs[i], b - own[i]))
        return PiecewiseFn(merged, self.left, tuple(coeffs))

    def shift(self, c: float) -> "PiecewiseFn":
        return PiecewiseFn(tuple(b + c for b in self.breaks), self.left, self.coeffs)

    def scale(self, a: float) -> "PiecewiseFn":
        return PiecewiseFn(
            self.breaks, self.left * a,
            tuple((c0 * a, c1 * a, c2 * a) for c0, c1, c2 in self.coeffs),
        )

    def degree(self) -> int:
        d = 0
        for c0, c1, c2 in self.coeffs:
            if c2 != 0.0:
                return 2
            if c1 != 0.0:
                d = 1
        return d

    # -- arithmetic on a common grid --------------------------------------

    def _binary(self, other: "PiecewiseFn", op) -> "PiecewiseFn":
        grid = merge_grids(self.breaks, other.breaks)
        a = self.with_breaks(grid)
        b = other.with_breaks(grid)
        coeffs = tuple(
            (op(p[0], q[0]), op(p[1], q[1]), op(p[2], q[2]))
            for p, q in zip(a.coeffs, b.coeffs)
        )
        return PiecewiseFn(grid, op(self.left, other.left), coeffs)

    def add(self, other: "PiecewiseFn") -> "PiecewiseFn":
        return self._binary(other, lambda p, q: p + q)

    def sub(self, other: "PiecewiseFn") -> "PiecewiseFn":
        return self._binary(other, lambda p, q: p - q)


def merge_grids(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    """Sorted union of two break tuples.

    For sorted inputs the sort sees two ascending runs and merges them in
    one linear pass; dict.fromkeys then drops the points both share.
    """
    if not b or b == a:
        return tuple(a)
    if not a:
        return tuple(b)
    merged = [*a, *b]
    merged.sort()
    return tuple(dict.fromkeys(merged))


def eval(f: PiecewiseFn, x: float) -> float:  # noqa: A001 - spec operation name
    """Right-continuous evaluation of f at x."""
    return f.value(x)


def compress(f: PiecewiseFn) -> PiecewiseFn:
    """Drop breakpoints where the function just continues its left piece.

    A break is redundant when the piece in force before it, shifted to
    the break, reproduces the outgoing coefficients exactly (the left
    tail counts as a constant piece).  Also normalizes -0.0 coefficients
    to 0.0.
    """
    def norm(c: tuple[float, float, float]) -> tuple[float, float, float]:
        c0, c1, c2 = c
        return (c0 + 0.0, c1 + 0.0, c2 + 0.0)

    breaks: list[float] = []
    coeffs: list[tuple[float, float, float]] = []
    active = (f.left, 0.0, 0.0)
    active_start = -math.inf
    for i, b in enumerate(f.breaks):
        cur = norm(f.coeffs[i])
        if math.isfinite(active_start):
            shifted = norm(_poly_shift(active, b - active_start))
        else:
            shifted = active  # constant left tail
        if shifted == cur:
            continue
        breaks.append(b)
        coeffs.append(cur)
        active = cur
        active_start = b
    if not breaks:
        return PiecewiseFn(breaks=(), left=f.left, coeffs=())
    return PiecewiseFn(breaks=tuple(breaks), left=f.left, coeffs=tuple(coeffs))


def _split_at_roots(f: PiecewiseFn) -> PiecewiseFn:
    """Refine so that every segment has constant sign in its interior."""
    cuts: list[float] = []
    if f.breaks:
        for i, b in enumerate(f.breaks):
            hi = f.breaks[i + 1] - b if i + 1 < len(f.breaks) else math.inf
            for r in _poly_roots(f.coeffs[i], 0.0, hi):
                cuts.append(b + r)
    return f.with_breaks(tuple(cuts)) if cuts else f


def signed_parts(f: PiecewiseFn) -> tuple[PiecewiseFn, PiecewiseFn]:
    """Split f into (positive part, negative part), both non-negative.

    f == pos - neg pointwise. Segments are refined at interior sign
    changes first, so each output segment is either a copy of f's
    polynomial or identically zero; no clipping error is introduced.
    """
    g = _split_at_roots(f)

    def seg_region_sign(i: int) -> int:
        # Sign on the open interior; the polynomial has no interior root.
        if i < 0:
            v = g.left
        else:
            b = g.breaks[i]
            hi = g.breaks[i + 1] if i + 1 < len(g.breaks) else b + 1.0
            v = _poly_value(g.coeffs[i], 0.5 * (hi - b))
            if v == 0.0:
                v = _poly_value(g.coeffs[i], 0.0)
        return (v > 0.0) - (v < 0.0)

    pos_coeffs = []
    neg_coeffs = []
    for i in range(len(g.breaks)):
        s = seg_region_sign(i)
        c = g.coeffs[i]
        pos_coeffs.append(c if s > 0 else _ZERO)
        neg_coeffs.append((-c[0], -c[1], -c[2]) if s < 0 else _ZERO)
    sl = seg_region_sign(-1)
    pos = PiecewiseFn(g.breaks, g.left if sl > 0 else 0.0, tuple(pos_coeffs))
    neg = PiecewiseFn(g.breaks, -g.left if sl < 0 else 0.0, tuple(neg_coeffs))
    return pos, neg


def _segment_integral(coeff: tuple[float, float, float], h: float) -> float:
    c0, c1, c2 = coeff
    return h * (c0 + h * (c1 / 2.0 + h * c2 / 3.0))


def cum_area_fn(f: PiecewiseFn) -> PiecewiseFn:
    """Antiderivative t -> integral of f over (-inf, t].

    Requires a vanishing left tail and degree <= 1 pieces (the result
    must stay inside the degree-2 carrier). The result is continuous.
    """
    if f.left != 0.0:
        raise NonIntegrableTail("left tail must be identically zero")
    if not f.breaks:
        return PiecewiseFn.constant(0.0)
    total = 0.0
    coeffs = []
    for i, b in enumerate(f.breaks):
        c0, c1, c2 = f.coeffs[i]
        if c2 != 0.0:
            raise ValueError("cumulative of a quadratic segment leaves the carrier")
        coeffs.append((total, c0, c1 / 2.0))
        if i + 1 < len(f.breaks):
            total += _segment_integral(f.coeffs[i], f.breaks[i + 1] - b)
    return PiecewiseFn(f.breaks, 0.0, tuple(coeffs))


def cum_area(f: PiecewiseFn, t: float) -> float:
    """Integral of f over (-inf, t] in closed form."""
    return cum_area_fn(f).value(t)


def total_area(f: PiecewiseFn) -> float:
    """Integral of f over the whole line; the last segment must vanish."""
    if f.left != 0.0:
        raise NonIntegrableTail("left tail must be identically zero")
    if not f.breaks:
        return 0.0
    if any(c != 0.0 for c in f.coeffs[-1]):
        raise NonIntegrableTail("right tail must be identically zero")
    return cum_area_fn(f).value(f.breaks[-1])


def _weighted_segment(num: tuple[float, float, float], den: tuple[float, float, float],
                      h: float) -> float:
    """integral over [0,h] of (n0 + n1 d) / (g0 + g1 d) dd, exact."""
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


def weighted_area_fn_values(f: PiecewiseFn, w: PiecewiseFn) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Cumulative integral of f(x)/w(x), returned as grid values.

    Returns (grid, cumulative at each grid point), where grid is the
    union of both break sets. f must have a zero left tail. Between grid
    points the cumulative is monotone (f keeps one sign there after the
    caller's refinement), so these node values support exact min scans.
    """
    if f.left != 0.0:
        raise NonIntegrableTail("left tail must be identically zero")
    grid = merge_grids(f.breaks, w.breaks)
    if not grid:
        return (), ()
    ff = f.with_breaks(grid)
    ww = w.with_breaks(grid)
    total = 0.0
    out = [0.0] * len(grid)
    for i, b in enumerate(grid):
        out[i] = total
        h = (grid[i + 1] - b) if i + 1 < len(grid) else 0.0
        num = ff.coeffs[i]
        if h > 0.0 and any(c != 0.0 for c in num):
            total += _weighted_segment(num, ww.coeffs[i], h)
        elif i + 1 == len(grid) and any(c != 0.0 for c in num):
            raise NonIntegrableTail("right tail must be identically zero")
    return grid, tuple(out)


def crossings(f: PiecewiseFn, tol: float = 0.0) -> list[float]:
    """Points where f changes sign (start of each newly signed region).

    Runs of zero between regions of equal sign do not produce crossings;
    a transition across a zero run is attributed to the start of the
    later signed region.
    """
    g = _split_at_roots(f)
    points = list(g.breaks)
    out: list[float] = []
    prev_sign = 0

    def sgn(v: float) -> int:
        if v > tol:
            return 1
        if v < -tol:
            return -1
        return 0

    if abs(g.left) > tol:
        prev_sign = sgn(g.left)
    for i, b in enumerate(points):
        hi = points[i + 1] if i + 1 < len(points) else b + 1.0
        mid = _poly_value(g.coeffs[i], 0.5 * (hi - b))
        here = sgn(mid) or sgn(_poly_value(g.coeffs[i], 0.0))
        if here != 0 and prev_sign != 0 and here != prev_sign:
            out.append(b)
        if here != 0:
            prev_sign = here
    return out


def first_negative_point(f: PiecewiseFn, tol: float = 0.0) -> float:
    """Infimum of the support of the negative part; +inf when none."""
    g = _split_at_roots(f)
    if g.left < -tol:
        return -math.inf
    for i, b in enumerate(g.breaks):
        hi = g.breaks[i + 1] if i + 1 < len(g.breaks) else b + 1.0
        mid = _poly_value(g.coeffs[i], 0.5 * (hi - b))
        if mid < -tol or _poly_value(g.coeffs[i], 0.0) < -tol:
            return b
    return math.inf
