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
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, chain

__all__ = [
    "DivisionByZeroGamma",
    "NonIntegrableTail",
    "PiecewiseFn",
]


class NonIntegrableTail(ValueError):
    """Cumulative integration from -inf needs a vanishing left tail."""


class DivisionByZeroGamma(ZeroDivisionError):
    """A weight function vanishes somewhere its integrand carries mass."""


_ZERO = (0.0, 0.0, 0.0)
_slope, _quad = operator.itemgetter(1), operator.itemgetter(2)


def _not_finite(what: str, **fields: float) -> ValueError:
    """The error a validating constructor raises for its first
    non-finite field, named."""
    name, v = next((k, v) for k, v in fields.items() if not math.isfinite(v))
    return ValueError(f"{what} {name} must be finite, got {v!r}")


def _checked_breaks(breaks: tuple[float, ...], what: str) -> tuple[float, ...]:
    """breaks, once they strictly increase and both ends are finite, with
    a zero stored as +0.0 so that grids merged from them agree on it."""
    for a, b in zip(breaks, breaks[1:]):
        if not a < b:
            raise ValueError("breakpoints must be strictly increasing")
    for b in breaks[:1] + breaks[-1:]:  # every other break lies strictly between these
        if not math.isfinite(b):
            raise _not_finite(what, breakpoint=b)
    i = bisect.bisect_left(breaks, 0.0)
    if breaks[i:i + 1] == (0.0,) and math.copysign(1.0, breaks[i]) < 0.0:
        return (*breaks[:i], 0.0, *breaks[i + 1:])
    return breaks


def _finite_coeffs(coeffs: tuple[tuple[float, float, float], ...]) -> tuple:
    """coeffs, once every number in them is finite."""
    if not all(map(math.isfinite, chain.from_iterable(coeffs))):
        c0, c1, c2 = next(c for c in coeffs if not all(map(math.isfinite, c)))
        raise _not_finite("carrier", value=c0, slope=c1, quad=c2)
    return coeffs


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


def _widths(breaks: tuple[float, ...]) -> list[float]:
    """Width of each cell of a grid; the last cell is unbounded."""
    return [*map(operator.sub, breaks[1:], breaks), math.inf]


@dataclass(frozen=True)
class PiecewiseFn:
    """Right-continuous piecewise polynomial, degree <= 2 per segment.

    ``breaks`` is strictly increasing and finite; a zero is stored as
    +0.0. ``left`` is the finite constant value on ``(-inf, breaks[0])``.
    ``coeffs[i]`` covers ``[breaks[i], breaks[i+1])`` in the local
    coordinate ``x - breaks[i]``; the final entry covers the unbounded
    right segment. With no breaks the function is the constant ``left``
    everywhere.
    """

    breaks: tuple[float, ...]
    left: float
    coeffs: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.breaks):
            raise ValueError("one coefficient triple per breakpoint required")
        self._seal(_checked_breaks(self.breaks, "carrier"), self.left, _finite_coeffs(self.coeffs))

    @classmethod
    def _trusted(cls, breaks: tuple[float, ...], left: float,
                 coeffs: tuple[tuple[float, float, float], ...],
                 degree: int | None = None) -> "PiecewiseFn":
        """A carrier on breaks that strictly increase, are finite and store
        a zero as +0.0 already, as every merge or copy of carriers' breaks
        does, with one coefficient triple per break: only left is checked."""
        return object.__new__(cls)._seal(breaks, left, coeffs, degree)

    def _seal(self, breaks: tuple[float, ...], left: float, coeffs: tuple,
              degree: int | None = None) -> "PiecewiseFn":
        if not math.isfinite(left):
            raise _not_finite("carrier", left=left)
        if degree is None:  # worked out once: the walks below skip the zero terms of flat cells
            degree = 2 if any(map(_quad, coeffs)) else 1 if any(map(_slope, coeffs)) else 0
        self.__dict__.update(breaks=breaks, left=left, coeffs=coeffs, _degree=degree)
        return self

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

    def cells(self) -> Iterator[tuple[float, float, tuple[float, float, float]]]:
        """(start, width, coeff) for every segment, left to right; the
        last width is inf. The left tail is ``left``."""
        return zip(self.breaks, _widths(self.breaks), self.coeffs)

    # -- structure --------------------------------------------------------

    @staticmethod
    def constant(v: float) -> "PiecewiseFn":
        return PiecewiseFn((), float(v), ())

    @staticmethod
    def step(breaks: tuple[float, ...], values: tuple[float, ...]) -> "PiecewiseFn":
        """Right-continuous step function; values[0] is the left-tail value."""
        if len(values) != len(breaks) + 1:
            raise ValueError("need one more value than breakpoints")
        left, *levels = map(float, values)
        coeffs = tuple((v, 0.0, 0.0) for v in levels)  # a finite sum has finite terms
        return PiecewiseFn._trusted(_checked_breaks(tuple(map(float, breaks)), "carrier"), left,
                                    coeffs if math.isfinite(sum(levels)) else _finite_coeffs(coeffs), 0)

    def with_breaks(self, grid: tuple[float, ...]) -> "PiecewiseFn":
        """Refine onto a superset grid without changing the function;
        self when grid adds no point."""
        merged = merge_grids(self.breaks, _checked_breaks(grid, "grid"))
        if len(merged) == len(self.breaks):
            return self
        return PiecewiseFn._trusted(merged, self.left, self._coeffs_on(merged))

    def _coeffs_on(self, grid: tuple[float, ...]) -> tuple[tuple[float, float, float], ...]:
        """Coefficients on grid, a superset of breaks, in one forward walk:
        own coefficients at own breaks, the piece in force re-anchored at
        every other point."""
        own, n = self.breaks, len(self.breaks)
        if len(grid) == n:
            return self.coeffs
        if not n:
            return ((self.left, 0.0, 0.0),) * len(grid)
        flat, coeffs, i = not self._degree, [], -1
        for b in grid:
            if i + 1 < n and own[i + 1] == b:
                i += 1
                coeffs.append(self.coeffs[i])
            elif i < 0:
                coeffs.append((self.left, 0.0, 0.0))
            elif flat:
                # _poly_shift's bits when c1 and c2 are zeros, signed or not
                c0, c1, c2 = self.coeffs[i]
                z = c1 + c2
                coeffs.append((c0 + z, z, c2))
            else:
                coeffs.append(_poly_shift(self.coeffs[i], b - own[i]))
        return tuple(coeffs)

    def _values_on(self, grid: tuple[float, ...]) -> list[tuple[float, float]]:
        """(value, left limit) at every point of grid, a superset of
        breaks, in one forward walk. Each is the polynomial and offset
        that value and left_limit evaluate, so the numbers are the same."""
        own, coeffs, n = self.breaks, self.coeffs, len(self.breaks)
        out, i = [], -1
        for b in grid:
            if i + 1 < n and own[i + 1] == b:
                lim = self.left if i < 0 else _poly_value(coeffs[i], b - own[i])
                i += 1
                out.append((_poly_value(coeffs[i], b - own[i]), lim))
            else:
                v = self.left if i < 0 else _poly_value(coeffs[i], b - own[i])
                out.append((v, v))
        return out

    def shift(self, c: float) -> "PiecewiseFn":
        return PiecewiseFn(tuple(b + c for b in self.breaks), self.left, self.coeffs)

    def scale(self, a: float) -> "PiecewiseFn":
        return PiecewiseFn._trusted(self.breaks, self.left * a, tuple(
            (c0 * a, c1 * a, c2 * a) for c0, c1, c2 in self.coeffs))

    def degree(self) -> int:
        return self._degree

    # -- arithmetic on a common grid --------------------------------------

    def _binary(self, other: "PiecewiseFn", op) -> "PiecewiseFn":
        grid, (a, b) = common_grid(self, other)
        return PiecewiseFn._trusted(grid, op(self.left, other.left), tuple(
            (op(p[0], q[0]), op(p[1], q[1]), op(p[2], q[2])) for p, q in zip(a, b)))

    def add(self, other: "PiecewiseFn") -> "PiecewiseFn":
        return self._binary(other, operator.add)

    def sub(self, other: "PiecewiseFn") -> "PiecewiseFn":
        return self._binary(other, operator.sub)


def merge_grids(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    """Sorted union of two break tuples.

    For sorted inputs the sort sees two ascending runs and merges them in
    one linear pass; dict.fromkeys then drops the points both share.
    """
    if not b or b == a:
        return tuple(a)
    if not a:
        return tuple(b)
    return tuple(dict.fromkeys(sorted([*a, *b])))


def common_grid(*fs: PiecewiseFn, extra: tuple[float, ...] = ()
                ) -> tuple[tuple[float, ...], list[tuple[tuple[float, float, float], ...]]]:
    """Merge extra and the break sets of fs once, and walk each f onto
    the result: (grid, [coefficients of each f on grid]). Left tails are
    unchanged, so callers read them from fs."""
    grid = extra
    for f in fs:
        grid = merge_grids(grid, f.breaks)
    return grid, [f._coeffs_on(grid) for f in fs]


def _fold_in(breaks: list[float], coeffs: list[tuple[float, float, float]], b: float,
             coeff: tuple[float, float, float]) -> None:
    """Add the piece coeff from b on, with zeros unsigned, unless the piece in
    force (coeffs[-1]; coeffs[0] is the left tail's) shifted to b equals it
    (== reads -0.0 as 0.0). A piece at the last break replaces that one."""
    if breaks and breaks[-1] == b:
        del breaks[-1], coeffs[-1]
    a = coeffs[-1]
    if coeff != (a if not (a[1] or a[2]) else _poly_shift(a, b - breaks[-1])):
        breaks.append(b)
        coeffs.append((coeff[0] + 0.0, coeff[1] + 0.0, coeff[2] + 0.0))


def compress(f: PiecewiseFn) -> PiecewiseFn:
    """Drop breakpoints where f just continues its left piece; store -0.0
    as 0.0. Kept for the benchmark's tracer, which spans it by name."""
    breaks, coeffs = [], [(f.left, 0.0, 0.0)]
    for b, c in zip(f.breaks, f.coeffs):
        _fold_in(breaks, coeffs, b, c)
    return PiecewiseFn(tuple(breaks), f.left, tuple(coeffs[1:]))


def _cell_signs(f: PiecewiseFn, tol: float = 0.0) -> tuple[PiecewiseFn, int, list[int]]:
    """Split f at its interior roots once and sign every piece.

    Returns (g, sign of the left tail, sign of each cell's interior),
    where g is f refined so that no cell has a root inside; values within
    tol of zero count as zero. A cell that starts at a cut starts at a
    root, so its constant is set to exactly 0 there: re-anchoring would
    keep the root's rounding. A bounded cell takes the sign of its
    midpoint, or of its start when the midpoint is zero. The unbounded
    last cell takes the sign of its leading coefficient, which f keeps
    far right, or of its constant when it is flat. A constant f is split
    nowhere, and each cell takes the sign of its constant.
    """
    g, cuts = f, {b + r for b, h, c in f.cells() for r in _poly_roots(c, 0.0, h)}
    cuts.difference_update(f.breaks)  # a root may round onto a break
    if cuts:
        grid = merge_grids(f.breaks, tuple(sorted(cuts)))
        g = PiecewiseFn(grid, f.left, tuple((0.0, c[1], c[2]) if b in cuts else c
                                            for b, c in zip(grid, f._coeffs_on(grid))))

    def sgn(v: float) -> int:
        return (v > tol) - (v < -tol)

    signs = []
    for _, h, c in g.cells():
        if h < math.inf:
            signs.append(sgn(_poly_value(c, h / 2)) or sgn(c[0]))
        else:
            lead = c[2] or c[1]
            signs.append((lead > 0.0) - (lead < 0.0) if lead else sgn(c[0]))
    return g, sgn(g.left), signs


def signed_parts(f: PiecewiseFn) -> tuple[PiecewiseFn, PiecewiseFn]:
    """Split f into (positive part, negative part), both non-negative.

    f == pos - neg pointwise. Segments are refined at interior sign
    changes first, so each output segment is either a copy of f's
    polynomial or identically zero; no clipping error is introduced.
    """
    g, sl, signs = _cell_signs(f)
    pos = tuple(c if s > 0 else _ZERO for c, s in zip(g.coeffs, signs))
    neg = tuple((-c[0], -c[1], -c[2]) if s < 0 else _ZERO for c, s in zip(g.coeffs, signs))
    return (PiecewiseFn._trusted(g.breaks, g.left if sl > 0 else 0.0, pos),
            PiecewiseFn._trusted(g.breaks, -g.left if sl < 0 else 0.0, neg))


def cum_area_fn(f: PiecewiseFn) -> PiecewiseFn:
    """Antiderivative t -> integral of f over (-inf, t].

    Requires a vanishing left tail and degree <= 1 pieces (the result
    must stay inside the degree-2 carrier). The result is continuous.
    """
    if f.left != 0.0:
        raise NonIntegrableTail("left tail must be identically zero")
    total, coeffs = 0.0, []
    for _, h, (c0, c1, c2) in f.cells():
        if c2 != 0.0:
            raise ValueError("cumulative of a quadratic segment leaves the carrier")
        half = c1 / 2.0
        coeffs.append((total, c0, half))
        total += h * (c0 + h * half)  # past the unbounded last cell: never read
    return PiecewiseFn._trusted(f.breaks, 0.0, tuple(coeffs))


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
    """(grid, the union of both break sets, and the integral of f(x)/w(x)
    up to each of its points); monotone in between, so min scans are exact.
    f has no mass on the unbounded ends: the last value is the total."""
    if f.left != 0.0:
        raise NonIntegrableTail("left tail must be identically zero")
    grid, (fc, wc) = common_grid(f, w)

    def area(h: float, num: tuple[float, float, float], den: tuple[float, float, float]) -> float:
        if not any(num):
            return 0.0
        if h == math.inf:
            raise NonIntegrableTail("right tail must be identically zero")
        return _weighted_segment(num, den, h)

    # the last cell is only checked for mass: the total past it is not a node
    return grid, tuple(accumulate(map(area, _widths(grid), fc, wc), initial=0.0))[:-1]
