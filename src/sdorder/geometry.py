"""The geometry of a pair (F, G): F - G, its sign runs and its cumulative
surplus and deficit, which every order compares. For two step CDFs it is
built in one walk of their merged breaks, and the step-pair scans of the
deciders and min_gamma read its own Ap and An cells; other pairs are
differenced, split at the roots and integrated. `pair_geometry` keeps the
last pair's: calls on the same F and G, in either order, build it once.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

from .distributions import Distribution
from .piecewise import _ZERO, PiecewiseFn, _widths, cum_area_fn, merge_grids, signed_parts


def total_area_from_cum(cum: PiecewiseFn) -> float:
    """Final value of a cumulative-area function (constant beyond last break)."""
    return cum.value(cum.breaks[-1]) if cum.breaks else cum.left


@dataclass(frozen=True)
class PairGeometry:
    """F - G, its sign-pure parts, its sign runs and the cumulative areas
    of the parts. diff, pos and neg are built with the object; every other
    view on first use, once for as long as the geometry is shared. A base
    type reads the sign runs, not the cells: its slope changes only there."""

    diff: PiecewiseFn
    pos: PiecewiseFn
    neg: PiecewiseFn

    @property
    def grid(self) -> tuple[float, ...]:
        """Sign-pure cells: diff keeps one sign inside each of them."""
        return self.neg.breaks

    @cached_property
    def neg_runs(self) -> tuple[tuple[float, ...], tuple[bool, ...]]:
        """Sign runs: the start of each maximal run of grid cells on which
        diff is negative, or is not, and whether that run is negative.
        Runs alternate; the left tail, where diff is zero, is in none."""
        cells = zip(self.neg.breaks, map(any, self.neg.coeffs))
        runs = [next(run) for _, run in groupby(cells, key=itemgetter(1))]
        return tuple(b for b, _ in runs), tuple(n for _, n in runs)

    @cached_property
    def Ap(self) -> PiecewiseFn:
        """Cumulative surplus: integral of the positive part up to t."""
        return cum_area_fn(self.pos)

    @cached_property
    def An(self) -> PiecewiseFn:
        """Cumulative deficit: integral of the negative part up to t."""
        return cum_area_fn(self.neg)

    @property
    def surplus(self) -> float:
        return total_area_from_cum(self.Ap)

    @property
    def deficit(self) -> float:
        return total_area_from_cum(self.An)

    @cached_property
    def C(self) -> PiecewiseFn:
        """Signed cumulative area of diff, read by expected-utility gaps."""
        return cum_area_fn(self.diff)

    def _reversed(self) -> "PairGeometry":
        """The geometry of (G, F), without differencing or splitting again.

        G - F is diff negated, with the same cells and the roles of the
        parts swapped, so its surplus and deficit are this deficit and
        surplus. `0.0 - c` is the exact negation that also gives +0.0 for
        a zero, as G - F does; C is left to integrate the negated diff.
        """
        d = self.diff
        diff = PiecewiseFn._trusted(d.breaks, 0.0 - d.left, tuple([
            (0.0 - c0, 0.0 - c1, 0.0 - c2) for c0, c1, c2 in d.coeffs]), d._degree)
        rev, built = PairGeometry(diff, self.neg, self.pos), self.__dict__
        rev.__dict__.update({b: built[a] for a, b in (("Ap", "An"), ("An", "Ap")) if a in built})
        return rev


def _step_geometry(f: PiecewiseFn, g: PiecewiseFn) -> PairGeometry:
    """The geometry of two step CDFs from one walk of their merged breaks,
    with the numbers of `sub`, `signed_parts` and `cum_area_fn`: F - G is
    constant on each cell, and each part's area grows linearly from there."""
    grid, fb, gb = merge_grids(f.breaks, g.breaks), (*f.breaks, math.inf), (*g.breaks, math.inf)
    cells, i, j, fc, gc = [], 0, 0, f.coeffs, g.coeffs
    p0, p1, p2, q0, q1, q2, sp, sn = f.left, 0.0, 0.0, g.left, 0.0, 0.0, 0.0, 0.0
    for b, h in zip(grid, _widths(grid)):
        # each side as _coeffs_on puts it: its own piece at its own break, else carried on
        if b == fb[i]:
            (p0, p1, p2), i = fc[i], i + 1
        elif i:
            p0, p1 = p0 + (p1 + p2), p1 + p2
        if b == gb[j]:
            (q0, q1, q2), j = gc[j], j + 1
        elif j:
            q0, q1 = q0 + (q1 + q2), q1 + q2
        d = d0, d1, d2 = p0 - q0, p1 - q1, p2 - q2
        u = u0, u1, _ = d if d0 > 0.0 else _ZERO
        v = v0, v1, _ = (-d0, -d1, -d2) if d0 < 0.0 else _ZERO
        cells.append((d, u, v, (sp, u0, u1), (sn, v0, v1)))
        sp += h * u0  # past the unbounded last cell: never read
        sn += h * v0
    (diff, pos, neg, ap, an), left, trusted = zip(*cells), f.left - g.left, PiecewiseFn._trusted
    geom = PairGeometry(trusted(grid, left, diff, 0),
                        trusted(grid, left if left > 0.0 else 0.0, pos, 0),
                        trusted(grid, -left if left < 0.0 else 0.0, neg, 0))
    # a CDF pair's left tails are 0, so both areas start at 0
    geom.__dict__.update(Ap=trusted(grid, 0.0, ap, int(pos.count(_ZERO) < len(pos))),
                         An=trusted(grid, 0.0, an, int(neg.count(_ZERO) < len(neg))))
    return geom


# (weak reference to F, weak reference to G, geometry of (F, G)), replaced
# as one tuple; a reference's callback drops it when F or G dies, so the
# cache never keeps a pair alive.
_last: tuple | None = None


def _forget(ref: weakref.ref) -> None:
    global _last
    last = _last
    if last is not None and (last[0] is ref or last[1] is ref):
        _last = None


def pair_geometry(F: Distribution, G: Distribution) -> PairGeometry:
    """Build the pair's geometry, or reuse the last pair's.

    F and G match the last pair by identity, never by value. A request
    for (G, F) right after (F, G) is derived from the cached geometry.
    """
    global _last
    last = _last
    a, b = (None, None) if last is None else (last[0](), last[1]())
    if a is F and b is G:
        return last[2]
    f, g = F.carrier, G.carrier
    if a is G and b is F:
        geom = last[2]._reversed()
    elif f._degree or g._degree:
        geom = PairGeometry(diff := f.sub(g), *signed_parts(diff))
    else:
        geom = _step_geometry(f, g)
    _last = (weakref.ref(F, _forget), weakref.ref(G, _forget), geom)
    return geom
