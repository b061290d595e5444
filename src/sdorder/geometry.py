"""The geometry of a pair (F, G): F - G, its sign runs and its cumulative
surplus and deficit, which every order compares. `pair_geometry` keeps
the geometry of the last pair it was asked for, so successive calls on
the same F and G objects, in either order, difference the pair once and
share every view built since.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

from .distributions import Distribution
from .piecewise import PiecewiseFn, cum_area_fn, signed_parts


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
        diff = PiecewiseFn(d.breaks, 0.0 - d.left,
                           tuple((0.0 - c0, 0.0 - c1, 0.0 - c2) for c0, c1, c2 in d.coeffs))
        rev = PairGeometry(diff, self.neg, self.pos)
        built = self.__dict__
        for mine, theirs in (("Ap", "An"), ("An", "Ap")):
            if mine in built:
                rev.__dict__[theirs] = built[mine]
        return rev


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
    """Difference the pair, or reuse the last pair's geometry.

    F and G match the last pair by identity, never by value. A request
    for (G, F) right after (F, G) is derived from the cached geometry.
    """
    global _last
    geom = None
    last = _last
    if last is not None:
        f, g = last[0](), last[1]()
        if f is F and g is G:
            return last[2]
        if f is G and g is F:
            geom = last[2]._reversed()
    if geom is None:
        diff = F.carrier.sub(G.carrier)
        geom = PairGeometry(diff, *signed_parts(diff))
    _last = (weakref.ref(F, _forget), weakref.ref(G, _forget), geom)
    return geom
