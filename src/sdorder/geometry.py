"""The geometry of a pair (F, G): F - G and its cumulative surplus and
deficit, which every order compares. A call builds it once and hands it
to each decider, witness, gap and oracle step instead of differencing
the pair per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .distributions import Distribution
from .piecewise import PiecewiseFn, cum_area_fn, signed_parts


def total_area_from_cum(cum: PiecewiseFn) -> float:
    """Final value of a cumulative-area function (constant beyond last break)."""
    return cum.value(cum.breaks[-1]) if cum.breaks else cum.left


@dataclass(frozen=True)
class PairGeometry:
    """F - G, its sign-pure parts and their cumulative areas. diff, pos
    and neg are built with the object; every other view on first use."""

    diff: PiecewiseFn
    pos: PiecewiseFn
    neg: PiecewiseFn

    @property
    def grid(self) -> tuple[float, ...]:
        """Sign-pure cells: diff keeps one sign inside each of them."""
        return self.neg.breaks

    @cached_property
    def neg_flags(self) -> tuple[bool, ...]:
        """Whether the difference is negative on each grid cell."""
        return tuple(any(c != 0.0 for c in coeff) for coeff in self.neg.coeffs)

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


def pair_geometry(F: Distribution, G: Distribution) -> PairGeometry:
    """Difference the pair once; every step of a call reads the result."""
    diff = F.carrier.sub(G.carrier)
    return PairGeometry(diff, *signed_parts(diff))
