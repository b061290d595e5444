"""Weight functions for the graded dominance orders.

Two validated carriers live here: non-decreasing gamma functions into
[0, 1] and epsilon functions into the open interval (0, 1/2). The
module also computes the smallest gamma function that makes a given
ordered pair comparable, together with its constant-gamma and
constant-epsilon counterparts. All three minimizers are exact: the
area ratio driving them is piecewise rational with monotone pieces, so
its running supremum can be assembled segment by segment in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .piecewise import (
    DivisionByZeroGamma,
    PiecewiseFn,
    _poly_roots,
    _poly_shift,
    _poly_value,
    compress,
)
from .distributions import Distribution
from .geometry import pair_geometry

__all__ = [
    "DivisionByZeroGamma",
    "EpsilonFn",
    "EpsilonOutOfRange",
    "GammaFn",
    "GammaOutOfRange",
    "Infeasible",
    "NotMonotone",
    "NotSSDOrdered",
    "RangeViolation",
    "min_constant_epsilon",
    "min_constant_gamma",
    "min_gamma",
    "validate_epsilon",
    "validate_gamma",
]


class NotMonotone(ValueError):
    """Gamma functions must be non-decreasing."""


class RangeViolation(ValueError):
    """Gamma functions take values in [0, 1]."""


class GammaOutOfRange(ValueError):
    """A constant gamma parameter must lie in [0, 1]."""


class EpsilonOutOfRange(ValueError):
    """Epsilon functions take values strictly inside (0, 1/2)."""


class NotSSDOrdered(ValueError):
    """The deficit/surplus area ratio exceeds 1, so no gamma in [0,1] works."""

    def __init__(self, ratio: float | None = None):
        self.ratio = ratio
        detail = "" if ratio is None else f" (ratio {ratio!r})"
        super().__init__("pair is not second-order comparable" + detail)


@dataclass(frozen=True)
class Infeasible:
    """Marker result: no admissible constant exists; value is the offending level."""

    value: float


@dataclass(frozen=True)
class GammaFn:
    """Non-decreasing weight into [0,1] with cached limits at both infinities."""

    carrier: PiecewiseFn
    lower: float
    upper: float

    def value(self, x: float) -> float:
        return self.carrier.value(x)

    @staticmethod
    def const(c: float) -> "GammaFn":
        return validate_gamma(PiecewiseFn.constant(float(c)))


@dataclass(frozen=True)
class EpsilonFn:
    """Weight into the open band (0, 1/2); no monotonicity requirement."""

    carrier: PiecewiseFn

    def value(self, x: float) -> float:
        return self.carrier.value(x)

    @staticmethod
    def const(c: float) -> "EpsilonFn":
        return validate_epsilon(PiecewiseFn.constant(float(c)))


def validate_gamma(g: PiecewiseFn, tol: float = 1e-9) -> GammaFn:
    """Check the gamma invariants and wrap the carrier.

    Raises NotMonotone on any decrease (jump or slope) and
    RangeViolation when values leave [0 - tol, 1 + tol] or the function
    fails to level off on its last segment.
    """
    if isinstance(g, GammaFn):
        return g
    if g.left < -tol:
        raise RangeViolation("gamma must be >= 0")
    prev = g.left
    for i, b in enumerate(g.breaks):
        c0, c1, c2 = g.coeffs[i]
        if c0 - prev < -tol:
            raise NotMonotone("gamma jumps downward")
        if i + 1 < len(g.breaks):
            h = g.breaks[i + 1] - b
            # the derivative of a degree-2 piece is linear: its minimum
            # over the segment sits at one of the two ends
            if c1 < -tol or c1 + 2.0 * c2 * h < -tol:
                raise NotMonotone("gamma decreases inside a segment")
            prev = _poly_value((c0, c1, c2), h)
        else:
            if c2 < 0.0 or (c2 == 0.0 and c1 < 0.0):
                raise NotMonotone("gamma decreases on its last segment")
            if c2 > 0.0 or c1 > 0.0:
                raise RangeViolation("gamma must level off at its upper limit")
    upper = g.coeffs[-1][0] if g.breaks else g.left
    if upper > 1.0 + tol:
        raise RangeViolation("gamma must be <= 1")
    return GammaFn(g, g.left, upper)


def _eps_attained(v: float) -> None:
    if v <= 0.0 or v >= 0.5:
        raise EpsilonOutOfRange("epsilon values must lie strictly inside (0, 1/2)")


def validate_epsilon(e: PiecewiseFn, tol: float = 1e-9) -> EpsilonFn:
    """Check that every attained value lies strictly inside (0, 1/2).

    One-sided limits may touch the band edges without violating the
    pointwise constraint, so limits are only rejected when they escape
    the closed band.
    """
    if isinstance(e, EpsilonFn):
        return e
    _eps_attained(e.left)
    for i, b in enumerate(e.breaks):
        c0, c1, c2 = e.coeffs[i]
        _eps_attained(c0)
        if i + 1 < len(e.breaks):
            h = e.breaks[i + 1] - b
            llim = _poly_value((c0, c1, c2), h)
            if llim < 0.0 or llim > 0.5:
                raise EpsilonOutOfRange("epsilon leaves (0, 1/2) inside a segment")
            if c2 != 0.0:
                vertex = -c1 / (2.0 * c2)
                if 0.0 < vertex < h:
                    _eps_attained(_poly_value((c0, c1, c2), vertex))
        elif c1 != 0.0 or c2 != 0.0:
            raise EpsilonOutOfRange("epsilon must level off on its last segment")
    return EpsilonFn(e)


def min_gamma(F: Distribution, G: Distribution, tol: float = 1e-9) -> GammaFn:
    """Pointwise-smallest non-decreasing gamma making F comparable to G.

    The deficit-to-surplus area ratio is 0 before the first crossing,
    rises only while deficit accrues (surplus area frozen there), and
    falls while surplus accrues. Its running supremum is therefore flat
    except on deficit stretches, where it follows the rising ratio once
    that ratio overtakes the sup so far; the overtake point is a
    polynomial root, solved exactly. Raises NotSSDOrdered when the sup
    exceeds 1 + tol.
    """
    geom = pair_geometry(F, G)
    Ap, An = geom.Ap, geom.An
    if not An.breaks:
        return validate_gamma(PiecewiseFn.constant(0.0))
    breaks = An.breaks
    cur = 0.0
    env_breaks: list[float] = []
    env_coeffs: list[tuple[float, float, float]] = []

    def emit(b: float, coeff: tuple[float, float, float]) -> None:
        if env_breaks and env_breaks[-1] == b:
            env_coeffs[-1] = coeff
        else:
            env_breaks.append(b)
            env_coeffs.append(coeff)

    for i, b in enumerate(breaks):
        apc = Ap.coeffs[i]
        anc = An.coeffs[i]
        h = breaks[i + 1] - b if i + 1 < len(breaks) else math.inf
        rising = anc[1] != 0.0 or anc[2] != 0.0
        if not rising:
            if apc[0] <= 0.0:
                if anc[0] > tol:
                    raise NotSSDOrdered(math.inf)
                r0 = 0.0
            else:
                r0 = anc[0] / apc[0]
            cur = max(cur, r0)
            if cur > 1.0 + tol:
                raise NotSSDOrdered(cur)
            emit(b, (cur, 0.0, 0.0))
            continue
        # Deficit accrues here, so the surplus side is frozen.
        if not math.isfinite(h):
            raise NotSSDOrdered(math.inf)
        ap0 = apc[0]
        if ap0 <= 0.0:
            if _poly_value(anc, h) > tol:
                raise NotSSDOrdered(math.inf)
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
            else:
                emit(b, rc)
            cur = r_end
        if cur > 1.0 + tol:
            raise NotSSDOrdered(cur)
    env = compress(PiecewiseFn(tuple(env_breaks), 0.0, tuple(env_coeffs)))
    return validate_gamma(env, tol)


def min_constant_gamma(F: Distribution, G: Distribution,
                       tol: float = 1e-9) -> float | Infeasible:
    """Smallest constant gamma in [0,1], or Infeasible when none exists."""
    try:
        g = min_gamma(F, G, tol)
    except NotSSDOrdered as exc:
        return Infeasible(exc.ratio if exc.ratio is not None else math.inf)
    return g.upper


def min_constant_epsilon(F: Distribution, G: Distribution,
                         tol: float = 1e-9) -> float | Infeasible:
    """Smallest constant epsilon, or Infeasible when it would reach 1/2.

    The single-inequality order with a constant weight reduces to a
    comparison of total areas: the constant must be at least
    deficit / (deficit + surplus). Identical distributions give 0 by
    convention.
    """
    geom = pair_geometry(F, G)
    deficit = geom.deficit
    denom = deficit + geom.surplus
    if denom <= 0.0:
        return 0.0
    val = deficit / denom
    if val >= 0.5:
        return Infeasible(val)
    return val

