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
from functools import partial

from .piecewise import (
    _ZERO,
    DivisionByZeroGamma,
    Frozen,
    PiecewiseFn,
    _fold_in,
    _not_finite,
    _poly_roots,
    _poly_shift,
    _poly_value,
)
from .distributions import Distribution
from .geometry import pair_geometry

__all__ = [
    "DivisionByZeroGamma",
    "EpsilonFn",
    "EpsilonOutOfRange",
    "GammaFn",
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


class EpsilonOutOfRange(ValueError):
    """Epsilon functions take values strictly inside (0, 1/2)."""


class NotSSDOrdered(ValueError):
    """The deficit/surplus area ratio exceeds 1, so no gamma in [0,1] works."""

    def __init__(self, ratio: float):
        self.ratio = ratio
        super().__init__(f"pair is not second-order comparable (ratio {ratio!r})")


class Infeasible(Frozen):
    """Marker result: no admissible constant exists; value is the offending level."""

    value: float


class GammaFn(Frozen):
    """Non-decreasing weight into [0, 1] with cached limits at both
    infinities, checked when built: GammaFn(carrier) or
    GammaFn(carrier, tol=...).

    Raises NotMonotone on any decrease (jump or slope) and
    RangeViolation when values leave [0 - tol, 1 + tol] or the function
    fails to level off on its last segment.
    """

    carrier: PiecewiseFn
    lower: float
    upper: float

    def __init__(self, carrier, *, tol: float = 1e-9) -> None:
        if carrier.left < -tol:
            raise RangeViolation("gamma must be >= 0")
        prev = carrier.left
        for _, h, (c0, c1, c2) in carrier.cells():
            if not (math.isfinite(c0) and math.isfinite(c1) and math.isfinite(c2)):
                raise _not_finite("gamma", value=c0, slope=c1, quad=c2)
            if c0 - prev < -tol:
                raise NotMonotone("gamma jumps downward")
            if h < math.inf:
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
        upper = carrier.coeffs[-1][0] if carrier.breaks else carrier.left
        if upper > 1.0 + tol:
            raise RangeViolation("gamma must be <= 1")
        self.__dict__.update(carrier=carrier, lower=carrier.left, upper=upper)

    def value(self, x: float) -> float:
        return self.carrier.value(x)

    @staticmethod
    def const(c: float) -> "GammaFn":
        return GammaFn(PiecewiseFn.constant(c))


def _eps_attained(v: float) -> None:
    if v <= 0.0 or v >= 0.5:
        raise EpsilonOutOfRange("epsilon values must lie strictly inside (0, 1/2)")


class EpsilonFn(Frozen):
    """Weight into the open band (0, 1/2), checked when built; no
    monotonicity requirement.

    Every attained value must lie strictly inside (0, 1/2). One-sided
    limits may touch the band edges without violating the pointwise
    constraint, so limits are only rejected when they escape the closed
    band.
    """

    carrier: PiecewiseFn

    def __init__(self, carrier) -> None:
        _eps_attained(carrier.left)
        for _, h, (c0, c1, c2) in carrier.cells():
            if not (math.isfinite(c0) and math.isfinite(c1) and math.isfinite(c2)):
                raise _not_finite("epsilon", value=c0, slope=c1, quad=c2)
            _eps_attained(c0)
            if h < math.inf:
                llim = _poly_value((c0, c1, c2), h)
                if llim < 0.0 or llim > 0.5:
                    raise EpsilonOutOfRange("epsilon leaves (0, 1/2) inside a segment")
                if c2 != 0.0:
                    vertex = -c1 / (2.0 * c2)
                    if 0.0 < vertex < h:
                        _eps_attained(_poly_value((c0, c1, c2), vertex))
            elif c1 != 0.0 or c2 != 0.0:
                raise EpsilonOutOfRange("epsilon must level off on its last segment")
        self.__dict__["carrier"] = carrier

    def value(self, x: float) -> float:
        return self.carrier.value(x)

    @staticmethod
    def const(c: float) -> "EpsilonFn":
        return EpsilonFn(PiecewiseFn.constant(c))


def validate_gamma(g: GammaFn | PiecewiseFn, tol: float = 1e-9) -> GammaFn:
    """g as a GammaFn, which checked itself when it was built."""
    return g if isinstance(g, GammaFn) else GammaFn(g, tol=tol)


def validate_epsilon(e: EpsilonFn | PiecewiseFn) -> EpsilonFn:
    """e as an EpsilonFn, which checked itself when it was built."""
    return e if isinstance(e, EpsilonFn) else EpsilonFn(e)


def min_gamma(F: Distribution, G: Distribution, tol: float = 1e-9) -> GammaFn:
    """Pointwise-smallest non-decreasing gamma making F comparable to G.

    It is the running sup of the deficit-to-surplus area ratio, built by
    one rule on every sign-pure cell of the pair's geometry: rc = An /
    ap0, with ap0 the surplus at the cell's start. Where deficit accrues,
    surplus is frozen and rc is the ratio. Where deficit is frozen, rc is
    constant and the ratio peaks at the start, as only surplus can grow,
    so rc is read there (the last cell's end is infinite). The sup follows
    rc once rc overtakes it, at a polynomial root solved exactly. A piece
    is emitted only where the level or slope changes, as compress would
    leave it. Raises NotSSDOrdered with the sup when it exceeds 1 + tol,
    and with inf when deficit above tol meets no surplus.
    """
    geom = pair_geometry(F, G)
    cur = 0.0
    env_breaks: list[float] = []
    env_coeffs: list[tuple[float, float, float]] = [_ZERO]  # the left tail's piece first
    emit = partial(_fold_in, env_breaks, env_coeffs)
    for (b, h, anc), apc in zip(geom.An.cells(), geom.Ap.coeffs):
        reach = h if anc[1] != 0.0 or anc[2] != 0.0 else 0.0
        ap0 = apc[0]
        if ap0 <= 0.0:
            if _poly_value(anc, reach) > tol:
                raise NotSSDOrdered(math.inf)
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
            else:  # the crossing rounded onto an end of the cell: the side rc is above wins
                emit(b, rc if _poly_value(rc, h / 2.0) > cur else (cur, 0.0, 0.0))
            cur = r_end
        if cur > 1.0 + tol:
            raise NotSSDOrdered(cur)
    env = PiecewiseFn._trusted(tuple(env_breaks), 0.0, tuple(env_coeffs[1:]))
    return validate_gamma(env, tol)


def min_constant_gamma(F: Distribution, G: Distribution,
                       tol: float = 1e-9) -> float | Infeasible:
    """Smallest constant gamma in [0,1], or Infeasible when none exists."""
    try:
        g = min_gamma(F, G, tol)
    except NotSSDOrdered as exc:
        return Infeasible(exc.ratio)
    return g.upper


def min_constant_epsilon(F: Distribution, G: Distribution) -> float | Infeasible:
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

