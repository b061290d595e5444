"""Finitely-represented probability distributions on the real line.

A distribution is carried by its CDF: a right-continuous piecewise
function that starts at 0, never decreases, and reaches exactly 1 at its
last breakpoint. Atoms appear as jumps and uniform-density stretches as
linear pieces, so every moment and area computation downstream stays in
closed form.
"""

from __future__ import annotations

import math
from itertools import groupby

from .piecewise import Frozen, PiecewiseFn, _not_finite, _poly_value

__all__ = [
    "DiscretePMF",
    "Distribution",
    "EmptyInput",
    "WeightMismatch",
    "convolve",
    "dirac",
    "from_samples",
    "mixture",
    "shift",
]


class EmptyInput(ValueError):
    """An empirical CDF needs at least one sample."""


class WeightMismatch(ValueError):
    """Mixture weights must pair up with components and sum to one."""


class ShiftCollapse(ValueError):
    """A shift rounded two breakpoints of a CDF onto each other."""

    def __init__(self, shift: float, a: float, b: float):
        self.shift, self.a, self.b = shift, a, b
        super().__init__(f"shifting by {shift!r} collapses the breakpoints {a!r} "
                         f"and {b!r} onto {a + shift!r} and {b + shift!r}")


def _unchecked(carrier: PiecewiseFn, mean: float, left_support: float) -> "Distribution":
    """A Distribution over a carrier known to be a CDF, without the check."""
    d = object.__new__(Distribution)
    d.__dict__.update(carrier=carrier, mean=mean, left_support=left_support)
    return d


def _left_support(carrier: PiecewiseFn) -> float:
    return next((b for b, (c0, c1, _) in zip(carrier.breaks, carrier.coeffs)
                 if c0 > 0.0 or c1 > 0.0), math.inf)


def _ending_at_one(carrier: PiecewiseFn, tol: float) -> PiecewiseFn:
    """carrier with a last level within tol of 1 stored as exactly 1.0, so
    that two CDFs cancel past their last breaks; _cdf_mean judges the rest."""
    *head, (c0, c1, c2) = carrier.coeffs or ((1.0, 0.0, 0.0),)
    if not 0.0 < abs(c0 - 1.0) <= tol:
        return carrier
    return PiecewiseFn(carrier.breaks, carrier.left, (*head, (1.0, c1, c2)))


def _cdf_mean(carrier: PiecewiseFn, tol: float) -> float:
    """The mean of carrier, once it is checked to be a CDF (see from_cdf)."""
    degree = carrier.degree()
    if degree > 1:
        raise ValueError("a CDF is flat or linear between breakpoints")
    if not carrier.breaks:
        raise ValueError("a CDF needs at least one breakpoint")
    if carrier.left != 0.0:
        raise ValueError("a CDF must be 0 before its first breakpoint")
    c0, c1, _ = carrier.coeffs[-1]
    if c1 != 0.0 or abs(c0 - 1.0) > tol:
        raise ValueError("a CDF must reach 1 at its last breakpoint and stay there")
    # The mean is the Stieltjes integral of x dF: atoms at breakpoints,
    # uniform mass on linear pieces. The final segment is flat, so the
    # sum is finite.
    mu = 0.0
    prev = carrier.left
    for b, h, c in carrier.cells():
        if not (math.isfinite(c[0]) and math.isfinite(c[1])):
            raise _not_finite("CDF", value=c[0], slope=c[1])
        jump = c[0] - prev
        if jump < -tol:
            raise ValueError("a CDF cannot jump downward")
        if c[1] < -tol:
            raise ValueError("a CDF cannot have negative density")
        if jump != 0.0:
            mu += b * jump
        if c[1] != 0.0:
            mu += c[1] * h * (b + h / 2)
        prev = _poly_value(c, h) if degree else c[0]  # past the last cell: never read
    return mu


class Distribution(Frozen):
    """Validated CDF with cached mean and left support endpoint. The
    constructor checks and stores carrier as `from_cdf` does under its
    default tol, and takes mean and left_support as given."""

    carrier: PiecewiseFn
    mean: float
    left_support: float

    def __init__(self, carrier, mean, left_support) -> None:
        carrier = _ending_at_one(carrier, 1e-9)
        _cdf_mean(carrier, 1e-9)
        self.__dict__.update(carrier=carrier, mean=mean, left_support=left_support)

    @staticmethod
    def from_cdf(carrier: PiecewiseFn, tol: float = 1e-9) -> "Distribution":
        """Validate a piecewise function as a CDF and wrap it.

        Raises ValueError when the function is not a distribution
        function: it must rise from 0 to 1, never decrease, use only
        flat or linear pieces, and stay flat at 1 after its last
        breakpoint. Like every constructor, it stores a last level within
        tol of 1 as exactly 1, so F - G has no area past the last break.
        """
        carrier = _ending_at_one(carrier, tol)
        return _unchecked(carrier, _cdf_mean(carrier, tol), _left_support(carrier))

    def cdf(self, x: float) -> float:
        return self.carrier.value(x)


class DiscretePMF(Frozen):
    """Finite list of (location, mass) atoms; locations strictly increasing."""

    atoms: tuple[tuple[float, float], ...]

    def __init__(self, atoms) -> None:
        if not atoms:
            raise EmptyInput("a pmf needs at least one atom")
        total = 0.0
        prev = -math.inf
        for x, m in atoms:
            if not (math.isfinite(x) and math.isfinite(m)):
                raise _not_finite("atom", location=x, mass=m)
            if not x > prev:
                raise ValueError("atom locations must be strictly increasing")
            if m <= 0.0:
                raise ValueError("atom masses must be positive")
            prev = x
            total += m
        if abs(total - 1.0) > 1e-9:
            raise ValueError("atom masses must sum to 1")
        self.__dict__["atoms"] = atoms

    def to_distribution(self) -> Distribution:
        breaks = tuple(x for x, _ in self.atoms)
        values = [0.0]
        run = 0.0
        for _, m in self.atoms:
            run += m
            values.append(run)
        values[-1] = 1.0
        return Distribution.from_cdf(PiecewiseFn.step(breaks, tuple(values)))


def from_samples(xs: list[float]) -> Distribution:
    """Empirical CDF: jump 1/n at each order statistic, ties merged."""
    if not xs:
        raise EmptyInput("no samples given")
    vals = sorted(map(float, xs))
    if not all(map(math.isfinite, vals)):
        raise ValueError("samples must be finite")
    n = len(vals)
    breaks: list[float] = []
    heights: list[float] = [0.0]
    seen = 0
    for x, run in groupby(vals):
        seen += len(list(run))
        breaks.append(x)
        heights.append(seen / n)
    heights[-1] = 1.0
    return Distribution.from_cdf(PiecewiseFn.step(tuple(breaks), tuple(heights)))


def dirac(a: float) -> Distribution:
    """Unit point mass at a."""
    return Distribution.from_cdf(PiecewiseFn.step((float(a),), (0.0, 1.0)))


def shift(F: Distribution, c: float) -> Distribution:
    """Translate the underlying variable by c: CDF x -> F(x - c).

    Raises ShiftCollapse when rounding makes two breakpoints equal, as a
    shift far larger than their spacing does, and ValueError when a
    breakpoint overflows to an infinity.
    """
    if c == 0.0:
        return F
    if not math.isfinite(c):
        raise _not_finite("shift", amount=c)
    bs = F.carrier.breaks
    end = bs[-1] if c > 0.0 else bs[0]  # the only breakpoint that can overflow
    if math.isinf(end + c):
        raise ValueError(f"shifting by {c!r} moves the breakpoint {end!r} to {end + c!r}")
    try:
        carrier = F.carrier.shift(c)
    except ValueError:
        a, b = next((a, b) for a, b in zip(bs, bs[1:]) if not a + c < b + c)
        raise ShiftCollapse(c, a, b) from None
    return _unchecked(carrier, F.mean + c, F.left_support + c)


def mixture(components: list[Distribution], weights: list[float],
            tol: float = 1e-9) -> Distribution:
    """Convex combination of CDFs."""
    if not components or len(components) != len(weights):
        raise WeightMismatch("need one weight per component")
    if any(not 0.0 <= w < math.inf for w in weights):
        raise WeightMismatch("weights must be finite and non-negative")
    if abs(sum(weights) - 1.0) > tol:
        raise WeightMismatch("weights must sum to 1")
    carrier = components[0].carrier.scale(weights[0])
    for comp, w in zip(components[1:], weights[1:]):
        carrier = carrier.add(comp.carrier.scale(w))
    mu = sum(w * comp.mean for comp, w in zip(components, weights))
    # every component ends at 1 and the weights sum to 1 within tol
    return _unchecked(_ending_at_one(carrier, math.inf), mu, _left_support(carrier))


def convolve(F: DiscretePMF, Z: DiscretePMF) -> DiscretePMF:
    """Distribution of the sum of independent atomic variables.

    Atoms landing on exactly equal sums merge; nearby but distinct sums
    stay distinct, which keeps fixture output deterministic.
    """
    sums: dict[float, float] = {}
    for x, p in F.atoms:
        for y, q in Z.atoms:
            s = x + y
            sums[s] = sums.get(s, 0.0) + p * q
    return DiscretePMF(tuple(sorted(sums.items())))
