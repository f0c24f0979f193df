"""Tweedie posterior-mean formulas for Binomial, Negative Binomial, Gamma,
and Beta observations.

Each family's posterior mean of the natural-parameter transform splits into a
closed-form carrier term (from the family's base density h) plus the marginal
log-density derivative l'_f in the data coordinate, which is injected as a
ScoreEstimate so that any score provider can be plugged in:

    Binomial      E(log(p/(1-p)) | x) = H(x) + H(n-x) - 2*gamma_E + l'_f(x)
    Neg binomial  E(log p | x)        = l'_f(x) + sum_{k=x+1}^{x+r-1} 1/k
    Gamma         E(beta | x)         = (alpha - 1)/x - l'_f(x)
    Beta          E(alpha | z)        = (beta - 1) x/(1 - x) + l'_f(z),  z = log x

H(k) is the k-th harmonic number (empty sum = 0) and gamma_E the
Euler-Mascheroni constant. Discrete and Binomial posterior means are returned
on the transformed (log-odds / log-probability) scale only.

Each family class carries its own rules: its domain, which ``carrier``
checks (NaN and infinities refused) before it computes the carrier term -l'_h;
the sign of the reported mean (-1 for Gamma's rate); and ``coordinate``, the
map from a raw observation to the data coordinate (log x for Beta, the
identity otherwise). A FamilyPoint computes its carrier term once and refuses
one that overflows; ``posterior_mean`` reads it and refuses a mean that
overflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .data import Bandwidths, HeteroSample
from .errors import DomainError, ZeroMass
from .kernel import KernelContext, in_sample_triple

EULER_GAMMA = 0.57721566490153286061

# Largest Binomial n_trials, NegBinomial r and harmonic index k: a carrier
# term is a compensated sum of up to this many terms (well under 1 s).
MAX_COUNT = 10**6


class Family:
    """What every family dataclass provides: ``carrier(value)``, the term -l'_h
    at a point of the data coordinate, raising DomainError outside the domain;
    ``sign``, -1 where the mean reports -eta; ``coordinate(x)`` of a raw x."""

    sign: ClassVar[float] = 1.0

    def coordinate(self, x: float) -> float:
        return x


def _check_integer(value: float, what: str) -> int:
    # exact comparisons: an int past the float range is refused, not converted
    if not (abs(value) <= sys.float_info.max and value == int(value)):
        raise DomainError(f"{what} must be an integer within the float range, got {value}")
    return int(value)


@dataclass(frozen=True)
class Binomial(Family):
    n_trials: int

    def __post_init__(self):
        if not 1 <= _check_integer(self.n_trials, "Binomial n_trials") <= MAX_COUNT:
            raise DomainError(f"Binomial needs 1 <= n_trials <= MAX_COUNT = {MAX_COUNT}, got {self.n_trials}")

    def carrier(self, value: float) -> float:
        x = _check_integer(value, "Binomial count")
        if not (0 <= x <= self.n_trials):
            raise DomainError(f"Binomial count {x} outside [0, {self.n_trials}]")
        return harmonic(x) + harmonic(int(self.n_trials) - x) - 2.0 * EULER_GAMMA


@dataclass(frozen=True)
class NegBinomial(Family):
    r: int

    def __post_init__(self):
        if not 1 <= _check_integer(self.r, "NegBinomial r") <= MAX_COUNT:
            raise DomainError(f"NegBinomial needs 1 <= r <= MAX_COUNT = {MAX_COUNT}, got {self.r}")

    def carrier(self, value: float) -> float:
        x = _check_integer(value, "NegBinomial count")
        if x < 0:
            raise DomainError(f"NegBinomial count {x} negative")
        return math.fsum(1.0 / k for k in range(x + 1, x + int(self.r)))


@dataclass(frozen=True)
class Gamma(Family):
    alpha: float
    sign: ClassVar[float] = -1.0

    def __post_init__(self):
        if not (0 < self.alpha < math.inf):
            raise DomainError(f"Gamma needs a finite alpha > 0, got {self.alpha}")

    def carrier(self, value: float) -> float:
        if not (0 < value < math.inf):
            raise DomainError(f"Gamma value must be finite and > 0, got {value}")
        return (1.0 - self.alpha) / value


@dataclass(frozen=True)
class Beta(Family):
    beta: float

    def __post_init__(self):
        if not (0 < self.beta < math.inf):
            raise DomainError(f"Beta needs a finite beta > 0, got {self.beta}")

    def carrier(self, value: float) -> float:
        if not (-math.inf < value < 0):
            raise DomainError(f"Beta coordinate z = log x must be finite and < 0, got {value}")
        x = math.exp(value)
        return (self.beta - 1.0) * x / (1.0 - x)

    def coordinate(self, x: float) -> float:
        if not (0.0 < x < 1.0):
            raise DomainError("beta observations must lie in (0, 1); pass the raw x")
        return math.log(x)


@dataclass(frozen=True)
class FamilyPoint:
    """One observation in the family's data coordinate (the count x for
    Binomial/NegBinomial, the positive x for Gamma, z = log x < 0 for Beta),
    which the family's carrier checks. ``carrier`` holds the term -l'_h at
    the point, computed once here; a term that overflows is a DomainError."""

    family: Family
    value: float
    carrier: float = field(init=False)

    def __post_init__(self):
        term = self.family.carrier(self.value)
        if not math.isfinite(term):
            raise DomainError(f"carrier term -l'_h at {self.value} overflows to {term}")
        object.__setattr__(self, "carrier", term)


@dataclass(frozen=True)
class ScoreEstimate:
    """An estimate of l'_f, the marginal log-density derivative in the data
    coordinate."""

    lf1: float

    def __post_init__(self):
        if not math.isfinite(self.lf1):
            raise ValueError("lf1 must be finite")


def harmonic(k: int) -> float:
    """H(k) = sum_{j=1}^k 1/j via exact compensated summation; H(0) = 0,
    and k outside 0..MAX_COUNT is refused."""
    if not 0 <= k <= MAX_COUNT:
        raise DomainError(f"harmonic number needs 0 <= k <= MAX_COUNT = {MAX_COUNT}, got {k}")
    return math.fsum(1.0 / j for j in range(1, k + 1))


def posterior_mean(p: FamilyPoint, score: ScoreEstimate) -> float:
    """Posterior mean of the family's parameter transform given the point and
    an injected marginal score; a mean that overflows is a DomainError."""
    mean = p.family.sign * (p.carrier + score.lf1)
    if not math.isfinite(mean):
        raise DomainError(f"posterior mean at {p.value} overflows to {mean}")
    # adding 0.0 keeps an exact zero unsigned
    return mean + 0.0


def discrete_lf1(pmf, x: int) -> ScoreEstimate:
    """Finite-difference surrogate for l'_f on an integer support: the slope
    of log pmf between the neighbours i = max(x-1, 0) and j = min(x+1, n-1),
    so central inside the support and one-sided at its edges. x must be an
    integer (2.0 reads as 2), and the pmf positive at x, j and i.
    """
    p = np.asarray(pmf, dtype=float).reshape(-1)
    n = p.shape[0]
    if n < 2:
        raise DomainError("pmf support must contain at least two points")
    x = _check_integer(x, "pmf point x")
    if not (0 <= x < n):
        raise DomainError(f"x={x} outside pmf support [0, {n - 1}]")
    i, j = max(x - 1, 0), min(x + 1, n - 1)
    for k in (x, j, i):
        if p[k] <= 0.0:
            raise ZeroMass(k)
    return ScoreEstimate((math.log(p[j]) - math.log(p[i])) / (j - i))


def gamma_point_mass_lf1(alpha: float, beta0: float, x: float) -> ScoreEstimate:
    """Exact marginal score for a Gamma(alpha, .) observation under a prior
    concentrated at rate beta0: the marginal is Gamma(alpha, beta0), so
    l'_f(x) = (alpha - 1)/x - beta0, the Gamma carrier's negative less beta0."""
    return ScoreEstimate(-Gamma(alpha).carrier(x) - beta0)


def kde_lf1(values, thetas, bw: Bandwidths, value: float, theta: float) -> ScoreEstimate:
    """Weighted-KDE score provider for continuous families: the nuisance
    parameter plays sigma's role in the weights. Values and thetas form a
    :class:`HeteroSample`, so they must pair up and every theta be positive."""
    ctx = KernelContext(HeteroSample(values, thetas), bw)
    f, f1, _ = in_sample_triple(ctx, queries=([value], [theta]), f2=False)
    return ScoreEstimate(float(f1[0] / f[0]))
