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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .data import Bandwidths, HeteroSample
from .errors import DomainError, ZeroMass
from .kernel import KernelContext, in_sample_triple

EULER_GAMMA = 0.57721566490153286061


@dataclass(frozen=True)
class Binomial:
    n_trials: int

    def __post_init__(self):
        if self.n_trials < 1:
            raise DomainError("Binomial needs n_trials >= 1")


@dataclass(frozen=True)
class NegBinomial:
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("NegBinomial needs r >= 1")


@dataclass(frozen=True)
class Gamma:
    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0):
            raise DomainError("Gamma needs alpha > 0")


@dataclass(frozen=True)
class Beta:
    beta: float

    def __post_init__(self):
        if not (self.beta > 0):
            raise DomainError("Beta needs beta > 0")


Family = Union[Binomial, NegBinomial, Gamma, Beta]


def _check_integer(value: float, what: str) -> int:
    if value != int(value):
        raise DomainError(f"{what} must be an integer, got {value}")
    return int(value)


@dataclass(frozen=True)
class FamilyPoint:
    """One observation in the family's canonical data coordinate: the count x
    for Binomial/NegBinomial, the positive value x for Gamma, and z = log x
    for Beta (hence z < 0)."""

    family: Family
    value: float

    def __post_init__(self):
        f, v = self.family, self.value
        if isinstance(f, Binomial):
            iv = _check_integer(v, "Binomial count")
            if not (0 <= iv <= f.n_trials):
                raise DomainError(f"Binomial count {iv} outside [0, {f.n_trials}]")
        elif isinstance(f, NegBinomial):
            iv = _check_integer(v, "NegBinomial count")
            if iv < 0:
                raise DomainError(f"NegBinomial count {iv} negative")
        elif isinstance(f, Gamma):
            if not (v > 0):
                raise DomainError(f"Gamma value must be > 0, got {v}")
        elif isinstance(f, Beta):
            if not (v < 0):
                raise DomainError(f"Beta coordinate z = log x must be < 0, got {v}")
        else:
            raise DomainError(f"unknown family {f!r}")


@dataclass(frozen=True)
class ScoreEstimate:
    """An estimate of l'_f, the marginal log-density derivative in the data
    coordinate."""

    lf1: float

    def __post_init__(self):
        if not math.isfinite(self.lf1):
            raise ValueError("lf1 must be finite")


@lru_cache(maxsize=4096)
def harmonic(k: int) -> float:
    """H(k) = sum_{j=1}^k 1/j via exact compensated summation; H(0) = 0."""
    if k < 0:
        raise DomainError(f"harmonic number needs k >= 0, got {k}")
    return math.fsum(1.0 / j for j in range(1, k + 1))


def lh_prime(p: FamilyPoint) -> float:
    """The closed-form carrier term -l'_h at the point, per family."""
    f, v = p.family, p.value
    if isinstance(f, Binomial):
        x = int(v)
        return harmonic(x) + harmonic(f.n_trials - x) - 2.0 * EULER_GAMMA
    if isinstance(f, NegBinomial):
        x = int(v)
        if f.r == 1:
            return 0.0
        return harmonic(x + f.r - 1) - harmonic(x)
    if isinstance(f, Gamma):
        return (1.0 - f.alpha) / v
    # Beta: value is z = log x
    x = math.exp(v)
    return (f.beta - 1.0) * x / (1.0 - x)


def posterior_mean(p: FamilyPoint, score: ScoreEstimate) -> float:
    """Posterior mean of the family's parameter transform given the point and
    an injected marginal score."""
    # Gamma reports the rate -eta; adding 0.0 keeps an exact zero unsigned
    sign = -1.0 if isinstance(p.family, Gamma) else 1.0
    return sign * (lh_prime(p) + score.lf1) + 0.0


def discrete_lf1(pmf, x: int) -> ScoreEstimate:
    """Finite-difference surrogate for l'_f on an integer support.

    Central difference of log pmf where both neighbors exist, one-sided at
    the support edges. The pmf must be positive at the point and at every
    neighbor used.
    """
    p = np.asarray(pmf, dtype=float).reshape(-1)
    n = p.shape[0]
    if n < 2:
        raise DomainError("pmf support must contain at least two points")
    if not (0 <= x < n):
        raise DomainError(f"x={x} outside pmf support [0, {n - 1}]")
    if p[x] <= 0.0:
        raise ZeroMass(x)

    def logp(i: int) -> float:
        if p[i] <= 0.0:
            raise ZeroMass(i)
        return math.log(p[i])

    if x == 0:
        return ScoreEstimate(logp(1) - logp(0))
    if x == n - 1:
        return ScoreEstimate(logp(n - 1) - logp(n - 2))
    return ScoreEstimate(0.5 * (logp(x + 1) - logp(x - 1)))


def gamma_point_mass_lf1(alpha: float, beta0: float, x: float) -> ScoreEstimate:
    """Exact marginal score for a Gamma(alpha, .) observation under a prior
    concentrated at rate beta0: the marginal is Gamma(alpha, beta0), so
    l'_f(x) = (alpha - 1)/x - beta0."""
    if not (x > 0):
        raise DomainError(f"Gamma value must be > 0, got {x}")
    return ScoreEstimate((alpha - 1.0) / x - beta0)


def kde_lf1(values, thetas, bw: Bandwidths, value: float, theta: float) -> ScoreEstimate:
    """Weighted-KDE score provider for continuous families: the nuisance
    parameter plays sigma's role in the weights. Values and thetas form a
    :class:`HeteroSample`, so they must pair up and every theta be positive."""
    ctx = KernelContext(HeteroSample(values, thetas), bw)
    f, f1, _ = in_sample_triple(ctx, queries=([value], [theta]), f2=False)
    return ScoreEstimate(float(f1[0] / f[0]))
