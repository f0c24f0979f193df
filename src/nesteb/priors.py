"""Closed-form priors for the Gaussian noise model.

Every prior is a Gaussian mixture sum_k w_k N(m_k, tau_k^2) with one or two
components, where tau_k = 0 is a point mass at m_k; each class is one
parameterization of it, listed by `components()`. Convolved with the noise
N(0, sigma^2), component k is N(m_k, tau_k^2 + sigma^2), so the marginal
density, survival function and score f'/f of X | sigma, and the posterior
mean E(mu | x, sigma) (Tweedie's formula), all follow from the components.
The first component's posterior weight is the logistic 1 / (1 + exp(l1 - l0))
of the two log densities, and the normal upper tail is 0.5 erfc(z / sqrt 2),
z = (t - m) / sqrt(v2); NumPy and `math` compute both.
`variance()` is the one quantity written per class: the noise calibration
reads its exact bits, and no single formula gives all three classes' bits.

Posterior means and scores are assembled through different algebraic routes,
so their agreement via the identity  E(mu|x,sigma) = x + sigma^2 f'/f  is a
meaningful internal consistency check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .kernel import SQRT_2PI


_erfc = np.vectorize(math.erfc, otypes=[float])  # NumPy has no erfc


def _phi(d, s):
    return np.exp(-0.5 * (d / s) ** 2) / (SQRT_2PI * s)


def mixture_weight(x, w0, m0, s0, w1, m1, s1):
    """Posterior probability that x was drawn from the first component of
    w0 N(m0, s0^2) + w1 N(m1, s1^2), from the two log densities; a component
    of weight 0 has log density -inf and probability 0."""
    with np.errstate(divide="ignore"):
        l0 = np.log(w0) - 0.5 * ((x - m0) / s0) ** 2 - np.log(s0)
        l1 = np.log(w1) - 0.5 * ((x - m1) / s1) ** 2 - np.log(s1)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(l1 - l0))


class _GaussianMixture:
    """The mixture's quantities from `components()`, a tuple of one or two
    (weight, location, tau) triples. Every parameter must be finite; each
    class's `__post_init__` adds its own rules after this check."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"prior parameter {f.name} must be finite, got {value}")

    # variance() is per class: solve_sigma_M reads bits no shared formula keeps.
    def mean(self) -> float:
        return sum(w * m for w, m, _ in self.components())

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        comps = self.components()
        first = rng.random(n) < comps[0][0] if len(comps) == 2 else None
        values = [m + tau * rng.standard_normal(n) if tau > 0 else m for _, m, tau in comps]
        return values[0] if first is None else np.where(first, *values)

    def _convolved(self, x, sigma):
        """x and sigma^2 as arrays, and per component (w, m, tau, v2), v2 = sigma^2 + tau^2."""
        s2 = np.asarray(sigma, dtype=float) ** 2
        return np.asarray(x, dtype=float), s2, [(w, m, tau, s2 + tau**2) for w, m, tau in self.components()]

    def marginal_pdf(self, x, sigma):
        x, _, comps = self._convolved(x, sigma)
        return sum(w * _phi(x - m, np.sqrt(v2)) for w, m, _, v2 in comps)

    def marginal_survival(self, t, sigma):
        t, _, comps = self._convolved(t, sigma)
        return sum(w * 0.5 * _erfc((t - m) / np.sqrt(v2) / math.sqrt(2.0)) for w, m, _, v2 in comps)

    def marginal_score(self, x, sigma):
        x, _, comps = self._convolved(x, sigma)
        return _posterior_average(x, comps, [-(x - m) / v2 for _, m, _, v2 in comps])

    def posterior_mean(self, x, sigma):
        x, s2, comps = self._convolved(x, sigma)
        means = [(tau**2 * x + s2 * m) / v2 if tau > 0 else m for _, m, tau, v2 in comps]
        return _posterior_average(x, comps, means)


def _posterior_average(x, comps, terms):
    """sum_k P(component k | x, sigma) * terms[k]."""
    if len(comps) == 1:
        return terms[0]
    (w0, m0, _, v0), (w1, m1, _, v1) = comps
    r = mixture_weight(x, w0, m0, np.sqrt(v0), w1, m1, np.sqrt(v1))
    return r * terms[0] + (1.0 - r) * terms[1]


@dataclass(frozen=True)
class NormalPrior(_GaussianMixture):
    """mu ~ N(m, tau^2)."""

    m: float
    tau: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.tau > 0):
            raise ValueError("tau must be positive")

    def components(self):
        return ((1.0, self.m, self.tau),)

    def variance(self) -> float:
        return self.tau**2


@dataclass(frozen=True)
class SparseMixPrior(_GaussianMixture):
    """Point mass at 0 with probability p0, else a draw from N(m, tau^2)."""

    p0: float
    m: float
    tau: float

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.p0 <= 1.0):
            raise ValueError("p0 must lie in [0, 1]")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")

    def components(self):
        return ((self.p0, 0.0, 0.0), (1.0 - self.p0, self.m, self.tau))

    def variance(self) -> float:
        p1 = 1.0 - self.p0
        second = p1 * (self.tau**2 + self.m**2)
        return second - (p1 * self.m) ** 2


@dataclass(frozen=True)
class TwoPointPrior(_GaussianMixture):
    """Point mass at a with probability p0, at b with probability 1 - p0."""

    p0: float
    a: float
    b: float

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.p0 <= 1.0):
            raise ValueError("p0 must lie in [0, 1]")

    def components(self):
        return ((self.p0, self.a, 0.0), (1.0 - self.p0, self.b, 0.0))

    def variance(self) -> float:
        return self.p0 * (1.0 - self.p0) * (self.b - self.a) ** 2


PriorSpec = Union[NormalPrior, SparseMixPrior, TwoPointPrior]
