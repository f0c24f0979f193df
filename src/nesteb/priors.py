"""Closed-form priors for the Gaussian noise model.

Each prior knows its mean/variance, how to draw from itself, and the exact
marginal quantities of X | sigma after convolving with N(0, sigma^2):
density, survival function, score f'/f, and the posterior mean E(mu | x, sigma).

Posterior means and scores are assembled through different algebraic routes,
so their agreement via the identity  E(mu|x,sigma) = x + sigma^2 f'/f  is a
meaningful internal consistency check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .kernel import SQRT_2PI


def _special():
    """scipy.special, imported on first use: loading it costs about 0.3 s,
    which commands that never evaluate ndtr or expit do not pay."""
    import scipy.special

    return scipy.special


def _phi(d, s):
    return np.exp(-0.5 * (d / s) ** 2) / (SQRT_2PI * s)


@dataclass(frozen=True)
class NormalPrior:
    """mu ~ N(m, tau^2)."""

    m: float
    tau: float

    def __post_init__(self):
        if not (self.tau > 0):
            raise ValueError("tau must be positive")

    def mean(self) -> float:
        return self.m

    def variance(self) -> float:
        return self.tau**2

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.m + self.tau * rng.standard_normal(n)

    def marginal_pdf(self, x, sigma):
        v = np.sqrt(np.asarray(sigma, dtype=float) ** 2 + self.tau**2)
        return _phi(np.asarray(x, dtype=float) - self.m, v)

    def marginal_survival(self, t, sigma):
        v = np.sqrt(np.asarray(sigma, dtype=float) ** 2 + self.tau**2)
        return _special().ndtr((self.m - np.asarray(t, dtype=float)) / v)

    def marginal_score(self, x, sigma):
        v2 = np.asarray(sigma, dtype=float) ** 2 + self.tau**2
        return -(np.asarray(x, dtype=float) - self.m) / v2

    def posterior_mean(self, x, sigma):
        x = np.asarray(x, dtype=float)
        s2 = np.asarray(sigma, dtype=float) ** 2
        t2 = self.tau**2
        return (t2 * x + s2 * self.m) / (t2 + s2)


@dataclass(frozen=True)
class SparseMixPrior:
    """Point mass at 0 with probability p0, else a draw from N(m, tau^2)."""

    p0: float
    m: float
    tau: float

    def __post_init__(self):
        if not (0.0 <= self.p0 <= 1.0):
            raise ValueError("p0 must lie in [0, 1]")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")

    def mean(self) -> float:
        return (1.0 - self.p0) * self.m

    def variance(self) -> float:
        p1 = 1.0 - self.p0
        second = p1 * (self.tau**2 + self.m**2)
        return second - (p1 * self.m) ** 2

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        null = rng.random(n) < self.p0
        signal = self.m + self.tau * rng.standard_normal(n)
        return np.where(null, 0.0, signal)

    def _null_posterior_weight(self, x, sigma):
        # log-space posterior weight of the exact-zero component
        x = np.asarray(x, dtype=float)
        s = np.asarray(sigma, dtype=float)
        v = np.sqrt(s**2 + self.tau**2)
        with np.errstate(divide="ignore"):
            l0 = np.log(self.p0) - 0.5 * (x / s) ** 2 - np.log(s)
            l1 = np.log(1.0 - self.p0) - 0.5 * ((x - self.m) / v) ** 2 - np.log(v)
        return _special().expit(l0 - l1)

    def marginal_pdf(self, x, sigma):
        x = np.asarray(x, dtype=float)
        s = np.asarray(sigma, dtype=float)
        v = np.sqrt(s**2 + self.tau**2)
        return self.p0 * _phi(x, s) + (1.0 - self.p0) * _phi(x - self.m, v)

    def marginal_survival(self, t, sigma):
        t = np.asarray(t, dtype=float)
        s = np.asarray(sigma, dtype=float)
        v = np.sqrt(s**2 + self.tau**2)
        sp = _special()
        return self.p0 * sp.ndtr(-t / s) + (1.0 - self.p0) * sp.ndtr((self.m - t) / v)

    def marginal_score(self, x, sigma):
        x = np.asarray(x, dtype=float)
        s2 = np.asarray(sigma, dtype=float) ** 2
        v2 = s2 + self.tau**2
        w0 = self._null_posterior_weight(x, sigma)
        return w0 * (-x / s2) + (1.0 - w0) * (-(x - self.m) / v2)

    def posterior_mean(self, x, sigma):
        x = np.asarray(x, dtype=float)
        s2 = np.asarray(sigma, dtype=float) ** 2
        t2 = self.tau**2
        w0 = self._null_posterior_weight(x, sigma)
        component = (t2 * x + s2 * self.m) / (t2 + s2)
        return (1.0 - w0) * component


@dataclass(frozen=True)
class TwoPointPrior:
    """Point mass at a with probability p0, at b with probability 1 - p0."""

    p0: float
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.p0 <= 1.0):
            raise ValueError("p0 must lie in [0, 1]")

    def mean(self) -> float:
        return self.p0 * self.a + (1.0 - self.p0) * self.b

    def variance(self) -> float:
        return self.p0 * (1.0 - self.p0) * (self.b - self.a) ** 2

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.where(rng.random(n) < self.p0, self.a, self.b)

    def _weight_a(self, x, sigma):
        x = np.asarray(x, dtype=float)
        s = np.asarray(sigma, dtype=float)
        with np.errstate(divide="ignore"):
            la = np.log(self.p0) - 0.5 * ((x - self.a) / s) ** 2
            lb = np.log(1.0 - self.p0) - 0.5 * ((x - self.b) / s) ** 2
        return _special().expit(la - lb)

    def marginal_pdf(self, x, sigma):
        x = np.asarray(x, dtype=float)
        s = np.asarray(sigma, dtype=float)
        return self.p0 * _phi(x - self.a, s) + (1.0 - self.p0) * _phi(x - self.b, s)

    def marginal_survival(self, t, sigma):
        t = np.asarray(t, dtype=float)
        s = np.asarray(sigma, dtype=float)
        sp = _special()
        return self.p0 * sp.ndtr((self.a - t) / s) + (1.0 - self.p0) * sp.ndtr((self.b - t) / s)

    def marginal_score(self, x, sigma):
        x = np.asarray(x, dtype=float)
        s2 = np.asarray(sigma, dtype=float) ** 2
        wa = self._weight_a(x, sigma)
        return (wa * (self.a - x) + (1.0 - wa) * (self.b - x)) / s2

    def posterior_mean(self, x, sigma):
        wa = self._weight_a(x, sigma)
        return wa * self.a + (1.0 - wa) * self.b


PriorSpec = Union[NormalPrior, SparseMixPrior, TwoPointPrior]


def point_mass(at: float = 0.0) -> TwoPointPrior:
    """Degenerate prior concentrated at a single value."""
    return TwoPointPrior(1.0, at, at)
