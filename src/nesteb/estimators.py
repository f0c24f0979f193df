"""Point estimators of the means: oracle rules, NEST, homoscedastic Tweedie
(TF), the scaled estimator, k-Groups, and the naive rule, plus truncation and
sign-stabilization post-processing.

All Tweedie-type rules share the shape  delta = x + s^2 * score  where score
is a density-derivative ratio f1/f:

    NEST    score from the two-dimensional weighted KDE at (x_i, sigma_i),
            multiplied by sigma_i^2;
    TF      score from the pooled one-dimensional KDE over all x_j with a
            single fixed bandwidth h, multiplied by the query's own sigma_i^2;
    Scaled  unit-variance Tweedie applied to z = x/sigma with pooled KDE over
            z_j = x_j/sigma_j, rescaled:  sigma * (z + score(z));
    k-Groups  TF applied within contiguous sigma-quantile groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import X_MAX, Bandwidths, HeteroSample, check_range, k_groups_fit
from .errors import BadGroupCount, NonFiniteValue
from .kernel import KernelContext, in_sample_triple, pooled_context
from .priors import PriorSpec


# ---------------------------------------------------------------------------
# Method specifications
# ---------------------------------------------------------------------------


def _resolved(value, what: str):
    if value is None:
        raise ValueError(f"{what} unresolved; tune first or pass fixed values")
    return value


class _Rule:
    """What every method dataclass provides: ``apply(sample)`` returns the
    raw estimates (before post-processing); ``describe()`` returns the
    resolved bandwidths reported in the CLI manifest, or None for rules that
    have none. Bandwidths left None are filled in by
    ``simulation.resolve_spec``. ``shrinks`` marks the Tweedie-type rules,
    the only ones truncation and sign stabilization apply to."""

    shrinks: ClassVar[bool] = True

    def describe(self) -> dict | None:
        return None


@dataclass(frozen=True)
class Naive(_Rule):
    name: ClassVar[str] = "naive"
    shrinks: ClassVar[bool] = False

    def apply(self, sample: HeteroSample) -> np.ndarray:
        return sample.x.copy()


@dataclass(frozen=True)
class Oracle(_Rule):
    prior: PriorSpec
    name: ClassVar[str] = "oracle"
    shrinks: ClassVar[bool] = False

    def apply(self, sample: HeteroSample) -> np.ndarray:
        return np.asarray(self.prior.posterior_mean(sample.x, sample.sigma), dtype=float)


@dataclass(frozen=True)
class Nest(_Rule):
    """Bandwidths may be left None and resolved later by the SURE tuner.
    ``jackknife=True`` excludes each point from its own density fit."""

    bw: Bandwidths | None = None
    jackknife: bool = False
    name: ClassVar[str] = "nest"

    def apply(self, sample: HeteroSample) -> np.ndarray:
        ctx = KernelContext(sample, _resolved(self.bw, "NEST bandwidths"))
        f, f1, _ = in_sample_triple(ctx, self.jackknife, f2=False)
        return sample.x + sample.sigma**2 * f1 / f

    def describe(self) -> dict:
        return {"h_x": self.bw.h_x, "h_sigma": self.bw.h_sigma}


@dataclass(frozen=True)
class TF(_Rule):
    h: float | None = None
    name: ClassVar[str] = "tf"

    def apply(self, sample: HeteroSample) -> np.ndarray:
        f, f1, _ = in_sample_triple(pooled_context(sample.x, _resolved(self.h, "TF bandwidth")), f2=False)
        return sample.x + sample.sigma**2 * f1 / f

    def describe(self) -> dict:
        return {"h": self.h}


@dataclass(frozen=True)
class Scaled(_Rule):
    h: float | None = None
    name: ClassVar[str] = "scaled"

    @staticmethod
    def coordinates(sample: HeteroSample) -> np.ndarray:
        """z = x / sigma, where the rule fits and tunes its pooled KDE, held
        to x's bound: OutOfDomain in column 'z' at the first |z| > X_MAX."""
        z = sample.x / sample.sigma
        check_range("z", z, -X_MAX, X_MAX, "|z| = |x / sigma| <= X_MAX = 2^128")
        return z

    def apply(self, sample: HeteroSample) -> np.ndarray:
        z = self.coordinates(sample)
        f, f1, _ = in_sample_triple(pooled_context(z, _resolved(self.h, "Scaled bandwidth")), f2=False)
        return sample.sigma * (z + f1 / f)

    def describe(self) -> dict:
        return {"h": self.h}


@dataclass(frozen=True)
class KGroups(_Rule):
    k: int = 2
    h_per_group: tuple[float, ...] | None = None

    @property
    def name(self) -> str:
        return f"{self.k}-groups"

    def apply(self, sample: HeteroSample) -> np.ndarray:
        h_per_group = _resolved(self.h_per_group, "k-Groups bandwidths")
        groups = k_groups_fit(sample, self.k)
        if len(h_per_group) != self.k:
            raise BadGroupCount(self.k, sample.n, f"got {len(h_per_group)} bandwidths for {self.k} groups")
        out = np.empty(sample.n)
        for h, idx in zip(h_per_group, groups):
            out[idx] = TF(float(h)).apply(sample.subset(idx))
        return out

    def describe(self) -> dict:
        return {"k": self.k, "h_per_group": list(self.h_per_group)}


Method = Naive | Oracle | Nest | TF | Scaled | KGroups


@dataclass(frozen=True)
class EstimatorSpec:
    """A method plus optional post-processing, applied in the order
    truncation then sign stabilization."""

    method: Method
    truncation_bound: float | None = None
    stabilize_sign: bool = False

    @property
    def name(self) -> str:
        return self.method.name


_TRUNCATION_SCALE = 2.0


def default_truncation_bound(n: int) -> float:
    """Magnitude bound 2 log(n) (log clamped below at log 2)."""
    return _TRUNCATION_SCALE * float(np.log(max(n, 2)))


def post_processed(method: Method, bound: float | None, stabilize: bool) -> EstimatorSpec:
    """Attach truncation and sign stabilization to a shrinkage rule; the
    oracle and naive rules are never modified."""
    if not method.shrinks:
        return EstimatorSpec(method)
    return EstimatorSpec(method, bound, stabilize)


def check_unique_names(names: list[str]) -> None:
    """Each estimator may appear once: its name keys an output column."""
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate estimator names: {names}")


def check_truncation_bound(bound: float) -> float:
    if not (bound > 0):  # refuses nan too
        raise ValueError(f"truncation bound must be positive, got {bound}")
    return bound


def truncate_estimates(mu_hat, bound: float) -> np.ndarray:
    """Clip each estimate to [-bound, +bound]."""
    check_truncation_bound(bound)
    return np.clip(np.asarray(mu_hat, dtype=float), -bound, bound)


def stabilize_sign(x, mu_hat) -> np.ndarray:
    """Zero any estimate whose sign disagrees with its observation.

    sign(0) is 0, so estimates at x == 0 are zeroed unless they are 0 too.
    """
    xa = np.asarray(x, dtype=float)
    ma = np.asarray(mu_hat, dtype=float)
    if xa.shape != ma.shape:
        raise ValueError("x and mu_hat must have equal length")
    return np.where(np.sign(xa) == np.sign(ma), ma, 0.0)


def estimate(spec: EstimatorSpec, sample: HeteroSample) -> np.ndarray:
    """Apply the configured method to every observation, then post-process.

    Raises NonFiniteValue naming the method and the first observation whose
    raw estimate is not finite (for example an oracle prior's overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = spec.method.apply(sample)
    bad = np.flatnonzero(~np.isfinite(mu))
    if bad.size:
        raise NonFiniteValue(spec.name, int(bad[0]))
    if spec.truncation_bound is not None:
        mu = truncate_estimates(mu, spec.truncation_bound)
    if spec.stabilize_sign:
        mu = stabilize_sign(sample.x, mu)
    return mu
