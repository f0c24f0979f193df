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

from .data import Bandwidths, HeteroSample
from .errors import BadGroupCount
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
    name: str = "naive"
    shrinks: ClassVar[bool] = False

    def apply(self, sample: HeteroSample) -> np.ndarray:
        return sample.x.copy()


@dataclass(frozen=True)
class Oracle(_Rule):
    prior: PriorSpec
    name: str = "oracle"
    shrinks: ClassVar[bool] = False

    def apply(self, sample: HeteroSample) -> np.ndarray:
        return np.asarray(self.prior.posterior_mean(sample.x, sample.sigma), dtype=float)


@dataclass(frozen=True)
class Nest(_Rule):
    """Bandwidths may be left None and resolved later by the SURE tuner.
    ``jackknife=True`` excludes each point from its own density fit."""

    bw: Bandwidths | None = None
    jackknife: bool = False
    name: str = "nest"

    def apply(self, sample: HeteroSample) -> np.ndarray:
        return nest_estimates(sample, _resolved(self.bw, "NEST bandwidths"), jackknife=self.jackknife)

    def describe(self) -> dict:
        return {"h_x": self.bw.h_x, "h_sigma": self.bw.h_sigma}


@dataclass(frozen=True)
class TF(_Rule):
    h: float | None = None
    name: str = "tf"

    def apply(self, sample: HeteroSample) -> np.ndarray:
        return tf_estimates(sample, _resolved(self.h, "TF bandwidth"))

    def describe(self) -> dict:
        return {"h": self.h}


@dataclass(frozen=True)
class Scaled(_Rule):
    h: float | None = None
    name: str = "scaled"

    def apply(self, sample: HeteroSample) -> np.ndarray:
        return scaled_estimates(sample, _resolved(self.h, "Scaled bandwidth"))

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
        return kgroups_estimates(sample, self.k, _resolved(self.h_per_group, "k-Groups bandwidths"))

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


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KGroupsFit:
    """Sigma-quantile grouping: ``groups[g]`` holds ascending original indices
    of the g-th contiguous sigma block."""

    group_of: np.ndarray
    groups: tuple[np.ndarray, ...]

    @property
    def k(self) -> int:
        return len(self.groups)


def k_groups_fit(sample: HeteroSample, k: int) -> KGroupsFit:
    """Split into k near-equal contiguous sigma-quantile blocks.

    Ties in sigma are broken by original index (stable sort). Group index
    arrays are returned in ascending original order so that within-group
    evaluation keeps the sample's own summation order.
    """
    n = sample.n
    if not (1 <= k <= n):
        raise BadGroupCount(k, n)
    order = np.argsort(sample.sigma, kind="stable")
    blocks = np.array_split(order, k)
    groups = tuple(np.sort(b) for b in blocks)
    group_of = np.empty(n, dtype=np.int64)
    for g, idx in enumerate(groups):
        group_of[idx] = g
    group_of.setflags(write=False)
    return KGroupsFit(group_of, groups)


# ---------------------------------------------------------------------------
# Vectorized estimation
# ---------------------------------------------------------------------------


def nest_estimates(sample: HeteroSample, bw: Bandwidths, jackknife: bool = False) -> np.ndarray:
    f, f1, _ = in_sample_triple(KernelContext(sample, bw), jackknife)
    return sample.x + sample.sigma**2 * f1 / f


def tf_estimates(sample: HeteroSample, h: float) -> np.ndarray:
    f, f1, _ = in_sample_triple(pooled_context(sample.x, h))
    return sample.x + sample.sigma**2 * f1 / f


def scaled_estimates(sample: HeteroSample, h: float) -> np.ndarray:
    z = sample.x / sample.sigma
    f, f1, _ = in_sample_triple(pooled_context(z, h))
    return sample.sigma * (z + f1 / f)


def kgroups_estimates(sample: HeteroSample, k: int, h_per_group) -> np.ndarray:
    fit = k_groups_fit(sample, k)
    hs = tuple(float(h) for h in h_per_group)
    if len(hs) != fit.k:
        raise BadGroupCount(k, sample.n, f"got {len(hs)} bandwidths for {fit.k} groups")
    out = np.empty(sample.n)
    for g, idx in enumerate(fit.groups):
        sub = sample.subset(idx)
        out[idx] = tf_estimates(sub, hs[g])
    return out


def truncate_estimates(mu_hat, bound: float) -> np.ndarray:
    """Clip each estimate to [-bound, +bound]."""
    if not (bound > 0):
        raise ValueError(f"truncation bound must be positive, got {bound}")
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
    """Apply the configured method to every observation, then post-process."""
    mu = spec.method.apply(sample)
    if spec.truncation_bound is not None:
        mu = truncate_estimates(mu, spec.truncation_bound)
    if spec.stabilize_sign:
        mu = stabilize_sign(sample.x, mu)
    return mu
