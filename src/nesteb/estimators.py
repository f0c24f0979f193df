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

import numpy as np

from .data import Bandwidths, HeteroSample
from .errors import BadGroupCount, DegenerateWeights
from .kernel import (
    DEFAULT_FLOOR,
    KernelContext,
    density_eval,
    in_sample_triple,
    pooled_context,
)
from .priors import PriorSpec


# ---------------------------------------------------------------------------
# Method specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Naive:
    name: str = "naive"


@dataclass(frozen=True)
class Oracle:
    prior: PriorSpec
    name: str = "oracle"


@dataclass(frozen=True)
class Nest:
    """Bandwidths may be left None and resolved later by the SURE tuner.
    ``jackknife=True`` excludes each point from its own density fit."""

    bw: Bandwidths | None = None
    jackknife: bool = False
    name: str = "nest"


@dataclass(frozen=True)
class TF:
    h: float | None = None
    name: str = "tf"


@dataclass(frozen=True)
class Scaled:
    h: float | None = None
    name: str = "scaled"


@dataclass(frozen=True)
class KGroups:
    k: int = 2
    h_per_group: tuple[float, ...] | None = None

    @property
    def name(self) -> str:
        return f"{self.k}-groups"


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


def default_truncation_bound(n: int, scale: float = 2.0) -> float:
    """Magnitude bound scale * log(n) (log clamped below at log 2)."""
    return scale * float(np.log(max(n, 2)))


# ---------------------------------------------------------------------------
# Scalar rules
# ---------------------------------------------------------------------------


def nest_point(ctx: KernelContext, x: float, sigma: float) -> float:
    """x + sigma^2 * f1/f with (f, f1) from the weighted KDE (f floored)."""
    d = density_eval(ctx, x, sigma)
    return float(x + sigma * sigma * d.f1 / d.f)


def tf_point(train_x, h: float, x: float, sigma: float) -> float:
    """Homoscedastic Tweedie rule with a pooled fixed-bandwidth KDE.

    The pooled density ignores heterogeneity; the query point's own sigma^2
    multiplies the pooled score.
    """
    d = density_eval(pooled_context(train_x, h), x, 1.0)
    return float(x + sigma * sigma * d.f1 / d.f)


def scaled_point(train: HeteroSample, h: float, x: float, sigma: float) -> float:
    """Standardize, apply the unit-variance Tweedie rule, undo the scaling."""
    z = x / sigma
    d = density_eval(pooled_context(train.x / train.sigma, h), z, 1.0)
    return float(sigma * (z + d.f1 / d.f))


def oracle_posterior_mean(prior: PriorSpec, x: float, sigma: float) -> float:
    """Exact posterior mean E(mu | x, sigma) under a closed-form prior."""
    return float(prior.posterior_mean(x, sigma))


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


def _in_sample_f1_f(ctx: KernelContext, jackknife: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(f1, f) at every training point with f floored; degenerate rows raise."""
    f_raw, f1, _, wsum = in_sample_triple(ctx, jackknife=jackknife)
    bad = np.flatnonzero(wsum == 0.0)
    if bad.size:
        raise DegenerateWeights(bad)
    return f1, np.maximum(f_raw, ctx.floor_eps)


def nest_estimates(
    sample: HeteroSample,
    bw: Bandwidths,
    floor_eps: float = DEFAULT_FLOOR,
    jackknife: bool = False,
) -> np.ndarray:
    f1, f = _in_sample_f1_f(KernelContext(sample, bw, floor_eps), jackknife)
    return sample.x + sample.sigma**2 * f1 / f


def tf_estimates(sample: HeteroSample, h: float, floor_eps: float = DEFAULT_FLOOR) -> np.ndarray:
    f1, f = _in_sample_f1_f(pooled_context(sample.x, h, floor_eps))
    return sample.x + sample.sigma**2 * f1 / f


def scaled_estimates(sample: HeteroSample, h: float, floor_eps: float = DEFAULT_FLOOR) -> np.ndarray:
    z = sample.x / sample.sigma
    f1, f = _in_sample_f1_f(pooled_context(z, h, floor_eps))
    return sample.sigma * (z + f1 / f)


def kgroups_estimates(
    sample: HeteroSample,
    k: int,
    h_per_group,
    floor_eps: float = DEFAULT_FLOOR,
) -> np.ndarray:
    fit = k_groups_fit(sample, k)
    hs = tuple(float(h) for h in h_per_group)
    if len(hs) != fit.k:
        raise BadGroupCount(k, sample.n, f"got {len(hs)} bandwidths for {fit.k} groups")
    out = np.empty(sample.n)
    for g, idx in enumerate(fit.groups):
        sub = sample.subset(idx)
        out[idx] = tf_estimates(sub, hs[g], floor_eps)
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
    m = spec.method
    if isinstance(m, Naive):
        mu = sample.x.copy()
    elif isinstance(m, Oracle):
        mu = np.asarray(m.prior.posterior_mean(sample.x, sample.sigma), dtype=float)
    elif isinstance(m, Nest):
        if m.bw is None:
            raise ValueError("NEST bandwidths unresolved; tune first or set them")
        mu = nest_estimates(sample, m.bw, jackknife=m.jackknife)
    elif isinstance(m, TF):
        if m.h is None:
            raise ValueError("TF bandwidth unresolved; tune first or set it")
        mu = tf_estimates(sample, m.h)
    elif isinstance(m, Scaled):
        if m.h is None:
            raise ValueError("Scaled bandwidth unresolved; tune first or set it")
        mu = scaled_estimates(sample, m.h)
    elif isinstance(m, KGroups):
        if m.h_per_group is None:
            raise ValueError("k-Groups bandwidths unresolved; tune first or set them")
        mu = kgroups_estimates(sample, m.k, m.h_per_group)
    else:
        raise TypeError(f"unknown method {m!r}")
    if spec.truncation_bound is not None:
        mu = truncate_estimates(mu, spec.truncation_bound)
    if spec.stabilize_sign:
        mu = stabilize_sign(sample.x, mu)
    return mu
