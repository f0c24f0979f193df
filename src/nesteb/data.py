"""Core datatypes, input validation, sigma-quantile grouping, and
deterministic K-fold splitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadFoldCount, BadGroupCount, LengthMismatch, NonFiniteValue, NonPositiveSigma, OutOfDomain

# The input domain of x, sigma and the bandwidths, where every power the
# kernel forms is a finite float (the kernel docstring has the arithmetic).
# H_MAX = 2 X_MAX is the widest |x - x_j|, above the pooled grids' sd(x).
SIGMA_MIN, SIGMA_MAX = 2.0**-64, 2.0**64
X_MAX = 2.0**128
H_MIN, H_MAX = 2.0**-340, 2.0**129


@dataclass(frozen=True)
class HeteroSample:
    """Paired observations ``(x_i, sigma_i)`` plus optional true means.

    Validates on construction: every column becomes a read-only 1-D float
    copy of the input, all share length ``n >= 1``, every value is finite,
    every ``sigma_i`` is > 0 and x, sigma lie in the domain above. The first
    offending row raises LengthMismatch, NonFiniteValue, NonPositiveSigma or
    OutOfDomain. Instances are immutable and safe to share across threads.
    """

    x: np.ndarray
    sigma: np.ndarray
    mu_true: np.ndarray | None = None

    def __post_init__(self):
        names = ("x", "sigma") if self.mu_true is None else ("x", "sigma", "mu_true")
        for name in names:
            col = np.array(getattr(self, name), dtype=float).reshape(-1)   # a private copy
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        lengths = {name: getattr(self, name).shape[0] for name in names}
        if len(set(lengths.values())) != 1 or self.n < 1:
            raise LengthMismatch(lengths)
        for name in names:
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                raise NonFiniteValue(name, int(bad[0]))
        nonpos = np.flatnonzero(self.sigma <= 0.0)
        if nonpos.size:
            raise NonPositiveSigma(int(nonpos[0]))
        check_range("x", self.x, -X_MAX, X_MAX, "|x| <= X_MAX = 2^128")
        check_range("sigma", self.sigma, SIGMA_MIN, SIGMA_MAX, "SIGMA_MIN = 2^-64 <= sigma <= SIGMA_MAX = 2^64")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def subset(self, idx) -> "HeteroSample":
        mu = None if self.mu_true is None else self.mu_true[idx]
        return HeteroSample(self.x[idx], self.sigma[idx], mu)


def check_range(name: str, col: np.ndarray, lo: float, hi: float, rule: str) -> None:
    """Raise OutOfDomain at the first value of the nonempty ``col`` outside [lo, hi]."""
    if col.min() < lo or col.max() > hi:
        i = int(np.flatnonzero((col < lo) | (col > hi))[0])
        raise OutOfDomain(name, i, float(col[i]), rule)


def validate_sample(x, sigma, mu_true=None) -> HeteroSample:
    """Build a :class:`HeteroSample` from raw columns; its constructor
    validates them, raising LengthMismatch, NonFiniteValue, NonPositiveSigma
    or OutOfDomain."""
    return HeteroSample(x, sigma, mu_true)


def k_groups_fit(sample: HeteroSample, k: int) -> tuple[np.ndarray, ...]:
    """Split into k near-equal contiguous sigma-quantile blocks; the g-th
    array holds the ascending original indices of the g-th block.

    Ties in sigma are broken by original index (stable sort). Group index
    arrays are returned in ascending original order so that within-group
    evaluation keeps the sample's own summation order.
    """
    if not (1 <= k <= sample.n):
        raise BadGroupCount(k, sample.n)
    order = np.argsort(sample.sigma, kind="stable")
    return tuple(np.sort(b) for b in np.array_split(order, k))


def check_bandwidths(name: str, values) -> tuple[float, ...]:
    """The bandwidth rule: a nonempty, strictly ascending list of finite
    values in [H_MIN, H_MAX] = [2^-340, 2^129]. Ascending grids let the SURE
    argmin break ties by the smallest bandwidth first. Returns the values as
    floats; raises ValueError naming ``name``."""
    hv = tuple(float(h) for h in values)
    if not hv:
        raise ValueError(f"{name} must be nonempty")
    for h in hv:
        if not H_MIN <= h <= H_MAX:   # refuses nan too
            raise ValueError(f"{name} must be finite, >= H_MIN = {H_MIN!r} and <= H_MAX = {H_MAX!r}, got {h}")
    if any(a >= b for a, b in zip(hv, hv[1:])):
        raise ValueError(f"{name} must be strictly ascending")
    return hv


@dataclass(frozen=True)
class Bandwidths:
    """Kernel bandwidth pair: ``h_x`` is a dimensionless multiplier on each
    training sigma; ``h_sigma`` is in sigma units. Both follow
    :func:`check_bandwidths`."""

    h_x: float
    h_sigma: float

    def __post_init__(self):
        for name in ("h_x", "h_sigma"):
            (h,) = check_bandwidths(name, [getattr(self, name)])
            object.__setattr__(self, name, h)


def kfold_split(n: int, k: int, seed: int) -> np.ndarray:
    """Deterministic K-fold split of indices ``0..n-1``: uniform random
    permutation (PCG64 keyed on ``seed``) followed by round-robin assignment.
    Returns the read-only fold index of each point; fold sizes differ by at
    most one for any ``2 <= K <= n``.
    """
    if not (2 <= k <= n):
        raise BadFoldCount(k, n)
    rng = np.random.default_rng(np.random.PCG64(seed))
    perm = rng.permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = np.arange(n, dtype=np.int64) % k
    fold_of.setflags(write=False)
    return fold_of


def derive_seed(*parts: int) -> int:
    """Derive a 64-bit child seed from integer components; stable across
    platforms (SeedSequence hashing)."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
