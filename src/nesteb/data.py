"""Core datatypes, input validation, and deterministic K-fold splitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadFoldCount, LengthMismatch, NonFiniteValue, NonPositiveSigma


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HeteroSample:
    """Paired observations ``(x_i, sigma_i)`` plus optional true means.

    All arrays share length ``n >= 1``; every ``sigma_i`` is finite and > 0.
    Instances are immutable (arrays are read-only copies) and safe to share
    across threads.
    """

    x: np.ndarray
    sigma: np.ndarray
    mu_true: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def subset(self, idx) -> "HeteroSample":
        mu = None if self.mu_true is None else _frozen(self.mu_true[idx])
        return HeteroSample(_frozen(self.x[idx]), _frozen(self.sigma[idx]), mu)


def validate_sample(x, sigma, mu_true=None) -> HeteroSample:
    """Validate raw columns and build a :class:`HeteroSample`.

    No silent row dropping: the first offending row raises.

    Raises
    ------
    LengthMismatch, NonFiniteValue, NonPositiveSigma
    """
    xa = np.asarray(x, dtype=float).reshape(-1)
    sa = np.asarray(sigma, dtype=float).reshape(-1)
    ma = None if mu_true is None else np.asarray(mu_true, dtype=float).reshape(-1)
    lengths = {"x": xa.shape[0], "sigma": sa.shape[0]}
    if ma is not None:
        lengths["mu_true"] = ma.shape[0]
    if len(set(lengths.values())) != 1 or xa.shape[0] < 1:
        raise LengthMismatch(lengths)
    for name, col in (("x", xa), ("sigma", sa)) + ((("mu_true", ma),) if ma is not None else ()):
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise NonFiniteValue(name, int(bad[0]))
    nonpos = np.flatnonzero(sa <= 0.0)
    if nonpos.size:
        raise NonPositiveSigma(int(nonpos[0]))
    return HeteroSample(_frozen(xa), _frozen(sa), None if ma is None else _frozen(ma))


@dataclass(frozen=True)
class Bandwidths:
    """Kernel bandwidth pair: ``h_x`` is a dimensionless multiplier on each
    training sigma; ``h_sigma`` is in sigma units."""

    h_x: float
    h_sigma: float

    def __post_init__(self):
        object.__setattr__(self, "h_x", float(self.h_x))
        object.__setattr__(self, "h_sigma", float(self.h_sigma))
        if not (self.h_x > 0 and np.isfinite(self.h_x)):
            raise ValueError(f"h_x must be positive and finite, got {self.h_x}")
        if not (self.h_sigma > 0 and np.isfinite(self.h_sigma)):
            raise ValueError(f"h_sigma must be positive and finite, got {self.h_sigma}")


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
