"""Two-dimensional weighted Gaussian kernel density estimator.

Conventions (phi_h is the Gaussian kernel with bandwidth h):

    phi_h(z)   = exp(-z^2 / (2 h^2)) / (sqrt(2 pi) h)
    w_j(sigma) = phi_{h_sigma}(sigma - sigma_j) / sum_k phi_{h_sigma}(sigma - sigma_k)
    h_xj       = h_x * sigma_j                      (per-point x-bandwidth)

    f (x|sigma)  = sum_j w_j phi_{h_xj}(x - x_j)
    f1(x|sigma)  = sum_j w_j phi_{h_xj}(x - x_j) (x_j - x) / h_xj^2
    f2(x|sigma)  = sum_j w_j phi_{h_xj}(x - x_j) / h_xj^2 * {((x - x_j)/h_xj)^2 - 1}

The kernel normalizing constant cancels inside w_j, so weights are computed
from bare exponentials; a weight normalizer that underflows to exactly zero
raises DegenerateWeights rather than extrapolating.

Numerical contract: one routine, :func:`density_grid`, evaluates every
pairwise sum in the package. Its four callers are the final in-sample fit
(:func:`in_sample_triple`), batch queries (:func:`density_eval_batch`), the
cross-fitted SURE surfaces and the Monte Carlo SURE check (both in
:mod:`nesteb.sure`). Each query is an O(n) direct sum reduced in
training-index order by a deterministic, single-threaded, BLAS-free numpy
reduction, so output is reproducible for a fixed input order and independent
of the block partition of the queries. Queries are processed in row blocks
whose pairwise matrices hold at most ``_BLOCK_ELEMS`` = 2^21 elements
(16 MB of float64) each; the weight cache of a block holds one such matrix
per h_sigma value, next to the x-difference matrix and the three kernel
matrices of one h_x value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Bandwidths, DensityEval, HeteroSample
from .errors import DegenerateWeights

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Row-block size cap for each pairwise matrix, in elements (16 MB of float64).
_BLOCK_ELEMS = 1 << 21

DEFAULT_FLOOR = 1e-12


@dataclass(frozen=True)
class KernelContext:
    """Immutable bundle of training points, bandwidths, and the density floor."""

    train: HeteroSample
    bw: Bandwidths
    floor_eps: float = DEFAULT_FLOOR

    def __post_init__(self):
        if self.train.n < 1:
            raise ValueError("training sample must be nonempty")
        if not (self.floor_eps > 0):
            raise ValueError("floor_eps must be positive")


def pooled_context(train_x, h: float, floor_eps: float = DEFAULT_FLOOR) -> KernelContext:
    """Context for the ordinary pooled one-dimensional KDE with bandwidth h.

    Realized by setting every training sigma to 1 (uniform weights,
    h_xj = h for all j), so the weighted estimator reduces exactly to
    (1/n) sum_j phi_h(x - x_j).
    """
    xa = np.asarray(train_x, dtype=float).reshape(-1)
    return KernelContext(HeteroSample(xa, np.ones_like(xa)), Bandwidths(h, 1.0), floor_eps)


def _weight_numerators(dsig2: np.ndarray, h_sigma: float) -> np.ndarray:
    """Unnormalized sigma weights exp(-(sigma_q - sigma_t)^2 / (2 h_sigma^2))."""
    return np.exp(dsig2 * (-0.5 / (h_sigma * h_sigma)))


def _kx_parts(dx: np.ndarray, hxj: np.ndarray):
    """Kernel matrix and its two x-derivative factors.

    dx has shape (m, n) with dx[i, j] = x_query_i - x_train_j; hxj has shape
    (n,). Returns (K0, K1, K2) where row sums against the normalized weights
    give f, f1, f2.
    """
    u = dx / hxj
    k0 = np.exp(-0.5 * u * u) / (SQRT_2PI * hxj)
    k1 = k0 * (-u / hxj)
    k2 = k0 * ((u * u - 1.0) / (hxj * hxj))
    return k0, k1, k2


def _reduce(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic per-row sum of products (no BLAS dispatch)."""
    return np.einsum("ij,ij->i", a, b)


def density_grid(
    xq: np.ndarray,
    sq: np.ndarray,
    xt: np.ndarray,
    st: np.ndarray,
    hx_values,
    hs_values,
    qkey: np.ndarray | None = None,
    tkey: np.ndarray | None = None,
):
    """Raw (f, f1, f2) at each query for every (h_x, h_sigma) grid cell, and
    the weight normalizers, evaluated in row blocks.

    When qkey/tkey are given, training columns whose key equals the query
    row's key are excluded (CV fold masking and jackknifing). Returns
    (f_raw, f1, f2, wsum) with shapes (nx, ns, m) for the first three and
    (ns, m) for wsum; rows with wsum == 0 are left as NaN and must be
    handled by the caller.
    """
    m, n = xq.shape[0], xt.shape[0]
    nx, ns = len(hx_values), len(hs_values)
    f, f1, f2 = (np.empty((nx, ns, m)) for _ in range(3))
    wsum = np.empty((ns, m))
    step = max(1, _BLOCK_ELEMS // max(n, 1))
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        dx = xq[lo:hi, None] - xt[None, :]
        ds2 = (sq[lo:hi, None] - st[None, :]) ** 2
        cached = []
        for j, hs in enumerate(hs_values):
            wn = _weight_numerators(ds2, hs)
            if qkey is not None:
                wn *= qkey[lo:hi, None] != tkey[None, :]
            wsum[j, lo:hi] = ws = wn.sum(axis=1)
            cached.append((wn, ws))
        del ds2  # freed before the h_x loop allocates its kernel matrices
        for i, hx in enumerate(hx_values):
            k0, k1, k2 = _kx_parts(dx, hx * st)
            for j, (wn, ws) in enumerate(cached):
                with np.errstate(invalid="ignore", divide="ignore"):
                    f[i, j, lo:hi] = _reduce(wn, k0) / ws
                    f1[i, j, lo:hi] = _reduce(wn, k1) / ws
                    f2[i, j, lo:hi] = _reduce(wn, k2) / ws
    return f, f1, f2, wsum


def _single_cell(ctx: KernelContext, xq: np.ndarray, sq: np.ndarray, key: np.ndarray | None = None):
    """:func:`density_grid` on the context's one bandwidth pair, as 1-D arrays."""
    t = ctx.train
    f, f1, f2, wsum = density_grid(xq, sq, t.x, t.sigma, [ctx.bw.h_x], [ctx.bw.h_sigma], key, key)
    return f[0, 0], f1[0, 0], f2[0, 0], wsum[0]


def sigma_weights(ctx: KernelContext, sigma: float) -> np.ndarray:
    """Normalized contribution weights of every training point at a query sigma.

    Nonnegative and summing to one. Raises DegenerateWeights when the
    normalizer underflows to zero (h_sigma far too small for this query).
    """
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    d = sigma - ctx.train.sigma
    wn = _weight_numerators(d * d, ctx.bw.h_sigma)
    s = wn.sum()
    if s == 0.0:
        raise DegenerateWeights()
    return wn / s


def density_eval_batch(ctx: KernelContext, xs, sigmas) -> list[DensityEval]:
    """Elementwise :func:`density_eval` over query vectors.

    Bitwise-identical to the scalar loop; degenerate queries are collected
    and reported together by index.
    """
    xq = np.asarray(xs, dtype=float).reshape(-1)
    sq = np.asarray(sigmas, dtype=float).reshape(-1)
    if xq.shape != sq.shape:
        raise ValueError("xs and sigmas must have equal length")
    if xq.size == 0:
        return []
    if not np.all(sq > 0):
        raise ValueError("all query sigmas must be positive")
    f, f1, f2, wsum = _single_cell(ctx, xq, sq)
    bad = np.flatnonzero(wsum == 0.0)
    if bad.size:
        raise DegenerateWeights(bad)
    out = []
    for i in range(xq.size):
        floored = f[i] < ctx.floor_eps
        out.append(DensityEval(max(float(f[i]), ctx.floor_eps), float(f1[i]), float(f2[i]), bool(floored)))
    return out


def density_eval(ctx: KernelContext, x: float, sigma: float) -> DensityEval:
    """Weighted KDE value and first two x-derivatives at one query point."""
    return density_eval_batch(ctx, [x], [sigma])[0]


def in_sample_triple(ctx: KernelContext, jackknife: bool = False):
    """Raw (f, f1, f2, wsum) at every training point.

    With ``jackknife=True`` each point is excluded from its own fit (the
    leave-self-out estimator); otherwise the full estimator is used.
    """
    t = ctx.train
    return _single_cell(ctx, t.x, t.sigma, np.arange(t.n) if jackknife else None)
