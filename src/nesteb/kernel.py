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
:mod:`nesteb.sure`). With u_j = (x - x_j)/h_xj, E_j = exp(-u_j^2 / 2), the
unnormalized (masked) sigma weights t_j and T = sum_j t_j, one grid cell is

    f  = S0 / (sqrt(2 pi) h_x T),      S0 = sum_j t_j E_j / sigma_j
    f1 = -S1 / (sqrt(2 pi) h_x^3 T),   S1 = sum_j t_j E_j (x - x_j) / sigma_j^3
    f2 = S2 / (sqrt(2 pi) h_x^3 T),    S2 = sum_j t_j E_j (u_j^2 - 1) / sigma_j^3

Per row block of b queries, the weights t for every h_sigma form one
(b, ns, n) array and the three kernel rows for every h_x one (b, 3 nx, n)
array, and a single einsum contraction over the training index gives every
(h_sigma, h_x, component) sum. Each sum is a dot product over the training
index, taken in chunks of 4096 columns whose partial sums are added in index
order, so a query's values depend on its own row only: output does not
depend on the block partition of the queries. The contraction calls no BLAS,
so output does not depend on the BLAS thread count either (a per-row BLAS
gemm would: OpenBLAS rounds a threaded gemm differently, seen at n >= 3000).
The rows per block are chosen so that all matrices of a block together, the
weights, the kernel rows and three (b, n) scratch matrices, that is
(ns + 3 nx + 3) n elements per query, hold at most ``_BLOCK_ELEMS`` = 2^21
elements (16 MB of float64).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Bandwidths, DensityEval, HeteroSample
from .errors import DegenerateWeights

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Row-block cap on all pairwise matrices of a block together, in elements
# (16 MB of float64).
_BLOCK_ELEMS = 1 << 21

# Columns per einsum call in the training-index sum; below numpy's 8192-element
# iterator buffer, so each chunk is one inner-loop dot product per output.
_SUM_COLS = 4096

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


def _contract(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """s[r, j, c] = sum over training index t of w[r, j, t] * k[r, c, t], summed
    in chunks of _SUM_COLS columns whose partial sums are added in index order."""
    s = np.einsum("rjt,rct->rjc", w[..., :_SUM_COLS], k[..., :_SUM_COLS])
    for lo in range(_SUM_COLS, w.shape[-1], _SUM_COLS):
        s += np.einsum("rjt,rct->rjc", w[..., lo : lo + _SUM_COLS], k[..., lo : lo + _SUM_COLS])
    return s


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
    hx = np.asarray(hx_values, dtype=float)
    nx, ns = hx.size, len(hs_values)
    f, f1, f2 = (np.empty((nx, ns, m)) for _ in range(3))
    wsum = np.empty((ns, m))
    wscale = np.array([-0.5 / (h * h) for h in hs_values])[:, None]
    inv_s = 1.0 / st
    inv_s2 = inv_s * inv_s
    inv_s3 = inv_s2 * inv_s
    step = max(1, min(m, _BLOCK_ELEMS // ((ns + 3 * nx + 3) * max(n, 1))))
    w_buf = np.empty((step, ns, n))       # masked weight numerators, every h_sigma
    k_buf = np.empty((step, 3 * nx, n))   # kernel rows, every (h_x, component)
    a_buf, p1_buf, p2_buf = np.empty((3, step, n))
    hcol = hx[:, None, None]
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        w, k, a, p1, p2 = (buf[: hi - lo] for buf in (w_buf, k_buf, a_buf, p1_buf, p2_buf))
        np.subtract(sq[lo:hi, None], st, out=a)
        a *= a
        np.multiply(a[:, None, :], wscale, out=w)
        np.exp(w, out=w)
        if qkey is not None:
            w *= (qkey[lo:hi, None] != tkey)[:, None, :]
        ws = w.sum(axis=-1).T
        wsum[:, lo:hi] = ws
        np.subtract(xq[lo:hi, None], xt, out=a)      # dx
        np.multiply(a, inv_s3, out=p1)               # dx / s^3
        np.multiply(p1, a, out=p2)
        p2 *= inv_s2                                 # dx^2 / s^5
        a *= a
        a *= -0.5 * inv_s2                           # -dx^2 / (2 s^2)
        for i, h in enumerate(hx):
            e, k1, k2 = k[:, 3 * i], k[:, 3 * i + 1], k[:, 3 * i + 2]
            np.multiply(a, 1.0 / (h * h), out=e)
            np.exp(e, out=e)                         # E = exp(-u^2 / 2)
            np.multiply(e, p1, out=k1)               # E dx / s^3
            np.multiply(p2, 1.0 / (h * h), out=k2)
            k2 -= inv_s3
            k2 *= e                                  # E (u^2 - 1) / s^3
            e *= inv_s                               # E / s
        s = _contract(w, k).reshape(hi - lo, ns, nx, 3).transpose(3, 2, 1, 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            norm = SQRT_2PI * ws
            f[:, :, lo:hi] = s[0] / (hcol * norm)
            norm3 = hcol**3 * norm
            f1[:, :, lo:hi] = -s[1] / norm3
            f2[:, :, lo:hi] = s[2] / norm3
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
