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
raises DegenerateWeights rather than extrapolating. Sums that overflow (x
differences near the float64 limit) come out inf or NaN without a warning;
:func:`in_sample_triple` refuses them and the SURE tuners mark them degenerate.

Numerical contract: one routine, :func:`density_grid`, evaluates every
pairwise sum in the package. Its two callers are the cross-fitted SURE
surfaces (``sure._search``) and :func:`in_sample_triple`, the one entry
for a single bandwidth pair (final fits, query points, the Monte Carlo SURE
check). With u_j = (x - x_j)/h_xj, E_j = exp(-u_j^2 / 2), the unnormalized
(masked) sigma weights t_j and T = sum_j t_j, one grid cell is

    f  = S0 / (sqrt(2 pi) h_x T),      S0 = sum_j t_j E_j / sigma_j
    f1 = -S1 / (sqrt(2 pi) h_x^3 T),   S1 = sum_j t_j E_j (x - x_j) / sigma_j^3
    f2 = S2 / (sqrt(2 pi) h_x^3 T),    S2 = sum_j t_j E_j (u_j^2 - 1) / sigma_j^3

Per row block of b queries, the weights t for every h_sigma form one
(ns, b, n) array and the three kernel rows for every h_x one (3 nx, b, n)
array, one contiguous (b, n) plane per h_sigma and per (h_x, component).
One batched gemm (``np.matmul``) per chunk of ``_SUM_COLS`` = 256 training
columns then gives every (h_sigma, h_x, component) sum, and the chunk sums
are added in index order. Each query row is its own (ns x 256) by
(256 x 3 nx) gemm, so a query's values depend on its own row only: output
does not depend on the block partition of the queries. The chunk width is a
constant, so output does not depend on the grid or on ``_BLOCK_ELEMS``
either.

Thread-count rule: the gemms run with the OpenBLAS bundled with NumPy pinned
to one thread (its ``scipy_openblas_set_num_threads64_``, called through
ctypes), and the previous count is restored afterwards. So every gemm takes
OpenBLAS's single-thread path, whatever ``OPENBLAS_NUM_THREADS`` says. A
fixed chunk width alone is not a rule: OpenBLAS threads a gemm once m n k
passes a cutoff, and on a SkylakeX core unpinned gemms rounded differently
under one and two threads at every width tried, 256 to 4096 columns.
Pinning costs three library calls per row block; it measured no slower than
the unpinned gemm. Under a NumPy that carries no such library (another
BLAS) the gemms run unpinned, and the output then depends on that BLAS's
threading.

The rows per block are chosen so that all matrices of a block together, the
weights, the kernel rows and three (b, n) scratch matrices, that is
(ns + 3 nx + 3) n elements per query, hold at most ``_BLOCK_ELEMS`` = 2^21
elements (16 MB of float64).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import Bandwidths, HeteroSample
from .errors import DegenerateWeights, NonFiniteValue

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Row-block cap on all pairwise matrices of a block together, in elements
# (16 MB of float64).
_BLOCK_ELEMS = 1 << 21

# Columns per gemm in the training-index sum (the gemm's k dimension). A
# constant: the rounding of each sum then depends on n alone, not on the row
# block or the grid. 256 and 512 measured alike; 128 was slower.
_SUM_COLS = 256

# Serializes pinning, so that concurrent callers cannot restore each other's
# thread count in the wrong order.
_PIN_LOCK = threading.Lock()

# Lower bound on every density f that enters a score ratio f1/f or a SURE term.
FLOOR = 1e-12


@dataclass(frozen=True)
class KernelContext:
    """Immutable bundle of training points and bandwidths."""

    train: HeteroSample
    bw: Bandwidths

    def __post_init__(self):
        if self.train.n < 1:
            raise ValueError("training sample must be nonempty")


def pooled_context(train_x, h: float) -> KernelContext:
    """Context for the ordinary pooled one-dimensional KDE with bandwidth h.

    Realized by setting every training sigma to 1 (uniform weights,
    h_xj = h for all j), so the weighted estimator reduces exactly to
    (1/n) sum_j phi_h(x - x_j).
    """
    xa = np.asarray(train_x, dtype=float).reshape(-1)
    return KernelContext(HeteroSample(xa, np.ones_like(xa)), Bandwidths(h, 1.0))


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS bundled with NumPy,
    or None when NumPy carries no such library."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas64_*"))
    if not found:
        return None
    lib = ctypes.CDLL(found[0])   # already loaded by NumPy: the same library state
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def _one_blas_thread():
    """Run the body with the bundled OpenBLAS on one thread, then restore."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _PIN_LOCK:
        old = get()
        set_(1)
        try:
            yield
        finally:
            set_(old)


def _contract(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """s[r, j, c] = sum over training index t of w[j, r, t] * k[c, r, t]: one
    single-thread gemm per query row r and chunk of _SUM_COLS columns, the
    chunk sums added in index order."""
    wr, kr = w.transpose(1, 0, 2), k.transpose(1, 2, 0)
    with _one_blas_thread():
        s = np.matmul(wr[..., :_SUM_COLS], kr[:, :_SUM_COLS])
        for lo in range(_SUM_COLS, w.shape[-1], _SUM_COLS):
            s += np.matmul(wr[..., lo : lo + _SUM_COLS], kr[:, lo : lo + _SUM_COLS])
    return s


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    (ns, m) for wsum; rows with wsum == 0 are left as NaN, and sums that
    overflow as inf or NaN, without a warning: the caller handles both.
    """
    m, n = xq.shape[0], xt.shape[0]
    hx = np.asarray(hx_values, dtype=float)
    nx, ns = hx.size, len(hs_values)
    f, f1, f2 = (np.empty((nx, ns, m)) for _ in range(3))
    wsum = np.empty((ns, m))
    wscale = np.array([-0.5 / (h * h) for h in hs_values])[:, None, None]
    inv_s = 1.0 / st
    inv_s2 = inv_s * inv_s
    inv_s3 = inv_s2 * inv_s
    step = max(1, min(m, _BLOCK_ELEMS // ((ns + 3 * nx + 3) * max(n, 1))))
    w_buf = np.empty((ns, step, n))       # masked weight numerators, one plane per h_sigma
    k_buf = np.empty((3 * nx, step, n))   # kernel rows, one plane per (h_x, component)
    a_buf, p1_buf, p2_buf = np.empty((3, step, n))
    hcol = hx[:, None, None]
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        w, k = w_buf[:, : hi - lo], k_buf[:, : hi - lo]
        a, p1, p2 = a_buf[: hi - lo], p1_buf[: hi - lo], p2_buf[: hi - lo]
        np.subtract(sq[lo:hi, None], st, out=a)
        a *= a
        np.multiply(a, wscale, out=w)
        np.exp(w, out=w)
        if qkey is not None:
            w *= qkey[lo:hi, None] != tkey
        ws = w.sum(axis=-1)
        wsum[:, lo:hi] = ws
        np.subtract(xq[lo:hi, None], xt, out=a)      # dx
        np.multiply(a, inv_s3, out=p1)               # dx / s^3
        np.multiply(p1, a, out=p2)
        p2 *= inv_s2                                 # dx^2 / s^5
        a *= a
        a *= -0.5 * inv_s2                           # -dx^2 / (2 s^2)
        for i, h in enumerate(hx):
            e, k1, k2 = k[3 * i], k[3 * i + 1], k[3 * i + 2]
            np.multiply(a, 1.0 / (h * h), out=e)
            np.exp(e, out=e)                         # E = exp(-u^2 / 2)
            np.multiply(e, p1, out=k1)               # E dx / s^3
            np.multiply(p2, 1.0 / (h * h), out=k2)
            k2 -= inv_s3
            k2 *= e                                  # E (u^2 - 1) / s^3
            e *= inv_s                               # E / s
        s = _contract(w, k).reshape(hi - lo, ns, nx, 3).transpose(3, 2, 1, 0)
        norm = SQRT_2PI * ws
        f[:, :, lo:hi] = s[0] / (hcol * norm)
        norm3 = hcol**3 * norm
        f1[:, :, lo:hi] = -s[1] / norm3
        f2[:, :, lo:hi] = s[2] / norm3
    return f, f1, f2, wsum


def in_sample_triple(ctx: KernelContext, jackknife: bool = False, queries=None):
    """Floored f and raw f1, f2 on the context's bandwidth pair, as arrays.

    At every training point, each left out of its own fit when ``jackknife``
    (the leave-self-out estimator), or at ``queries=(x, sigma)`` (equal
    lengths, positive sigmas, no jackknife). Raises DegenerateWeights listing
    every query whose weight normalizer underflowed, then NonFiniteValue
    naming the first query where f, f1 or f2 is not finite.
    """
    t = ctx.train
    xq, sq = t.x, t.sigma
    key = np.arange(t.n) if jackknife else None
    if queries is not None:
        xq, sq = (np.asarray(v, dtype=float).reshape(-1) for v in queries)
        if jackknife:
            raise ValueError("jackknife applies to the training points, not to queries")
        if xq.shape != sq.shape:
            raise ValueError("query x and sigma must have equal length")
        if not np.all(sq > 0):
            raise ValueError("all query sigmas must be positive")
    f, f1, f2, wsum = density_grid(xq, sq, t.x, t.sigma, [ctx.bw.h_x], [ctx.bw.h_sigma], key, key)
    bad = np.flatnonzero(wsum[0] == 0.0)
    if bad.size:
        raise DegenerateWeights(bad)
    triple = f[0, 0], f1[0, 0], f2[0, 0]
    finite = np.isfinite(triple)
    if not finite.all():
        i = int(np.flatnonzero(~finite.all(axis=0))[0])
        raise NonFiniteValue(("f", "f1", "f2")[int(np.argmin(finite[:, i]))], i)
    return np.maximum(triple[0], FLOOR), triple[1], triple[2]
