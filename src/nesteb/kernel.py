"""Two-dimensional weighted Gaussian kernel density estimator.

Conventions (phi_h is the Gaussian kernel with bandwidth h):

    phi_h(z)   = exp(-z^2 / (2 h^2)) / (sqrt(2 pi) h)
    w_j(sigma) = phi_{h_sigma}(sigma - sigma_j) / sum_k phi_{h_sigma}(sigma - sigma_k)
    h_xj       = h_x * sigma_j                      (per-point x-bandwidth)

    f (x|sigma)  = sum_j w_j phi_{h_xj}(x - x_j)
    f1(x|sigma)  = sum_j w_j phi_{h_xj}(x - x_j) (x_j - x) / h_xj^2
    f2(x|sigma)  = sum_j w_j phi_{h_xj}(x - x_j) / h_xj^2 * {((x - x_j)/h_xj)^2 - 1}

Bandwidth rule (``data.check_bandwidths``): every h is finite and at least
``data.H_MIN`` = 2^-511, so h^2, 1/h^2 and -0.5/h^2 are finite and nonzero.

The kernel normalizing constant cancels inside w_j, so weights are computed
from bare exponentials; a weight normalizer that underflows to exactly zero
raises DegenerateWeights rather than extrapolating. Sums that overflow (x
differences near the float64 limit) come out inf or NaN without a warning;
:func:`in_sample_triple` refuses those in the columns it computed and the SURE
tuners mark them degenerate.

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
(ns, b, n) array and the c kernel rows for every h_x one (c nx, b, n)
array (c = 3, or 2 without f2), one contiguous (b, n) plane per h_sigma and
per (h_x, component). One batched ``np.matmul`` per chunk of ``_SUM_COLS`` =
256 training columns then gives every (h_sigma, h_x, component) sum, and the
chunk sums are added in index order. Each query row is its own (ns x 256) by
(256 x c nx) product, so a query's values depend on its own row only:
output is bitwise independent of the block partition of the queries, of
``_BLOCK_ELEMS``, of the kernel threads and of the BLAS thread count (the
rules below). It is not independent of the grid: a cell's bits depend on
the grid's shape. With one h_sigma (ns = 1) NumPy sends each product to
gemv, and otherwise to gemm, and the two round differently: with fold keys
at n = 1000, every f, f1 and f2 of the 100 cells of a 10 x 10 grid differed
from the same cell computed alone, by up to 4e-11 relative.

f2-free rule: a final fit needs f and f1 only (the Tweedie score f1/f), so
``f2=False`` builds no f2 row: the fill skips the three f2 passes per h_x
and (sigma not 1) the dx^2/sigma^5 plane, the product loses its f2 column,
and f2 comes back as None. It is allowed on one cell only (nx = ns = 1),
where each product is a gemv and f and f1 are bitwise those of the full
call; on a larger grid the narrower product rounds differently (by up to
5e-14 relative on 3 x 1 and 3 x 2 grids at n = 1000), so such a call raises
ValueError.

Unit-sigma rule: sigma = 1 skips the sigma factors. When every training and
query sigma is exactly 1 (checked once per call), as for the pooled rules
(TF, Scaled and k-Groups, one-dimensional KDEs realized with sigma = 1) and
homoscedastic NEST at sigma = 1, each weight plane is the fold mask (1.0
without keys) and the same per-h_x loop takes its rows from dx and dx^2:

    E = exp(dx^2 * (-0.5 / h_x^2)),   E dx,   (dx^2 / h_x^2 - 1) E

The bits equal those with the sigma factors: multiplying by 1/sigma = 1.0
and exp(-0.0) = 1.0 are exact; scaling by -0.5 is exact, so
dx^2 (-0.5 / h_x^2) rounds as (-0.5 dx^2) (1 / h_x^2) does, except where a
factor or the result is subnormal, and there E = exp(+-tiny) = 1.0 either
way; and the weight normalizers are sums of zeros and ones, exact integers.

Thread rule: the row blocks are spread over W kernel threads, W = the
smallest of ``_THREADS`` (the CPUs in the process's affinity mask), the
number of query rows the budget holds and the number of blocks the call
needs at the full budget; a call of one block runs inline and starts no
thread. Worker i takes blocks i, i + W, i + 2W, ... NumPy's exp,
elementwise ufuncs, sums and matmul release the GIL, so the threads run in
parallel. Rows are independent, so output does not depend on W either: it
is bitwise the same under any thread count. ``_BLOCK_ELEMS`` is the budget
of all workers together; the caller allocates every worker's block matrices
as one array before the fan-out.

BLAS rule: the gemms run with the OpenBLAS bundled with NumPy pinned to one
thread (its ``scipy_openblas_set_num_threads64_``, called through ctypes),
and the previous count is restored afterwards. So every gemm takes
OpenBLAS's single-thread path, whatever ``OPENBLAS_NUM_THREADS`` says. A
fixed chunk width alone is not a rule: OpenBLAS threads a gemm once m n k
passes a cutoff, and on a SkylakeX core unpinned gemms rounded differently
under one and two threads at every width tried, 256 to 4096 columns. The
pin is a process-wide setting, taken once per call around the whole
fan-out; ``_PIN_LOCK`` therefore serializes concurrent ``density_grid``
calls from user threads. Under a NumPy that carries no such library
(another BLAS) the gemms run unpinned, and the output then depends on that
BLAS's threading.

The rows per block are chosen so that all matrices of all blocks in flight
together, the weights, the kernel rows and three (b, n) scratch matrices,
that is (ns + c nx + 3) n elements per query, hold at most ``_BLOCK_ELEMS``
= 3 * 2^19 elements (12 MB of float64).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import Bandwidths, HeteroSample
from .errors import DegenerateWeights, NonFiniteValue

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Cap on all pairwise matrices of the row blocks in flight, across all
# kernel threads together, in elements (12 MB of float64).
_BLOCK_ELEMS = 3 << 19

# Threads a density_grid call may use (fewer when it needs fewer row blocks
# or the budget holds fewer rows): the CPUs this process may run on. Pool
# workers lower it to their share (simulation._map_reps).
_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Columns per gemm in the training-index sum (the gemm's k dimension). A
# constant: the rounding of each sum then depends on n alone, not on the row
# block or the grid. 256 and 512 measured alike; 128 was slower.
_SUM_COLS = 256

# Serializes pinning, so that concurrent callers cannot restore each other's
# thread count in the wrong order. Held for a whole density_grid call.
_PIN_LOCK = threading.Lock()

# Lower bound on every density f that enters a score ratio f1/f or a SURE term.
FLOOR = 1e-12


@dataclass(frozen=True)
class KernelContext:
    """Immutable bundle of training points and bandwidths."""

    train: HeteroSample
    bw: Bandwidths


def pooled_context(train_x, h: float) -> KernelContext:
    """Context for the ordinary pooled one-dimensional KDE with bandwidth h.

    Realized by setting every training sigma to 1 (uniform weights,
    h_xj = h for all j), so the weighted estimator reduces exactly to
    (1/n) sum_j phi_h(x - x_j).
    """
    return KernelContext(HeteroSample(train_x, np.ones(np.size(train_x))), Bandwidths(h, 1.0))


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
    gemm per query row r and chunk of _SUM_COLS columns, the chunk sums added
    in index order. The caller pins BLAS to one thread."""
    wr, kr = w.transpose(1, 0, 2), k.transpose(1, 2, 0)
    s = np.matmul(wr[..., :_SUM_COLS], kr[:, :_SUM_COLS])
    for lo in range(_SUM_COLS, w.shape[-1], _SUM_COLS):
        s += np.matmul(wr[..., lo : lo + _SUM_COLS], kr[:, lo : lo + _SUM_COLS])
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
    f2: bool = True,
):
    """Raw (f, f1, f2) at each query for every (h_x, h_sigma) grid cell, and
    the weight normalizers, evaluated in row blocks spread over up to
    ``_THREADS`` threads.

    When qkey/tkey are given, training columns whose key equals the query
    row's key are excluded (CV fold masking and jackknifing). Returns
    (f_raw, f1, f2, wsum) with shapes (nx, ns, m) for the first three and
    (ns, m) for wsum; rows with wsum == 0 are left as NaN, and sums that
    overflow as inf or NaN, without a warning: the caller handles both.
    With ``f2=False`` (one cell only: the f2-free rule) the f2 row is not
    built and f2 is None.
    """
    m, n = xq.shape[0], xt.shape[0]
    hx = np.asarray(hx_values, dtype=float)
    nx, ns = hx.size, len(hs_values)
    if not f2 and nx * ns != 1:
        raise ValueError(f"f2=False needs a one-cell grid, got {nx} h_x by {ns} h_sigma")
    c = 3 if f2 else 2                    # kernel rows per h_x
    f, f1 = np.empty((nx, ns, m)), np.empty((nx, ns, m))
    f2_raw = np.empty((nx, ns, m)) if f2 else None
    wsum = np.empty((ns, m))
    wscale = np.array([-0.5 / (h * h) for h in hs_values])[:, None, None]
    unit = bool(np.all(st == 1.0) and np.all(sq == 1.0))   # the unit-sigma rule
    inv_s = 1.0 / st
    inv_s2 = inv_s * inv_s
    inv_s3 = inv_s2 * inv_s
    escale, s3 = (-0.5, 1.0) if unit else (1.0, inv_s3)     # at sigma = 1, q = dx^2 lacks the -1/2
    hcol = hx[:, None, None]
    row = (ns + c * nx + 3) * max(n, 1)   # block-matrix elements per query row
    fit = max(1, _BLOCK_ELEMS // row)     # rows the budget holds (at least one)
    # at most one worker per row the budget holds, so all blocks in flight
    # fit it; with two or more workers m > fit, so each gets a block or more
    workers = max(1, min(_THREADS, fit, -(-m // fit)))
    step = max(1, min(m, fit // workers))
    # per worker: masked weight numerators (one plane per h_sigma), kernel
    # rows (one per (h_x, component)) and three scratch planes. The
    # allocation is always the whole budget (untouched pages cost no memory),
    # so malloc sees one size and reuses it: sizes that varied by call kept
    # freed buffers resident under glibc's moving mmap threshold, 12 MB more
    # peak RSS on an MSE replication.
    shape = (workers, ns + c * nx + 3, step, n)
    bufs = np.empty(max(math.prod(shape), _BLOCK_ELEMS))[: math.prod(shape)].reshape(shape)

    # worker i takes blocks i, i + W, i + 2W, ...; the calling thread is worker 0
    # NumPy's error state is per thread, so each worker sets its own
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def fill(worker):
        buf = bufs[worker]
        for lo in range(worker * step, m, workers * step):
            hi = min(m, lo + step)
            w, k = buf[:ns, : hi - lo], buf[ns : ns + c * nx, : hi - lo]
            a, p1, p2 = buf[ns + c * nx :, : hi - lo]
            if unit:
                # every weight plane is the fold mask; dx and dx^2 carry the rows
                if qkey is None:
                    w.fill(1.0)
                else:
                    np.not_equal(qkey[lo:hi, None], tkey, out=w[0])
                    w[1:] = w[0]
                np.subtract(xq[lo:hi, None], xt, out=a)  # dx
                np.multiply(a, a, out=p2)                # dx^2
                q, d1 = p2, a
            else:
                np.subtract(sq[lo:hi, None], st, out=a)
                a *= a
                np.multiply(a, wscale, out=w)
                np.exp(w, out=w)
                if qkey is not None:
                    w *= qkey[lo:hi, None] != tkey
                np.subtract(xq[lo:hi, None], xt, out=a)  # dx
                np.multiply(a, inv_s3, out=p1)           # dx / s^3
                if f2:
                    np.multiply(p1, a, out=p2)
                    p2 *= inv_s2                         # dx^2 / s^5
                a *= a
                a *= -0.5 * inv_s2                       # -dx^2 / (2 s^2)
                q, d1 = a, p1
            # q: the exponent before 1/h_x^2; d1: the factor of E in row 1
            for i, h in enumerate(hx):
                e, k1 = k[c * i], k[c * i + 1]
                inv_h2 = 1.0 / (h * h)
                np.multiply(q, escale * inv_h2, out=e)
                np.exp(e, out=e)                         # E = exp(-u^2 / 2)
                np.multiply(e, d1, out=k1)               # E dx / s^3
                if f2:
                    k2 = k[c * i + 2]
                    np.multiply(p2, inv_h2, out=k2)
                    k2 -= s3
                    k2 *= e                              # E (u^2 - 1) / s^3
                if not unit:
                    e *= inv_s                           # E / s
            ws = w.sum(axis=-1)
            wsum[:, lo:hi] = ws
            s = _contract(w, k).reshape(hi - lo, ns, nx, c).transpose(3, 2, 1, 0)
            norm = SQRT_2PI * ws
            f[:, :, lo:hi] = s[0] / (hcol * norm)
            norm3 = hcol**3 * norm
            f1[:, :, lo:hi] = -s[1] / norm3
            if f2:
                f2_raw[:, :, lo:hi] = s[2] / norm3

    with _one_blas_thread():
        if workers == 1:
            fill(0)
        else:
            with ThreadPoolExecutor(workers - 1) as pool:
                done = [pool.submit(fill, i) for i in range(1, workers)]
                fill(0)
                for d in done:
                    d.result()
    return f, f1, f2_raw, wsum


def in_sample_triple(ctx: KernelContext, jackknife: bool = False, queries=None, f2: bool = True):
    """Floored f and raw f1, f2 on the context's bandwidth pair, as arrays.

    At every training point, each left out of its own fit when ``jackknife``
    (the leave-self-out estimator), or at ``queries=(x, sigma)`` (equal
    lengths, positive sigmas, no jackknife). With ``f2=False`` the f2 row is
    not built and f2 is None; f and f1 are bitwise those of the full call.
    Raises DegenerateWeights listing every query whose weight normalizer
    underflowed, then NonFiniteValue naming the first query where a computed
    column (f, f1 and, unless ``f2=False``, f2) is not finite.
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
    f, f1, f2_raw, wsum = density_grid(xq, sq, t.x, t.sigma, [ctx.bw.h_x], [ctx.bw.h_sigma], key, key, f2)
    bad = np.flatnonzero(wsum[0] == 0.0)
    if bad.size:
        raise DegenerateWeights(bad)
    cols = (f[0, 0], f1[0, 0]) + ((f2_raw[0, 0],) if f2 else ())
    finite = np.isfinite(cols)
    if not finite.all():
        i = int(np.flatnonzero(~finite.all(axis=0))[0])
        raise NonFiniteValue(("f", "f1", "f2")[int(np.argmin(finite[:, i]))], i)
    return np.maximum(cols[0], FLOOR), cols[1], cols[2] if f2 else None
