"""Two-dimensional weighted Gaussian kernel density estimator.

Conventions (phi_h is the Gaussian kernel with bandwidth h):

    phi_h(z)   = exp(-z^2 / (2 h^2)) / (sqrt(2 pi) h)
    w_j(sigma) = phi_{h_sigma}(sigma - sigma_j) / sum_k phi_{h_sigma}(sigma - sigma_k)
    h_xj       = h_x * sigma_j                      (per-point x-bandwidth)

    f (x|sigma)  = sum_j w_j phi_{h_xj}(x - x_j)
    f1(x|sigma)  = sum_j w_j phi_{h_xj}(x - x_j) (x_j - x) / h_xj^2
    f2(x|sigma)  = sum_j w_j phi_{h_xj}(x - x_j) / h_xj^2 * {((x - x_j)/h_xj)^2 - 1}

Domain and bandwidth rule (``data``): a HeteroSample holds |x| <= 2^128
and sigma in [2^-64, 2^64], and ``data.check_bandwidths`` accepts h in
[H_MIN, H_MAX] = [2^-340, 2^129]. So 1/sigma^3 <= 2^192, |dx| <= 2^129,
v = dx^2 / sigma^2 <= 2^386, t dx / sigma^3 <= 2^321, t v / sigma^3 <= 2^578
and (sigma - sigma_j)^2 / h^2 <= 2^808 are finite, as are h^2, 1/h^2 and
h^3 (a normal float at H_MIN). In the planes and rows only a kernel
exponent can leave the float range, to -inf at the smallest h_x, and the
truncation rule clamps it.

The kernel normalizing constant cancels inside w_j, so weights are computed
from bare exponentials; a weight normalizer that underflows to exactly zero
raises DegenerateWeights rather than extrapolating. Sums that overflow (a
term past the float range, such as f2's 1/(h_x sigma)^3 at the smallest
bandwidths) come out inf or NaN without a warning; :func:`in_sample_triple`
refuses those in the columns it computed and the SURE tuners mark them
degenerate.

Numerical contract: one routine, :func:`density_grid`, evaluates every
pairwise sum in the package. Its two callers are the cross-fitted SURE
surfaces (``sure._search``) and :func:`in_sample_triple`, the one entry
for a single bandwidth pair (final fits, query points, the Monte Carlo SURE
check). With u_j = (x - x_j)/h_xj, E_j = exp(-u_j^2 / 2), the unnormalized
(masked) sigma weights t_j and T = sum_j t_j, one grid cell is

    f  = S0 / (sqrt(2 pi) h_x T),      S0 = sum_j t_j E_j / sigma_j
    f1 = -S1 / (sqrt(2 pi) h_x^3 T),   S1 = sum_j t_j E_j (x - x_j) / sigma_j^3
    f2 = S2 / (sqrt(2 pi) h_x^3 T),    S2 = sum_j t_j E_j (u_j^2 - 1) / sigma_j^3

Queries are taken in row blocks. Every call forms, once per block, the
planes dx = x - x_j and v = dx^2 / sigma_j^2 = u_j^2 h_x^2 (the part of the
exponent that does not depend on h_x), and the exponent of every h_x,
v (-0.5 / h_x^2) = -u_j^2 / 2, written x in the rules below. The training
index is then summed by the first two rules below, depending on the call's
shape; the third fixes its order and the last two its terms:

- One-cell rule: a call with one cell (nx = ns = 1: every final fit, query
  evaluation and Monte Carlo SURE check) runs no BLAS routine. Right after
  the exp, E is multiplied by the one weight plane (unit sigma without
  keys builds none and takes n as the normalizer), and the rows

      t E,   t E dx,   t E (-2 x - 1)

  are built from that product, with x the clamped exponent (the truncation
  rule). Off sigma = 1 the first row is then multiplied by 1/sigma and the
  other two by 1/sigma^3, which gives t E / sigma, t E dx / sigma^3 and
  t E (u^2 - 1) / sigma^3. Each row is reduced by NumPy's ``sum`` over the
  whole training index (a pairwise sum). So such a call neither pins
  OpenBLAS nor takes ``_PIN_LOCK``, and its bits do not depend on the BLAS
  library.
- Grid rule: every other call (the SURE surfaces, the pooled 10 x 1 tunes
  included) writes one plane per h_x, E = exp(max(v (-0.5 / h_x^2), -700))
  - e^-700 (the truncation rule), and moves every other factor to four
  weight rows per h_sigma, built once per block; one call per op (as on one
  cell) writes every h_x plane of the block's (nx, b, n) E block:

      t / sigma,   t dx / sigma^3,   t v / sigma^3,   t / sigma^3

  One batched ``np.matmul`` then gives S0, S1, S_v and S3 for every
  (h_x, h_sigma): each query row is its own (4 ns x n) by (n x nx) product
  over the whole training index, run on one BLAS thread (the BLAS rule
  below). As v / (sigma^3 h_x^2) = u^2 / sigma^3, f2's sum is
  S2 = S_v / h_x^2 - S3, and a row with no term has S_v = S3 = +0, so
  S2 = +0. f2 is then a difference of two sums, each larger than it, and
  carries their rounding error: on a grid of 3 queries against n = 9000
  points the sums were about 30 times the largest f2.
- Order rule: one ``np.lexsort`` first sorts the training points and their
  keys by sigma_j's binary exponent (``np.frexp``), then x_j, then sigma_j;
  queries keep their order. It fixes each row's summation order, and 2^k
  scaling keeps it. Exact duplicate (x, sigma) points keep index order, so
  under keys a duplicate's masked zero can change slots.
- Mask rule: the weights are exponentiated first, then multiplied by the
  0/1 key mask (built in the dx plane, which is free at that point). A
  masked weight is exp(x) * 0.0 = +0 = exp(-inf), as the weight exponent
  x <= 0 is finite in the domain, and no exp lane is fed -inf, on which
  NumPy's exp leaves its fast path. (At sigma = 1 every weight plane is
  the mask itself: the unit-sigma rule.)
- Truncation rule: each kernel term is E = exp(max(x, -700)) - e^-700
  (``_CUT``, ``_E_CUT``). So E is exactly 0 at or below the cutoff, and a
  term whose E is 0 adds exactly 0 (a zero of either sign) to f, f1 and
  f2, as every factor it meets is finite in the domain. E is bitwise exp(x)
  wherever x > -662.5 (there e^-700 is under half an ulp of exp(x)), and
  smaller by e^-700 in between. Why -700: e^-700 is a normal float, 2^46
  times the smallest one, and NumPy's SIMD exp stays on its fast path above
  about -707.5 (below, about 15x slower per lane); so no lane takes the slow
  path, and E is 0 or a normal float (but for x within 2.3e-4 above the
  cutoff), on which a gemm ran 70x faster than on subnormals. The shift
  keeps a far point's term exactly 0: a bare clamp would give x_j = 2^128
  the term e^-700 * 2^128 in f1. A term below e^-700 changes no bit of a sum
  that also holds a term of normal size, so only a row with no term above
  about e^-663 can move. The two passes (the max, the subtraction) run on
  e[:ncut], the E planes up to the last h_x whose widest exponent,
  -D^2 / (2 sigma_min^2 h_x^2) with D the widest |x_q - x_t| and sigma_min
  the smallest training sigma, is at most -660. Above -660 both passes are
  exact no-ops, so neither the prefix nor the skip changes a bit. The
  sigma-weight exps are not truncated: their zeros decide DegenerateWeights.

Under these rules a query's values depend on its own row only: output is
bitwise independent of the block partition of the queries, of
``_BLOCK_ELEMS``, of the kernel threads, of the BLAS thread count and of
the order of the training points (keyed duplicates aside). It is
not independent of the grid: a cell's bits depend on the grid's shape, as
products of other shapes and NumPy's sum round differently. With fold keys
at n = 1000, about two thirds of the f, f1 and f2 values of the 100 cells
of a 10 x 10 grid differed from the same cell computed alone, by up to
2e-10 relative (f1 and f2 near their zero crossings).

f2-free rule: a final fit needs f and f1 only (the Tweedie score f1/f), so
``f2=False`` skips the f2 row's three passes and returns f2 as None. It
is allowed on one cell only (nx = ns = 1), where each row is summed on its
own, so f and f1 are bitwise those of the full call; on a grid f2's weight
rows are rows of the one product, and a product of another shape may round
differently, so such a call raises ValueError.

Unit-sigma rule: sigma = 1 skips the sigma factors. When every training and
query sigma is exactly 1 (checked once per call), as for the pooled rules
(TF, Scaled and k-Groups, one-dimensional KDEs realized with sigma = 1) and
homoscedastic NEST at sigma = 1, each weight plane is the fold mask (1.0
without keys), v is dx^2, and the rows are built without the sigma
factors:

    x = dx^2 * (-0.5 / h_x^2),   E = exp(x)
    t E,   t E dx,   t E (-2 x - 1)                  (one cell, not scaled)
    t,   t dx,   t dx^2,   t                         (grid)

Both setups form the same exponent and rows, so sigma = 1 only skips
multiplications by 1/sigma^k = 1.0 and exp(-0.0) = 1.0, which are exact, and
the weight normalizers are sums of zeros and ones, exact integers: the bits
equal those with the sigma factors.

Thread rule: the row blocks are spread over W kernel threads, W = the
smallest of ``_THREADS`` (the CPUs in the process's affinity mask), the
number of query rows the budget holds and the number of blocks the call
needs at the full budget; a call of one block runs inline and starts no
thread. Worker i takes blocks i, i + W, i + 2W, ... NumPy's exp, elementwise
ufuncs, sums and matmul release the GIL, so the threads run in parallel;
each call takes the GIL back on return, so a block makes the same number of
calls whatever nx is (one per op over all h_x). Rows are independent, so
output does not depend on W either: it is bitwise the same under any thread
count. ``_BLOCK_ELEMS`` is the budget of all workers together; the caller
allocates every worker's block matrices as one array before the fan-out.

BLAS rule: the gemms of a grid call run with the OpenBLAS bundled with NumPy
pinned to one thread (its ``scipy_openblas_set_num_threads64_``, called
through ctypes), and the previous count is restored afterwards. So every
gemm takes OpenBLAS's single-thread path, whatever ``OPENBLAS_NUM_THREADS``
says: OpenBLAS threads a gemm once m n k passes a cutoff, and on a SkylakeX
core unpinned gemms rounded differently under one and two threads. The pin
is a process-wide setting, taken once per call around the whole fan-out;
``_PIN_LOCK`` therefore serializes concurrent grid calls from user threads
(one-cell calls take neither). Under a NumPy that carries no such library
(another BLAS) the gemms run unpinned, and a grid's output then depends on
that BLAS's threading; a one-cell call's does not.

The rows per block are chosen so that all matrices of all blocks in flight
together hold at most ``_BLOCK_ELEMS`` = 3 * 2^19 elements (12 MB of
float64): on one cell the weights, the c kernel rows (c = 3, or 2 without
f2) and two (b, n) scratch matrices, (1 + c + 2) n elements per query; on a
grid the 4 ns weight rows, the nx E planes and two scratch matrices,
(4 ns + nx + 2) n elements per query. Each block then hands its (nx, ns, b)
f, f1 and f2 to a per-block reducer. The default one writes them into the
whole (nx, ns, m) arrays the call returns, so such a call holds the budget
plus those three arrays and wsum; the SURE search's reducer writes only a
per-point score and a floor mask (``sure``), so a tune holds the budget
plus one float and one bool per (cell, point), beside per-point vectors
and wsum.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
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

# Serializes pinning, so that concurrent callers cannot restore each other's
# thread count in the wrong order. Held for a whole density_grid call.
_PIN_LOCK = threading.Lock()

# Lower bound on every density f that enters a score ratio f1/f or a SURE term.
FLOOR = 1e-12

# The truncation rule's cutoff on a kernel exponent, and exp of it (exactly
# what the fill's exp gives at the cutoff, so a clamped term is exactly 0).
_CUT = -700.0
_E_CUT = float(np.exp(_CUT))


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
    product per query row r over the whole training index. The caller pins
    BLAS to one thread."""
    return np.matmul(w.transpose(1, 0, 2), k.transpose(1, 2, 0))


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
    reduce=None,
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

    Each row block hands its (nx, ns, b) f_raw, f1 and f2 for query rows
    lo:hi to ``reduce(lo, hi, f_raw, f1, f2)``. By default that writes them
    into the three whole arrays returned; a caller that passes its own
    reducer gets wsum alone back. The reducer runs on the kernel's threads
    under the fill's errstate (over, invalid and divide ignored), once per
    block, and must write only rows lo:hi of whatever it fills.
    """
    m, n = xq.shape[0], xt.shape[0]
    order = np.lexsort((st, xt, np.frexp(st)[1]))          # the order rule
    xt, st, tkey = xt[order], st[order], None if tkey is None else tkey[order]
    hx = np.asarray(hx_values, dtype=float)
    nx, ns = hx.size, len(hs_values)
    if not f2 and nx * ns != 1:
        raise ValueError(f"f2=False needs a one-cell grid, got {nx} h_x by {ns} h_sigma")
    c = 3 if f2 else 2                    # kernel rows of a one-cell call
    whole = reduce is None
    if whole:
        f, f1 = np.empty((nx, ns, m)), np.empty((nx, ns, m))
        f2_raw = np.empty((nx, ns, m)) if f2 else None

        def reduce(lo, hi, f_b, f1_b, f2_b):
            f[:, :, lo:hi], f1[:, :, lo:hi] = f_b, f1_b
            if f2:
                f2_raw[:, :, lo:hi] = f2_b
    wsum = np.empty((ns, m))
    wscale = np.array([-0.5 / (h * h) for h in hs_values])[:, None, None]
    unit = bool(np.all(st == 1.0) and np.all(sq == 1.0))   # the unit-sigma rule
    one_cell = nx * ns == 1                                 # the one-cell rule: row sums, no gemm
    weighted = not (unit and qkey is None)                  # a weight plane that is not all ones
    hcol = hx[:, None, None]
    xscale = -0.5 * (1.0 / (hcol * hcol))                    # the exponent's factor per h_x
    inv_s = 1.0 / st
    inv_s2 = inv_s * inv_s
    inv_s3 = inv_s2 * inv_s
    # the truncation rule's skip: per h_x, can -D^2 / (2 sigma_min^2 h_x^2) reach -660?
    span = max(xq.max() - xt.min(), xt.max() - xq.min()) if m and n else 0.0
    smin = st.min() if n else 1.0
    with np.errstate(over="ignore"):      # -inf at the smallest h_x, which still cuts
        cut = -span * span / (2.0 * smin * smin * hx * hx) <= -660.0
    ncut = int(np.flatnonzero(cut).max(initial=-1)) + 1     # the passes run on e[:ncut]
    # block planes per query row: on one cell the weights, c kernel rows and
    # two scratch planes; on a grid 4 weight rows per h_sigma, one E plane per
    # h_x and two scratch planes
    planes = 1 + c + 2 if one_cell else 4 * ns + nx + 2
    row = planes * max(n, 1)              # block-matrix elements per query row
    fit = max(1, _BLOCK_ELEMS // row)     # rows the budget holds (at least one)
    # at most one worker per row the budget holds, so all blocks in flight
    # fit it; with two or more workers m > fit, so each gets a block or more
    workers = max(1, min(_THREADS, fit, -(-m // fit)))
    step = max(1, min(m, fit // workers))
    # The allocation is always the whole budget (untouched pages cost no
    # memory), so malloc sees one size and reuses it: sizes that varied by
    # call kept freed buffers resident under glibc's moving mmap threshold,
    # 12 MB more peak RSS on an MSE replication.
    shape = (workers, planes, step, n)
    bufs = np.empty(max(math.prod(shape), _BLOCK_ELEMS))[: math.prod(shape)].reshape(shape)

    # worker i takes blocks i, i + W, i + 2W, ...; the calling thread is worker 0
    # NumPy's error state is per thread, so each worker sets its own
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def fill(worker):
        buf = bufs[worker]
        for lo in range(worker * step, m, workers * step):
            hi = min(m, lo + step)
            dx, v = buf[-2:, : hi - lo]
            if one_cell:
                t, k = buf[:1, : hi - lo], buf[1 : 1 + c, : hi - lo]
                e, k2 = k[:1], k[2] if f2 else None
            else:
                r, e = buf[: 4 * ns, : hi - lo], buf[4 * ns : 4 * ns + nx, : hi - lo]
                t = r[3 * ns :]
            # t: the masked weight numerators, one plane per h_sigma
            if unit:
                # every weight plane is the fold mask
                if qkey is not None:
                    np.not_equal(qkey[lo:hi, None], tkey, out=t[0])
                    t[1:] = t[0]
                elif not one_cell:                       # one cell reads no plane of ones
                    t.fill(1.0)
            else:
                np.subtract(sq[lo:hi, None], st, out=v)  # v holds (sigma - sigma_j)^2 here
                v *= v
                np.multiply(v, wscale, out=t)
                np.exp(t, out=t)
                if qkey is not None:
                    np.not_equal(qkey[lo:hi, None], tkey, out=dx)   # the mask rule, in the free dx plane
                    t *= dx
            ws = t.sum(axis=-1) if weighted else float(n)
            wsum[:, lo:hi] = ws
            np.subtract(xq[lo:hi, None], xt, out=dx)
            np.multiply(dx, dx, out=v)
            if not unit:
                v *= inv_s2                              # v = dx^2 / s^2
            np.multiply(v, xscale, out=e)                # every h_x's exponent at once
            ec = e[:ncut]
            np.maximum(ec, _CUT, out=ec)                 # the truncation rule
            if one_cell and f2:
                np.multiply(e[0], -2.0, out=k2)          # u^2 from the clamped exponent
                k2 -= 1.0
            np.exp(e, out=e)                             # E = exp(-u^2 / 2)
            ec -= _E_CUT
            if one_cell:
                e = e[0]
                if weighted:
                    e *= t[0]                            # t E: the rows carry the weights
                np.multiply(e, dx, out=k[1])             # t E dx
                if f2:
                    k2 *= e                              # t E (u^2 - 1)
                if not unit:
                    k[1:] *= inv_s3                      # t E dx / s^3, t E (u^2 - 1) / s^3
                    e *= inv_s                           # t E / s
                s = k.sum(axis=-1).reshape(c, 1, 1, hi - lo)
            else:
                # the weight rows t / s, t dx / s^3, t v / s^3 and t / s^3
                if unit:
                    r[:ns] = t
                else:
                    np.multiply(t, inv_s, out=r[:ns])
                    t *= inv_s3
                np.multiply(t, dx, out=r[ns : 2 * ns])
                np.multiply(t, v, out=r[2 * ns : 3 * ns])
                s = _contract(r, e).reshape(hi - lo, 4, ns, nx).transpose(1, 3, 2, 0)
            norm = SQRT_2PI * ws
            norm3 = hcol**3 * norm
            reduce(lo, hi, s[0] / (hcol * norm), -s[1] / norm3,
                   (s[2] if one_cell else s[2] / (hcol * hcol) - s[3]) / norm3 if f2 else None)

    with nullcontext() if one_cell else _one_blas_thread():
        if workers == 1:
            fill(0)
        else:
            with ThreadPoolExecutor(workers - 1) as pool:
                done = [pool.submit(fill, i) for i in range(1, workers)]
                fill(0)
                for d in done:
                    d.result()
    return (f, f1, f2_raw, wsum) if whole else wsum


def in_sample_triple(ctx: KernelContext, jackknife: bool = False, queries=None, f2: bool = True):
    """Floored f and raw f1, f2 on the context's bandwidth pair, as arrays.

    At every training point, each left out of its own fit when ``jackknife``
    (the leave-self-out estimator), or at ``queries=(x, sigma)`` (no
    jackknife), which unless empty follow :class:`HeteroSample`'s rules before
    any kernel work: LengthMismatch, NonFiniteValue naming x or sigma,
    NonPositiveSigma, then OutOfDomain. With ``f2=False`` the f2 row is not
    built and f2 is None; f and f1 are bitwise those of the full call.
    Raises DegenerateWeights listing every query whose weight normalizer
    underflowed, then NonFiniteValue naming the first query where a computed
    column (f, f1 and, unless ``f2=False``, f2) is not finite.
    """
    t = ctx.train
    xq, sq = t.x, t.sigma
    key = np.arange(t.n) if jackknife else None
    if queries is not None:
        if jackknife:
            raise ValueError("jackknife applies to the training points, not to queries")
        xq, sq = (np.asarray(v, dtype=float).reshape(-1) for v in queries)
        if xq.size or sq.size:
            q = HeteroSample(xq, sq)
            xq, sq = q.x, q.sigma
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
