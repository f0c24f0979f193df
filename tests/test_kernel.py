import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import nesteb.kernel
from nesteb.data import Bandwidths, kfold_split, validate_sample
from nesteb.errors import DegenerateWeights, NonFiniteValue
from nesteb.kernel import (
    KernelContext,
    density_grid,
    in_sample_triple,
    pooled_context,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def phi(z, h):
    return math.exp(-z * z / (2 * h * h)) / (SQRT_2PI * h)


def triple_at(ctx, x, sigma):
    """(f, f1, f2) at one query point, as floats."""
    return tuple(float(v[0]) for v in in_sample_triple(ctx, queries=([x], [sigma])))


def hand_triple(xq, xt, hxt, w):
    """(f, f1, f2) at xq summed by hand from given weights and per-point
    x-bandwidths."""
    f = f1 = f2 = 0.0
    for xj, h, wj in zip(xt, hxt, w):
        k = wj * phi(xq - xj, h)
        f, f1, f2 = f + k, f1 + k * (xj - xq) / h**2, f2 + k / h**2 * (((xq - xj) / h) ** 2 - 1)
    return f, f1, f2


class TestSigmaWeights:
    """The sigma weights, seen through f, f1, f2 at one query."""

    def test_homoscedastic_weights_are_uniform(self):
        s = validate_sample([0.0, 1.0, 2.0, 3.0], [0.8] * 4)
        got = triple_at(KernelContext(s, Bandwidths(1.0, 0.3)), 0.5, 0.8)
        np.testing.assert_allclose(got, hand_triple(0.5, s.x, [0.8] * 4, [0.25] * 4), rtol=1e-14)

    def test_single_point(self):
        # one training point carries weight 1 however far its sigma is
        s = validate_sample([5.0], [2.0])
        got = triple_at(KernelContext(s, Bandwidths(1.0, 0.1)), 5.3, 0.5)
        np.testing.assert_allclose(got, hand_triple(5.3, [5.0], [2.0], [1.0]), rtol=1e-14)

    def test_two_point_values(self):
        # hand evaluation: phi_{0.3}(0) : phi_{0.3}(1) = 1 : exp(-1/(2*0.09))
        s = validate_sample([0.0, 0.0], [1.0, 2.0])
        got = triple_at(KernelContext(s, Bandwidths(1.0, 0.3)), 0.7, 1.0)
        ratio = math.exp(-1.0 / (2 * 0.09))
        expect = hand_triple(0.7, s.x, [1.0, 2.0], np.array([1.0, ratio]) / (1.0 + ratio))
        np.testing.assert_allclose(got, expect, rtol=1e-14)
        rounded = hand_triple(0.7, s.x, [1.0, 2.0], [0.99614897, 0.00385103])
        np.testing.assert_allclose(got, rounded, atol=5e-9)

    def test_weights_sum_to_one(self):
        # the reference normalizes the bare weights by their sum
        rng = np.random.default_rng(0)
        s = validate_sample(rng.normal(size=40), rng.uniform(0.5, 2.0, 40))
        ctx = KernelContext(s, Bandwidths(0.5, 0.2))
        xq = np.linspace(-2.0, 2.0, 5)
        for sigma in (0.5, 1.0, 1.7):
            sq = np.full(5, sigma)
            got = in_sample_triple(ctx, queries=(xq, sq))
            ref, scale, _ = reference_grid(xq, sq, s.x, s.sigma, (0.5,), (0.2,))
            assert np.all(got[0] >= 0)
            for g, r, sc in zip(got, ref[:, 0, 0], scale[:, 0, 0]):
                assert np.all(np.abs(g - r) <= 1e-12 * sc)

    def test_degenerate_weights_raise(self):
        s = validate_sample([0.0], [1.0])
        ctx = KernelContext(s, Bandwidths(1.0, 0.01))
        with pytest.raises(DegenerateWeights):
            in_sample_triple(ctx, queries=([0.0], [50.0]))

    def test_nonpositive_query_sigma_rejected(self):
        s = validate_sample([0.0], [1.0])
        with pytest.raises(ValueError):
            in_sample_triple(KernelContext(s, Bandwidths(1.0, 1.0)), queries=([0.0], [0.0]))


class TestTripleAtQuery:
    def test_single_kernel_at_center(self):
        s = validate_sample([0.0], [1.0])
        ctx = KernelContext(s, Bandwidths(1.0, 1.0))
        f, f1, f2 = triple_at(ctx, 0.0, 1.0)
        np.testing.assert_allclose(f, 1.0 / SQRT_2PI, rtol=1e-15)
        assert f1 == 0.0
        np.testing.assert_allclose(f2, -1.0 / SQRT_2PI, rtol=1e-15)
        assert f > nesteb.kernel.FLOOR

    def test_duplicate_points_match_single(self):
        bw = Bandwidths(0.7, 0.4)
        one = triple_at(KernelContext(validate_sample([0.0], [1.0]), bw), 0.3, 1.2)
        two = triple_at(KernelContext(validate_sample([0.0, 0.0], [1.0, 1.0]), bw), 0.3, 1.2)
        assert one == two

    def test_two_term_hand_summation(self):
        # direct summation oracle over the two kernel terms
        s = validate_sample([-1.0, 1.0], [1.0, 2.0])
        got = triple_at(KernelContext(s, Bandwidths(0.5, 0.3)), 0.0, 1.0)
        t = [1.0, math.exp(-1.0 / (2 * 0.09))]
        w = [t[0] / sum(t), t[1] / sum(t)]
        hx = [0.5, 1.0]
        xs = [-1.0, 1.0]
        f = sum(w[j] * phi(-xs[j], hx[j]) for j in range(2))
        f1 = sum(w[j] * phi(-xs[j], hx[j]) * xs[j] / hx[j] ** 2 for j in range(2))
        f2 = sum(w[j] * phi(-xs[j], hx[j]) / hx[j] ** 2 * ((xs[j] / hx[j]) ** 2 - 1) for j in range(2))
        np.testing.assert_allclose(got, [f, f1, f2], rtol=1e-13)
        np.testing.assert_allclose(
            got,
            [0.10849792819774676, -0.4293325273444315, 1.290793093301228],
            rtol=1e-12,
        )

    def test_floor_engages_in_far_tail(self):
        s = validate_sample([0.0], [1.0])
        ctx = KernelContext(s, Bandwidths(0.1, 1.0))
        raw = density_grid(np.array([500.0]), np.array([1.0]), s.x, s.sigma, [0.1], [1.0])[0]
        assert raw[0, 0, 0] < 1e-12
        assert triple_at(ctx, 500.0, 1.0)[0] == 1e-12


class TestQueryBatch:
    def test_empty(self):
        s = validate_sample([0.0], [1.0])
        got = in_sample_triple(KernelContext(s, Bandwidths(1.0, 1.0)), queries=([], []))
        assert len(got) == 3 and all(a.shape == (0,) for a in got)

    def test_training_points_as_queries_match_default(self):
        s = validate_sample([0.5, -0.5], [1.0, 1.3])
        ctx = KernelContext(s, Bandwidths(0.6, 0.2))
        for a, b in zip(in_sample_triple(ctx, queries=(s.x, s.sigma)), in_sample_triple(ctx)):
            np.testing.assert_array_equal(a, b)

    def test_batch_bitwise_equals_per_query_loop(self):
        rng = np.random.default_rng(42)
        s = validate_sample(rng.normal(size=37), rng.uniform(0.4, 2.0, 37))
        ctx = KernelContext(s, Bandwidths(0.5, 0.3))
        xq = rng.normal(size=100)
        sq = rng.uniform(0.5, 1.9, 100)
        batch = np.array(in_sample_triple(ctx, queries=(xq, sq)))
        for i in range(100):
            assert triple_at(ctx, xq[i], sq[i]) == tuple(batch[:, i]), f"mismatch at query {i}"

    def test_degenerate_indices_reported(self):
        s = validate_sample([0.0, 1.0], [1.0, 1.0])
        ctx = KernelContext(s, Bandwidths(1.0, 0.01))
        with pytest.raises(DegenerateWeights) as err:
            in_sample_triple(ctx, queries=([0.0, 0.0], [1.0, 99.0]))
        assert err.value.indices == (1,)

    @pytest.mark.parametrize("queries,jackknife", [
        (([0.0, 1.0], [1.0]), False),   # unequal lengths
        (([0.0], [1.0]), True),          # jackknife applies to training points only
    ])
    def test_malformed_queries_rejected(self, queries, jackknife):
        ctx = KernelContext(validate_sample([0.0, 1.0], [1.0, 1.0]), Bandwidths(1.0, 1.0))
        with pytest.raises(ValueError):
            in_sample_triple(ctx, jackknife=jackknife, queries=queries)

    def test_non_finite_sums_raise_at_first_index(self):
        # x differences near the float64 limit overflow: E dx / s^3 is 0 * inf
        s = validate_sample([1.0, 1e308, 2.0], [1.0, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as err:
                in_sample_triple(KernelContext(s, Bandwidths(0.5, 0.5)))
        assert (err.value.column, err.value.index) == ("f1", 0)


class TestBlockPartition:
    """Results must not depend on how queries are split into row blocks."""

    def sample_and_ctx(self):
        rng = np.random.default_rng(11)
        s = validate_sample(rng.normal(size=41), rng.uniform(0.4, 2.0, 41))
        return rng, KernelContext(s, Bandwidths(0.5, 0.3))

    @pytest.mark.parametrize("jackknife", [False, True])
    def test_in_sample_triple(self, monkeypatch, jackknife):
        _, ctx = self.sample_and_ctx()
        one_block = in_sample_triple(ctx, jackknife=jackknife)
        monkeypatch.setattr(nesteb.kernel, "_BLOCK_ELEMS", 100)  # 2 rows per block
        blocked = in_sample_triple(ctx, jackknife=jackknife)
        for a, b in zip(one_block, blocked):
            np.testing.assert_array_equal(a, b)

    def test_queries(self, monkeypatch):
        rng, ctx = self.sample_and_ctx()
        xq = rng.normal(size=25)
        sq = rng.uniform(0.5, 1.9, 25)
        one_block = in_sample_triple(ctx, queries=(xq, sq))
        monkeypatch.setattr(nesteb.kernel, "_BLOCK_ELEMS", 100)
        for a, b in zip(one_block, in_sample_triple(ctx, queries=(xq, sq))):
            np.testing.assert_array_equal(a, b)


class TestKernelProperties:
    def test_normalization_integrates_to_one(self):
        rng = np.random.default_rng(3)
        s = validate_sample(rng.normal(size=8), rng.uniform(0.5, 1.5, 8))
        ctx = KernelContext(s, Bandwidths(0.8, 0.4))
        for sigma in (0.6, 1.0, 1.4):
            span = 10 * 0.8 * s.sigma.max()
            lo, hi = s.x.min() - span, s.x.max() + span
            val, _ = quad(lambda x: triple_at(ctx, x, sigma)[0], lo, hi, limit=400)
            assert abs(val - 1.0) < 1e-6

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(4)
        s = validate_sample(rng.normal(size=25), rng.uniform(0.5, 2.0, 25))
        ctx = KernelContext(s, Bandwidths(0.6, 0.5))
        delta = 1e-5 * 0.6 * s.sigma.min()
        for xq, sq in [(0.0, 1.0), (0.7, 0.8), (-1.2, 1.6)]:
            up, dn, mid = (triple_at(ctx, xq + d, sq) for d in (delta, -delta, 0.0))
            fd1 = (up[0] - dn[0]) / (2 * delta)
            fd2 = (up[1] - dn[1]) / (2 * delta)
            assert abs(fd1 - mid[1]) / max(abs(mid[1]), 1e-3) < 1e-4
            assert abs(fd2 - mid[2]) / max(abs(mid[2]), 1e-3) < 1e-4

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=30)
        sg = rng.uniform(0.5, 1.5, 30)
        bw = Bandwidths(0.5, 0.3)
        c = 17.25
        a = triple_at(KernelContext(validate_sample(xs, sg), bw), 0.4, 1.0)
        b = triple_at(KernelContext(validate_sample(xs + c, sg), bw), 0.4 + c, 1.0)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=50)
        sg = rng.uniform(0.5, 1.5, 50)
        bw = Bandwidths(0.5, 0.3)
        perm = rng.permutation(50)
        a = triple_at(KernelContext(validate_sample(xs, sg), bw), 0.2, 1.0)
        b = triple_at(KernelContext(validate_sample(xs[perm], sg[perm]), bw), 0.2, 1.0)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_homoscedastic_reduction_to_pooled_kde(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=40)
        common = 0.9
        s = validate_sample(xs, np.full(40, common))
        ctx = KernelContext(s, Bandwidths(0.5, 0.2))
        h = 0.5 * common
        for xq in (-0.3, 0.1, 1.4):
            f = triple_at(ctx, xq, common)[0]
            manual = sum(phi(xq - xj, h) for xj in xs) / 40
            assert abs(f - manual) < 1e-12

    def test_pooled_context_is_plain_kde(self):
        xs = [0.0, 1.0, 4.0]
        ctx = pooled_context(xs, 0.7)
        manual = sum(phi(0.5 - xj, 0.7) for xj in xs) / 3
        np.testing.assert_allclose(triple_at(ctx, 0.5, 1.0)[0], manual, rtol=1e-14)


def reference_grid(xq, sq, xt, st, hx_values, hs_values, key=None):
    """f, f1, f2, wsum by the module docstring's sums, one term at a time.

    Also returns, for each of f, f1, f2, the sum of the absolute values of
    its terms: the scale of the rounding error of any evaluation order.
    """
    nx, ns, m = len(hx_values), len(hs_values), len(xq)
    out = np.full((6, nx, ns, m), np.nan)
    wsum = np.zeros((ns, m))
    for j, hs in enumerate(hs_values):
        for q in range(m):
            t = [0.0 if key is not None and key[k] == key[q]
                 else math.exp(-((sq[q] - st[k]) ** 2) / (2 * hs * hs))
                 for k in range(len(xt))]
            wsum[j, q] = sum(t)
            if wsum[j, q] == 0.0:
                continue
            for i, hx in enumerate(hx_values):
                acc = np.zeros(6)
                for k, tk in enumerate(t):
                    hxj = hx * st[k]
                    z = (xq[q] - xt[k]) / hxj
                    wphi = tk / wsum[j, q] * phi(xq[q] - xt[k], hxj)
                    terms = (wphi, wphi * (xt[k] - xq[q]) / hxj**2, wphi / hxj**2 * (z * z - 1.0))
                    acc[:3] += terms
                    acc[3:] += np.abs(terms)
                out[:, i, j, q] = acc
    return out[:3], out[3:], wsum


def grid_case(name):
    """(xq, sq, xt, st, hx_values, hs_values, key) for the named reference case."""
    rng = np.random.default_rng(21)
    n = 30
    x = rng.normal(size=n)
    key = kfold_split(n, 4, 0)
    if name == "heteroscedastic-3x3":
        s = rng.uniform(0.4, 2.0, n)
        return x, s, x, s, (0.3, 0.6, 1.0), (0.2, 0.5, 0.9), key
    if name == "unit-sigma-pooled":
        s = np.ones(n)
        return x, s, x, s, (0.2, 0.5, 1.1), (1.0,), key
    if name == "homoscedastic-nest":
        # the unit-sigma rule with several h_sigma: the mask goes on every plane
        s = np.ones(n)
        return x, s, x, s, (0.3, 0.6, 1.0), (0.2, 0.5, 0.9), key
    if name == "weight-underflow":
        # one sigma far from every other: its weight normalizer underflows at
        # the two small h_sigma values and not at the large one
        s = np.append(rng.uniform(0.5, 1.5, n - 1), 30.0)
        return x, s, x, s, (0.4, 0.8), (0.2, 0.5, 40.0), key
    if name == "two-value-sigma":
        # criterion 6's design: sigma = 3 with probability 0.3, else 1
        s = np.where(rng.random(n) < 0.3, 3.0, 1.0)
        return x, s, x, s, (0.3, 0.6, 1.0), (0.2, 0.5, 0.9), key
    if name == "three-value-sigma":
        s = rng.choice([0.5, 1.0, 2.0], n)
        return x, s, x, s, (0.3, 0.6, 1.0), (0.2, 0.5, 0.9), key
    # more training points than one chunk of the training-index sum
    xt, st = rng.normal(size=9000), rng.uniform(0.4, 2.0, 9000)
    return x[:3], st[:3], xt, st, (0.3, 0.9), (0.2, 0.6), None


def run_under_blas_threads(code):
    """stdout lines of `python -c code` under OPENBLAS_NUM_THREADS 1 and 2."""
    src = os.path.dirname(os.path.dirname(nesteb.kernel.__file__))
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        out.append(run.stdout.splitlines())
    return out


def peak_beyond_outputs(hx, hs, f2=True):
    """Traced peak bytes of one keyed density_grid call at n = 2000, less the
    bytes of the arrays it returns."""
    rng = np.random.default_rng(8)
    n = 2000
    x, s = rng.normal(size=n), rng.uniform(0.4, 2.0, n)
    key = kfold_split(n, 10, 0)
    tracemalloc.start()
    try:
        out = density_grid(x, s, x, s, hx, hs, key, key, f2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - sum(a.nbytes for a in out if a is not None)


def block_budget_bytes():
    # the block matrices hold at most _BLOCK_ELEMS float64 elements; the
    # per-block temporaries (key mask, matmul result, per-cell quotients)
    # get a quarter of that again
    return 8 * nesteb.kernel._BLOCK_ELEMS * 1.25


class TestDensityGrid:
    CASES = ["heteroscedastic-3x3", "unit-sigma-pooled", "homoscedastic-nest", "weight-underflow",
             "two-value-sigma", "three-value-sigma", "long-training-index"]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_reference_sums(self, case):
        xq, sq, xt, st, hxs, hss, key = grid_case(case)
        *got, wsum = density_grid(xq, sq, xt, st, hxs, hss, key, key)
        ref, scale, ref_wsum = reference_grid(xq, sq, xt, st, hxs, hss, key)
        np.testing.assert_allclose(wsum, ref_wsum, rtol=1e-12, atol=0)
        zero = ref_wsum == 0.0
        assert zero.any() == (case == "weight-underflow")
        for g, r, sc in zip(got, ref, scale):
            np.testing.assert_array_equal(np.isnan(g), np.broadcast_to(zero, g.shape))
            ok = ~np.isnan(r)
            # rtol 1e-12 of each sum's absolute-term scale: f1 and f2 cross zero
            assert np.all(np.abs(g[ok] - r[ok]) <= 1e-12 * sc[ok])

    @pytest.mark.parametrize("case", CASES)
    def test_one_row_per_block_is_bitwise_equal(self, monkeypatch, case):
        xq, sq, xt, st, hxs, hss, key = grid_case(case)
        one_block = density_grid(xq, sq, xt, st, hxs, hss, key, key)
        monkeypatch.setattr(nesteb.kernel, "_BLOCK_ELEMS", 1)
        for a, b in zip(one_block, density_grid(xq, sq, xt, st, hxs, hss, key, key)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("keyed", [False, True])
    @pytest.mark.parametrize("n", [7, 300, 1000])
    def test_unit_sigma_path_is_the_general_path_scaled(self, n, keyed):
        # sigma = 2 runs the fill with the sigma factors and (x / 2, sigma = 1)
        # without them; powers of two scale exactly, so f, f1 and f2 at
        # sigma = 2 are 1/2, 1/4 and 1/8 of those at sigma = 1 bitwise, and
        # wsum is equal
        x = np.random.default_rng(n).normal(size=n)
        key = kfold_split(n, 5, 0) if keyed else None
        two, one = np.full(n, 2.0), np.ones(n)
        general = density_grid(x, two, x, two, (0.2, 0.7), (0.3, 1.0), key, key)
        unit = density_grid(x / 2, one, x / 2, one, (0.2, 0.7), (0.3, 1.0), key, key)
        for g, u, scale in zip(general, unit, (0.5, 0.25, 0.125, 1.0)):
            assert g.tobytes() == (u * scale).tobytes()

    def test_blas_thread_count_does_not_change_output(self):
        # 40 queries against n = 5000 on a 16 x 10 grid, where a per-row
        # OpenBLAS gemm rounds differently under two threads; n = 10000 on
        # one cell; 20 x 20 at n = 3000, where 4096-column chunks broke;
        # 60 x 60 at n = 2000, where unpinned 256-column gemms broke; and the
        # pooled 10 x 1 grid (sigma = 1) at n = 5000
        code = (
            "import hashlib, numpy as np\n"
            "from nesteb.data import kfold_split\n"
            "from nesteb.kernel import density_grid\n"
            "rng = np.random.default_rng(5)\n"
            "for n, nx, ns in ((5000, 16, 10), (10000, 1, 1), (3000, 20, 20), (2000, 60, 60), (5000, 10, 1)):\n"
            "    h = hashlib.sha256()\n"
            "    x, s = rng.normal(size=n), rng.uniform(0.4, 2.0, n)\n"
            "    if ns == 1 and nx > 1:\n"
            "        s = np.ones(n)\n"
            "    key = kfold_split(n, 10, 0)\n"
            "    hx, hs = np.linspace(0.1, 1.0, nx), np.linspace(0.1, 1.0, ns)\n"
            "    for a in density_grid(x[:40], s[:40], x, s, hx, hs, key[:40], key):\n"
            "        h.update(a.tobytes())\n"
            "    print(h.hexdigest())\n"
        )
        one, two = run_under_blas_threads(code)
        assert len(one) == 5 and one == two

    def test_gemms_run_on_one_blas_thread(self):
        # the thread-count rule's mechanism: pinned inside, restored after
        get, _ = nesteb.kernel._openblas_threads()
        before = get()
        with nesteb.kernel._one_blas_thread():
            assert get() == 1
        assert get() == before

    def test_blas_thread_count_does_not_change_tune(self):
        code = (
            "import hashlib, numpy as np\n"
            "from nesteb.data import validate_sample\n"
            "from nesteb.sure import default_grid, tune\n"
            "rng = np.random.default_rng(6)\n"
            "sigma = rng.uniform(0.1, 2.0, 3000)\n"
            "s = validate_sample(rng.normal(size=3000) + sigma * rng.normal(size=3000), sigma)\n"
            "rep = tune(s, default_grid(s))\n"
            "print(hashlib.sha256(rep.surface.tobytes() + rep.selection.tobytes()).hexdigest())\n"
            "print(rep.argmin.h_x, rep.argmin.h_sigma)\n"
        )
        one, two = run_under_blas_threads(code)
        assert len(one) == 2 and one == two

    def test_peak_memory_follows_block_budget(self):
        grid = tuple(0.1 * k for k in range(1, 11))
        assert peak_beyond_outputs(grid, grid) <= block_budget_bytes()


class TestKernelThreads:
    """Row blocks spread over kernel threads: same bits, pinned BLAS, same budget."""

    @pytest.mark.parametrize("block_rows", [1, 2, 13])
    @pytest.mark.parametrize("case", TestDensityGrid.CASES)
    def test_thread_count_does_not_change_output(self, monkeypatch, case, block_rows):
        # a budget of 13 rows splits 30 queries unevenly over 2 and 3 threads,
        # one of 2 rows gives 2 threads one-row blocks, one of 1 row a single
        # thread; the first two queries alone are fewer rows than 3 threads
        xq, sq, xt, st, hxs, hss, key = grid_case(case)
        monkeypatch.setattr(nesteb.kernel, "_THREADS", 1)
        full = density_grid(xq, sq, xt, st, hxs, hss, key, key)
        head = density_grid(xq[:2], sq[:2], xt, st, hxs, hss, None if key is None else key[:2], key)
        row = (len(hss) + 3 * len(hxs) + 3) * len(xt)
        monkeypatch.setattr(nesteb.kernel, "_BLOCK_ELEMS", block_rows * row)
        for threads in (1, 2, 3):
            monkeypatch.setattr(nesteb.kernel, "_THREADS", threads)
            got = density_grid(xq, sq, xt, st, hxs, hss, key, key)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in full]
            got = density_grid(xq[:2], sq[:2], xt, st, hxs, hss, None if key is None else key[:2], key)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in head]
        assert np.isnan(full[0]).any() == (case == "weight-underflow")

    def test_worker_threads_run_gemms_on_one_blas_thread(self, monkeypatch):
        get, set_ = nesteb.kernel._openblas_threads()
        before = get()
        contract = nesteb.kernel._contract
        seen = {}
        meet = threading.Barrier(2, timeout=60)

        def spy(w, k):
            # each thread's first block waits for the other's, so both run one
            if threading.get_ident() not in seen:
                seen[threading.get_ident()] = []
                meet.wait()
            seen[threading.get_ident()].append(get())
            return contract(w, k)

        xq, sq, xt, st, hxs, hss, key = grid_case("heteroscedastic-3x3")
        monkeypatch.setattr(nesteb.kernel, "_contract", spy)
        monkeypatch.setattr(nesteb.kernel, "_THREADS", 2)
        monkeypatch.setattr(nesteb.kernel, "_BLOCK_ELEMS", 2 * (3 + 9 + 3) * len(xt))  # one row per block
        set_(2)
        try:
            density_grid(xq, sq, xt, st, hxs, hss, key, key)
            assert get() == 2
        finally:
            set_(before)
        assert len(seen) == 2 and threading.get_ident() in seen
        assert sum(map(len, seen.values())) == len(xq)
        assert all(c == 1 for counts in seen.values() for c in counts)

    @pytest.mark.parametrize("threads", [2, 64])
    def test_peak_memory_follows_block_budget_on_threads(self, monkeypatch, threads):
        # at 64 threads the budget holds 18 of these rows: 18 workers, one row
        # each; the same bound as on one thread: the budget covers all workers
        monkeypatch.setattr(nesteb.kernel, "_THREADS", threads)
        grid = tuple(0.1 * k for k in range(1, 11))
        assert peak_beyond_outputs(grid, grid) <= block_budget_bytes()


class TestF2Free:
    """``f2=False`` on one cell: f, f1 and wsum are the full call's bytes."""

    @pytest.mark.parametrize("block_rows", [1, 2, 13])
    @pytest.mark.parametrize("case", TestDensityGrid.CASES)
    def test_one_cell_is_bitwise_equal(self, monkeypatch, case, block_rows):
        # every cell of the case's grid alone, under fold keys, jackknife keys
        # and none (queries), on 1-3 kernel threads and blocks of 1, 2 or 13
        # f2-free rows
        xq, sq, xt, st, hxs, hss, key = grid_case(case)
        jack = np.arange(len(xt))
        keys = [(None, None), (jack[: len(xq)], jack)] + ([] if key is None else [(key, key)])
        monkeypatch.setattr(nesteb.kernel, "_THREADS", 1)
        full = {(hx, hs, i): density_grid(xq, sq, xt, st, [hx], [hs], *k)
                for hx in hxs for hs in hss for i, k in enumerate(keys)}
        monkeypatch.setattr(nesteb.kernel, "_BLOCK_ELEMS", block_rows * (1 + 2 + 3) * len(xt))
        for threads in (1, 2, 3):
            monkeypatch.setattr(nesteb.kernel, "_THREADS", threads)
            for (hx, hs, i), (f, f1, _, wsum) in full.items():
                got = density_grid(xq, sq, xt, st, [hx], [hs], *keys[i], f2=False)
                assert got[2] is None
                assert [a.tobytes() for a in (got[0], got[1], got[3])] == [a.tobytes() for a in (f, f1, wsum)]

    @pytest.mark.parametrize("hx,hs", [((0.3, 0.6), (0.2,)), ((0.3,), (0.2, 0.5))])
    def test_grid_refused(self, hx, hs):
        xq, sq, xt, st, *_ = grid_case("heteroscedastic-3x3")
        with pytest.raises(ValueError, match="one-cell"):
            density_grid(xq, sq, xt, st, hx, hs, f2=False)

    @pytest.mark.parametrize("jackknife", [False, True])
    def test_in_sample_triple(self, jackknife):
        rng = np.random.default_rng(12)
        s = validate_sample(rng.normal(size=300), rng.uniform(0.4, 2.0, 300))
        ctx = KernelContext(s, Bandwidths(0.5, 0.3))
        f, f1, f2 = in_sample_triple(ctx, jackknife=jackknife)
        g, g1, g2 = in_sample_triple(ctx, jackknife=jackknife, f2=False)
        assert g2 is None and f2 is not None
        assert (g.tobytes(), g1.tobytes()) == (f.tobytes(), f1.tobytes())

    def test_peak_memory_follows_block_budget(self):
        # one cell: the budget holds (1 + 2 + 3) n elements per row
        assert peak_beyond_outputs((0.5,), (0.3,), f2=False) <= block_budget_bytes()

    def test_only_computed_columns_are_checked(self):
        # against x = 1e300 only the f2 row overflows (0 * inf); with f2 the
        # triple is refused there, without it f and f1 come back finite
        s = validate_sample([1.0, 1e300, 2.0], [1.0, 0.5, 1.0])
        ctx = KernelContext(s, Bandwidths(0.5, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as err:
                in_sample_triple(ctx)
            f, f1, f2 = in_sample_triple(ctx, f2=False)
        assert (err.value.column, err.value.index) == ("f2", 0)
        assert f2 is None and np.isfinite(f).all() and np.isfinite(f1).all()
