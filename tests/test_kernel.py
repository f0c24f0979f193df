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
from nesteb.data import H_MIN, Bandwidths, derive_seed, kfold_split, validate_sample
from nesteb.errors import DegenerateWeights, NonFiniteValue
from nesteb.estimators import TF, EstimatorSpec, KGroups, Naive, Nest, Scaled, estimate
from nesteb.kernel import (
    KernelContext,
    density_grid,
    in_sample_triple,
    pooled_context,
)
from nesteb.priors import TwoPointPrior
from nesteb.simulation import draw_scenario, run_mse_study, scenario_from_ratio, table_specs
from nesteb.sure import default_grid

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

    @pytest.mark.parametrize("queries,column,index", [
        (([0.0, np.nan], [1.0, 1.0]), "x", 1),
        (([np.inf, 0.0], [1.0, 1.0]), "x", 0),
        (([0.0, 0.0], [1.0, np.nan]), "sigma", 1),
        (([0.0, 0.0], [np.inf, 1.0]), "sigma", 0),
    ], ids=["nan-x", "inf-x", "nan-sigma", "inf-sigma"])
    def test_non_finite_queries_refused_by_name(self, monkeypatch, queries, column, index):
        ctx = KernelContext(validate_sample([0.0, 1.0], [1.0, 1.0]), Bandwidths(1.0, 1.0))
        monkeypatch.setattr(nesteb.kernel, "density_grid", None)   # refused before any kernel work
        with pytest.raises(NonFiniteValue) as err:
            in_sample_triple(ctx, queries=queries)
        assert (err.value.column, err.value.index) == (column, index)

    def test_non_finite_sums_raise_at_first_index(self):
        # h_x sigma = 1e-160: f stays near 1e160, but f1's 1 / (h_x sigma)^2
        # takes a term of normal size past the float range
        s = validate_sample([0.0, 1e-160, 3e-160], [1e-100] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as err:
                in_sample_triple(KernelContext(s, Bandwidths(1e-60, 1.0)))
        assert (err.value.column, err.value.index) == ("f1", 0)

    def test_a_zero_term_adds_0_where_dx_over_sigma3_overflows(self):
        # against x = 1e300 the sigma = 1e-3 point's dx / sigma^3 overflows
        # beside E = 0; the term adds exactly 0 to f1, on one cell and on a grid
        s = validate_sample([0.0, 1e300, 1.0], [1e-3, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, f1, f2 = in_sample_triple(KernelContext(s, Bandwidths(0.5, 0.5)))
            grid = density_grid(s.x, s.sigma, s.x, s.sigma, (0.3, 0.5), (0.5, 1.0))
        assert np.isfinite([f, f1, f2]).all() and f1[1] == 0.0
        assert all(np.isfinite(a).all() for a in grid)
        assert not grid[1][..., 1].any()


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
        # the order rule: the training points are summed in one fixed order
        assert a == b

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
    if name == "far-point":
        # one point so far out that every h_x's term against it is exactly 0:
        # the grid rule's clamp runs
        s = rng.uniform(0.4, 2.0, n)
        x = np.append(x[:-1], 200.0)
        return x, s, x, s, (0.3, 0.6, 1.0), (0.2, 0.5, 0.9), key
    if name == "unsorted-hx":
        # only h_x = 0.1 needs the truncation passes, so they run on e[:2] and
        # are exact no-ops on h_x = 1.0, before it
        s = rng.uniform(0.4, 2.0, n)
        hxs = (1.0, 0.1, 0.6)
        span = np.ptp(x)
        assert [-span * span / (2 * s.min() ** 2 * h * h) <= -660.0 for h in hxs] == [False, True, False]
        return x, s, x, s, hxs, (0.2, 0.5, 0.9), key
    if name == "one-cell-keyed":
        # one cell: summed by NumPy, not by a gemm (the one-cell rule)
        s = rng.uniform(0.4, 2.0, n)
        return x, s, x, s, (0.6,), (0.5,), key
    # a long training index: 9000 points summed for each of three queries
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
    # the block matrices hold at most _BLOCK_ELEMS float64 elements (the key
    # mask is written into one of them); the per-block temporaries (matmul
    # result, per-cell quotients) get a quarter of that again
    return 8 * nesteb.kernel._BLOCK_ELEMS * 1.25


class TestDensityGrid:
    CASES = ["heteroscedastic-3x3", "unit-sigma-pooled", "homoscedastic-nest", "weight-underflow",
             "two-value-sigma", "three-value-sigma", "far-point", "unsorted-hx", "one-cell-keyed",
             "long-training-index"]

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
    @pytest.mark.parametrize("case", CASES)
    def test_training_order_changes_no_bit(self, case, keyed):
        # the order rule: the training points are summed in (sigma binade,
        # x, sigma) order whatever order they come in, so permuting them (and
        # their keys along with them) changes no byte; cases without fold
        # keys are keyed as a jackknife
        xq, sq, xt, st, hxs, hss, key = grid_case(case)
        qkey, tkey = None, None
        if keyed:
            qkey, tkey = (key, key) if key is not None else (np.arange(len(xq)), np.arange(len(xt)))
        perm = np.random.default_rng(len(xt)).permutation(len(xt))
        base = density_grid(xq, sq, xt, st, hxs, hss, qkey, tkey)
        moved = density_grid(xq, sq, xt[perm], st[perm], hxs, hss, qkey, None if tkey is None else tkey[perm])
        assert [a.tobytes() for a in moved] == [a.tobytes() for a in base]

    @pytest.mark.parametrize("hxs, hss", [((0.5,), (0.3,)), ((0.3, 0.6), (0.2, 0.5))])
    def test_ties_in_x_within_a_binade_are_ordered_by_sigma(self, hxs, hss):
        # equal x in one binade leaves distinct points tied until sigma
        # breaks the tie; exact duplicates carry equal terms without keys
        rng = np.random.default_rng(22)
        x, s = rng.integers(0, 3, 60).astype(float), rng.choice([1.0, 1.25, 1.5, 1.75, 2.5], 60)
        perm = rng.permutation(60)
        base = density_grid(x, s, x, s, hxs, hss)
        moved = density_grid(x, s, x[perm], s[perm], hxs, hss)
        assert [a.tobytes() for a in moved] == [a.tobytes() for a in base]

    @pytest.mark.parametrize("keyed", [False, True])
    @pytest.mark.parametrize("n", [7, 300, 1000])
    def test_unit_sigma_path_is_the_general_path_scaled(self, n, keyed):
        # sigma = 2 runs the fill with the sigma factors and (x / 2, sigma = 1)
        # without them; powers of two scale exactly, so f, f1 and f2 at
        # sigma = 2 are 1/2, 1/4 and 1/8 of those at sigma = 1 bitwise, and
        # wsum is equal: on a grid, and on one cell, with and without f2
        x = np.random.default_rng(n).normal(size=n)
        key = kfold_split(n, 5, 0) if keyed else None
        two, one = np.full(n, 2.0), np.ones(n)
        for hxs, hss, f2 in [((0.2, 0.7), (0.3, 1.0), True), ((0.4,), (0.3,), True),
                             ((0.4,), (0.3,), False), ((0.05,), (0.3,), True), ((0.05,), (0.3,), False)]:
            general = density_grid(x, two, x, two, hxs, hss, key, key, f2)
            unit = density_grid(x / 2, one, x / 2, one, hxs, hss, key, key, f2)
            for g, u, scale in zip(general, unit, (0.5, 0.25, 0.125, 1.0)):
                assert (None if g is None else g.tobytes()) == (None if u is None else (u * scale).tobytes())

    def test_an_h_sigma_whose_square_overflows_keeps_the_mask(self):
        # the mask rule: at h_sigma = 1e160, -0.5 / h_sigma^2 is -0, so every
        # weight's exp is exp(-0) = 1 before the 0/1 mask multiplies it; every
        # unmasked weight is exactly 1 at 1e150 and 1e160 alike
        xq, sq, xt, st, hxs, _, key = grid_case("heteroscedastic-3x3")
        near, far = (density_grid(xq, sq, xt, st, hxs, (h,), key, key) for h in (1e150, 1e160))
        assert [a.tobytes() for a in far] == [a.tobytes() for a in near]
        assert np.isfinite(far[0]).all()

    def test_blas_thread_count_does_not_change_output(self):
        # 40 queries against n = 5000 on a 16 x 10 grid, where a per-row
        # OpenBLAS gemm rounds differently under two threads; n = 10000 on
        # one cell; 20 x 20 at n = 3000 and 60 x 60 at n = 2000, grids whose
        # gemms rounded differently under two threads when unpinned; and the
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

    @pytest.mark.parametrize("ns, nx, n", [(10, 30, 9000), (1, 30, 5000), (60, 180, 2000)])
    def test_grid_sum_is_one_product_per_row(self, ns, nx, n):
        # the grid rule: each query row is one (4 ns x n) by (n x nx) product
        # of its weight rows and E planes over the whole training index, taken
        # from the block's strided planes
        buf = np.random.default_rng(n).uniform(size=(4 * ns + nx, 4, n))
        w, k = buf[: 4 * ns, :3], buf[4 * ns :, :3]
        with nesteb.kernel._one_blas_thread():
            got = nesteb.kernel._contract(w, k)
            for r in range(3):
                want = np.matmul(np.ascontiguousarray(w[:, r]), np.ascontiguousarray(k[:, r]).T)
                assert got[r].tobytes() == want.tobytes()

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
        one_cell = len(hxs) * len(hss) == 1
        row = ((1 + 3 + 2) if one_cell else (4 * len(hss) + len(hxs) + 2)) * len(xt)
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
        monkeypatch.setattr(nesteb.kernel, "_BLOCK_ELEMS", 2 * (4 * 3 + 3 + 2) * len(xt))  # one row per block
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
        # at 64 threads the budget holds 15 of these rows, (4 ns + nx + 2) n
        # elements each: 15 workers, one row each; the same bound as on one
        # thread: the budget covers all workers
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
        monkeypatch.setattr(nesteb.kernel, "_BLOCK_ELEMS", block_rows * (1 + 2 + 2) * len(xt))
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
        # one cell: the budget holds (1 + 2 + 2) n elements per row
        assert peak_beyond_outputs((0.5,), (0.3,), f2=False) <= block_budget_bytes()

    def test_only_computed_columns_are_checked(self):
        # at h_x = H_MIN and sigma = 0.1 only the f2 sum overflows: its
        # 1 / (h_x sigma)^3 does; f1's sum is 0 and f stays near 3e102. With f2
        # the triple is refused there, without it f and f1 come back finite
        s = validate_sample([-1.0, 0.0, 1.0], [0.1] * 3)
        ctx = KernelContext(s, Bandwidths(H_MIN, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as err:
                in_sample_triple(ctx)
            f, f1, f2 = in_sample_triple(ctx, f2=False)
        assert (err.value.column, err.value.index) == ("f2", 0)
        assert f2 is None and np.isfinite(f).all() and np.isfinite(f1).all()


class TestOneCell:
    """One cell (nx = ns = 1): each query row is summed by NumPy, with no gemm
    and no BLAS pin."""

    def sample(self, n=300):
        rng = np.random.default_rng(13)
        return validate_sample(rng.normal(size=n), rng.uniform(0.4, 2.0, n))

    def test_fits_never_contract_or_pin(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a one-cell call reached the gemm path")

        s = self.sample()
        key, jack = kfold_split(s.n, 5, 0), np.arange(s.n)
        monkeypatch.setattr(nesteb.kernel, "_contract", refuse)
        monkeypatch.setattr(nesteb.kernel, "_one_blas_thread", refuse)
        for keys in ((None, None), (key, key), (jack, jack)):
            for f2 in (True, False):
                density_grid(s.x, s.sigma, s.x, s.sigma, [0.5], [0.3], *keys, f2=f2)
                density_grid(s.x, np.ones(s.n), s.x, np.ones(s.n), [0.5], [1.0], *keys, f2=f2)
        in_sample_triple(KernelContext(s, Bandwidths(0.5, 0.3)), queries=(s.x[:7], s.sigma[:7]))
        bw = Bandwidths(0.5, 0.3)
        for rule in (Naive(), Nest(bw), Nest(bw, jackknife=True), TF(0.4), Scaled(0.4), KGroups(2, (0.3, 0.5))):
            assert np.isfinite(estimate(EstimatorSpec(rule), s)).all()

    @pytest.mark.parametrize("f2", [True, False])
    @pytest.mark.parametrize("n", [7, 300, 5000])
    def test_keyless_unit_sigma_is_the_weighted_path(self, n, f2):
        # a keyless unit-sigma cell (every TF and Scaled fit) builds no plane
        # of ones and takes n as its normalizer; keys that never match take
        # the weighted path, where multiplying by 1.0 and summing ones are
        # exact, so both give the same bytes
        x, one = np.random.default_rng(n).normal(size=n), np.ones(n)
        keyless = density_grid(x, one, x, one, [0.4], [1.0], f2=f2)
        never = density_grid(x, one, x, one, [0.4], [1.0], np.arange(n) + n, np.arange(n), f2)
        assert [None if a is None else a.tobytes() for a in keyless] == \
            [None if a is None else a.tobytes() for a in never]
        assert (keyless[3] == n).all()

    @pytest.mark.parametrize("case", ["one-cell-keyed", "long-training-index"])
    def test_same_bytes_without_the_bundled_blas(self, monkeypatch, case):
        xq, sq, xt, st, hxs, hss, key = grid_case(case)
        pinned = density_grid(xq, sq, xt, st, hxs[:1], hss[:1], key, key)
        monkeypatch.setattr(nesteb.kernel, "_openblas_threads", lambda: None)
        got = density_grid(xq, sq, xt, st, hxs[:1], hss[:1], key, key)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in pinned]

    def test_sums_within_4_ulps_of_fsum(self):
        # the kernel's own terms, built as the module docstring's rows t E,
        # t E dx and t E (-2 x - 1) and then scaled: (t E) / s, (t E dx) / s^3
        # and (t E (u^2 - 1)) / s^3; the pairwise row sums stay within 4 ulps
        # of the exact sum's absolute-term scale (f1, f2 cross 0)
        s = self.sample()
        x, sig, hx, hs = s.x, s.sigma, 0.4, 0.3
        key = kfold_split(s.n, 5, 0)
        f, f1, f2, wsum = density_grid(x, sig, x, sig, [hx], [hs], key, key)
        inv_s = 1.0 / sig
        inv_s3 = inv_s * inv_s * inv_s
        t = np.exp((sig[:, None] - sig) ** 2 * (-0.5 / (hs * hs))) * (key[:, None] != key)
        dx = x[:, None] - x
        expo = dx * dx * (inv_s * inv_s) * (-0.5 * (1.0 / (hx * hx)))   # x = -u^2 / 2
        e = np.exp(expo) * t
        rows = (e * inv_s, e * dx * inv_s3, (-2.0 * expo - 1.0) * e * inv_s3)
        norm = SQRT_2PI * wsum[0]
        for got, terms, scale in zip((f, f1, f2), rows, (hx * norm, -(hx**3) * norm, hx**3 * norm)):
            exact = np.array([math.fsum(r) for r in terms]) / scale
            size = np.array([math.fsum(np.abs(r)) for r in terms]) / np.abs(scale)
            assert np.all(np.abs(got[0, 0] - exact) <= 4 * np.spacing(size))


class TestTruncation:
    """The truncation rule: E = exp(max(x, -700)) - e^-700 for x = -u^2 / 2,
    with the two passes skipped for an h_x where no exponent reaches -660."""

    # (sigma, h_x values): each makes h_x sigma = 1 in the first cell, on the
    # unit-sigma and the sigma-factor setups, one cell and grid
    PATHS = [(1.0, (1.0,)), (1.0, (1.0, 3.0)), (0.5, (2.0,)), (0.5, (2.0, 6.0))]

    @pytest.mark.parametrize("half_u2, want", [
        (710.0, lambda x: 0.0),                          # exp alone: a subnormal 4.5e-309
        (680.0, lambda x: np.exp(x) - np.exp(-700.0)),   # smaller by e^-700
        (650.0, lambda x: np.exp(x)),                    # e^-700 under half an ulp
    ])
    @pytest.mark.parametrize("sigma, hxs", PATHS)
    def test_one_term_near_the_cutoff(self, sigma, hxs, half_u2, want):
        # the first query's only unmasked term has u^2 / 2 = half_u2; alone,
        # the call skips the passes only at 650, and a far second query turns
        # them on for every h_x without changing the first row
        xt, s = np.array([0.0, math.sqrt(2 * half_u2)]), np.full(2, sigma)
        e = want(-0.5 * xt[1] * xt[1])
        for xq in (np.array([0.0]), np.array([0.0, 1e3])):
            f, f1, f2, wsum = density_grid(xq, np.full(xq.size, sigma), xt, s, hxs, (1.0,),
                                           2 * np.arange(xq.size), np.array([0, 1]))
            assert wsum[0, 0] == 1.0 and f[0, 0, 0] == e / SQRT_2PI
            assert (f1[0, 0, 0] == 0.0) == (f2[0, 0, 0] == 0.0) == (e == 0.0)
            assert not f[0, 0, 1:].any()

    @pytest.mark.parametrize("sigma, hxs", PATHS)
    def test_a_term_whose_dx2_overflows_adds_0_to_f2(self, sigma, hxs):
        # against x_j = 1e200 dx^2 overflows and the exponent is clamped to
        # -700; f2's factor reads u^2 = 1400 from it, so the term is exactly
        # 0, as against x_j = 1e100, where dx^2 is finite
        xq, near = np.array([0.0, 0.3]), np.array([-0.4, 0.0, 0.5])
        got = [density_grid(xq, np.full(2, sigma), np.append(near, far), np.full(4, sigma), hxs, (1.0,))
               for far in (1e100, 1e200)]
        assert np.isfinite(got[1][2]).all()
        assert [a.tobytes() for a in got[1]] == [a.tobytes() for a in got[0]]

    @pytest.mark.parametrize("keyed", [False, True])
    @pytest.mark.parametrize("case", TestDensityGrid.CASES)
    def test_a_far_query_changes_no_other_row(self, case, keyed):
        # the far query turns the passes on for every h_x; where they were
        # skipped, every exponent is above -660 and both passes change no bit
        xq, sq, xt, st, hxs, hss, key = grid_case(case)
        qkey, tkey = None, None
        if keyed:
            qkey, tkey = (key, key) if key is not None else (np.arange(len(xq)), np.arange(len(xt)))
        far = xt.max() + 40 * st.max() * max(hxs)
        xf, sf = np.append(xq, far), np.append(sq, sq[0])
        base = density_grid(xq, sq, xt, st, hxs, hss, qkey, tkey)
        got = density_grid(xf, sf, xt, st, hxs, hss, None if qkey is None else np.append(qkey, -1), tkey)
        assert [a[..., :-1].tobytes() for a in got] == [a.tobytes() for a in base]
        assert not got[0][..., -1].any()

    def test_no_subnormal_reaches_the_gemm(self, monkeypatch):
        # criterion 3's two-point cell (the mse-cell workload's data): every
        # tune's weight planes and kernel rows are normal floats or exact 0
        contract, seen = nesteb.kernel._contract, []

        def spy(w, k):
            seen.append(sum(int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(float).tiny))) for a in (w, k)))
            return contract(w, k)

        monkeypatch.setattr(nesteb.kernel, "_contract", spy)
        prior = TwoPointPrior(0.5, 0.0, 3.0)
        scenario = scenario_from_ratio(prior, 9.2 / 10.2, n=1000, reps=1, seed=0, label="twopoint-9.2")
        run_mse_study(scenario, table_specs(prior, 1000, include_kgroups=(2,)), threads=1)
        assert seen and sum(seen) == 0

    def test_no_exp_lane_leaves_the_fast_range(self, monkeypatch):
        # NEST's tune on criterion 3's two-point cell (the mse-cell workload's
        # seed-0 data, its fold keys): the mask zeroes the sigma weights after
        # their exp, so no exp input lies below -707.5, where NumPy's exp
        # leaves its fast path
        exp, lowest = np.exp, []

        def spy(a, *args, **kwargs):
            lowest.append(float(np.min(a)))
            return exp(a, *args, **kwargs)

        scenario = scenario_from_ratio(TwoPointPrior(0.5, 0.0, 3.0), 9.2 / 10.2, n=1000, reps=1, seed=0)
        sample = draw_scenario(scenario, 0)
        grid = default_grid(sample, seed=derive_seed(0, 0, 1))
        fold = kfold_split(sample.n, grid.k, grid.seed)
        monkeypatch.setattr(np, "exp", spy)
        density_grid(sample.x, sample.sigma, sample.x, sample.sigma, grid.h_x_values, grid.h_sigma_values,
                     fold, fold)
        assert lowest and min(lowest) >= -707.5
