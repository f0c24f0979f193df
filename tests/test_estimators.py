import math

import numpy as np
import pytest

from nesteb.data import Bandwidths, validate_sample
from nesteb.errors import BadGroupCount, OutOfDomain
from nesteb.estimators import (
    EstimatorSpec,
    KGroups,
    KernelContext,
    Naive,
    Nest,
    Oracle,
    Scaled,
    TF,
    default_truncation_bound,
    estimate,
    k_groups_fit,
    stabilize_sign,
    truncate_estimates,
)
from nesteb.kernel import in_sample_triple, pooled_context
from nesteb.priors import NormalPrior, SparseMixPrior, TwoPointPrior


def random_sample(n=60, seed=0, lo=0.5, hi=2.0):
    rng = np.random.default_rng(seed)
    return validate_sample(rng.normal(size=n), rng.uniform(lo, hi, n))


def tweedie(ctx, x, sigma, kde_sigma=None):
    """Tweedie's formula at one query: x + sigma^2 * f1/f, the density
    evaluated at (x, kde_sigma) (kde_sigma defaults to sigma)."""
    f, f1, _ = in_sample_triple(ctx, queries=([x], [sigma if kde_sigma is None else kde_sigma]))
    return x + sigma * sigma * float(f1[0]) / float(f[0])


def tf_at(train_x, h, x, sigma):
    """The TF rule at one query: the pooled KDE's score times sigma^2."""
    return tweedie(pooled_context(train_x, h), x, sigma, kde_sigma=1.0)


def scaled_at(train, h, x, sigma):
    """The scaled rule at one query: unit-variance Tweedie in z = x/sigma."""
    return sigma * tweedie(pooled_context(train.x / train.sigma, h), x / sigma, 1.0)


class TestNaiveAndOracle:
    def test_naive_is_identity(self):
        s = random_sample()
        np.testing.assert_array_equal(estimate(EstimatorSpec(Naive()), s), s.x)

    def test_oracle_normal_closed_form(self):
        assert NormalPrior(3.0, 1.0).posterior_mean(5.0, 1.0) == pytest.approx(4.0)

    def test_oracle_prior_mean_fixed_point(self):
        assert NormalPrior(3.0, 1.0).posterior_mean(3.0, 1.0) == pytest.approx(3.0)

    def test_oracle_two_point_symmetry_midpoint(self):
        assert TwoPointPrior(0.5, 0.0, 3.0).posterior_mean(1.5, 1.0) == pytest.approx(1.5)

    def test_oracle_sparse_mix_against_quadrature(self):
        # frozen from the quadrature oracle over the prior (point mass + N(3, 0.3^2))
        got = float(SparseMixPrior(0.7, 3.0, 0.3).posterior_mean(0.0, 1.0))
        assert got == pytest.approx(0.018079383994453156, rel=1e-10)


class TestNestPoint:
    def test_zero_score_at_symmetric_center(self):
        xs = np.array([-2.0, -1.0, 1.0, 2.0]) + 0.5
        s = validate_sample(xs, np.full(4, 1.1))
        ctx = KernelContext(s, Bandwidths(0.6, 0.4))
        assert tweedie(ctx, 0.5, 1.1) == pytest.approx(0.5, abs=1e-12)

    def test_single_kernel_closed_form(self):
        x0, s0 = 2.0, 1.5
        ctx = KernelContext(validate_sample([x0], [s0]), Bandwidths(0.7, 0.5))
        x, sig = 0.5, 0.8
        expect = x + sig**2 * (x0 - x) / (0.7 * s0) ** 2
        assert tweedie(ctx, x, sig) == pytest.approx(expect, rel=1e-14)

    def test_two_group_data_reduces_to_per_group_tf(self):
        # with h_sigma tiny relative to the sigma gap, the cross-group weights
        # vanish and NEST must match TF run inside each group
        rng = np.random.default_rng(8)
        n = 400
        grp = rng.random(n) < 0.5
        sigma = np.where(grp, 1.0, 3.0)
        x = rng.normal(1.0, 0.5, n) + sigma * rng.normal(size=n)
        s = validate_sample(x, sigma)
        h_x = 0.3
        nest = Nest(Bandwidths(h_x, 0.05)).apply(s)
        per_group = np.empty(n)
        for g, sig_g in ((True, 1.0), (False, 3.0)):
            idx = np.flatnonzero(grp == g)
            sub = s.subset(idx)
            per_group[idx] = TF(h_x * sig_g).apply(sub)
        np.testing.assert_allclose(nest, per_group, atol=1e-6)


class TestTfAndScaledPoints:
    def test_tf_zero_score_at_pooled_center(self):
        train = [-2.0, -0.5, 0.5, 2.0]
        assert tf_at(train, 0.8, 0.0, 1.3) == pytest.approx(0.0, abs=1e-12)

    def test_tf_single_kernel_closed_form(self):
        assert tf_at([2.0], 0.6, 0.5, 0.8) == pytest.approx(0.5 + 0.64 * 1.5 / 0.36, rel=1e-14)

    def test_tf_equals_nest_on_homoscedastic_data(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=80)
        common = 1.3
        s = validate_sample(xs, np.full(80, common))
        h = 0.52
        ctx = KernelContext(s, Bandwidths(h / common, 0.7))
        for xq in (-1.0, 0.2, 2.2):
            assert tf_at(xs, h, xq, common) == pytest.approx(tweedie(ctx, xq, common), abs=1e-10)

    def test_scaled_identity_when_all_unit_sigma(self):
        rng = np.random.default_rng(10)
        xs = rng.normal(size=50)
        s = validate_sample(xs, np.ones(50))
        a = Scaled(0.4).apply(s)
        b = TF(0.4).apply(s)
        np.testing.assert_array_equal(a, b)

    def test_scaled_single_point_closed_form(self):
        train = validate_sample([2.0], [1.5])
        x, sig, h = 0.5, 0.8, 0.6
        z0, z = 2.0 / 1.5, 0.5 / 0.8
        expect = sig * (z + (z0 - z) / h**2)
        assert scaled_at(train, h, x, sig) == pytest.approx(expect, rel=1e-14)


class TestKGroups:
    def test_k1_equals_tf_bitwise(self):
        s = random_sample(n=70, seed=11)
        a = KGroups(1, (0.45,)).apply(s)
        b = TF(0.45).apply(s)
        np.testing.assert_array_equal(a, b)

    def test_quantile_split_n4(self):
        s = validate_sample([10.0, 20.0, 30.0, 40.0], [1.0, 2.0, 3.0, 4.0])
        groups = k_groups_fit(s, 2)
        assert list(groups[0]) == [0, 1]
        assert list(groups[1]) == [2, 3]

    def test_sigma_ties_broken_by_index(self):
        s = validate_sample([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])
        groups = k_groups_fit(s, 2)
        assert list(groups[0]) == [0, 1]

    def test_two_value_sigma_exact_separation(self):
        rng = np.random.default_rng(12)
        n = 40
        sigma = np.where(rng.random(n) < 0.5, 1.0, 3.0)
        x = rng.normal(size=n) * sigma
        s = validate_sample(x, sigma)
        groups = k_groups_fit(s, 2)
        # exact group separation only when the two sigma values are balanced
        if (sigma == 1.0).sum() == n // 2:
            assert np.all(sigma[groups[0]] == 1.0)
        got = KGroups(2, (0.5, 0.5)).apply(s)
        for g, idx in enumerate(groups):
            sub = s.subset(idx)
            np.testing.assert_allclose(got[idx], TF(0.5).apply(sub), rtol=1e-13)

    def test_bad_group_count(self):
        s = random_sample(n=5)
        with pytest.raises(BadGroupCount):
            k_groups_fit(s, 0)
        with pytest.raises(BadGroupCount):
            k_groups_fit(s, 6)

    def test_near_equal_group_sizes(self):
        s = random_sample(n=10, seed=13)
        groups = k_groups_fit(s, 3)
        sizes = sorted(len(g) for g in groups)
        assert sizes == [3, 3, 4]


class TestPostProcessing:
    def test_truncation_examples(self):
        np.testing.assert_array_equal(truncate_estimates([10.0], 5.0), [5.0])
        np.testing.assert_array_equal(truncate_estimates([-10.0], 5.0), [-5.0])
        np.testing.assert_array_equal(truncate_estimates([3.0, -4.9], 5.0), [3.0, -4.9])

    def test_truncation_never_hurts_for_interior_means(self):
        rng = np.random.default_rng(14)
        bound = 4.0
        mu = rng.uniform(-bound, bound, 500)
        delta = mu + rng.normal(scale=5.0, size=500)
        clipped = truncate_estimates(delta, bound)
        assert np.all((clipped - mu) ** 2 <= (delta - mu) ** 2)

    def test_stabilize_sign_examples(self):
        np.testing.assert_array_equal(stabilize_sign([2.0], [-0.3]), [0.0])
        np.testing.assert_array_equal(stabilize_sign([2.0], [1.0]), [1.0])
        np.testing.assert_array_equal(stabilize_sign([0.0], [0.5]), [0.0])
        np.testing.assert_array_equal(stabilize_sign([-1.0], [-0.5]), [-0.5])

    def test_default_truncation_bound(self):
        assert default_truncation_bound(5000) == pytest.approx(2 * math.log(5000))

    def test_estimate_applies_both_post_steps(self):
        s = validate_sample([-1.0, 8.0], [1.0, 1.0])
        spec = EstimatorSpec(Naive(), truncation_bound=5.0, stabilize_sign=True)
        np.testing.assert_array_equal(estimate(spec, s), [-1.0, 5.0])


class TestEstimateDispatch:
    def test_nest_equals_tf_elementwise_homoscedastic(self):
        rng = np.random.default_rng(15)
        xs = rng.normal(size=100)
        common = 0.9
        s = validate_sample(xs, np.full(100, common))
        a = estimate(EstimatorSpec(Nest(Bandwidths(0.5, 0.37))), s)
        b = estimate(EstimatorSpec(TF(0.5 * common)), s)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_shift_equivariance_of_nest_and_tf(self):
        s = random_sample(n=50, seed=16)
        c = 113.0
        shifted = validate_sample(s.x + c, s.sigma)
        for spec in (EstimatorSpec(Nest(Bandwidths(0.5, 0.3))), EstimatorSpec(TF(0.6))):
            a = estimate(spec, s)
            b = estimate(spec, shifted)
            np.testing.assert_allclose(b, a + c, atol=1e-10 * max(1.0, c))

    def test_unresolved_bandwidths_raise(self):
        s = random_sample(n=10)
        for spec in (EstimatorSpec(Nest()), EstimatorSpec(TF()), EstimatorSpec(Scaled()),
                     EstimatorSpec(KGroups(2))):
            with pytest.raises(ValueError):
                estimate(spec, s)

    def test_jackknife_differs_from_full(self):
        s = random_sample(n=30, seed=17)
        full = estimate(EstimatorSpec(Nest(Bandwidths(0.5, 0.3))), s)
        jack = estimate(EstimatorSpec(Nest(Bandwidths(0.5, 0.3), jackknife=True)), s)
        assert not np.allclose(full, jack)

    def test_single_point_nest_returns_observation(self):
        s = validate_sample([4.2], [1.0])
        got = estimate(EstimatorSpec(Nest(Bandwidths(0.5, 0.5))), s)
        np.testing.assert_allclose(got, [4.2], atol=1e-14)

    def test_far_point_fits_without_f2(self):
        # x = 1e300, whose dx^2 overflowed, is outside the input domain; at
        # its edge, x = 2^128, the fits build no f2 row and return Tweedie's
        # value, where the far point's kernel is exactly 0:
        # x + 4 e / (1 + e), e = exp(-2), at h = 0.5
        with pytest.raises(OutOfDomain):
            validate_sample([1.0, 1e300, 2.0], [1.0, 1.0, 1.0])
        s = validate_sample([1.0, 2.0**128, 2.0], [1.0, 1.0, 1.0])
        lift = 4 * math.exp(-2.0) / (1 + math.exp(-2.0))
        for mu in (Nest(Bandwidths(0.5, 0.5)).apply(s), TF(0.5).apply(s), Scaled(0.5).apply(s)):
            assert mu[1] == 2.0**128
            np.testing.assert_allclose(mu[[0, 2]], [1 + lift, 2 - lift], rtol=1e-14)   # 1.4768..., 1.5232...
        # the f2 row reads u^2 from the clamped exponent: the far term adds 0
        f, f1, f2 = in_sample_triple(KernelContext(s, Bandwidths(0.5, 0.5)))
        assert np.isfinite(f2).all()

    def test_scaled_refuses_a_z_outside_the_domain(self):
        # x and sigma in the domain can make |z| = |x / sigma| reach 2^192;
        # the scaled rule fits and tunes in z, so z keeps x's bound 2^128
        edge = Scaled.coordinates(validate_sample([2.0**127, 2.0, 3.0], [0.5, 1.0, 1.0]))
        assert edge[0] == 2.0**128
        with pytest.raises(OutOfDomain) as err:
            Scaled.coordinates(validate_sample([2.0, -(2.0**127), 3.0], [1.0, 0.25, 1.0]))
        assert (err.value.column, err.value.index) == ("z", 1)

    def test_oracle_beats_everyone_at_scale(self):
        # oracle risk is the floor for every rule, up to Monte Carlo noise
        rng = np.random.default_rng(18)
        n = 4000
        prior = NormalPrior(3.0, 1.0)
        mu = prior.draw(rng, n)
        sigma = rng.uniform(0.1, 1.7, n)
        x = mu + sigma * rng.normal(size=n)
        s = validate_sample(x, sigma, mu)
        mse = {}
        for spec in (
            EstimatorSpec(Oracle(prior)),
            EstimatorSpec(Naive()),
            EstimatorSpec(Nest(Bandwidths(0.5, 0.2))),
            EstimatorSpec(TF(0.3)),
            EstimatorSpec(Scaled(0.3)),
        ):
            mse[spec.name] = float(np.mean((estimate(spec, s) - mu) ** 2))
        floor = mse.pop("oracle")
        se = 2.0 * math.sqrt(2.0 / n) * max(mse.values())
        for name, val in mse.items():
            assert val >= floor - se, (name, val, floor)
