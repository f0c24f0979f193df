import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit, ndtr

from nesteb.priors import NormalPrior, SparseMixPrior, TwoPointPrior, mixture_weight

PRIORS = [
    NormalPrior(3.0, 1.0),
    SparseMixPrior(0.7, 3.0, 0.3),
    TwoPointPrior(0.5, 0.0, 3.0),
    TwoPointPrior(0.2, -1.0, 2.0),
    # a component of zero weight: its log weight is -inf
    pytest.param(SparseMixPrior(0.0, 3.0, 0.3), id="SparseMixPrior-no-null"),
    pytest.param(SparseMixPrior(1.0, 3.0, 0.3), id="SparseMixPrior-all-null"),
    pytest.param(TwoPointPrior(1.0, 0.0, 0.0), id="point_mass"),
]


@pytest.mark.parametrize("prior", PRIORS, ids=lambda p: type(p).__name__)
class TestMarginalConsistency:
    def test_pdf_integrates_to_one(self, prior):
        for sigma in (0.5, 1.0, 2.0):
            val, _ = quad(lambda x: float(prior.marginal_pdf(x, sigma)), -40, 40, limit=400)
            assert abs(val - 1.0) < 1e-8

    def test_survival_matches_pdf_integral(self, prior):
        for t, sigma in [(0.0, 1.0), (1.5, 0.7), (-2.0, 2.0)]:
            tail, _ = quad(lambda x: float(prior.marginal_pdf(x, sigma)), t, 60, limit=400)
            assert abs(tail - float(prior.marginal_survival(t, sigma))) < 1e-8

    def test_tweedie_identity_links_score_and_posterior_mean(self, prior):
        # E(mu | x, sigma) and f'/f are assembled through different algebra
        xs = np.linspace(-4.0, 7.0, 23)
        for sigma in (0.6, 1.0, 1.8):
            pm = prior.posterior_mean(xs, sigma)
            via_score = xs + sigma**2 * prior.marginal_score(xs, sigma)
            np.testing.assert_allclose(pm, via_score, rtol=1e-10, atol=1e-10)

    def test_moments_match_draws(self, prior):
        rng = np.random.default_rng(123)
        draws = prior.draw(rng, 400_000)
        assert abs(draws.mean() - prior.mean()) < 5 * math.sqrt(prior.variance() / 400_000 + 1e-12)
        assert abs(draws.var() - prior.variance()) < 0.02 * max(prior.variance(), 1.0)


class TestClosedForms:
    def test_normal_posterior_mean(self):
        p = NormalPrior(3.0, 1.0)
        assert float(p.posterior_mean(5.0, 1.0)) == pytest.approx(4.0, abs=1e-15)
        assert float(p.posterior_mean(3.0, 1.0)) == pytest.approx(3.0, abs=1e-15)

    def test_two_point_variance(self):
        assert TwoPointPrior(0.5, 0.0, 3.0).variance() == pytest.approx(2.25)

    def test_sparse_mix_variance(self):
        p = SparseMixPrior(0.7, 3.0, 0.3)
        expect = 0.3 * (0.09 + 9.0) - (0.3 * 3.0) ** 2
        assert p.variance() == pytest.approx(expect)

    def test_point_mass_prior(self):
        p = TwoPointPrior(1.0, 0.0, 0.0)
        assert p.variance() == 0.0
        assert float(p.posterior_mean(5.0, 1.0)) == 0.0
        # marginal is the pure noise density
        assert float(p.marginal_pdf(0.0, 1.0)) == pytest.approx(1 / math.sqrt(2 * math.pi))
        assert float(p.marginal_survival(0.0, 1.0)) == pytest.approx(0.5)

    def test_extreme_tail_weights_stay_finite(self):
        p = TwoPointPrior(0.5, 0.0, 3.0)
        for x in (-60.0, 60.0):
            assert np.isfinite(p.posterior_mean(x, 1.0))
            assert np.isfinite(p.marginal_score(x, 1.0))
        s = SparseMixPrior(0.7, 3.0, 0.3)
        for x in (-60.0, 60.0):
            assert np.isfinite(s.posterior_mean(x, 1.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NormalPrior(0.0, 0.0)
        with pytest.raises(ValueError):
            SparseMixPrior(1.3, 0.0, 1.0)
        with pytest.raises(ValueError):
            TwoPointPrior(-0.1, 0.0, 1.0)
        # a non-finite parameter would give NaN or inf posterior means
        for make, *params in [(NormalPrior, 1.0, math.inf), (NormalPrior, math.inf, 1.0),
                              (NormalPrior, math.nan, 1.0), (SparseMixPrior, 0.5, math.inf, 1.0),
                              (SparseMixPrior, 0.5, 0.0, math.nan), (TwoPointPrior, 0.5, math.nan, 3.0),
                              (TwoPointPrior, 0.5, 0.0, -math.inf)]:
            with pytest.raises(ValueError, match="must be finite"):
                make(*params)


class TestAgainstScipy:
    """The weight and tail closed forms against scipy.special as the reference."""

    def test_mixture_weight_matches_expit(self):
        rng = np.random.default_rng(20)
        n = 200_000
        w0 = rng.random(n)
        w1 = 1.0 - w0
        w0[::50] = 0.0  # zero-weight components: log weight -inf
        w1[1::50] = 0.0
        m0, m1 = rng.uniform(-5.0, 5.0, (2, n))
        s0, s1 = rng.uniform(0.1, 3.0, (2, n))
        x = m0 + rng.uniform(-40.0, 40.0, n) * s0
        with np.errstate(divide="ignore"):
            l0 = np.log(w0) - 0.5 * ((x - m0) / s0) ** 2 - np.log(s0)
            l1 = np.log(w1) - 0.5 * ((x - m1) / s1) ** 2 - np.log(s1)
        # the same formula; NumPy's exp and libm's differ by up to 1 ulp, and
        # 1 / (1 + e) can turn that, with its two roundings, into up to 4 ulps
        # of the weight (3 are seen here, at l0 - l1 of about -37)
        np.testing.assert_array_max_ulp(mixture_weight(x, w0, m0, s0, w1, m1, s1), expit(l0 - l1), maxulp=4)

    @pytest.mark.parametrize("prior", PRIORS, ids=lambda p: type(p).__name__)
    def test_marginal_survival_matches_ndtr(self, prior):
        t = np.linspace(-40.0, 40.0, 4001)
        for sigma in (0.5, 1.0, 2.0):
            got = prior.marginal_survival(t, sigma)
            want = sum(w * ndtr((m - t) / np.sqrt(sigma**2 + tau**2)) for w, m, tau in prior.components())
            both = (got >= 1e-300) & (want >= 1e-300)
            np.testing.assert_allclose(got[both], want[both], rtol=1e-12, atol=0)
