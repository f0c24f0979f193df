import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import digamma
from scipy.stats import betabinom

from nesteb.data import Bandwidths
from nesteb.errors import DomainError, LengthMismatch, NonPositiveSigma, OutOfDomain, ZeroMass
from nesteb.expfam import (
    Beta,
    Binomial,
    EULER_GAMMA,
    MAX_COUNT,
    FamilyPoint,
    Gamma,
    NegBinomial,
    ScoreEstimate,
    discrete_lf1,
    gamma_point_mass_lf1,
    harmonic,
    kde_lf1,
    posterior_mean,
)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(25.0 / 12.0, rel=1e-15)

    @pytest.mark.parametrize("k", [1, 10, 1000, 10**6])
    def test_matches_digamma_oracle(self, k):
        # digamma(k+1) + gamma_E = H(k); digamma used only as a test oracle
        assert abs(harmonic(k) - (digamma(k + 1) + EULER_GAMMA)) < 1e-12


class TestCountBound:
    # the carrier sums run term by term, so their term counts are bounded
    def test_counts_above_max_count_refused(self):
        for make in (Binomial, NegBinomial):
            with pytest.raises(DomainError, match="MAX_COUNT"):
                make(MAX_COUNT + 1)
            with pytest.raises(DomainError, match="MAX_COUNT"):
                make(100_000_000_000)
        with pytest.raises(DomainError, match="MAX_COUNT"):
            harmonic(MAX_COUNT + 1)

    @pytest.mark.parametrize("make", [Binomial, NegBinomial])
    def test_ints_past_the_float_range_refused(self, make):
        # math.isfinite raised OverflowError on them
        with pytest.raises(DomainError, match="float range"):
            make(10**400)
        if make is NegBinomial:
            with pytest.raises(DomainError, match="float range"):
                FamilyPoint(make(3), 10**400)

    def test_max_count_is_accepted_and_returns_quickly(self):
        start = time.perf_counter()
        binomial = FamilyPoint(Binomial(MAX_COUNT), MAX_COUNT // 2).carrier
        negbinomial = FamilyPoint(NegBinomial(MAX_COUNT), 3).carrier
        assert time.perf_counter() - start < 1.0
        assert binomial == 2.0 * harmonic(MAX_COUNT // 2) - 2.0 * EULER_GAMMA
        assert negbinomial == pytest.approx(digamma(MAX_COUNT + 3) - digamma(4), rel=1e-12)


class TestLhPrime:
    def test_negbinomial_r1_is_zero(self):
        assert FamilyPoint(NegBinomial(1), 4).carrier == 0.0

    @pytest.mark.parametrize("r", [2, 3, 10])
    def test_negbinomial_sum_is_exact_against_fractions(self, r):
        # the direct sum has no H(x + r - 1) - H(x) cancellation (8.6e-13 at r=3)
        x = 10**4
        exact = float(sum(Fraction(1, k) for k in range(x + 1, x + r)))
        assert FamilyPoint(NegBinomial(r), x).carrier == pytest.approx(exact, rel=1e-15, abs=0)

    def test_negbinomial_cost_follows_r_not_the_count(self):
        # r - 1 terms of about 1e-300 each; a sum from 1 to x would never return
        assert FamilyPoint(NegBinomial(3), 1e300).carrier == pytest.approx(2e-300, rel=1e-15, abs=0)

    def test_gamma_alpha1_is_zero(self):
        assert FamilyPoint(Gamma(1.0), 2.7).carrier == 0.0

    def test_binomial_n2_x1(self):
        # derived: 1 + 1 - 2*gamma_E
        got = FamilyPoint(Binomial(2), 1).carrier
        assert got == pytest.approx(0.8455686701969343, rel=1e-14)

    def test_binomial_empty_sum_at_zero_count(self):
        got = FamilyPoint(Binomial(3), 0).carrier
        assert got == pytest.approx(harmonic(3) - 2 * EULER_GAMMA, rel=1e-14)

    def test_binomial_symmetry(self):
        for n in (2, 5, 9):
            for x in range(n + 1):
                a = FamilyPoint(Binomial(n), x).carrier
                b = FamilyPoint(Binomial(n), n - x).carrier
                assert a == pytest.approx(b, rel=1e-14)

    def test_negbinomial_recurrence(self):
        for x in (0, 3, 11):
            for r in (1, 2, 5):
                lo = FamilyPoint(NegBinomial(r), x).carrier
                hi = FamilyPoint(NegBinomial(r + 1), x).carrier
                assert hi - lo == pytest.approx(1.0 / (x + r), rel=1e-12)

    def test_gamma_formula(self):
        assert FamilyPoint(Gamma(3.0), 2.0).carrier == pytest.approx(-1.0)

    def test_beta_formula(self):
        z = math.log(0.25)
        got = FamilyPoint(Beta(4.0), z).carrier
        assert got == pytest.approx(3.0 * 0.25 / 0.75, rel=1e-12)


class TestFamilyPointValidation:
    # each family refuses a point outside its domain at construction and in its carrier
    @staticmethod
    def refuses(family, value):
        with pytest.raises(DomainError):
            FamilyPoint(family, value)
        with pytest.raises(DomainError):
            family.carrier(value)

    def test_binomial_bounds(self):
        for value in (4, -1, 1.5, math.inf, math.nan):
            self.refuses(Binomial(3), value)

    def test_negbinomial_count(self):
        for value in (-1, 1.5, math.inf, math.nan):
            self.refuses(NegBinomial(2), value)

    def test_gamma_positive(self):
        for value in (0.0, math.inf, math.nan):
            self.refuses(Gamma(2.0), value)

    def test_beta_log_coordinate_negative(self):
        for value in (0.1, -math.inf, math.nan):
            self.refuses(Beta(2.0), value)

    def test_overflowing_carrier_term_refused(self):
        # finite points inside the domain whose carrier term overflows to -inf and +inf
        for family, value in ((Gamma(2.0), 1e-320), (Beta(1e308), math.log(0.9999999999999999))):
            with pytest.raises(DomainError, match="overflows"):
                FamilyPoint(family, value)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            Binomial(0)
        with pytest.raises(DomainError):
            Gamma(-1.0)
        # non-finite parameters, and fractional ones for the count families
        for family, param in [(Binomial, 2.5), (Binomial, math.inf), (Binomial, math.nan),
                              (NegBinomial, 2.5), (NegBinomial, math.inf), (NegBinomial, math.nan),
                              (Gamma, math.inf), (Gamma, math.nan), (Beta, math.inf), (Beta, math.nan)]:
            with pytest.raises(DomainError):
                family(param)


class TestCoordinate:
    @pytest.mark.parametrize("family", [Binomial(3), NegBinomial(2), Gamma(2.0)])
    def test_identity_for_three_families(self, family):
        assert family.coordinate(2.0) == 2.0

    def test_beta_takes_log_of_raw_x(self):
        assert Beta(2.0).coordinate(0.25) == math.log(0.25)

    @pytest.mark.parametrize("x", [0.0, 1.0, 1.5, -0.5, math.nan, math.inf])
    def test_beta_refuses_x_outside_unit_interval(self, x):
        with pytest.raises(DomainError):
            Beta(2.0).coordinate(x)


class TestPosteriorMean:
    def test_gamma_point_mass_prior_exponential(self):
        # point-mass prior at rate beta0 with alpha=1: marginal is Exp(beta0)
        beta0 = 1.7
        for x in (0.2, 1.0, 4.5):
            score = ScoreEstimate(-beta0)
            got = posterior_mean(FamilyPoint(Gamma(1.0), x), score)
            assert abs(got - beta0) < 1e-12

    def test_gamma_point_mass_prior_alpha2(self):
        # marginal Gamma(2, beta0): l'_f = 1/x - beta0 cancels the carrier term
        beta0 = 0.8
        for x in (0.3, 1.1, 6.0):
            score = gamma_point_mass_lf1(2.0, beta0, x)
            got = posterior_mean(FamilyPoint(Gamma(2.0), x), score)
            assert abs(got - beta0) < 1e-12

    def test_gamma_display_plugin(self):
        got = posterior_mean(FamilyPoint(Gamma(2.0), 1.0), ScoreEstimate(-0.5))
        assert got == pytest.approx(1.5)

    def test_binomial_carrier_offset_against_quadrature(self):
        # Quadrature oracle: with a Beta(a, b) prior, the true posterior mean
        # of the log odds is the conjugate integral below. The shipped carrier
        # term H(x) + H(n-x) - 2*gamma_E is symmetric in (x, n-x) and sits
        # exactly 2*(H(n-x) - gamma_E) above the value that that integral
        # implies; pin the offset exactly rather than the disagreement.
        n, a, b, x = 6, 2.0, 2.0, 2
        post_a, post_b = a + x, b + n - x
        num, _ = quad(
            lambda p: math.log(p / (1 - p)) * p ** (post_a - 1) * (1 - p) ** (post_b - 1),
            1e-12, 1 - 1e-12, limit=400,
        )
        quad_mean = num / beta_fn(post_a, post_b)
        assert quad_mean == pytest.approx(-0.45, abs=1e-8)

        # exact marginal score of the Beta-Binomial in continuous x
        lf1_exact = (
            -digamma(x + 1) + digamma(n - x + 1) + digamma(x + a) - digamma(n - x + b)
        )
        got = posterior_mean(FamilyPoint(Binomial(n), x), ScoreEstimate(lf1_exact))
        offset = 2.0 * (harmonic(n - x) - EULER_GAMMA)
        assert got == pytest.approx(quad_mean + offset, abs=1e-9)

    def test_binomial_finite_difference_score_tracks_exact(self):
        n, a, b, x = 6, 2.0, 2.0, 2
        pmf = betabinom.pmf(np.arange(n + 1), n, a, b)
        fd = discrete_lf1(pmf, x).lf1
        lf1_exact = (
            -digamma(x + 1) + digamma(n - x + 1) + digamma(x + a) - digamma(n - x + b)
        )
        assert fd == pytest.approx(lf1_exact, abs=0.02)

    def test_negbinomial_display(self):
        got = posterior_mean(FamilyPoint(NegBinomial(3), 2), ScoreEstimate(-1.0))
        assert got == pytest.approx(-1.0 + 1.0 / 3.0 + 1.0 / 4.0, rel=1e-12)

    def test_beta_display(self):
        z = math.log(0.5)
        got = posterior_mean(FamilyPoint(Beta(3.0), z), ScoreEstimate(0.25))
        assert got == pytest.approx(2.0 * 1.0 + 0.25, rel=1e-12)

    def test_matches_per_family_formulas_bitwise(self):
        # the module docstring's closed forms, written out per family
        rng = np.random.default_rng(17)
        for _ in range(500):
            lf1 = float(rng.normal(0.0, 3.0))
            n, xk = int(rng.integers(1, 40)), int(rng.integers(0, 40))
            xk = min(xk, n)
            got = posterior_mean(FamilyPoint(Binomial(n), xk), ScoreEstimate(lf1))
            assert got == harmonic(xk) + harmonic(n - xk) - 2.0 * EULER_GAMMA + lf1
            r = int(rng.integers(1, 20))
            expect = math.fsum(1.0 / k for k in range(xk + 1, xk + r)) + lf1
            assert posterior_mean(FamilyPoint(NegBinomial(r), xk), ScoreEstimate(lf1)) == expect
            alpha, x = float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.01, 10.0))
            got = posterior_mean(FamilyPoint(Gamma(alpha), x), ScoreEstimate(lf1))
            assert got == (alpha - 1.0) / x - lf1
            beta, u = float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.01, 0.99))
            z = math.log(u)
            got = posterior_mean(FamilyPoint(Beta(beta), z), ScoreEstimate(lf1))
            assert got == (beta - 1.0) * math.exp(z) / (1.0 - math.exp(z)) + lf1

    def test_carrier_computed_once_per_point(self, monkeypatch):
        # construction, the `carrier` field and posterior_mean share one carrier evaluation
        calls = []
        carrier = Binomial.carrier
        monkeypatch.setattr(Binomial, "carrier", lambda self, value: calls.append(value) or carrier(self, value))
        p = FamilyPoint(Binomial(10), 3)
        lh, mean = p.carrier, posterior_mean(p, ScoreEstimate(0.5))
        assert calls == [3]
        assert lh == harmonic(3) + harmonic(7) - 2.0 * EULER_GAMMA and mean == lh + 0.5

    def test_gamma_exact_zero_is_unsigned(self):
        # (alpha - 1)/x - l'_f is +0.0 when the two terms cancel
        for alpha, x, lf1 in ((1.0, 2.0, 0.0), (3.0, 4.0, 0.5)):
            got = posterior_mean(FamilyPoint(Gamma(alpha), x), ScoreEstimate(lf1))
            assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_overflowing_mean_refused(self):
        # a finite carrier term and a finite score whose sum overflows, to -inf and +inf
        for point, lf1 in ((FamilyPoint(Gamma(2.0), 1e-308), -1e308),
                           (FamilyPoint(Beta(1e308), math.log(0.5)), 1.7e308)):
            with pytest.raises(DomainError, match="overflows"):
                posterior_mean(point, ScoreEstimate(lf1))


class TestDiscreteLf1:
    def test_uniform_pmf_is_flat(self):
        pmf = np.full(7, 1.0 / 7.0)
        assert discrete_lf1(pmf, 3).lf1 == 0.0
        assert discrete_lf1(pmf, 0).lf1 == 0.0
        assert discrete_lf1(pmf, 6).lf1 == 0.0

    def test_geometric_pmf_log_ratio(self):
        q = 0.6
        pmf = (1 - q) * q ** np.arange(30)
        assert discrete_lf1(pmf, 5).lf1 == pytest.approx(math.log(q), rel=1e-12)
        assert discrete_lf1(pmf, 0).lf1 == pytest.approx(math.log(q), rel=1e-12)
        assert discrete_lf1(pmf, 29).lf1 == pytest.approx(math.log(q), rel=1e-12)

    def test_zero_neighbor_raises(self):
        pmf = np.array([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(ZeroMass):
            discrete_lf1(pmf, 1)
        with pytest.raises(ZeroMass):
            discrete_lf1(pmf, 2)

    def test_out_of_support(self):
        with pytest.raises(DomainError):
            discrete_lf1([0.5, 0.5], 2)

    def test_point_is_an_integer_count(self):
        # an integral float reads as the count; a fractional one is outside the support
        pmf = [0.1, 0.2, 0.3, 0.4]
        assert discrete_lf1(pmf, 2.0).lf1 == discrete_lf1(pmf, 2).lf1
        with pytest.raises(DomainError, match="integer"):
            discrete_lf1(pmf, 2.5)


class TestKdeProvider:
    def test_single_point_closed_form(self):
        # one training pair: score is (x0 - x) / (h_x * theta0)^2
        got = kde_lf1([2.0], [1.5], Bandwidths(0.7, 0.5), 0.5, 0.8)
        assert got.lf1 == pytest.approx((2.0 - 0.5) / (0.7 * 1.5) ** 2, rel=1e-12)

    @pytest.mark.parametrize("thetas,error", [
        ([1.0, -1.0, 2.0], NonPositiveSigma),
        ([1.0, 0.0, 2.0], NonPositiveSigma),
        ([1.0, 1.0], LengthMismatch),
        ([1.0, 1.0, 1e-110], OutOfDomain),
    ], ids=["negative-theta", "zero-theta", "short-thetas", "theta-below-the-domain"])
    def test_training_pairs_validated(self, thetas, error):
        # values and thetas form a HeteroSample, whose rules hold here too
        with pytest.raises(error):
            kde_lf1([1.0, 2.0, 3.0], thetas, Bandwidths(0.5, 0.5), 2.0, 1.0)

    def test_a_theta_below_the_domain_is_refused_by_row(self):
        # theta = 1e-110 once gave lf1 = -0.0, then NonFiniteValue from the
        # kernel's 0 * inf; it is refused in column sigma at its own row
        with pytest.raises(OutOfDomain) as err:
            kde_lf1([0.0, 1.0, 5.0], [1.0, 1.0, 1e-110], Bandwidths(0.5, 0.5), 0.5, 1.0)
        assert (err.value.column, err.value.index) == ("sigma", 2)

    def test_score_estimate_requires_finite(self):
        with pytest.raises(ValueError):
            ScoreEstimate(float("nan"))
