import math
import time

import numpy as np
import pytest

import nesteb.kernel
import nesteb.simulation
from nesteb.data import Bandwidths
from nesteb.errors import EmptyMonteCarlo, NoFeasibleRoot, ZeroTailMass
from nesteb.estimators import EstimatorSpec, Naive, Nest, Oracle, TF
from nesteb.priors import NormalPrior, SparseMixPrior, TwoPointPrior, point_mass
from nesteb.simulation import (
    _map_reps,
    SimScenario,
    TwoValueSigma,
    UniformSigma,
    draw_scenario,
    run_bias_experiment,
    run_mse_study,
    scenario_from_ratio,
    selection_bias_formula,
    solve_sigma_M,
    table_specs,
    tf_average_shrinkage,
)
from twocomponent import fit_two_component


class TestSolveSigmaM:
    def test_normal_half_ratio(self):
        # quadratic-root oracle, verified by plugging back into E[sigma^2]
        got = solve_sigma_M(NormalPrior(3.0, 1.0), 0.5)
        assert got == pytest.approx(1.6798843892006194, rel=1e-12)
        assert UniformSigma(0.1, got).mean_sq() == pytest.approx(1.0, rel=1e-12)

    def test_two_point_half_ratio(self):
        got = solve_sigma_M(TwoPointPrior(0.5, 0.0, 3.0), 0.5)
        assert got == pytest.approx(2.5466324345197573, rel=1e-12)
        assert UniformSigma(0.1, got).mean_sq() == pytest.approx(2.25, rel=1e-12)

    def test_ratio_near_one_infeasible(self):
        with pytest.raises(NoFeasibleRoot):
            solve_sigma_M(NormalPrior(3.0, 1.0), 0.999)

    def test_ratio_bounds_checked(self):
        with pytest.raises(ValueError):
            solve_sigma_M(NormalPrior(3.0, 1.0), 1.5)

    @pytest.mark.parametrize(
        "prior,ratio",
        [
            (NormalPrior(3.0, 1.0), 9.6 / 10.6),
            (SparseMixPrior(0.7, 3.0, 0.3), 0.75),
            (TwoPointPrior(0.5, 0.0, 3.0), 9.2 / 10.2),
        ],
    )
    def test_ratio_calibration_monte_carlo(self, prior, ratio):
        sc = scenario_from_ratio(prior, ratio, n=1_000_000, reps=1, seed=99)
        s = draw_scenario(sc, 0)
        achieved = s.mu_true.var() / s.x.var()
        assert abs(achieved - ratio) < 0.01


class TestDrawScenario:
    def test_deterministic_per_seed_and_rep(self):
        sc = scenario_from_ratio(NormalPrior(3, 1), 0.75, n=500, reps=3, seed=5)
        a = draw_scenario(sc, 1)
        b = draw_scenario(sc, 1)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.mu_true, b.mu_true)
        c = draw_scenario(sc, 2)
        assert not np.array_equal(a.x, c.x)

    def test_sample_is_read_only(self):
        s = draw_scenario(scenario_from_ratio(NormalPrior(3, 1), 0.75, n=20, reps=1, seed=5), 0)
        for col in (s.x, s.sigma, s.mu_true):
            with pytest.raises(ValueError):
                col[0] = 0.0

    def test_normal_prior_mean_lln(self):
        n = 100_000
        sc = SimScenario(NormalPrior(3, 1), UniformSigma(0.1, 1.0), n, 1, seed=1)
        s = draw_scenario(sc, 0)
        assert abs(s.mu_true.mean() - 3.0) < 3.0 / math.sqrt(n)

    def test_sparse_mix_zero_fraction(self):
        n = 50_000
        sc = SimScenario(SparseMixPrior(0.7, 3, 0.3), UniformSigma(0.1, 1.0), n, 1, seed=2)
        s = draw_scenario(sc, 0)
        frac = np.mean(s.mu_true == 0.0)
        assert abs(frac - 0.7) < 3 * math.sqrt(0.21 / n)

    def test_sigma_within_law_bounds(self):
        sc = SimScenario(NormalPrior(0, 1), UniformSigma(0.1, 0.9), 2000, 1, seed=3)
        s = draw_scenario(sc, 0)
        assert s.sigma.min() >= 0.1 and s.sigma.max() <= 0.9


class TestSelectionBiasFormula:
    def test_point_mass_hazard_at_zero(self):
        got = selection_bias_formula(0.0, 1.0, point_mass(0.0))
        assert got == pytest.approx(0.7978845608028654, rel=1e-12)

    def test_point_mass_hazard_scales_with_sigma(self):
        got = selection_bias_formula(0.0, 2.0, point_mass(0.0))
        assert got == pytest.approx(1.5957691216057308, rel=1e-12)

    def test_far_left_threshold_is_unbiased(self):
        assert selection_bias_formula(-40.0, 1.0, point_mass(0.0)) < 1e-200

    def test_zero_tail_mass(self):
        with pytest.raises(ZeroTailMass):
            selection_bias_formula(60.0, 1.0, point_mass(0.0))

    @pytest.mark.parametrize("prior", [point_mass(0.0), NormalPrior(0.0, 1.0)])
    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_monte_carlo_agreement(self, prior, t, sigma):
        rng = np.random.default_rng(12345)
        n = 200_000
        mu = prior.draw(rng, n)
        x = mu + sigma * rng.standard_normal(n)
        sel = x > t
        overshoot = (x - mu)[sel]
        se = overshoot.std(ddof=1) / math.sqrt(sel.sum())
        expect = selection_bias_formula(t, sigma, prior)
        assert abs(overshoot.mean() - expect) <= 3 * se

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_score_tail_identity(self, t):
        # conditional mean of f'/f over the selected tail equals the negative
        # hazard, which cancels the naive selection bias after scaling
        prior = NormalPrior(0.0, 1.0)
        sigma = 1.0
        rng = np.random.default_rng(777)
        n = 200_000
        mu = prior.draw(rng, n)
        x = mu + sigma * rng.standard_normal(n)
        sel = x > t
        scores = np.asarray(prior.marginal_score(x[sel], sigma))
        expect = -float(prior.marginal_pdf(t, sigma)) / float(prior.marginal_survival(t, sigma))
        se = scores.std(ddof=1) / math.sqrt(sel.sum())
        assert abs(scores.mean() - expect) <= 3 * se


class TestTfAverageShrinkage:
    def test_zero_at_center(self):
        assert tf_average_shrinkage(1.0, 1.0, 0.5, 1.0, 3.0, 0.7) == 0.0

    def test_single_group_recovers_conjugate_correction(self):
        got = tf_average_shrinkage(2.0, 1.0, 0.5, 1.0, 3.0, 1.0)
        assert got == pytest.approx((1.0 - 2.0) * 1.0 / 1.25, rel=1e-12)
        # p = 0: every point carries sigma2, so v^2 = tau^2 + sigma2^2
        got = tf_average_shrinkage(2.0, 1.0, 0.5, 1.0, 3.0, 0.0)
        assert got == pytest.approx((1.0 - 2.0) * 1.0 / (0.25 + 9.0), rel=1e-12)

    def test_equal_sigmas_ignore_weights(self):
        a = tf_average_shrinkage(2.5, 1.0, 0.5, 1.0, 1.0, 0.3)
        b = tf_average_shrinkage(2.5, 1.0, 0.5, 1.0, 1.0, 0.9)
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx((1.0 - 2.5) * 1.0 / 1.25, rel=1e-12)

    def test_matches_pooled_tf_score_on_large_sample(self):
        # the pooled KDE score on two-variance data approaches the analytic
        # mixture score; feed TF a dense sample and compare its shrinkage
        rng = np.random.default_rng(21)
        n = 40_000
        p, mu0, tau = 0.7, 1.0, 0.5
        grp1 = rng.random(n) < p
        sigma = np.where(grp1, 1.0, 3.0)
        x = mu0 + tau * rng.standard_normal(n) + sigma * rng.standard_normal(n)
        from nesteb.kernel import in_sample_triple, pooled_context

        for xq in (-1.0, 0.5, 2.0):
            f, f1, _ = in_sample_triple(pooled_context(x, 0.25), queries=([xq], [1.0]))
            got = float(f1[0] / f[0])  # TF shrinkage at sigma = 1
            expect = tf_average_shrinkage(xq, mu0, tau, 1.0, 3.0, p)
            assert got == pytest.approx(expect, abs=0.05 + 0.05 * abs(expect))


class TestRunMseStudy:
    def test_closed_form_rows_hit_theory(self):
        sc = scenario_from_ratio(NormalPrior(3, 1), 0.75, n=2000, reps=4, seed=31)
        table = run_mse_study(sc, [EstimatorSpec(Oracle(NormalPrior(3, 1))), EstimatorSpec(Naive())])
        naive = table.rows["naive"]
        # naive MSE is E[sigma^2] = var(mu)(1-r)/r = 1/3
        assert naive.mse == pytest.approx(1.0 / 3.0, abs=0.02)
        assert table.rows["oracle"].mse < naive.mse
        assert naive.se >= 0.0
        assert table.per_rep["naive"].shape == (4,)

    def test_thread_count_does_not_change_output(self):
        sc = scenario_from_ratio(NormalPrior(3, 1), 0.75, n=300, reps=3, seed=32)
        specs = [EstimatorSpec(Naive()), EstimatorSpec(Nest(Bandwidths(0.5, 0.2)))]
        a = run_mse_study(sc, specs, threads=1)
        b = run_mse_study(sc, specs, threads=2)
        for name in ("naive", "nest"):
            np.testing.assert_array_equal(a.per_rep[name], b.per_rep[name])

    def test_tuned_specs_and_duplicate_names_rejected(self):
        sc = scenario_from_ratio(NormalPrior(3, 1), 0.75, n=200, reps=2, seed=33)
        with pytest.raises(ValueError):
            run_mse_study(sc, [EstimatorSpec(Naive()), EstimatorSpec(Naive())])
        table = run_mse_study(sc, [EstimatorSpec(TF()), EstimatorSpec(Naive())])
        assert table.rows["tf"].mse < table.rows["naive"].mse * 1.5

    def test_table_specs_lineup(self):
        specs = table_specs(SparseMixPrior(0.7, 3, 0.3), n=1000, include_kgroups=(2,))
        names = [s.name for s in specs]
        assert names == ["oracle", "naive", "nest", "tf", "scaled", "2-groups"]
        by_name = {s.name: s for s in specs}
        assert by_name["nest"].stabilize_sign is True
        assert by_name["oracle"].stabilize_sign is False
        assert by_name["nest"].truncation_bound == pytest.approx(2 * math.log(1000))
        # point-mass-free priors leave stabilization off
        assert all(not s.stabilize_sign for s in table_specs(NormalPrior(3, 1), 1000))


class TestBiasExperiment:
    def test_small_run_shapes_and_determinism(self):
        res = run_bias_experiment("single-center", reps=2, select_k=5, seed=41, n=400, folds_k=5)
        assert set(res) == {"naive", "tf", "nest"}
        for r in res.values():
            assert r.diffs.shape == (2, 5)
        res2 = run_bias_experiment("single-center", reps=2, select_k=5, seed=41, n=400, folds_k=5)
        np.testing.assert_array_equal(res["nest"].diffs, res2["nest"].diffs)

    def test_fold_count_clamped_to_sample_size(self):
        # more folds than points: the TF and NEST tunes both cross-fit on n folds
        res = run_bias_experiment("single-center", reps=1, select_k=3, seed=0, n=8, folds_k=10)
        assert all(r.diffs.shape == (1, 3) for r in res.values())

    def test_threads_do_not_change_output(self):
        a = run_bias_experiment("single-center", reps=2, select_k=4, seed=42, n=300, folds_k=5)
        b = run_bias_experiment("single-center", reps=2, select_k=4, seed=42, n=300, folds_k=5, threads=2)
        np.testing.assert_array_equal(a["tf"].diffs, b["tf"].diffs)

    def test_naive_lower_tail_bias_is_negative(self):
        res = run_bias_experiment("single-center", reps=4, select_k=10, seed=43, n=800, folds_k=5)
        assert res["naive"].diffs.ravel().mean() < -0.3

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError):
            run_bias_experiment("three-center", reps=1, select_k=2, seed=1, n=50)
        with pytest.raises(EmptyMonteCarlo):
            run_bias_experiment("single-center", reps=0, select_k=2, seed=1, n=50)

    @pytest.mark.parametrize("select_k", [0, -1])
    def test_select_k_below_one_rejected(self, select_k):
        # argsort(x)[:-1] would keep every point but the largest
        with pytest.raises(ValueError, match="select_k must be >= 1"):
            run_bias_experiment("single-center", reps=1, select_k=select_k, seed=1, n=50)

    def test_select_k_above_n_rejected(self, monkeypatch):
        # argsort(x)[:k] would keep all n points; no replication may start
        monkeypatch.setattr(nesteb.simulation, "_bias_rep", None)
        with pytest.raises(ValueError, match="select_k must be <= n, got 31 > 30"):
            run_bias_experiment("single-center", reps=1, select_k=31, seed=1, n=30)


def kernel_threads_here(rep):
    return nesteb.kernel._THREADS


def slow_first_rep(rep):
    # rep 0 finishes last; returns (rep, finish time)
    time.sleep(0.5 if rep == 0 else 0.0)
    return rep, time.monotonic()


class TestRunIndexed:
    def test_pool_workers_share_the_kernel_threads(self, monkeypatch):
        # 4 CPUs over 2 worker processes: 2 kernel threads in each
        monkeypatch.setattr(nesteb.kernel, "_THREADS", 4)
        assert _map_reps(kernel_threads_here, 3, threads=2) == [2, 2, 2]
        assert _map_reps(kernel_threads_here, 3, threads=3) == [1, 1, 1]
        assert _map_reps(kernel_threads_here, 2, threads=8) == [2, 2]
        assert _map_reps(kernel_threads_here, 2, threads=1) == [4, 4]
        assert nesteb.kernel._THREADS == 4

    def test_pool_returns_results_in_rep_order(self):
        out = _map_reps(slow_first_rep, 3, threads=2)
        assert [rep for rep, _ in out] == [0, 1, 2]
        assert out[0][1] > max(t for _, t in out[1:])


class TestTwoComponentFit:
    def test_flags_separated_mixture(self):
        rng = np.random.default_rng(51)
        v = np.concatenate([rng.normal(0, 0.5, 600), rng.normal(5, 0.7, 400)])
        fit = fit_two_component(v)
        assert fit.bimodal
        assert fit.ashman_d > 2.0
        lo, hi = sorted((fit.m1, fit.m2))
        assert abs(lo - 0.0) < 0.3 and abs(hi - 5.0) < 0.3

    def test_unimodal_sample_not_flagged(self):
        rng = np.random.default_rng(52)
        fit = fit_two_component(rng.normal(1.0, 1.0, 1000))
        assert not fit.bimodal
