import math

import numpy as np
import pytest

import nesteb.kernel
from nesteb.data import Bandwidths, kfold_split, validate_sample
from nesteb.errors import AllCellsDegenerate, EmptyMonteCarlo, LengthMismatch, NonFiniteValue, NonPositiveSigma
from nesteb.estimators import nest_estimates
from nesteb.kernel import KernelContext, in_sample_triple
from nesteb.priors import NormalPrior
from nesteb.simulation import (
    SimScenario,
    TwoValueSigma,
    UniformSigma,
    draw_scenario,
    scenario_from_ratio,
    sure_unbiasedness_check,
)
from nesteb.sure import (
    SureGrid,
    _argmin_cell,
    _sure_values,
    default_grid,
    tune,
    tune_kgroups,
    tune_pooled,
    pooled_grid_for,
    unit_grid,
)

SQRT_2PI = math.sqrt(2 * math.pi)


def random_sample(n=60, seed=0):
    rng = np.random.default_rng(seed)
    return validate_sample(rng.normal(3.0, 1.0, n), rng.uniform(0.4, 1.6, n))


def compound_sure(sample, bw, k, seed):
    """S(h) at one bandwidth pair: the surface of a 1x1 grid, cross-fitted on
    kfold_split(n, k, seed)."""
    grid = SureGrid((bw.h_x,), (bw.h_sigma,), k=k, seed=seed)
    return tune(sample, grid, selection="argmin").surface[0, 0]


def per_fold_reference(sample, bw, fold_of):
    """Per-point SURE by the reference loop: one context per fold complement,
    its held-out points scored as queries."""
    out = np.empty(sample.n)
    for g in np.unique(fold_of):
        ctx = KernelContext(sample.subset(np.flatnonzero(fold_of != g)), bw)
        idx = np.flatnonzero(fold_of == g)
        f, f1, f2 = in_sample_triple(ctx, queries=(sample.x[idx], sample.sigma[idx]))
        out[idx] = _sure_values(f, f1, f2, sample.sigma[idx], 4)
    return out


class TestSurePoint:
    def test_standard_normal_plugin_at_mode(self):
        # analytic Gaussian shape: f=phi(0), f1=0, f2=-phi(0) -> bracket -2
        phi0 = 1.0 / SQRT_2PI
        assert _sure_values(phi0, 0.0, -phi0, 1.0, 4) == pytest.approx(-1.0, abs=1e-14)

    def test_standard_normal_plugin_at_sqrt2(self):
        x = math.sqrt(2.0)
        phix = math.exp(-x * x / 2) / SQRT_2PI
        assert _sure_values(phix, -x * phix, (x * x - 1) * phix, 1.0, 4) == pytest.approx(1.0, abs=1e-12)

    def test_flat_density_gives_noise_variance(self):
        assert _sure_values(0.25, 0.0, 0.0, 1.7, 4) == pytest.approx(1.7**2)

    def test_per_point_value_uses_training_density(self):
        train = validate_sample([1.0], [2.0])
        ctx = KernelContext(train, Bandwidths(0.5, 0.4))
        # single-kernel closed form at (0, 1): h = 1, f1/f = 1, f2/f = 0
        got = float(_sure_values(*in_sample_triple(ctx, queries=([0.0], [1.0])), 1.0, 4)[0])
        f = math.exp(-0.5) / SQRT_2PI
        f1 = f
        f2 = 0.0
        expect = 1.0 + (2 * f * f2 - f1 * f1) / f**2
        assert got == pytest.approx(expect, rel=1e-12)


class TestCompoundCv:
    def test_two_point_closed_form(self):
        # n=2, K=2: each point scored against the other alone
        s = validate_sample([0.0, 1.0], [1.0, 2.0])
        assert compound_sure(s, Bandwidths(0.5, 0.4), k=2, seed=123) == pytest.approx(132.0, rel=1e-12)

    def test_matches_per_fold_context_reference(self):
        s = random_sample(n=30, seed=1)
        fold_of = kfold_split(30, 5, seed=9)
        bw = Bandwidths(0.5, 0.3)
        total = per_fold_reference(s, bw, fold_of).sum()
        assert compound_sure(s, bw, k=5, seed=9) == pytest.approx(total, rel=1e-11)

    def test_deterministic(self):
        s = random_sample(n=40, seed=2)
        a = compound_sure(s, Bandwidths(0.4, 0.25), k=4, seed=5)
        b = compound_sure(s, Bandwidths(0.4, 0.25), k=4, seed=5)
        assert a == b

    def test_cv_hygiene_held_out_points_invisible(self):
        # moving x_i must not change the score of any point in i's own fold
        s = random_sample(n=24, seed=3)
        fold_of = kfold_split(24, 4, seed=1)
        bw = Bandwidths(0.5, 0.3)
        i = 7
        g = fold_of[i]
        x2 = s.x.copy()
        x2[i] += 5.0
        s2 = validate_sample(x2, s.sigma)

        a = per_fold_reference(s, bw, fold_of)
        b = per_fold_reference(s2, bw, fold_of)
        same_fold = np.flatnonzero(fold_of == g)
        untouched = same_fold[same_fold != i]
        np.testing.assert_array_equal(a[untouched], b[untouched])
        # and the compound path agrees with the reference on both samples
        assert compound_sure(s, bw, k=4, seed=1) == pytest.approx(a.sum(), rel=1e-11)
        assert compound_sure(s2, bw, k=4, seed=1) == pytest.approx(b.sum(), rel=1e-11)

    def test_degenerate_weights_propagate(self):
        s = validate_sample([0.0, 1.0], [1.0, 100.0])
        with pytest.raises(AllCellsDegenerate):
            compound_sure(s, Bandwidths(0.5, 0.001), k=2, seed=0)


class TestTune:
    def test_single_cell_grid(self):
        s = random_sample(n=25, seed=4)
        grid = SureGrid((0.5,), (0.3,), k=5, seed=11)
        rep = tune(s, grid)
        assert rep.argmin == Bandwidths(0.5, 0.3)
        ref = per_fold_reference(s, Bandwidths(0.5, 0.3), kfold_split(25, 5, seed=11))
        assert rep.surface[0, 0] == pytest.approx(ref.sum(), rel=1e-11)
        np.testing.assert_allclose(rep.per_point, ref, rtol=1e-11)
        assert rep.per_point.shape == (25,)
        assert rep.per_point.sum() == pytest.approx(rep.surface[0, 0])

    def test_tune_deterministic(self):
        s = random_sample(n=50, seed=5)
        grid = SureGrid((0.3, 0.6), (0.2, 0.4), k=5, seed=2)
        a = tune(s, grid)
        b = tune(s, grid)
        np.testing.assert_array_equal(a.surface, b.surface)
        assert a.argmin == b.argmin

    def test_argmin_minimizes_penalized_score(self):
        s = random_sample(n=80, seed=6)
        rep = tune(s, default_grid(s, seed=3))
        ok = np.where(rep.degenerate, np.inf, rep.selection)
        i = rep.h_x_values.index(rep.argmin.h_x)
        j = rep.h_sigma_values.index(rep.argmin.h_sigma)
        assert rep.selection[i, j] == ok.min()
        # the penalty is the standard error of the compound sum
        np.testing.assert_allclose(
            rep.selection - rep.surface,
            np.maximum(rep.selection - rep.surface, 0.0),
        )

    def test_plain_argmin_rule_minimizes_raw_surface(self):
        s = random_sample(n=60, seed=14)
        grid = SureGrid((0.3, 0.6, 0.9), (0.2, 0.4), k=5, seed=8)
        rep = tune(s, grid, selection="argmin")
        np.testing.assert_array_equal(rep.selection, rep.surface)
        i = rep.h_x_values.index(rep.argmin.h_x)
        j = rep.h_sigma_values.index(rep.argmin.h_sigma)
        assert rep.surface[i, j] == np.where(rep.degenerate, np.inf, rep.surface).min()
        with pytest.raises(ValueError):
            tune(s, grid, selection="bogus")

    def test_noisy_small_bandwidth_cells_not_selected(self):
        # at tiny bandwidths the criterion is unbiased but wildly dispersed;
        # the one-SE safeguard must keep such cells from winning on noise
        rng = np.random.default_rng(99)
        n = 800
        mu = np.where(rng.random(n) < 0.5, 0.0, 3.0)
        sigma = rng.uniform(0.1, 0.8, n)
        x = mu + sigma * rng.standard_normal(n)
        s = validate_sample(x, sigma)
        rep = tune(s, default_grid(s, seed=11))
        i = rep.h_x_values.index(rep.argmin.h_x)
        j = rep.h_sigma_values.index(rep.argmin.h_sigma)
        se = rep.selection - rep.surface
        assert se[i, j] <= 3.0 * np.median(se)

    def test_tie_break_smallest_h_sigma_then_h_x(self):
        surface = np.array([[5.0, 1.0], [1.0, 7.0]])
        degenerate = np.zeros((2, 2), dtype=bool)
        # ties at (0,1) and (1,0): smallest h_sigma wins -> column 0 -> (1,0)
        assert _argmin_cell(surface, degenerate) == (1, 0)
        # degenerate cells are excluded
        degenerate[1, 0] = True
        assert _argmin_cell(surface, degenerate) == (0, 1)

    def test_monotone_scores_select_smallest_h_x(self):
        # strictly increasing in h_x within each h_sigma column
        surface = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert _argmin_cell(surface, np.zeros((3, 2), dtype=bool)) == (0, 0)

    def test_all_cells_degenerate_raises(self):
        s = validate_sample([0.0, 1.0], [1.0, 100.0])
        grid = SureGrid((0.5,), (0.001,), k=2, seed=0)
        with pytest.raises(AllCellsDegenerate):
            tune(s, grid)

    def test_floored_cells_marked_degenerate(self):
        # widely separated x with a tiny h_x floors most held-out densities
        s = validate_sample([0.0, 1e6, 2e6, 3e6, 4e6, 5e6], np.ones(6))
        grid = SureGrid((0.001,), (0.5,), k=2, seed=1)
        with pytest.raises(AllCellsDegenerate):
            tune(s, grid)

    def test_non_finite_cells_marked_degenerate(self):
        # every squared difference with x = 1e200 overflows, so every cell's
        # score is NaN; no cell may be selected, by tune or by tune_pooled
        rng = np.random.default_rng(12)
        x = rng.normal(size=300)
        x[17] = 1e200
        s = validate_sample(x, rng.uniform(0.5, 2.0, 300))
        with pytest.raises(AllCellsDegenerate):
            tune(s, default_grid(s))
        with pytest.raises(AllCellsDegenerate):
            tune_pooled(x, s.sigma, (0.5, 1.0), kfold_split(300, 10, 0))

    def test_blocking_does_not_change_results(self, monkeypatch):
        # two h_sigma values: the per-h_sigma weight cache spans many blocks
        s = random_sample(n=40, seed=7)
        grid = SureGrid((0.4, 0.8), (0.3, 0.5), k=4, seed=6)
        full = tune(s, grid)
        monkeypatch.setattr(nesteb.kernel, "_BLOCK_ELEMS", 64)
        small = tune(s, grid)
        np.testing.assert_array_equal(full.surface, small.surface)
        np.testing.assert_array_equal(full.selection, small.selection)
        np.testing.assert_array_equal(full.per_point, small.per_point)

    def test_argmin_holds_python_floats(self):
        s = random_sample(n=40, seed=7)
        rep = tune(s, default_grid(s, k=4, seed=6))
        assert type(rep.argmin.h_x) is float
        assert type(rep.argmin.h_sigma) is float

    def test_grid_and_report_values_are_python_floats(self):
        s = random_sample(n=30, seed=7)
        grid = default_grid(s, k=3, seed=6)
        rep = tune(s, grid)
        values = (*unit_grid(), *pooled_grid_for(s.x), *grid.h_x_values, *grid.h_sigma_values,
                  *rep.h_x_values, *rep.h_sigma_values)
        assert all(type(v) is float for v in values)
        # the h_sigma axis is the pooled grid over sigma: 0.1..1.0 times sd(sigma)
        assert grid.h_sigma_values == pooled_grid_for(s.sigma)
        assert grid.h_sigma_values[-1] == float(np.std(s.sigma))

    def test_sure_selection_close_to_true_risk_optimum(self):
        # true-risk oracle: exhaustive search using the known means
        sc = scenario_from_ratio(NormalPrior(3.0, 1.0), 9.6 / 10.6, n=1000, reps=1, seed=42)
        s = draw_scenario(sc, 0)
        grid = default_grid(s, seed=7)
        rep = tune(s, grid)
        best = math.inf
        for hx in grid.h_x_values:
            for hs in grid.h_sigma_values:
                mu = nest_estimates(s, Bandwidths(hx, hs))
                best = min(best, float(np.mean((mu - s.mu_true) ** 2)))
        mu_sure = nest_estimates(s, rep.argmin)
        mse_sure = float(np.mean((mu_sure - s.mu_true) ** 2))
        assert mse_sure <= 1.10 * best


class TestTunePooled:
    def test_selects_from_grid_and_is_deterministic(self):
        s = random_sample(n=120, seed=8)
        fold_of = kfold_split(120, 10, seed=4)
        rep = tune_pooled(s.x, s.sigma, pooled_grid_for(s.x), fold_of)
        assert rep.best_h in rep.h_values
        rep2 = tune_pooled(s.x, s.sigma, pooled_grid_for(s.x), fold_of)
        assert rep.best_h == rep2.best_h
        np.testing.assert_array_equal(rep.surface, rep2.surface)

    def test_matches_nest_surface_on_unit_sigmas(self):
        # pooled machinery is the weighted KDE with all sigmas pinned to 1
        rng = np.random.default_rng(9)
        x = rng.normal(size=50)
        s_unit = validate_sample(x, np.ones(50))
        fold_of = kfold_split(50, 5, seed=3)
        pooled = tune_pooled(x, np.ones(50), (0.3, 0.6), fold_of)
        for idx, h in enumerate((0.3, 0.6)):
            ref = compound_sure(s_unit, Bandwidths(h, 1.0), k=5, seed=3)
            assert pooled.surface[idx] == pytest.approx(ref, rel=1e-12)

    def test_kgroups_tuner_returns_one_h_per_group(self):
        s = random_sample(n=90, seed=10)
        hs = tune_kgroups(s, 3, folds_k=5, seed=2)
        assert len(hs) == 3
        assert all(h > 0 for h in hs)

    @pytest.mark.parametrize(
        "nan_at, sigma_risk, error, index",
        [
            (None, [1.0], LengthMismatch, None),
            (None, np.full(50, -1.0), NonPositiveSigma, 0),
            (3, np.ones(50), NonFiniteValue, 3),
        ],
        ids=["short-sigma", "negative-sigma", "nan-x"],
    )
    def test_sample_validated(self, nan_at, sigma_risk, error, index):
        # a one-value sigma would broadcast, a negative one flips the risk
        # terms' sign, and a NaN x leaves every cell degenerate
        x = np.random.default_rng(9).normal(size=50)
        if nan_at is not None:
            x[nan_at] = np.nan
        with pytest.raises(error) as info:
            tune_pooled(x, sigma_risk, (0.3, 0.6, 0.9), kfold_split(50, 5, 0))
        if index is not None:
            assert info.value.index == index


class TestGridEdges:
    """on_edge: the argmin sits on the first or last value of its grid axis."""

    def zero_means(self):
        # every mean is zero: the density of x is smooth, so a bandwidth far
        # below its scale loses to the largest one offered
        rng = np.random.default_rng(1)
        sigma = rng.uniform(0.5, 1.5, 200)
        return validate_sample(sigma * rng.standard_normal(200), sigma)

    def test_nest_flags(self):
        s = self.zero_means()
        hs = default_grid(s).h_sigma_values
        fine = tune(s, SureGrid((0.1, 0.2, 0.3), hs, k=5, seed=0))
        assert fine.argmin.h_x == 0.3 and fine.on_edge[0]
        wide = tune(s, SureGrid((0.5, 0.7, 0.9), hs, k=5, seed=0))
        assert wide.argmin.h_x == 0.7 and not wide.on_edge[0]
        for rep in (fine, wide):
            assert rep.on_edge[1] == (rep.argmin.h_sigma in (hs[0], hs[-1]))
            assert all(type(flag) is bool for flag in rep.on_edge)

    def test_pooled_flag(self):
        s = self.zero_means()
        fold_of = kfold_split(s.n, 5, seed=0)
        rep = tune_pooled(s.x, s.sigma, pooled_grid_for(s.x), fold_of)
        assert rep.best_h == rep.h_values[-1] and rep.on_edge is True
        rep = tune_pooled(s.x, s.sigma, (0.1, 0.2, 0.3), fold_of)
        assert rep.best_h == 0.2 and rep.on_edge is False


class TestUnbiasedness:
    def test_empty_monte_carlo(self):
        with pytest.raises(EmptyMonteCarlo):
            sure_unbiasedness_check(
                NormalPrior(3, 1), UniformSigma(0.1, 1.0), Bandwidths(0.5, 0.2), 100, 0, 1
            )

    def test_mean_sure_matches_monte_carlo_risk(self):
        law = UniformSigma(0.1, 1.68)
        bw = Bandwidths(0.5, 0.3 * law.sd())
        res = sure_unbiasedness_check(NormalPrior(3, 1), law, bw, 500, 20000, seed=7)
        assert abs(res.mean_s - res.mc_risk) <= 3.0 * res.se

    def test_fixed_sigma_law(self):
        law = TwoValueSigma(1.0, 1.0, 1.0)
        res = sure_unbiasedness_check(NormalPrior(3, 1), law, Bandwidths(0.5, 0.3), 500, 20000, seed=3)
        assert abs(res.mean_s - res.mc_risk) <= 3.0 * res.se

    def test_se_shrinks_like_sqrt_two(self):
        # the sd of the pointwise gap is itself estimated, so allow slack
        law = TwoValueSigma(1.0, 1.0, 1.0)
        bw = Bandwidths(0.5, 0.3)
        a = sure_unbiasedness_check(NormalPrior(3, 1), law, bw, 300, 10000, seed=3)
        b = sure_unbiasedness_check(NormalPrior(3, 1), law, bw, 300, 20000, seed=3)
        assert b.se / a.se == pytest.approx(1 / math.sqrt(2), abs=0.08)

    def test_draws_scenario_reps_zero_and_one(self):
        # training set = rep 0 at n_train, Monte Carlo set = rep 1 at n_mc
        prior, law, bw = NormalPrior(3, 1), UniformSigma(0.1, 1.68), Bandwidths(0.5, 0.3)
        train = draw_scenario(SimScenario(prior, law, 200, 2, 11), 0)
        mc = draw_scenario(SimScenario(prior, law, 1000, 2, 11), 1)
        f, f1, f2 = in_sample_triple(KernelContext(train, bw), queries=(mc.x, mc.sigma))
        s_vals = _sure_values(f, f1, f2, mc.sigma, 4)
        sq_err = (mc.x + mc.sigma**2 * f1 / f - mc.mu_true) ** 2
        res = sure_unbiasedness_check(prior, law, bw, 200, 1000, seed=11)
        assert res.mean_s == float(s_vals.mean())
        assert res.mc_risk == float(sq_err.mean())
        assert res.se == float(np.std(s_vals - sq_err, ddof=1) / np.sqrt(1000))


class TestGridValidation:
    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            SureGrid((), (0.1,))
        with pytest.raises(ValueError):
            SureGrid((0.2, 0.1), (0.1,))
        with pytest.raises(ValueError):
            SureGrid((0.1,), (-0.1,))
        with pytest.raises(ValueError):
            SureGrid((0.1,), (0.1,), k=1)
        with pytest.raises(ValueError, match="finite"):
            SureGrid((0.1, math.inf), (0.1,))
        with pytest.raises(ValueError, match="finite"):
            SureGrid((0.1,), (math.nan,))

    def test_bandwidths_below_h_min_rejected(self):
        # below 2**-511, h^2 is subnormal and -0.5 / h^2 can overflow
        h_min = 2.0**-511
        below = float(np.nextafter(h_min, 0.0))
        SureGrid((h_min, 0.1), (h_min,))
        fold_of = kfold_split(3, 3, seed=0)
        assert tune_pooled([0.0, 1.0, 2.0], np.ones(3), (h_min, 1.0), fold_of).best_h == 1.0
        for grid in (((below, 0.1), (0.1,)), ((0.1,), (below,))):
            with pytest.raises(ValueError, match="finite"):
                SureGrid(*grid)
        with pytest.raises(ValueError, match="finite"):
            tune_pooled([0.0, 1.0, 2.0], np.ones(3), (below, 1.0), fold_of)

    def test_non_finite_pooled_grids_rejected(self):
        # sd overflows to inf near the float64 limit; an inf grid would run a
        # whole tune on NaN surfaces before anything noticed
        x = np.array([1.0, 1e308, 2.0])
        with pytest.raises(ValueError, match="sd = inf"):
            pooled_grid_for(x)
        fold_of = kfold_split(3, 3, seed=0)
        for bad in ((0.5, math.inf), (math.nan,)):
            with pytest.raises(ValueError, match="finite"):
                tune_pooled([0.0, 1.0, 2.0], np.ones(3), bad, fold_of)

    def test_default_grid_scales_with_sigma_spread(self):
        s = random_sample(n=50, seed=12)
        g = default_grid(s)
        assert g.h_sigma_values[-1] == pytest.approx(float(np.std(s.sigma)))
        assert g.h_x_values == tuple(np.round(np.arange(1, 11) * 0.1, 10))

    def test_default_grid_homoscedastic_fallback(self):
        s = validate_sample([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        g = default_grid(s)
        assert g.h_sigma_values[-1] == pytest.approx(1.0)
