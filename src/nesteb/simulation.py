"""Simulation designs, variance-ratio calibration, and every Monte Carlo
study: the check that mean SURE matches the realized risk, MSE studies with
standard errors, and the tail-selection bias experiment.

Scenario cells are anchored by the signal fraction ratio = var(mu)/var(X);
given a prior with variance V and sigma ~ U[0.1, sigma_M], the upper endpoint
sigma_M is solved from V = ratio * (V + E[sigma^2]).

Replications are independent and deterministic per (seed, rep): each one
derives its own PCG64 stream, and :func:`_map_reps` returns them in rep
order, so results are bit-identical whether reps run serially or in a
process pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Union

import numpy as np

from . import kernel
from .data import Bandwidths, HeteroSample, derive_seed, kfold_split
from .errors import EmptyMonteCarlo, NoFeasibleRoot, ZeroTailMass
from .estimators import (
    EstimatorSpec,
    KGroups,
    Naive,
    Nest,
    Oracle,
    Scaled,
    TF,
    check_unique_names,
    default_truncation_bound,
    estimate,
    post_processed,
)
from .priors import PriorSpec, SparseMixPrior, mixture_weight
from .sure import _sure_values, default_grid, fold_count, pooled_grid_for, tune, tune_kgroups, tune_pooled


# ---------------------------------------------------------------------------
# Sigma laws and scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformSigma:
    """sigma ~ U[lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi):
            raise ValueError(f"need 0 < lo < hi, got [{self.lo}, {self.hi}]")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)

    def mean_sq(self) -> float:
        return (self.lo**2 + self.lo * self.hi + self.hi**2) / 3.0

    def sd(self) -> float:
        return (self.hi - self.lo) / math.sqrt(12.0)


@dataclass(frozen=True)
class TwoValueSigma:
    """sigma = s1 with probability p1, else s2."""

    s1: float
    s2: float
    p1: float

    def __post_init__(self):
        if not (self.s1 > 0 and self.s2 > 0):
            raise ValueError("both sigma values must be positive")
        if not (0.0 <= self.p1 <= 1.0):
            raise ValueError("p1 must lie in [0, 1]")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.where(rng.random(n) < self.p1, self.s1, self.s2)


SigmaLaw = Union[UniformSigma, TwoValueSigma]

# Lower endpoint lo of the calibrated noise law sigma ~ U[lo, sigma_M].
SIGMA_LO = 0.1


def solve_sigma_M(prior: PriorSpec, ratio_target: float) -> float:
    """Upper endpoint of U[lo, sigma_M], lo = SIGMA_LO, so var(mu)/var(X) hits the target.

    var(X) = var(mu) + E[sigma^2] with E[sigma^2] = (lo^2 + lo*s + s^2)/3,
    so s solves s^2 + lo*s + lo^2 - 3*T = 0 with T = var(mu)(1-ratio)/ratio;
    the positive root must exceed lo.
    """
    if not (0.0 < ratio_target < 1.0):
        raise ValueError(f"ratio_target must lie in (0, 1), got {ratio_target}")
    target = prior.variance() * (1.0 - ratio_target) / ratio_target
    lo = SIGMA_LO
    disc = 12.0 * target - 3.0 * lo * lo
    if disc <= 0.0:
        raise NoFeasibleRoot(ratio_target, lo)
    root = 0.5 * (-lo + math.sqrt(disc))
    if root <= lo:
        raise NoFeasibleRoot(ratio_target, lo)
    return root


@dataclass(frozen=True)
class SimScenario:
    """Everything that determines a simulation cell."""

    prior: PriorSpec
    sigma_law: SigmaLaw
    n: int
    reps: int
    seed: int
    label: str = ""

    def __post_init__(self):
        if self.n < 1 or self.reps < 1:
            raise ValueError("need n >= 1 and reps >= 1")


def scenario_from_ratio(
    prior: PriorSpec,
    ratio_target: float,
    n: int,
    reps: int,
    seed: int,
    label: str = "",
) -> SimScenario:
    hi = solve_sigma_M(prior, ratio_target)
    return SimScenario(prior, UniformSigma(SIGMA_LO, hi), n, reps, seed, label)


def draw_scenario(scenario: SimScenario, rep: int) -> HeteroSample:
    """One replication's data; deterministic per (scenario.seed, rep)."""
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, rep]))
    mu = scenario.prior.draw(rng, scenario.n)
    sigma = scenario.sigma_law.draw(rng, scenario.n)
    x = mu + sigma * rng.standard_normal(scenario.n)
    return HeteroSample(x, sigma, mu)


# ---------------------------------------------------------------------------
# SURE unbiasedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnbiasednessCheck:
    mean_s: float
    mc_risk: float
    se: float


def sure_unbiasedness_check(
    prior: PriorSpec,
    sigma_law,
    bw: Bandwidths,
    n_train: int,
    n_mc: int,
    seed: int,
) -> UnbiasednessCheck:
    """Monte Carlo comparison of mean SURE against realized risk.

    The training set is rep 0 of the scenario (prior, sigma_law, n_train,
    seed) and the n_mc fresh (X, mu, sigma) triples are its rep 1; each
    triple gets S and the squared error of the plug-in rule built on the
    training set. The reported se is the standard error of the mean
    pointwise difference, so |mean_s - mc_risk| <= 3 se is the natural
    acceptance assertion.
    """
    if n_mc < 1:
        raise EmptyMonteCarlo()
    scenario = SimScenario(prior, sigma_law, n_train, 2, seed)
    train = draw_scenario(scenario, 0)
    mc = draw_scenario(replace(scenario, n=n_mc), 1)
    f, f1, f2 = kernel.in_sample_triple(kernel.KernelContext(train, bw), queries=(mc.x, mc.sigma))
    s_vals = _sure_values(f, f1, f2, mc.sigma, 4)
    delta = mc.x + mc.sigma**2 * f1 / f
    sq_err = (delta - mc.mu_true) ** 2
    se = float(np.std(s_vals - sq_err, ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else float("inf")
    return UnbiasednessCheck(float(s_vals.mean()), float(sq_err.mean()), se)


# ---------------------------------------------------------------------------
# MSE study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MseRow:
    mse: float
    se: float
    reps: int


@dataclass(frozen=True)
class MseTable:
    """Across-rep MSE summary per estimator, plus the raw per-rep values for
    paired comparisons."""

    scenario: str
    n: int
    rows: dict[str, MseRow]
    per_rep: dict[str, np.ndarray]

    def iter_rows(self):
        for name, row in self.rows.items():
            yield name, row


def _pooled_h(xd, sample: HeteroSample, folds_k: int, seed: int, bracket_power: int, selection: str) -> float:
    fold_of = kfold_split(sample.n, fold_count(sample.n, folds_k), seed)
    return tune_pooled(xd, sample.sigma, pooled_grid_for(xd), fold_of, bracket_power, selection).best_h


# Method type -> (the field SURE tuning fills in, its tuner(method, sample,
# folds_k, seed, selection)). The tuners look tune, tune_pooled and tune_kgroups
# up in this module at call time, so a wrapper installed here sees every call.
_TUNERS = {
    Nest: ("bw", lambda m, s, k, seed, sel: tune(s, default_grid(s, k=k, seed=seed), sel).argmin),
    TF: ("h", lambda m, s, k, seed, sel: _pooled_h(s.x, s, k, seed, 4, sel)),
    Scaled: ("h", lambda m, s, k, seed, sel: _pooled_h(Scaled.coordinates(s), s, k, seed, 2, sel)),
    KGroups: ("h_per_group", lambda m, s, k, seed, sel: tune_kgroups(s, m.k, k, seed, sel)),
}


def resolve_spec(
    spec: EstimatorSpec,
    sample: HeteroSample,
    folds_k: int = 10,
    seed: int = 0,
    selection: str = "penalized",
) -> EstimatorSpec:
    """Fill in any unresolved bandwidths by SURE tuning on this sample under ``selection``."""
    field, tuner = _TUNERS.get(type(spec.method), (None, None))
    if field is None or getattr(spec.method, field) is not None:
        return spec
    method = replace(spec.method, **{field: tuner(spec.method, sample, folds_k, seed, selection)})
    return replace(spec, method=method)


def _fits(specs, sample: HeteroSample, folds_k: int, seed: int, selection: str = "penalized"):
    """(name, estimates) per spec, its bandwidths SURE-tuned on this sample."""
    for spec in specs:
        yield spec.name, estimate(resolve_spec(spec, sample, folds_k, seed, selection), sample)


def _mse_rep(scenario: SimScenario, specs, folds_k: int, rep: int) -> dict[str, float]:
    sample = draw_scenario(scenario, rep)
    fits = _fits(specs, sample, folds_k, derive_seed(scenario.seed, rep, 1))
    return {name: float(np.mean((mu_hat - sample.mu_true) ** 2)) for name, mu_hat in fits}


def kernel_threads(threads: int, jobs: int) -> int:
    """Cap on the kernel threads of one density_grid call in each process
    that runs `jobs` jobs through _map_reps on `threads` worker processes:
    the CPUs shared out among the processes, so that they do not
    oversubscribe them. A call uses fewer when it needs fewer row blocks."""
    processes = min(threads, jobs)
    return kernel._THREADS if processes <= 1 else max(1, kernel._THREADS // processes)


def _set_kernel_threads(count: int) -> None:
    kernel._THREADS = count


def _map_reps(rep_fn, reps: int, threads: int) -> list:
    """[rep_fn(0), ..., rep_fn(reps - 1)], possibly run in a process pool;
    map returns results in rep order, so output never depends on scheduling."""
    if threads <= 1 or reps <= 1:
        return [rep_fn(rep) for rep in range(reps)]
    # imported here, so that `import nesteb.cli` loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    count = kernel_threads(threads, reps)
    with ProcessPoolExecutor(min(threads, reps), initializer=_set_kernel_threads, initargs=(count,)) as pool:
        return list(pool.map(rep_fn, range(reps)))


def run_mse_study(
    scenario: SimScenario,
    specs: list[EstimatorSpec],
    folds_k: int = 10,
    threads: int = 1,
) -> MseTable:
    """Draw reps, tune kernel estimators per rep, and aggregate MSE with the
    standard error of the across-rep mean."""
    names = [s.name for s in specs]
    check_unique_names(names)
    per_rep_dicts = _map_reps(partial(_mse_rep, scenario, tuple(specs), folds_k), scenario.reps, threads)
    per_rep = {name: np.array([d[name] for d in per_rep_dicts]) for name in names}
    rows = {}
    for name in names:
        vals = per_rep[name]
        se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        rows[name] = MseRow(float(vals.mean()), se, scenario.reps)
    return MseTable(scenario.label, scenario.n, rows, per_rep)


def study_spec(method, prior: PriorSpec, n: int) -> EstimatorSpec:
    """The studies' post-processing: NEST is truncated at 2 log n, every
    shrinkage rule is sign-stabilized exactly for a SparseMixPrior (not for a
    TwoPointPrior, even at zero); oracle and naive rules stay unmodified."""
    bound = default_truncation_bound(n) if isinstance(method, Nest) else None
    return post_processed(method, bound, isinstance(prior, SparseMixPrior))


def table_specs(prior: PriorSpec, n: int, include_kgroups: tuple[int, ...] = ()) -> list[EstimatorSpec]:
    """The standard estimator lineup for one table cell."""
    methods = [Oracle(prior), Naive(), Nest(), TF(), Scaled(), *(KGroups(k) for k in include_kgroups)]
    return [study_spec(m, prior, n) for m in methods]


# ---------------------------------------------------------------------------
# Selection bias
# ---------------------------------------------------------------------------


def selection_bias_formula(t: float, sigma: float, prior: PriorSpec) -> float:
    """Expected overshoot E(X - mu | X > t, sigma): sigma^2 times the marginal
    hazard f_sigma(t) / (1 - F_sigma(t))."""
    surv = float(prior.marginal_survival(t, sigma))
    if surv <= 0.0:
        raise ZeroTailMass(t)
    return sigma * sigma * float(prior.marginal_pdf(t, sigma)) / surv


def tf_average_shrinkage(
    x: float, mu0: float, tau: float, sigma1: float, sigma2: float, p: float
) -> float:
    """Analytic pooled-Tweedie shrinkage on two-variance Gaussian data.

    For X drawn around a single center mu0 with tau^2 prior variance and
    group noise sigma_g in {sigma1, sigma2} (first group has probability p),
    the pooled score mixes the two group precisions:

        shrink(x) = (mu0 - x) * sigma1^2 * [ w/v1^2 + (1-w)/v2^2 ],
        v_g^2 = tau^2 + sigma_g^2,
        w = p phi_{v1}(x - mu0) / [p phi_{v1}(x - mu0) + (1-p) phi_{v2}(x - mu0)].

    The sigma1^2 factor means the returned value is the shrinkage TF applies
    to a point carrying the first group's noise level; swap the arguments to
    read off the second group's version.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    v1s = tau * tau + sigma1 * sigma1
    v2s = tau * tau + sigma2 * sigma2
    w = float(mixture_weight(x, p, mu0, math.sqrt(v1s), 1.0 - p, mu0, math.sqrt(v2s)))
    return (mu0 - x) * sigma1 * sigma1 * (w / v1s + (1.0 - w) / v2s)


@dataclass(frozen=True)
class BiasExperimentResult:
    """Differences mu_hat - mu for the selected extremes, one row per rep."""

    diffs: np.ndarray  # shape (reps, select_k)


_BIAS_SETTINGS = ("single-center", "two-center")
_BIAS_SPECS = (EstimatorSpec(Naive()), EstimatorSpec(TF()), EstimatorSpec(Nest(jackknife=True)))


def _bias_rep(setting: str, n: int, select_k: int, folds_k: int, seed: int, specs, rep: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
    sigma = TwoValueSigma(3.0, 1.0, 0.3).draw(rng, n)
    if setting == "single-center":
        mu = 1.0 + 0.5 * rng.standard_normal(n)
    else:
        # centers linked to the noise groups: narrow group at 0, wide at 5
        mu = np.where(sigma == 3.0, 5.0, 0.0) + 0.5 * rng.standard_normal(n)
    x = mu + sigma * rng.standard_normal(n)
    sample = HeteroSample(x, sigma, mu)
    sel = np.argsort(x, kind="stable")[:select_k]
    fits = _fits(specs, sample, folds_k, derive_seed(seed, rep, 2), "argmin")
    return {name: mu_hat[sel] - mu[sel] for name, mu_hat in fits}


def run_bias_experiment(
    setting: str,
    reps: int = 200,
    select_k: int = 20,
    seed: int = 0,
    n: int = 5000,
    folds_k: int = 10,
    threads: int = 1,
    specs: tuple[EstimatorSpec, ...] = _BIAS_SPECS,
) -> dict[str, BiasExperimentResult]:
    """Repeatedly select the smallest observations and record mu_hat - mu for
    each spec, keyed by its name (default: naive, TF and jackknifed NEST).

    Each rep keeps its own draw, not draw_scenario's: it draws sigma's groups
    before mu, which depends on the group in the two-center setting. The tail
    diagnostic SURE-tunes each rep by the plain argmin, and NEST's jackknifed
    fit leaves each point out of its own density: at the selected extremes the
    point's own kernel otherwise dominates the sparse local density and mutes
    the correction. The compound-MSE studies keep the safeguarded selection
    and the full fit."""
    if setting not in _BIAS_SETTINGS:
        raise ValueError(f"setting must be one of {_BIAS_SETTINGS}, got {setting!r}")
    if reps < 1:
        raise EmptyMonteCarlo()
    if select_k < 1:
        raise ValueError(f"select_k must be >= 1, got {select_k}")
    if select_k > n:
        raise ValueError(f"select_k must be <= n, got {select_k} > {n}")
    names = [s.name for s in specs]
    check_unique_names(names)
    payloads = _map_reps(partial(_bias_rep, setting, n, select_k, folds_k, seed, tuple(specs)), reps, threads)
    return {name: BiasExperimentResult(np.stack([p[name] for p in payloads])) for name in names}
