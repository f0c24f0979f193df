"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two profiles, selected by the NESTEB_ACCEPTANCE environment variable:

  smoke (default)  CI-scale stand-ins for the heavy table cells: criterion 2
                   runs n=1000/reps=10 and checks NEST lands within 25% of
                   the oracle MSE; criterion 3 checks the paired ordering at
                   n=1000/reps=15; criterion 6 runs 50 replications and
                   checks sign and centering only.
  full             paper-scale runs (n=5000, reps=50 for the table cells;
                   200 replications plus the two-center shape checks for the
                   selection experiment). Expect on the order of an hour.

Run with `pytest -rA tests/test_acceptance.py` to see the per-criterion
lines for passing tests too.
"""

import math
import os

import numpy as np
import pytest
from scipy.stats import t as t_dist

from nesteb.cli import build_parser
from nesteb.data import Bandwidths, validate_sample
from nesteb.estimators import (
    EstimatorSpec,
    Naive,
    Nest,
    Oracle,
    Scaled,
    TF,
    default_truncation_bound,
    estimate,
    truncate_estimates,
)
from nesteb.expfam import FamilyPoint, Gamma, Binomial, gamma_point_mass_lf1, posterior_mean
from nesteb.io import read_csv, write_csv_atomic
from nesteb.kernel import KernelContext, in_sample_triple
from nesteb.priors import NormalPrior, TwoPointPrior
from nesteb.simulation import (
    UniformSigma,
    run_bias_experiment,
    run_mse_study,
    scenario_from_ratio,
    selection_bias_formula,
)
from nesteb.simulation import sure_unbiasedness_check
from twocomponent import fit_two_component

FULL = os.environ.get("NESTEB_ACCEPTANCE", "smoke").lower() == "full"
THREADS = min(2, os.cpu_count() or 1)

NORMAL_PRIOR = NormalPrior(3.0, 1.0)
TWOPOINT_PRIOR = TwoPointPrior(0.5, 0.0, 3.0)
POINT_MASS = TwoPointPrior(1.0, 0.0, 0.0)  # all prior mass at 0
RATIO_96 = 9.6 / 10.6  # var(mu)/var(X) anchor for the 9.6x noise-ratio cell
RATIO_92 = 9.2 / 10.2


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def paired_one_sided_p(smaller: np.ndarray, larger: np.ndarray) -> float:
    d = larger - smaller
    t = d.mean() / (d.std(ddof=1) / math.sqrt(len(d)))
    return float(1.0 - t_dist.cdf(t, len(d) - 1))


def test_criterion_1_oracle_and_naive_cells():
    sc = scenario_from_ratio(NORMAL_PRIOR, RATIO_96, n=5000, reps=50, seed=101, label="normal-9.6")
    table = run_mse_study(sc, [EstimatorSpec(Oracle(NORMAL_PRIOR)), EstimatorSpec(Naive())])
    o, nv = table.rows["oracle"].mse, table.rows["naive"].mse
    ok = abs(o - 0.090) <= 0.004 and abs(nv - 0.103) <= 0.004
    report("criterion-1", ok, f"oracle MSE {o:.4f} (target 0.090±0.004), naive {nv:.4f} (0.103±0.004)")


def test_criterion_2_nest_cell():
    if FULL:
        sc = scenario_from_ratio(NORMAL_PRIOR, RATIO_96, n=5000, reps=50, seed=102, label="normal-9.6")
        specs = [EstimatorSpec(Nest(), truncation_bound=default_truncation_bound(5000))]
        table = run_mse_study(sc, specs, threads=THREADS)
        nest = table.rows["nest"].mse
        ok = 0.088 <= nest <= 0.097
        report("criterion-2", ok, f"full profile: NEST MSE {nest:.4f} in [0.088, 0.097]")
    else:
        sc = scenario_from_ratio(NORMAL_PRIOR, RATIO_96, n=1000, reps=10, seed=102, label="normal-9.6-smoke")
        specs = [
            EstimatorSpec(Oracle(NORMAL_PRIOR)),
            EstimatorSpec(Nest(), truncation_bound=default_truncation_bound(1000)),
        ]
        table = run_mse_study(sc, specs, threads=THREADS)
        o, nest = table.rows["oracle"].mse, table.rows["nest"].mse
        rel = (nest - o) / o
        ok = abs(rel) <= 0.25
        report("criterion-2", ok, f"smoke proxy: NEST {nest:.4f} vs oracle {o:.4f} ({rel:+.1%}, limit 25%)")


def test_criterion_3_twopoint_ordering():
    n, reps = (5000, 50) if FULL else (1000, 15)
    sc = scenario_from_ratio(TWOPOINT_PRIOR, RATIO_92, n=n, reps=reps, seed=103, label="twopoint-9.2")
    specs = [
        EstimatorSpec(Naive()),
        EstimatorSpec(Nest(), truncation_bound=default_truncation_bound(n)),
        EstimatorSpec(TF()),
        EstimatorSpec(Scaled()),
    ]
    table = run_mse_study(sc, specs, threads=THREADS)
    mse = {k: table.rows[k].mse for k in ("nest", "tf", "scaled", "naive")}
    ps = {
        "nest<tf": paired_one_sided_p(table.per_rep["nest"], table.per_rep["tf"]),
        "tf<scaled": paired_one_sided_p(table.per_rep["tf"], table.per_rep["scaled"]),
        "scaled<naive": paired_one_sided_p(table.per_rep["scaled"], table.per_rep["naive"]),
    }
    ok = all(p < 0.05 for p in ps.values())
    detail = (
        f"MSE nest {mse['nest']:.4f} < tf {mse['tf']:.4f} < scaled {mse['scaled']:.4f} "
        f"< naive {mse['naive']:.4f}; paired p-values {({k: f'{v:.1e}' for k, v in ps.items()})}"
    )
    if FULL:
        ok = ok and 0.042 <= mse["nest"] <= 0.056
        detail += f"; NEST in [0.042, 0.056]"
    report("criterion-3", ok, detail)


def test_criterion_4_sure_unbiasedness():
    law = UniformSigma(0.1, 1.68)
    bw = Bandwidths(0.5, 0.3 * law.sd())
    res = sure_unbiasedness_check(NORMAL_PRIOR, law, bw, n_train=500, n_mc=20000, seed=104)
    gap = abs(res.mean_s - res.mc_risk)
    ok = gap <= 3.0 * res.se
    report(
        "criterion-4",
        ok,
        f"mean SURE {res.mean_s:.4f} vs MC risk {res.mc_risk:.4f}, gap {gap:.4f} <= 3se {3*res.se:.4f}",
    )


def test_criterion_5_selection_bias_formula():
    rng = np.random.default_rng(105)
    cases = [
        (POINT_MASS, 1.0, 0.003),
        (POINT_MASS, 2.0, 0.006),
        (NormalPrior(0.0, 1.0), 1.0, 0.004),
    ]
    details, ok = [], True
    for prior, sigma, tol in cases:
        n = 10**6
        mu = prior.draw(rng, n)
        x = mu + sigma * rng.standard_normal(n)
        emp = float((x - mu)[x > 0].mean())
        form = selection_bias_formula(0.0, sigma, prior)
        good = abs(emp - form) <= tol
        ok = ok and good
        details.append(f"{type(prior).__name__} s={sigma}: emp {emp:.5f} vs {form:.5f} (tol {tol})")
    assert abs(selection_bias_formula(0.0, 1.0, POINT_MASS) - 0.7978845608) < 1e-9
    report("criterion-5", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_6_bias_experiment():
    reps = 200 if FULL else 50
    # each run tunes only the rules its check reads
    res = run_bias_experiment("single-center", reps=reps, select_k=20, seed=2026, n=5000, threads=THREADS,
                              specs=(EstimatorSpec(Naive()), EstimatorSpec(Nest(jackknife=True))))
    naive_mean = float(res["naive"].diffs.ravel().mean())
    nest_rep_means = res["nest"].diffs.mean(axis=1)
    nest_mean = float(nest_rep_means.mean())
    se = float(nest_rep_means.std(ddof=1) / math.sqrt(reps))
    ok = naive_mean < -0.3 and abs(nest_mean) <= 3.0 * se
    detail = f"naive mean {naive_mean:.3f} < -0.3; NEST mean {nest_mean:.3f} within 3se {3*se:.3f}"
    if FULL:
        res2 = run_bias_experiment("two-center", reps=reps, select_k=20, seed=2027, n=5000, threads=THREADS,
                                   specs=(EstimatorSpec(TF()), EstimatorSpec(Nest(jackknife=True))))
        tf_fit = fit_two_component(res2["tf"].diffs.ravel())
        nest_fit = fit_two_component(res2["nest"].diffs.ravel())
        ok = ok and tf_fit.bimodal and not nest_fit.bimodal
        detail += (
            f"; two-center TF bimodal (D={tf_fit.ashman_d:.2f}), "
            f"NEST unimodal (D={nest_fit.ashman_d:.2f})"
        )
    report("criterion-6", ok, detail)


def test_criterion_7_property_suite(tmp_path):
    from scipy.integrate import quad

    checks = {}
    rng = np.random.default_rng(107)

    # kernel normalization within 1e-6
    s = validate_sample(rng.normal(size=8), rng.uniform(0.5, 1.5, 8))
    ctx = KernelContext(s, Bandwidths(0.8, 0.4))

    def triple_at(x):
        return tuple(float(v[0]) for v in in_sample_triple(ctx, queries=([x], [1.0])))

    span = 10 * 0.8 * s.sigma.max()
    total, _ = quad(lambda x: triple_at(x)[0], s.x.min() - span, s.x.max() + span, limit=400)
    checks["normalization"] = abs(total - 1.0) < 1e-6

    # derivative consistency within 1e-4 relative
    delta = 1e-5 * 0.8 * s.sigma.min()
    up, dn, mid = (triple_at(0.4 + d) for d in (delta, -delta, 0.0))
    fd1 = (up[0] - dn[0]) / (2 * delta)
    fd2 = (up[1] - dn[1]) / (2 * delta)
    checks["derivatives"] = (
        abs(fd1 - mid[1]) / max(abs(mid[1]), 1e-3) < 1e-4
        and abs(fd2 - mid[2]) / max(abs(mid[2]), 1e-3) < 1e-4
    )

    # homoscedastic NEST == TF within 1e-10
    xs = rng.normal(size=150)
    hom = validate_sample(xs, np.full(150, 0.9))
    checks["homoscedastic"] = bool(
        np.max(np.abs(Nest(Bandwidths(0.5, 0.3)).apply(hom) - TF(0.45).apply(hom))) < 1e-10
    )

    # shift equivariance within 1e-10
    het = validate_sample(rng.normal(size=80), rng.uniform(0.5, 1.5, 80))
    shifted = validate_sample(het.x + 20.0, het.sigma)
    a = Nest(Bandwidths(0.5, 0.3)).apply(het)
    b = Nest(Bandwidths(0.5, 0.3)).apply(shifted)
    checks["shift-equivariance"] = bool(np.max(np.abs(b - (a + 20.0))) < 1e-10)

    # truncation dominance, exact
    bound = 3.0
    mu = rng.uniform(-bound, bound, 400)
    delta_hat = mu + rng.normal(scale=4.0, size=400)
    clipped = truncate_estimates(delta_hat, bound)
    checks["truncation-dominance"] = bool(np.all((clipped - mu) ** 2 <= (delta_hat - mu) ** 2))

    # Binomial carrier-term symmetry
    checks["binomial-symmetry"] = all(
        FamilyPoint(Binomial(7), x).carrier == pytest.approx(FamilyPoint(Binomial(7), 7 - x).carrier)
        for x in range(8)
    )

    # Gamma point-mass-prior recovery to 1e-12
    checks["gamma-recovery"] = all(
        abs(posterior_mean(FamilyPoint(Gamma(2.0), x), gamma_point_mass_lf1(2.0, 0.8, x)) - 0.8) < 1e-12
        for x in (0.3, 1.0, 5.0)
    )

    # CSV round-trip identity
    vals = [1 / 3, 1e-300, math.pi, -0.0, 2.5e300]
    path = tmp_path / "roundtrip.csv"
    write_csv_atomic(str(path), ["v"], ((v,) for v in vals))
    (back,) = read_csv(str(path), {"v": float})
    checks["csv-roundtrip"] = back == vals

    # determinism under fixed seeds, independent of worker count
    sc = scenario_from_ratio(NORMAL_PRIOR, 0.75, n=200, reps=2, seed=42, label="det")
    t1 = run_mse_study(sc, [EstimatorSpec(Nest(Bandwidths(0.5, 0.2)))], threads=1)
    t2 = run_mse_study(sc, [EstimatorSpec(Nest(Bandwidths(0.5, 0.2)))], threads=2)
    checks["thread-determinism"] = bool(np.array_equal(t1.per_rep["nest"], t2.per_rep["nest"]))

    ok = all(checks.values())
    report("criterion-7", ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))


def test_criterion_8_full_profile_documented():
    parser = build_parser()
    args = parser.parse_args(["simulate", "--scenario", "normal", "--full", "--output", "x.csv"])
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    ok = args.full and "--full" in readme and "NESTEB_ACCEPTANCE" in readme
    report("criterion-8", ok, "overnight --full profile and acceptance profiles documented")
