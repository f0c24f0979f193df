"""Property tests of estimate() at fixed bandwidths: equivariances of the
Tweedie rules, and the stated refusal rule on hostile inputs; of the
kernel's truncation rule on hostile inputs; of the tuned pipeline:
power-of-two scale invariance of the SURE tuners and of the estimates at
the bandwidths they pick; and of the CLI's exit contract: `nesteb
estimate` and `nesteb tune` on hostile CSVs, `simulate`, `bias` and
`expfam` on hostile options and `prep-gap` on hostile count files."""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nesteb.sure
from nesteb.cli import main
from nesteb.data import SIGMA_MAX, SIGMA_MIN, X_MAX, Bandwidths, kfold_split, validate_sample
from nesteb.errors import NestError
from nesteb.estimators import TF, EstimatorSpec, KGroups, Nest, Scaled, estimate
from nesteb.kernel import FLOOR, density_grid
from nesteb.sure import default_grid, pooled_grid_for, tune, tune_kgroups, tune_pooled

# derandomized and without an example database: the same examples every run
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# moderate samples: every in-sample density sits far above the 1e-12 floor,
# which would otherwise break scale equivariance (f scales like 1/c)
sizes = st.integers(2, 40)
moderate_x = st.floats(-5.0, 5.0)
moderate_sigma = st.floats(0.5, 2.0)
bandwidth = st.floats(0.2, 1.0)


@st.composite
def moderate_samples(draw):
    n = draw(sizes)
    x = draw(st.lists(moderate_x, min_size=n, max_size=n))
    sigma = draw(st.lists(moderate_sigma, min_size=n, max_size=n))
    return np.array(x), np.array(sigma)


def rule(name, h_x, h_sigma, c=1.0):
    """The named rule at fixed bandwidths, with every bandwidth in x units
    scaled by c: h_sigma for NEST (h_x multiplies each sigma), h for TF;
    the scaled rule works in z = x/sigma, which c leaves unchanged."""
    return {
        "nest": Nest(Bandwidths(h_x, c * h_sigma)),
        "tf": TF(c * h_x),
        "scaled": Scaled(h_x),
    }[name]


def fit(method, x, sigma):
    return estimate(EstimatorSpec(method), validate_sample(x, sigma))


@pytest.mark.parametrize("name", ["nest", "tf", "scaled"])
@PROPERTY
@given(data=moderate_samples(), h_x=bandwidth, h_sigma=bandwidth, c=st.floats(1e-2, 1e2))
def test_scale_equivariance(name, data, h_x, h_sigma, c):
    x, sigma = data
    base = fit(rule(name, h_x, h_sigma), x, sigma)
    scaled = fit(rule(name, h_x, h_sigma, c), c * x, c * sigma)
    np.testing.assert_allclose(scaled, c * base, rtol=1e-9, atol=1e-9 * c)


@PROPERTY
@given(data=moderate_samples(), h_x=bandwidth, h_sigma=bandwidth, shift=st.floats(-100.0, 100.0))
def test_nest_translation_equivariance(data, h_x, h_sigma, shift):
    x, sigma = data
    method = Nest(Bandwidths(h_x, h_sigma))
    moved = fit(method, x + shift, sigma)
    # x + shift rounds at the ulp of |shift|, and the score magnifies it by
    # up to 1/(h_x sigma)^2
    np.testing.assert_allclose(moved, fit(method, x, sigma) + shift, rtol=0, atol=1e-11 * (1 + abs(shift)))


@PROPERTY
@given(data=moderate_samples(), h_x=bandwidth, h_sigma=bandwidth, seed=st.integers(0, 2**32 - 1))
def test_nest_permutation_equivariance(data, h_x, h_sigma, seed):
    x, sigma = data
    perm = np.random.default_rng(seed).permutation(x.size)
    method = Nest(Bandwidths(h_x, h_sigma))
    # the kernel's order rule: the same sums in the same order, bitwise;
    # duplicate points carry identical terms without keys
    assert fit(method, x[perm], sigma[perm]).tobytes() == fit(method, x, sigma)[perm].tobytes()


@st.composite
def distinct_samples(draw):
    """Moderate samples with no repeated (x, sigma) pair."""
    pairs = draw(st.lists(st.tuples(moderate_x, moderate_sigma), min_size=2, max_size=40, unique=True))
    x, sigma = zip(*pairs)
    return np.array(x), np.array(sigma)


@pytest.mark.parametrize("name", ["tf", "scaled", "nest-jackknife"])
@PROPERTY
@given(data=distinct_samples(), h_x=bandwidth, h_sigma=bandwidth, seed=st.integers(0, 2**32 - 1))
def test_permutation_equivariance_is_bitwise(name, data, h_x, h_sigma, seed):
    # under jackknife keys an exact duplicate's masked zero may land in
    # another slot of the sum, so the points are distinct
    x, sigma = data
    perm = np.random.default_rng(seed).permutation(x.size)
    method = Nest(Bandwidths(h_x, h_sigma), jackknife=True) if name == "nest-jackknife" else rule(name, h_x, h_sigma)
    assert fit(method, x[perm], sigma[perm]).tobytes() == fit(method, x, sigma)[perm].tobytes()


@st.composite
def hostile_samples(draw):
    """Up to 40 points drawn from a pool of at most 5 (x, sigma) pairs, so
    duplicates are common; sigma and |x| reach the input domain's edges,
    2^-64..2^64 and 2^128."""
    pool = draw(st.lists(
        st.tuples(st.one_of(st.floats(-10.0, 10.0), st.floats(-X_MAX, X_MAX)),
                  st.one_of(st.floats(1e-3, 1e3), st.floats(SIGMA_MIN, SIGMA_MAX))),
        min_size=1, max_size=5,
    ))
    picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=40))
    x, sigma = zip(*picks)
    return np.array(x), np.array(sigma)


hostile_methods = st.one_of(
    st.builds(lambda hx, hs, jk: Nest(Bandwidths(hx, hs), jackknife=jk),
              st.floats(0.1, 1.0), st.floats(1e-2, 10.0), st.booleans()),
    st.builds(TF, st.floats(1e-3, 1e3)),
    st.builds(Scaled, st.floats(1e-2, 10.0)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=hostile_samples(), method=hostile_methods)
# E dx / sigma^3 was 0 * inf against the outlier, and f1 NaN: now refused,
# as x = 1e300 is outside the input domain
@example(data=(np.array([1.0, 1e300, 2.0]), np.array([1.0, 1e-3, 1.0])), method=Nest(Bandwidths(0.5, 0.5)))
# at the domain's edges dx / sigma^3 = 2^320 beside E = 0: the term adds 0
@example(data=(np.array([1.0, X_MAX, 2.0]), np.array([1.0, SIGMA_MIN, 1.0])), method=Nest(Bandwidths(0.5, 0.5)))
def test_hostile_inputs_give_finite_estimates_or_refuse(data, method):
    # a NumPy RuntimeWarning fails this test too (pyproject filterwarnings)
    x, sigma = data
    try:
        mu = fit(method, x, sigma)
    except NestError:
        return
    assert np.isfinite(mu).all()


@PROPERTY
@given(data=hostile_samples(), hxs=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3),
       hss=st.lists(st.floats(1e-2, 10.0), min_size=1, max_size=2), keyed=st.booleans())
def test_a_far_query_changes_no_other_row(data, hxs, hss, keyed):
    # the kernel's truncation rule: a query far from every training point
    # turns the cutoff passes on for every h_x, and on a row where they
    # were skipped every exponent is above -660, where they change no bit
    x, sigma = data
    key = np.arange(x.size) if keyed else None
    far = 2 * np.abs(x).max() + 40 * sigma.max() * max(hxs)
    base = density_grid(x, sigma, x, sigma, hxs, hss, key, key)
    got = density_grid(np.append(x, far), np.append(sigma, sigma[0]), x, sigma, hxs, hss,
                       None if key is None else np.append(key, -1), key)
    assert [a[..., :-1].tobytes() for a in got] == [a.tobytes() for a in base]


# Under (2^k x, 2^k sigma) every kernel step scales exactly, barring
# subnormals: np.std does, so both grids' data-relative axes do, and
# u = dx / (h_x sigma_j) is unchanged. So f, f1 and f2 scale by 2^-k, 4^-k
# and 8^-k, every SURE value by 4^k, and the Tweedie estimates by 2^k. The
# one exception is the absolute density floor FLOOR: a point can sit under
# it at one scale and not at the other. Surfaces are therefore compared on
# the cells with no floored point at either scale, and the tuners' picks
# wherever their degenerate masks agree.
TUNED = settings(max_examples=40, deadline=None, derandomize=True, database=None)
powers = st.integers(-8, 8)
FOLDS = 5


@st.composite
def tuning_samples(draw):
    """20 to 60 points: x = 2 N(0, 1), then sigma ~ U[0.3, 2] or sigma = 3
    with probability 0.3, else 1 (criterion 6's two-value design)."""
    n = draw(st.integers(20, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 2.0 * rng.normal(size=n)
    sigma = rng.uniform(0.3, 2.0, n) if draw(st.booleans()) else np.where(rng.random(n) < 0.3, 3.0, 1.0)
    return x, sigma


def floored_cells(xd, sd, hx, hs):
    """Cells of the SURE grid with a fold-complement density under FLOOR."""
    fold_of = kfold_split(xd.size, FOLDS, 0)
    return (density_grid(xd, sd, xd, sd, hx, hs, fold_of, fold_of)[0] < FLOOR).any(axis=-1)


def assert_scaled(got, want, c):
    """got is c * want, bitwise."""
    assert np.asarray(got).tobytes() == (c * np.asarray(want)).tobytes()


@TUNED
@given(data=tuning_samples(), k=powers, selection=st.sampled_from(["penalized", "argmin"]))
def test_tune_is_scale_invariant(data, k, selection):
    x, sigma = data
    c = 2.0**k
    reports, floored = [], []
    for s in (validate_sample(x, sigma), validate_sample(c * x, c * sigma)):
        grid = default_grid(s, k=FOLDS)
        reports.append(tune(s, grid, selection))
        floored.append(floored_cells(s.x, s.sigma, grid.h_x_values, grid.h_sigma_values))
    a, b = reports
    assert (b.h_x_values, b.h_sigma_values) == (a.h_x_values, tuple(c * h for h in a.h_sigma_values))
    clean = ~(floored[0] | floored[1])
    assert_scaled(b.surface[clean], a.surface[clean], 4.0**k)
    if np.array_equal(a.degenerate, b.degenerate):
        assert b.argmin == Bandwidths(a.argmin.h_x, c * a.argmin.h_sigma)
        for jackknife in (False, True):
            assert_scaled(fit(Nest(b.argmin, jackknife), c * x, c * sigma),
                          fit(Nest(a.argmin, jackknife), x, sigma), c)


@pytest.mark.parametrize("name", ["tf", "scaled"])
@TUNED
@given(data=tuning_samples(), k=powers)
def test_tune_pooled_is_scale_invariant(name, data, k):
    # TF tunes on x with bracket power 4; Scaled on z = x / sigma, which the
    # scaling leaves unchanged, with bracket power 2
    x, sigma = data
    c = 2.0**k
    cx = c if name == "tf" else 1.0
    fold_of = kfold_split(x.size, FOLDS, 0)
    reports, floored = [], []
    for xs, ss in ((x, sigma), (c * x, c * sigma)):
        xd = xs if name == "tf" else xs / ss
        hv = pooled_grid_for(xd)
        reports.append(tune_pooled(xd, ss, hv, fold_of, 4 if name == "tf" else 2))
        floored.append(floored_cells(xd, np.ones_like(xd), hv, (1.0,))[:, 0])
    a, b = reports
    assert b.h_values == tuple(cx * h for h in a.h_values)
    clean = ~(floored[0] | floored[1])
    assert_scaled(b.surface[clean], a.surface[clean], 4.0**k)
    if np.array_equal(a.degenerate, b.degenerate):
        assert b.best_h == cx * a.best_h
        method = TF if name == "tf" else Scaled
        assert_scaled(fit(method(b.best_h), c * x, c * sigma), fit(method(a.best_h), x, sigma), c)


def kgroups_tuned(x, sigma, folds_k):
    """tune_kgroups's bandwidths and each group's degenerate mask."""
    reports = []

    def spy(*args, **kwargs):
        reports.append(tune_pooled(*args, **kwargs))
        return reports[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nesteb.sure, "tune_pooled", spy)
        h = tune_kgroups(validate_sample(x, sigma), 2, folds_k, 0)
    return h, [r.degenerate for r in reports]


@TUNED
@given(data=tuning_samples(), k=powers)
def test_tune_kgroups_is_scale_invariant(data, k):
    x, sigma = data
    c = 2.0**k
    (ha, da), (hb, db) = kgroups_tuned(x, sigma, FOLDS), kgroups_tuned(c * x, c * sigma, FOLDS)
    if all(np.array_equal(p, q) for p, q in zip(da, db)):
        assert hb == tuple(c * h for h in ha)
        assert_scaled(fit(KGroups(2, hb), c * x, c * sigma), fit(KGroups(2, ha), x, sigma), c)


@pytest.mark.xfail(strict=True, reason="the absolute FLOOR: at 2^8 scale more than 1% of group 0's "
                                       "points sit under it in the smallest-h cell, which turns degenerate")
def test_tune_kgroups_scale_invariant_where_the_floor_moves():
    rng = np.random.default_rng(2)
    x = 2.0 * rng.normal(size=60)
    sigma = rng.uniform(0.3, 2.0, 60)
    (ha, da), (hb, db) = kgroups_tuned(x, sigma, 10), kgroups_tuned(256 * x, 256 * sigma, 10)
    assert da[0][0] != db[0][0]   # only the scaled run's cell 0 is degenerate
    # 55.90 expected; 111.80 picked
    assert hb == tuple(256 * h for h in ha)


# CSV fields for the estimate- and tune-contract fuzzers: subnormals, the
# float range's edges, values whose squares and fourth powers overflow or
# underflow, and spellings that float() accepts; x may also be negative or
# not finite, and sigma zero or negative (both refused)
HOSTILE_SIGMA = ["1", "3", "0.5", "5e-324", "2.2e-308", "1e308", "1e160", "1e-160", " 1", "1_0", "+1", "0", "-1"]
HOSTILE_X = HOSTILE_SIGMA + ["-2.5", "-1e308", "1.7976931348623157e308", "-1e160", "nan", "-inf"]
HOSTILE_ROWS = st.lists(st.tuples(st.sampled_from(HOSTILE_X), st.sampled_from(HOSTILE_SIGMA)),
                        min_size=1, max_size=6)
# bandwidths for `tune --grid-hx/--grid-hsigma`: 1e-110 is below H_MIN, and
# 1e160's square overflows
HOSTILE_GRID = ["0.05", "0.5", "1", "3", "1e160", "1e-110"]


def run_cli(argv):
    """(exit code, stdout) of main(argv), held to the exit contract: exit 0,
    exit 1 with exactly one JSON line on stderr, or exit 2 from argparse. A
    RuntimeWarning, or any other exception out of main, fails the caller."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            rc = main(argv)
        except SystemExit as usage:   # argparse
            assert usage.code == 2
            rc = 2
    if rc == 1:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "detail"}
    assert rc in (0, 1, 2)
    return rc, stdout.getvalue()


def run_on_rows(argv, rows, tmp):
    """(exit code, output path, stdout) of main(argv) on a CSV of the rows;
    it must exit 0, or 1 with one JSON line (run_cli)."""
    inp, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "out.csv")
    with open(inp, "w", encoding="utf-8") as fh:
        fh.write("id,x,sigma\n" + "".join(f"r{i},{x},{s}\n" for i, (x, s) in enumerate(rows)))
    rc, stdout = run_cli(argv + ["--input", inp, "--output", out])
    assert rc in (0, 1)
    return rc, out, stdout


def csv_numbers(path, columns):
    """The named columns of every row of a CSV, as floats."""
    with open(path, encoding="utf-8") as fh:
        return [float(row[c]) for row in csv.DictReader(fh) for c in columns]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=HOSTILE_ROWS,
       methods=st.lists(st.sampled_from(["nest", "tf", "scaled", "kgroups", "naive", "oracle"]),
                        min_size=1, max_size=3, unique=True),
       fixed=st.booleans(), truncate=st.booleans(), stabilize=st.booleans())
# z = x / sigma = 1e310 overflows: the tuned scaled rule once warned, then
# failed on the pooled grid's sd with a ValueError of another kind
@example(rows=[("1e10", "1e-300"), ("2", "1"), ("3", "1")], methods=["scaled"],
         fixed=False, truncate=False, stabilize=False)
def test_estimate_exits_0_with_finite_output_or_1_with_one_json_line(rows, methods, fixed, truncate, stabilize):
    # a NumPy RuntimeWarning, or any exception out of main, fails this test
    argv = ["estimate"] + [a for m in methods for a in ("--method", m)]
    if fixed and {"nest", "tf", "scaled"} & set(methods):
        argv += ["--hx", "0.5"] + (["--hsigma", "0.5"] if "nest" in methods else [])
    if "oracle" in methods:
        argv += ["--prior", "normal:0,1"]
    argv += ["--truncate"] * truncate + ["--stabilize-sign"] * stabilize
    with tempfile.TemporaryDirectory() as tmp:
        rc, out, _ = run_on_rows(argv, rows, tmp)
        if rc == 0:
            with open(out, encoding="utf-8") as fh:
                table = list(csv.DictReader(fh))
            assert len(table) == len(rows)
            assert all(math.isfinite(float(r[m])) for r in table for m in methods)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=HOSTILE_ROWS, folds=st.integers(2, 3),
       grid_hx=st.none() | st.lists(st.sampled_from(HOSTILE_GRID), min_size=1, max_size=3, unique=True),
       grid_hsigma=st.none() | st.lists(st.sampled_from(HOSTILE_GRID), min_size=1, max_size=3, unique=True))
def test_tune_exits_0_with_finite_output_or_1_with_one_json_line(rows, folds, grid_hx, grid_hsigma):
    # as for estimate; on exit 0 the argmin line is finite and every surface
    # cell finite or empty (a degenerate cell)
    argv = ["tune", "--folds", str(folds)]
    for flag, values in (("--grid-hx", grid_hx), ("--grid-hsigma", grid_hsigma)):
        if values:
            argv += [flag, ",".join(sorted(values, key=float))]
    with tempfile.TemporaryDirectory() as tmp:
        rc, out, stdout = run_on_rows(argv, rows, tmp)
        if rc == 0:
            name, *argmin = stdout.strip().split(",")
            assert name == "argmin" and len(argmin) == 3 and all(math.isfinite(float(v)) for v in argmin)
            with open(out, encoding="utf-8") as fh:
                cells = [r["S"] for r in csv.DictReader(fh)]
            assert cells and all(c == "" or math.isfinite(float(c)) for c in cells)



# `simulate` and `bias` run at tiny n and at most two reps, so that the
# non-slow suite stays short. Most examples draw options argparse accepts;
# USAGE sometimes appends one it refuses (exit 2).
CONTRACT = settings(max_examples=60, deadline=None, derandomize=True, database=None)
USAGE = st.sampled_from([[]] * 8 + [["--n=0"], ["--folds=1"], ["--reps=0"], ["--seed=-1"]])
RATIOS = ["0.9", "0.5", "0.2", "0.99", "1e-300", "1e-308", "0.9999999999999999", "1", "nan"]
ESTIMATORS = ["naive", "oracle", "nest", "tf", "scaled", "kgroups:2", "kgroups:9", "bogus"]


@CONTRACT
@given(scenario=st.sampled_from(["normal", "sparse", "twopoint"]), ratio=st.sampled_from(RATIOS),
       n=st.sampled_from(["1", "2", "3", "8"]), reps=st.sampled_from(["1", "2"]),
       estimators=st.none() | st.lists(st.sampled_from(ESTIMATORS), min_size=1, max_size=3, unique=True),
       folds=st.sampled_from(["2", "3", "10"]), usage=USAGE)
# sigma_M = inf: NumPy's uniform draw raised OverflowError
@example(scenario="normal", ratio="1e-308", n="3", reps="1", estimators=None, folds="10", usage=[])
def test_simulate_keeps_the_exit_contract(scenario, ratio, n, reps, estimators, folds, usage):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sim.csv")
        argv = ["simulate", "--scenario", scenario, f"--ratio={ratio}", f"--n={n}", "--reps", reps,
                f"--folds={folds}", "--output", out]
        rc, _ = run_cli(argv + (["--estimators", ",".join(estimators)] if estimators else []) + usage)
        if rc == 0:
            assert all(math.isfinite(v) for v in csv_numbers(out, ("mse", "se")))


@CONTRACT
@given(setting=st.sampled_from(["single-center", "two-center"]), n=st.sampled_from(["1", "2", "3", "8", "20"]),
       select_k=st.sampled_from(["1", "3", "8"]), reps=st.sampled_from(["1", "2"]),
       folds=st.sampled_from(["2", "3", "10"]), seed=st.sampled_from(["0", "7"]), usage=USAGE)
def test_bias_keeps_the_exit_contract(setting, n, select_k, reps, folds, seed, usage):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "bias.csv")
        rc, _ = run_cli(["bias", "--setting", setting, f"--n={n}", f"--select-k={select_k}", "--reps", reps,
                         f"--folds={folds}", f"--seed={seed}", "--output", out] + usage)
        if rc == 0:
            assert all(math.isfinite(v) for v in csv_numbers(out, ("diff",)))


HOSTILE_COUNTS = ["-1", "2.5", "x", "", "5" + "0" * 401, "1" + "0" * 402, "1" + "0" * 5000]


@st.composite
def gap_rows(draw):
    """(pass_A, n_A, pass_D, n_D) fields: consistent counts, one of them
    replaced by a hostile field in about a quarter of the rows."""
    row = []
    for _ in range(2):
        n = draw(st.integers(1, 200))
        row += [str(draw(st.integers(0, n))), str(n)]
    if draw(st.integers(0, 3)) == 0:
        row[draw(st.integers(0, 3))] = draw(st.sampled_from(HOSTILE_COUNTS))
    return tuple(row)


@CONTRACT
@given(rows=st.lists(gap_rows(), min_size=1, max_size=4))
# p_a (1 - p_a) / n_A: converting n_A to a float raised OverflowError
@example(rows=[("5" + "0" * 401, "1" + "0" * 402, "10", "40")])
def test_prep_gap_keeps_the_exit_contract(rows):
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = os.path.join(tmp, "gap-in.csv"), os.path.join(tmp, "gap.csv")
        with open(inp, "w", encoding="utf-8") as fh:
            fh.write("id,pass_A,n_A,pass_D,n_D\n" + "".join(f"s{i},{','.join(r)}\n" for i, r in enumerate(rows)))
        rc, _ = run_cli(["prep-gap", "--input", inp, "--output", out])
        assert rc in (0, 1)
        if rc == 0:
            assert all(math.isfinite(v) for v in csv_numbers(out, ("x", "s")))


FAMILY_PARAMS = {"binomial": "--n-trials", "negbinomial": "--r", "gamma": "--alpha", "beta": "--beta"}
PARAMS = ["1", "3", "10", "0", "-1", "2.5", "1e308", "inf", "nan", "1000000", "1000001", "100000000000",
          "1" + "0" * 400]
XS = ["0", "1", "2", "3", "0.5", "0.25", "-1", "1e300", "1e-320", "0.9999999999999999", "inf", "nan"]
LF1S = ["0", "-0.5", "2", "1.7e308", "-1e308", "nan"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(sorted(FAMILY_PARAMS)), param=st.sampled_from(PARAMS),
       x=st.sampled_from(XS), lf1=st.sampled_from(LF1S))
# an int past the float range: math.isfinite raised OverflowError
@example(family="negbinomial", param="1" + "0" * 400, x="3", lf1="0")
@example(family="binomial", param="1" + "0" * 400, x="3", lf1="0")
# 1e11 carrier terms: the sum did not return
@example(family="binomial", param="100000000000", x="3", lf1="0")
@example(family="negbinomial", param="100000000000", x="3", lf1="0")
def test_expfam_keeps_the_exit_contract(family, param, x, lf1):
    rc, stdout = run_cli(["expfam", "--family", family, f"{FAMILY_PARAMS[family]}={param}", f"--x={x}",
                          f"--lf1={lf1}"])
    if rc == 0:
        header, row = stdout.splitlines()
        assert header == "family,value,lh_prime,lf1,posterior_mean"
        assert all(math.isfinite(float(v)) for v in row.split(",")[1:])
