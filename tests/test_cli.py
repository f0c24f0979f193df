import csv
import json
import logging
import math
import warnings

import numpy as np
import pytest

from nesteb.cli import _parse_estimators, main
from nesteb.data import Bandwidths
from nesteb.errors import NonsensicalCounts
from nesteb.estimators import EstimatorSpec, Nest, estimate
from nesteb.io import fmt_value, read_csv, write_csv_atomic
from nesteb.priors import NormalPrior
from nesteb.simulation import draw_scenario, resolve_spec, scenario_from_ratio


def write_sample_csv(path, x, sigma, ids=None):
    ids = ids or [f"r{i}" for i in range(len(x))]
    write_csv_atomic(str(path), ["id", "x", "sigma"], zip(ids, x, sigma))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCsvRoundTrip:
    def test_floats_survive_round_trip_exactly(self, tmp_path):
        vals = [1 / 3, 1e-300, 2.5e300, -0.0, 7.1, math.pi, 1.0000000000000002]
        p = tmp_path / "vals.csv"
        write_csv_atomic(str(p), ["id", "v"], ((i, v) for i, v in enumerate(vals)))
        rows = read_csv(str(p), ["id", "v"])
        got = [float(r["v"]) for r in rows]
        assert got == vals

    def test_fmt_value_17_digits(self):
        assert float(fmt_value(1 / 3)) == 1 / 3

    def test_read_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,x\n1,2,3\n")
        from nesteb.io import CsvFormatError

        with pytest.raises(CsvFormatError) as err:
            read_csv(str(p), ["id", "x"])
        assert err.value.line == 2

    def test_missing_columns_detected(self, tmp_path):
        p = tmp_path / "nohdr.csv"
        p.write_text("a,b\n1,2\n")
        from nesteb.io import CsvFormatError

        with pytest.raises(CsvFormatError):
            read_csv(str(p), ["id", "x"])


class TestEstimateCommand:
    def test_single_row_nest_returns_observation(self, tmp_path, capsys):
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_sample_csv(inp, [4.2], [1.0])
        rc = main(["estimate", "--input", str(inp), "--output", str(out),
                   "--method", "nest", "--hx", "0.5", "--hsigma", "0.5"])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["nest"]) == pytest.approx(4.2, abs=1e-12)

    def test_homoscedastic_nest_column_equals_tf_column(self, tmp_path):
        rng = np.random.default_rng(1)
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_sample_csv(inp, rng.normal(size=40), np.ones(40))
        rc = main(["estimate", "--input", str(inp), "--output", str(out),
                   "--method", "nest", "--method", "tf", "--hx", "0.4", "--hsigma", "0.3"])
        assert rc == 0
        for row in read_rows(out):
            assert float(row["nest"]) == pytest.approx(float(row["tf"]), abs=1e-10)

    def test_pipeline_matches_library_estimates(self, tmp_path):
        sc = scenario_from_ratio(NormalPrior(3, 1), 0.75, n=120, reps=1, seed=9)
        s = draw_scenario(sc, 0)
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_sample_csv(inp, s.x, s.sigma)
        rc = main(["estimate", "--input", str(inp), "--output", str(out),
                   "--method", "nest", "--hx", "0.5", "--hsigma", "0.2"])
        assert rc == 0
        lib = estimate(EstimatorSpec(Nest(Bandwidths(0.5, 0.2))), s)
        got = np.array([float(r["nest"]) for r in read_rows(out)])
        np.testing.assert_array_equal(got, lib)
        # and the per-file MSE against the known means reproduces the study's
        # per-rep value for the same fixed-bandwidth estimator
        from nesteb.simulation import run_mse_study

        table = run_mse_study(sc, [EstimatorSpec(Nest(Bandwidths(0.5, 0.2)))])
        assert float(np.mean((got - s.mu_true) ** 2)) == table.per_rep["nest"][0]

    def test_oracle_requires_prior(self, tmp_path, capsys):
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_sample_csv(inp, [1.0, 2.0], [1.0, 1.0])
        rc = main(["estimate", "--input", str(inp), "--output", str(out), "--method", "oracle"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err)["error"] == "NestError"

    def test_validation_error_exit_code_and_json_line(self, tmp_path, capsys):
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_sample_csv(inp, [1.0], [0.0])
        rc = main(["estimate", "--input", str(inp), "--output", str(out), "--method", "naive"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert payload["error"] == "NonPositiveSigma"
        assert not out.exists()

    def test_truncate_and_stabilize_flags(self, tmp_path):
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_sample_csv(inp, [-1.0, 8.0], [1.0, 1.0])
        rc = main(["estimate", "--input", str(inp), "--output", str(out),
                   "--method", "tf", "--hx", "0.5", "--truncate", "0.5", "--stabilize-sign"])
        assert rc == 0
        got = [float(r["tf"]) for r in read_rows(out)]
        assert abs(got[0]) <= 0.5 and abs(got[1]) <= 0.5


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scenario", "normal", "--estimators", "naive,kgroups:"],
        ["tune", "--input", "{inp}", "--grid-hx", "0.5,0.3"],
        ["estimate", "--input", "{inp}", "--hx", "-1", "--hsigma", "0.2"],
        ["simulate", "--scenario", "normal", "--ratio", "1.5"],
        ["estimate", "--input", "{inp}", "--method", "naive", "--method", "tf", "--method", "naive"],
        ["estimate", "--input", "{inp}", "--method", "nest", "--hx", "0.5"],
        # flags no requested method uses; the absent input shows they fail before the CSV is read
        ["estimate", "--input", "{inp}.absent", "--method", "kgroups", "--hx", "0.5"],
        ["estimate", "--input", "{inp}.absent", "--method", "tf", "--hsigma", "0.5"],
        ["estimate", "--input", "{inp}.absent", "--method", "scaled", "--hsigma", "0.3"],
        ["estimate", "--input", "{inp}.absent", "--method", "naive", "--method", "oracle",
         "--prior", "normal:0,1", "--hx", "0.5", "--hsigma", "0.3"],
    ],
    ids=["bad-kgroups-token", "descending-grid", "negative-hx", "ratio-above-one",
         "duplicate-method", "lone-hx-with-nest", "hx-with-kgroups", "hsigma-with-tf",
         "hsigma-with-scaled", "both-flags-unused"],
)
def test_value_errors_exit_1_with_one_json_line(tmp_path, capsys, argv):
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_sample_csv(inp, [0.0, 1.0, 2.0], [1.0, 0.5, 0.8])
    rc = main([a.format(inp=inp) for a in argv] + ["--output", str(out)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"


def estimate_near_float_limit(tmp_path, capsys, method_args):
    """Run `estimate` on a CSV with one x = 1e308; assert exit 1, one JSON
    line, no RuntimeWarning and no output file; return the JSON payload."""
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_sample_csv(inp, [1.0, 1e308, 2.0], [1.0, 0.5, 1.0], ids=["a", "b", "c"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["estimate", "--input", str(inp), "--output", str(out), *method_args])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists()
    return json.loads(lines[0])


def test_non_finite_grid_scale_exits_1_before_tuning(tmp_path, capsys):
    # sd(x) overflows to inf; the pooled grid is refused before any kernel sum
    payload = estimate_near_float_limit(tmp_path, capsys, ["--method", "tf"])
    assert payload["error"] == "ValueError" and "sd = inf" in payload["detail"]


@pytest.mark.parametrize("method_args,error", [
    (["--method", "nest"], "AllCellsDegenerate"),
    (["--method", "nest", "--hx", "0.5", "--hsigma", "0.5"], "NonFiniteValue"),
], ids=["nest-tuned", "nest-fixed"])
def test_non_finite_kernel_sums_exit_1(tmp_path, capsys, method_args, error):
    # differences with x = 1e308 overflow inside the kernel sums: tuning marks
    # every cell degenerate, and a fixed-bandwidth fit refuses the NaN triple
    assert estimate_near_float_limit(tmp_path, capsys, method_args)["error"] == error


@pytest.mark.parametrize("given,missing", [("--hx", "--hsigma"), ("--hsigma", "--hx")])
def test_nest_takes_both_fixed_bandwidths_or_neither(tmp_path, capsys, given, missing):
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_sample_csv(inp, [0.0, 1.0, 2.0], [1.0, 0.5, 0.8])
    rc = main(["estimate", "--input", str(inp), "--output", str(out),
               "--method", "tf", "--method", "nest", given, "0.5"])
    assert rc == 1
    assert missing in json.loads(capsys.readouterr().err.strip())["detail"]
    assert not out.exists()


def test_estimate_manifest_resolved_shape(tmp_path, caplog):
    # the shape the manifest's consumers parse: one entry per tuned method
    rng = np.random.default_rng(5)
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_sample_csv(inp, rng.normal(size=40), rng.uniform(0.5, 1.5, 40))
    caplog.set_level(logging.INFO, logger="nesteb")
    rc = main(["estimate", "--input", str(inp), "--output", str(out), "--folds", "4",
               "--method", "nest", "--method", "tf", "--method", "scaled", "--method", "kgroups",
               "--method", "naive", "--truncate"])
    assert rc == 0
    manifest = json.loads(caplog.records[-1].getMessage())["manifest"]
    resolved = manifest["resolved"]
    assert set(resolved) == {"nest", "tf", "scaled", "kgroups"}
    assert set(resolved["nest"]) == {"h_x", "h_sigma"}
    assert set(resolved["tf"]) == set(resolved["scaled"]) == {"h"}
    assert resolved["kgroups"]["k"] == 2 and len(resolved["kgroups"]["h_per_group"]) == 2
    assert all(isinstance(v, float) for v in (*resolved["nest"].values(), resolved["tf"]["h"],
                                              resolved["scaled"]["h"], *resolved["kgroups"]["h_per_group"]))
    assert manifest["truncate"] == pytest.approx(2 * math.log(40))
    assert list(read_rows(out)[0]) == ["id", "x", "sigma", "nest", "tf", "scaled", "kgroups", "naive"]


@pytest.mark.parametrize("token,keys", [
    ("naive", None), ("oracle", None), ("nest", {"h_x", "h_sigma"}), ("tf", {"h"}),
    ("scaled", {"h"}), ("kgroups:2", {"k", "h_per_group"}),
])
def test_method_table_walk(token, keys):
    # parse -> resolve_spec -> estimate -> describe for every method token
    prior = NormalPrior(3, 1)
    s = draw_scenario(scenario_from_ratio(prior, 0.75, n=40, reps=1, seed=4), 0)
    (spec,) = _parse_estimators(token, prior, s.n)
    resolved = resolve_spec(spec, s, folds_k=4, seed=1)
    mu = estimate(resolved, s)
    assert mu.shape == (s.n,) and np.all(np.isfinite(mu))
    described = resolved.method.describe()
    assert (None if described is None else set(described)) == keys
    if keys is None:
        assert resolved is spec  # nothing to tune
    else:
        json.dumps(described)  # manifest-ready


class TestTuneCommand:
    def test_small_grid_surface_and_argmin_line(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        inp, out = tmp_path / "in.csv", tmp_path / "surface.csv"
        write_sample_csv(inp, rng.normal(3, 1, 100), rng.uniform(0.5, 1.5, 100))
        rc = main(["tune", "--input", str(inp), "--output", str(out),
                   "--grid-hx", "0.3,0.6", "--grid-hsigma", "0.2,0.4", "--folds", "5"])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 4
        assert set(rows[0]) == {"h_x", "h_sigma", "S"}
        line = capsys.readouterr().out.strip().splitlines()[-1]
        parts = line.split(",")
        assert parts[0] == "argmin"
        hx, hs, smin = float(parts[1]), float(parts[2]), float(parts[3])
        assert (hx, hs) in {(0.3, 0.2), (0.3, 0.4), (0.6, 0.2), (0.6, 0.4)}
        # the printed S is the raw surface value at the selected cell (the
        # safeguarded selection may differ from the raw-surface minimum)
        by_cell = {(float(r["h_x"]), float(r["h_sigma"])): float(r["S"]) for r in rows}
        assert smin == by_cell[(hx, hs)]


class TestSimulateCommand:
    def test_smoke_schema_and_seed_sensitivity(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["simulate", "--scenario", "normal", "--ratio", "0.75", "--n", "150",
                "--reps", "2", "--estimators", "naive,oracle", "--folds", "5"]
        assert main(args + ["--output", str(out1), "--seed", "1"]) == 0
        rows = read_rows(out1)
        assert [r["estimator"] for r in rows] == ["naive", "oracle"]
        assert all(set(r) == {"scenario", "estimator", "mse", "se", "n", "reps"} for r in rows)
        assert main(args + ["--output", str(out2), "--seed", "2"]) == 0
        a = {r["estimator"]: r["mse"] for r in read_rows(out1)}
        b = {r["estimator"]: r["mse"] for r in read_rows(out2)}
        assert a != b

    def test_output_independent_of_threads(self, tmp_path):
        outs = []
        for threads, name in ((1, "t1.csv"), (2, "t2.csv")):
            out = tmp_path / name
            rc = main(["simulate", "--scenario", "twopoint", "--ratio", "0.75", "--n", "120",
                       "--reps", "2", "--estimators", "naive,nest", "--folds", "5",
                       "--seed", "3", "--threads", str(threads), "--output", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestBiasCommand:
    def test_schema_and_row_count(self, tmp_path):
        out = tmp_path / "bias.csv"
        rc = main(["bias", "--setting", "single-center", "--reps", "2", "--select-k", "3",
                   "--n", "200", "--folds", "5", "--output", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 3 * 2 * 3  # estimators x reps x select_k
        assert set(rows[0]) == {"estimator", "rep", "diff"}


class TestExpfamCommand:
    def test_gamma_display_plugin(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(["expfam", "--family", "gamma", "--alpha", "2", "--x", "1",
                   "--lf1", "-0.5", "--output", str(out)])
        assert rc == 0
        row = read_rows(out)[0]
        assert float(row["posterior_mean"]) == pytest.approx(1.5)

    def test_stdout_mode(self, capsys):
        rc = main(["expfam", "--family", "binomial", "--n-trials", "2", "--x", "1", "--lf1", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("family,")
        vals = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(vals["posterior_mean"]) == pytest.approx(0.8455686701969343)

    def test_beta_takes_raw_x(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["expfam", "--family", "beta", "--beta", "3", "--x", "0.5",
                   "--lf1", "0.25", "--output", str(out)])
        assert rc == 0
        row = read_rows(out)[0]
        assert float(row["value"]) == pytest.approx(math.log(0.5))
        assert float(row["posterior_mean"]) == pytest.approx(2.25)

    @pytest.mark.parametrize("family,flag", [
        ("binomial", "--n-trials"), ("negbinomial", "--r"), ("gamma", "--alpha"), ("beta", "--beta"),
    ])
    def test_missing_family_parameter(self, capsys, family, flag):
        rc = main(["expfam", "--family", family, "--x", "0.5", "--lf1", "0"])
        assert rc == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["detail"] == f"{flag} is required for {family}"


class TestPrepGapCommand:
    def test_plug_in_values(self, tmp_path):
        inp, out = tmp_path / "schools.csv", tmp_path / "gap.csv"
        write_csv_atomic(str(inp), ["id", "pass_A", "n_A", "pass_D", "n_D"],
                         [("s1", 50, 100, 50, 100)])
        rc = main(["prep-gap", "--input", str(inp), "--output", str(out)])
        assert rc == 0
        row = read_rows(out)[0]
        assert float(row["x"]) == pytest.approx(0.0)
        assert float(row["s"]) == pytest.approx(100 * math.sqrt(0.005), rel=1e-12)

    def test_filters_with_reasons(self, tmp_path):
        inp, out = tmp_path / "schools.csv", tmp_path / "gap.csv"
        write_csv_atomic(
            str(inp),
            ["id", "pass_A", "n_A", "pass_D", "n_D"],
            [
                ("small", 20, 29, 20, 40),     # min-testers
                ("nofail", 40, 40, 20, 40),    # min-fail in group A
                ("fewpass", 4, 40, 20, 40),    # min-pass in group A
                ("ok", 20, 40, 10, 40),
            ],
        )
        rc = main(["prep-gap", "--input", str(inp), "--output", str(out)])
        assert rc == 0
        kept = read_rows(out)
        assert [r["id"] for r in kept] == ["ok"]
        side = read_rows(str(out) + ".filtered.csv")
        reasons = {r["id"]: r["reason"] for r in side}
        assert reasons == {"small": "min-testers", "nofail": "min-fail", "fewpass": "min-pass"}

    def test_nonsensical_counts_error(self, tmp_path, capsys):
        inp, out = tmp_path / "schools.csv", tmp_path / "gap.csv"
        write_csv_atomic(str(inp), ["id", "pass_A", "n_A", "pass_D", "n_D"],
                         [("bad", 50, 40, 10, 40)])
        rc = main(["prep-gap", "--input", str(inp), "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err)["error"] == "NonsensicalCounts"
