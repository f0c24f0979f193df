import csv
import json
import logging
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import nesteb.kernel
from nesteb.cli import _parse_estimators, build_parser, main
from nesteb.data import Bandwidths, validate_sample
from nesteb.errors import NonsensicalCounts
from nesteb.estimators import TF, EstimatorSpec, Naive, Nest, Scaled, estimate, post_processed
from nesteb.io import CsvFormatError, fmt_value, read_csv, write_csv_atomic
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
        ids, got = read_csv(str(p), {"id": int, "v": float})
        assert ids == list(range(len(vals)))
        assert got == vals

    def test_fmt_value_17_digits(self):
        assert float(fmt_value(1 / 3)) == 1 / 3

    def test_read_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,x\n1,2,3\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(str(p), {"id": str, "x": float})
        assert err.value.line == 2

    def test_missing_columns_detected(self, tmp_path):
        p = tmp_path / "nohdr.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(str(p), {"id": str, "x": float})
        assert err.value.line == 1

    @pytest.mark.parametrize("text,line", [
        ("id,x,sigma\n\na,1,1\nb,foo,1\n", 4),            # a blank line before the bad row
        ('id,x,sigma\na,1,"1\n"\nb,foo,1\n', 4),         # a quoted field spanning two lines
        ('id,x,sigma\n"a\nb",1,1\n\nc,2\n', 5),          # both, and a short row
    ], ids=["blank-line", "multi-line-field", "both"])
    def test_estimate_errors_name_the_file_line(self, tmp_path, capsys, text, line):
        inp = tmp_path / "in.csv"
        inp.write_text(text)
        rc = main(["estimate", "--input", str(inp), "--output", str(tmp_path / "o.csv"), "--method", "naive"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "CsvFormatError"
        assert payload["detail"].startswith(f"{inp}:{line}: ")

    def test_prep_gap_errors_name_the_file_line(self, tmp_path, capsys):
        inp = tmp_path / "gap.csv"
        inp.write_text("id,pass_A,n_A,pass_D,n_D\n\ns1,x,40,10,40\n")
        rc = main(["prep-gap", "--input", str(inp), "--output", str(tmp_path / "o.csv")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err.strip())["detail"].startswith(f"{inp}:3: ")

    def test_requested_column_named_twice_is_refused(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("id,x,sigma,x,note,note\na,1,1,5,u,v\n")
        with pytest.raises(CsvFormatError) as err:
            read_csv(str(p), {"id": str, "x": float, "sigma": float})
        assert err.value.line == 1 and "['x']" in str(err.value)
        # a repeated column that nothing reads still loads
        assert read_csv(str(p), {"id": str, "sigma": float}) == [["a"], [1.0]]

    def test_byte_order_mark_gives_identical_output(self, tmp_path):
        rng = np.random.default_rng(3)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_sample_csv(plain, rng.normal(size=30), rng.uniform(0.5, 1.5, 30))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = []
        for inp in (plain, marked):
            outs.append(tmp_path / f"{inp.stem}.out.csv")
            rc = main(["estimate", "--input", str(inp), "--output", str(outs[-1]),
                       "--method", "nest", "--method", "naive", "--hx", "0.5", "--hsigma", "0.3"])
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


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

    def test_row_order_changes_no_byte(self, tmp_path):
        # the kernel sums the training points in an order of its own, so a
        # shuffled file gives every estimate the same bits: sorted by id,
        # the output lines are equal
        rng = np.random.default_rng(11)
        x, sigma = rng.normal(size=300) * 2, rng.uniform(0.2, 1.5, 300)
        ids = [f"r{i:03d}" for i in range(300)]
        outs = []
        for name, order in (("in", np.arange(300)), ("shuffled", rng.permutation(300))):
            inp, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.out.csv"
            write_sample_csv(inp, x[order], sigma[order], [ids[i] for i in order])
            rc = main(["estimate", "--input", str(inp), "--output", str(out), "--method", "nest",
                       "--method", "tf", "--method", "scaled", "--hx", "0.5", "--hsigma", "0.5"])
            assert rc == 0
            head, *rows = out.read_bytes().splitlines()
            outs.append((head, sorted(rows)))
        assert outs[0] == outs[1]

    def test_output_bytes_are_17g_of_returned_arrays(self, tmp_path):
        rng = np.random.default_rng(10)
        x, sigma = rng.normal(size=50) * 3, rng.uniform(0.1, 1.5, 50)
        x[:3] = 1 / 3, -0.0, 2.5e30
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_sample_csv(inp, x, sigma)
        methods = ["nest", "tf", "scaled", "naive"]
        rc = main(["estimate", "--input", str(inp), "--output", str(out),
                   *(a for m in methods for a in ("--method", m)),
                   "--hx", "0.4", "--hsigma", "0.2", "--truncate", "4", "--stabilize-sign"])
        assert rc == 0
        s = validate_sample(x, sigma)
        rules = [Nest(Bandwidths(0.4, 0.2)), TF(0.4), Scaled(0.4), Naive()]
        cols = [estimate(post_processed(r, 4.0, True), s) for r in rules]
        lines = ["id,x,sigma," + ",".join(methods)]
        lines += [",".join([f"r{i}", *(format(float(c[i]), ".17g") for c in (x, sigma, *cols))])
                  for i in range(50)]
        assert out.read_bytes() == "".join(line + "\r\n" for line in lines).encode()

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
    "argv, error",
    # an unparsable kgroups:K token raises NestError, the ValueError subclass of every unknown estimator
    [(["simulate", "--scenario", "normal", "--estimators", "naive,kgroups:"], "NestError")]
    + [(argv, "ValueError") for argv in [
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
        ["estimate", "--input", "{inp}.absent", "--method", "naive", "--prior", "normal:0,1"],
        ["estimate", "--input", "{inp}.absent", "--method", "naive", "--k-groups", "3"],
        # a truncation bound that is not > 0, whatever the methods
        ["estimate", "--input", "{inp}.absent", "--method", "nest", "--truncate", "0"],
        ["estimate", "--input", "{inp}.absent", "--method", "naive", "--truncate", "0"],
        ["estimate", "--input", "{inp}.absent", "--method", "tf", "--truncate=-1"],
        ["estimate", "--input", "{inp}.absent", "--method", "scaled", "--truncate", "nan"],
        ["bias", "--setting", "single-center", "--select-k", "100", "--n", "30", "--reps", "1", "--folds", "3"],
        # h_sigma below data.H_MIN, whose square underflows (was a ZeroDivisionError traceback)
        ["estimate", "--input", "{inp}", "--method", "nest", "--hx", "0.5", "--hsigma", "1e-163"],
        # h_x below data.H_MIN, whose cube underflows (was NonFiniteValue in column f1)
        ["estimate", "--input", "{inp}", "--method", "tf", "--hx", "1e-110"],
        # h_x above data.H_MAX, whose square overflows
        ["tune", "--input", "{inp}", "--grid-hx", "1e160"],
        # a non-finite prior parameter (was a NaN oracle column)
        ["estimate", "--input", "{inp}", "--method", "oracle", "--prior", "normal:1,inf"],
    ]]
    # finite sigmas outside the input domain, refused as the sample is read. Each was a
    # NaN column at exit 0, then a refusal downstream: sigma = 1e160's sigma^2 overflowed
    # in the Tweedie step (NonFiniteValue) and, tuned, in every cell's SURE values
    # (AllCellsDegenerate); sigma = 1e300 overflowed the normal prior's posterior mean
    # (NonFiniteValue); and sigma = 1e-300 made z = x / sigma = 1e310 overflow, tuned or
    # not (NonFiniteValue in column x)
    + [(argv, "OutOfDomain") for argv in [
        ["estimate", "--input", "{huge_sigma}", "--method", "tf", "--hx", "0.5"],
        ["estimate", "--input", "{huge_sigma}", "--method", "nest", "--hx", "0.5", "--hsigma", "0.5"],
        ["estimate", "--input", "{far_oracle}", "--method", "oracle", "--prior", "normal:0,1"],
        ["estimate", "--input", "{far_z}", "--method", "scaled"],
        ["estimate", "--input", "{far_z}", "--method", "scaled", "--hx", "0.5"],
        ["estimate", "--input", "{huge_sigma}", "--method", "tf"],
        ["estimate", "--input", "{huge_sigma}", "--method", "scaled"],
        # x and sigma in the domain, but z = x / sigma = 1e40 beyond it: Scaled.coordinates
        ["estimate", "--input", "{wide_z}", "--method", "scaled"],
        ["estimate", "--input", "{wide_z}", "--method", "scaled", "--hx", "0.5"],
    ]]
    # family inputs outside the domain, non-finite ones included, refused by the family's own checks
    + [(["expfam", "--lf1", "0", *argv], "DomainError") for argv in [
        ["--family", "binomial", "--n-trials", "5", "--x", "inf"],
        ["--family", "binomial", "--n-trials", "5", "--x", "nan"],
        ["--family", "gamma", "--alpha", "inf", "--x", "1"],
        ["--family", "beta", "--beta", "inf", "--x", "0.5"],
        ["--family", "gamma", "--alpha", "2", "--x", "inf"],
        ["--family", "beta", "--beta", "3", "--x", "1.5"],
        # finite inputs in the domain whose carrier term overflows
        ["--family", "gamma", "--alpha", "2", "--x", "1e-320"],
        ["--family", "beta", "--beta", "1e308", "--x", "0.9999999999999999"],
        # finite carrier terms and scores whose posterior mean overflows
        ["--family", "gamma", "--alpha", "2", "--x", "1e-308", "--lf1=-1e308"],
        ["--family", "beta", "--beta", "1e308", "--x", "0.5", "--lf1", "1.7e308"],
        # counts past the float range (an OverflowError traceback) and above MAX_COUNT
        # (a carrier sum of 1e11 terms that did not return)
        ["--family", "negbinomial", "--r", "1" + "0" * 400, "--x", "3"],
        ["--family", "binomial", "--n-trials", "1" + "0" * 400, "--x", "3"],
        ["--family", "negbinomial", "--r", "100000000000", "--x", "3"],
        ["--family", "binomial", "--n-trials", "100000000000", "--x", "3"],
    ]],
    ids=["bad-kgroups-token", "descending-grid", "negative-hx", "ratio-above-one",
         "duplicate-method", "lone-hx-with-nest", "hx-with-kgroups", "hsigma-with-tf",
         "hsigma-with-scaled", "both-flags-unused", "prior-with-naive", "k-groups-with-naive",
         "zero-truncate-nest", "zero-truncate-naive",
         "negative-truncate", "nan-truncate", "select-k-above-n", "tiny-hsigma", "tiny-hx", "huge-grid-hx",
         "infinite-prior-tau",
         "tf-sigma-squared-overflow", "nest-sigma-squared-overflow", "oracle-mean-overflow",
         "scaled-tuned-z-overflow", "scaled-fixed-z-overflow",
         "tf-tuned-sigma-overflow", "scaled-tuned-sigma-overflow",
         "scaled-tuned-z-outside-domain", "scaled-fixed-z-outside-domain",
         "binomial-inf-x", "binomial-nan-x", "gamma-inf-alpha", "beta-inf-beta", "gamma-inf-x",
         "beta-x-above-one", "gamma-carrier-overflow", "beta-carrier-overflow",
         "gamma-mean-overflow", "beta-mean-overflow", "negbinomial-r-past-float-range",
         "binomial-n-trials-past-float-range", "negbinomial-r-above-max-count",
         "binomial-n-trials-above-max-count"],
)
def test_value_errors_exit_1_with_one_json_line(tmp_path, capsys, argv, error):
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_sample_csv(inp, [0.0, 1.0, 2.0], [1.0, 0.5, 0.8])
    files = {"inp": inp, "huge_sigma": tmp_path / "huge-sigma.csv", "far_oracle": tmp_path / "far-oracle.csv",
             "far_z": tmp_path / "far-z.csv", "wide_z": tmp_path / "wide-z.csv"}
    write_sample_csv(files["huge_sigma"], [1.0, 2.0, 3.0], [1.0, 1e160, 1.0])
    write_sample_csv(files["far_oracle"], [24.05, -4552.0], [1e300, 0.0188])
    write_sample_csv(files["far_z"], [1e10, 2.0, 3.0], [1e-300, 1.0, 1.0])
    write_sample_csv(files["wide_z"], [1e30, 2.0, 3.0], [1e-10, 1.0, 1.0])
    rc = main([a.format(**files) for a in argv] + ["--output", str(out)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


@pytest.mark.parametrize("flag, value, users", [
    ("--prior", "normal:0,1", "oracle"), ("--k-groups", "3", "kgroups"),
    ("--hx", "0.5", "nest, tf, scaled"), ("--hsigma", "0.5", "nest"),
])
def test_unused_option_names_the_methods_that_take_it(tmp_path, capsys, flag, value, users):
    rc = main(["estimate", "--input", str(tmp_path / "absent.csv"), "--output", str(tmp_path / "o.csv"),
               "--method", "naive", flag, value])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "ValueError", "detail": f"{flag} is used only by {users}; none of them was requested"}


def test_k_groups_option_reaches_kgroups(tmp_path, caplog):
    rng = np.random.default_rng(6)
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_sample_csv(inp, rng.normal(size=40), rng.uniform(0.5, 1.5, 40))
    caplog.set_level(logging.INFO, logger="nesteb")
    rc = main(["estimate", "--input", str(inp), "--output", str(out), "--folds", "4",
               "--method", "kgroups", "--k-groups", "3"])
    assert rc == 0
    resolved = json.loads(caplog.records[-1].getMessage())["manifest"]["resolved"]
    assert resolved["kgroups"]["k"] == 3 and len(resolved["kgroups"]["h_per_group"]) == 3


@pytest.mark.parametrize("method", ["tf", "nest"])
def test_one_point_cannot_be_tuned_names_n_and_given_folds(tmp_path, capsys, method):
    rc = main(["simulate", "--scenario", "normal", "--n", "1", "--reps", "2", "--estimators", method,
               "--folds", "10", "--output", str(tmp_path / "o.csv")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "BadFoldCount", "detail": "cross-fitting needs n >= 2 points, got n=1 (fold count K=10)"}


def test_truncate_message_names_the_bound(tmp_path, capsys):
    rc = main(["estimate", "--input", str(tmp_path / "absent.csv"), "--output", str(tmp_path / "o.csv"),
               "--method", "naive", "--truncate", "0"])
    assert rc == 1
    detail = json.loads(capsys.readouterr().err.strip())["detail"]
    assert detail == "truncation bound must be positive, got 0.0"


# The flags each command takes: --seed where randomness is drawn (folds or
# data), --threads where a process pool runs.
_TAKES = {
    "estimate": (["--input", "i.csv", "--output", "o.csv"], {"--seed"}),
    "tune": (["--input", "i.csv", "--output", "o.csv"], {"--seed"}),
    "simulate": (["--scenario", "normal", "--output", "o.csv"], {"--seed", "--threads"}),
    "bias": (["--setting", "single-center", "--output", "o.csv"], {"--seed", "--threads"}),
    "expfam": (["--family", "gamma", "--x", "1", "--lf1", "0"], set()),
    "prep-gap": (["--input", "i.csv", "--output", "o.csv"], set()),
}


@pytest.mark.parametrize("command", sorted(_TAKES))
@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_parser_takes_seed_and_threads_only_where_used(command, flag, capsys):
    required, takes = _TAKES[command]
    argv = [command, *required, flag, "2"]
    if flag in takes:
        assert getattr(build_parser().parse_args(argv), flag[2:]) == 2
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "bias"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_exit_2(command, value, capsys):
    required, _ = _TAKES[command]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *required, "--threads", value])
    assert exc.value.code == 2
    assert f"argument --threads: must be >= 1, got {value}" in capsys.readouterr().err


_COUNT_FLAGS = [("simulate", "--n"), ("bias", "--n"), ("simulate", "--reps"), ("bias", "--reps"),
                ("bias", "--select-k"), ("estimate", "--k-groups")]


@pytest.mark.parametrize("command, flag", _COUNT_FLAGS, ids=[f"{f}-{c}" for c, f in _COUNT_FLAGS])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_n_and_reps_below_one_exit_2(command, flag, value, capsys):
    required, _ = _TAKES[command]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *required, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["kgroups:x", "kgroups:"])
def test_bad_group_count_token_is_an_unknown_estimator(tmp_path, capsys, token):
    rc = main(["simulate", "--scenario", "normal", "--estimators", f"naive,{token}",
               "--output", str(tmp_path / "o.csv")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "NestError", "detail": f"unknown estimator {token!r}"}


@pytest.mark.parametrize("command", ["estimate", "tune", "simulate", "bias"])
@pytest.mark.parametrize("value", ["1", "0", "-5"])
def test_folds_below_two_exit_2(command, value, capsys):
    required, _ = _TAKES[command]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *required, "--folds", value])
    assert exc.value.code == 2
    assert f"argument --folds: must be >= 2, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "tune", "simulate", "bias"])
@pytest.mark.parametrize("value", ["-1", "-7"])
def test_seed_below_zero_exit_2(command, value, capsys):
    required, _ = _TAKES[command]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *required, "--seed", value])
    assert exc.value.code == 2
    assert f"argument --seed: must be >= 0, got {value}" in capsys.readouterr().err
    assert build_parser().parse_args([command, *required, "--seed", "0"]).seed == 0


@pytest.mark.parametrize("method", ["naive", "tf"])
def test_negative_seed_exits_2_before_reading_input(tmp_path, method):
    # naive draws nothing and tf draws folds: both refuse the seed alike
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--input", str(tmp_path / "missing.csv"), "--output", str(tmp_path / "o.csv"),
              "--method", method, "--seed", "-1"])
    assert exc.value.code == 2
    assert not (tmp_path / "o.csv").exists()


def estimate_near_float_limit(tmp_path, capsys, method_args, x=(1.0, 1e308, 2.0), sigma=(1.0, 0.5, 1.0)):
    """Run `estimate` on a CSV near the float limits (by default one
    x = 1e308); assert exit 1, one JSON line, no RuntimeWarning and no
    output file; return the JSON payload."""
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_sample_csv(inp, x, sigma, ids=["a", "b", "c"])
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
    # x = 1e308, whose sd(x) overflowed to inf (a ValueError on the pooled
    # grid), is outside the input domain and refused as the sample is read
    payload = estimate_near_float_limit(tmp_path, capsys, ["--method", "tf"])
    assert payload["error"] == "OutOfDomain" and "column 'x' at index 1" in payload["detail"]


@pytest.mark.parametrize("method_args,data,error", [
    (["--method", "nest"], {}, "OutOfDomain"),
    (["--method", "nest", "--hx", "1e-60", "--hsigma", "1"],
     {"x": (0.0, 1e-160, 3e-160), "sigma": (1e-100,) * 3}, "OutOfDomain"),
], ids=["nest-tuned", "nest-fixed"])
def test_non_finite_kernel_sums_exit_1(tmp_path, capsys, method_args, data, error):
    # x = 1e308 (every tuned cell was degenerate) and sigma = 1e-100 (at
    # h_x sigma = 1e-160 f1's sum overflowed) are outside the input domain;
    # inside it, f1 and the f2-free fits stay finite at every accepted h
    assert estimate_near_float_limit(tmp_path, capsys, method_args, **data)["error"] == error


def test_far_point_fits_at_fixed_bandwidths(tmp_path, capsys):
    # every term against x = 2^128, the domain's edge, is exactly 0, so NEST
    # and TF fit the file; x = 1e308 is refused
    method_args = ["--method", "nest", "--method", "tf", "--hx", "0.5", "--hsigma", "0.5"]
    assert estimate_near_float_limit(tmp_path, capsys, method_args)["error"] == "OutOfDomain"
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_sample_csv(inp, [1.0, 2.0**128, 2.0], [1.0, 0.5, 1.0], ids=["a", "b", "c"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["estimate", "--input", str(inp), "--output", str(out), *method_args])
    assert rc == 0
    assert all(math.isfinite(float(v)) for r in read_rows(out) for k, v in r.items() if k != "id")


@pytest.mark.parametrize("method_args,error", [
    (["--method", "nest"], "OutOfDomain"),
    (["--method", "nest", "--hx", "0.5", "--hsigma", "0.5"], "OutOfDomain"),
], ids=["nest-tuned", "nest-fixed"])
def test_tiny_sigma_exits_1_without_warning(tmp_path, capsys, method_args, error):
    # 1 / sigma^2 overflowed at sigma = 1e-160 and the kernel carried the inf
    # to a refusal downstream; now the sample is refused in column sigma
    payload = estimate_near_float_limit(tmp_path, capsys, method_args, x=(1.0, 2.0, 3.0), sigma=(1.0, 1e-160, 1.0))
    assert payload["error"] == error and "column 'sigma' at index 1" in payload["detail"]


def test_a_sigma_below_the_domain_names_its_row(tmp_path, capsys):
    # sigma = 1e-110 once made a one-cell NEST fit raise NonFiniteValue in f1
    # at index 0, a row with sigma = 1: 0 * inf where 1 / sigma^3 overflowed
    payload = estimate_near_float_limit(tmp_path, capsys, ["--method", "nest", "--hx", "0.5", "--hsigma", "0.5"],
                                        x=(0.0, 1.0, 5.0), sigma=(1.0, 1.0, 1e-110))
    assert payload["error"] == "OutOfDomain" and "column 'sigma' at index 2" in payload["detail"]


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

    def test_degenerate_cell_writes_an_empty_field(self, tmp_path):
        # at h_sigma = 0.01 the sigma = 3 point's weights underflow: its cell's
        # S is NaN and is written as an empty field, beside the finite cell
        inp, out = tmp_path / "in.csv", tmp_path / "surface.csv"
        write_sample_csv(inp, [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 3.0, 1.0], ids=list("abcd"))
        rc = main(["tune", "--input", str(inp), "--output", str(out), "--folds", "2",
                   "--grid-hx", "0.5", "--grid-hsigma", "0.01,1"])
        assert rc == 0
        assert "nan" not in out.read_text().lower()
        rows = read_rows(out)
        assert [r["S"] == "" for r in rows] == [True, False] and math.isfinite(float(rows[1]["S"]))


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

    def test_output_independent_of_threads(self, tmp_path):
        outs = []
        for threads, name in ((1, "t1.csv"), (2, "t2.csv")):
            out = tmp_path / name
            rc = main(["bias", "--setting", "two-center", "--reps", "2", "--select-k", "3", "--n", "150",
                       "--folds", "5", "--seed", "3", "--threads", str(threads), "--output", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        estimators = [r["estimator"] for r in read_rows(tmp_path / "t1.csv")]
        assert estimators == ["naive"] * 6 + ["tf"] * 6 + ["nest"] * 6


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
        assert json.loads(err) == {
            "error": "NonsensicalCounts",
            "detail": "row 'bad': pass/total counts inconsistent: pass_A=50, n_A=40, pass_D=10, n_D=40"}

    def test_counts_past_the_float_range_error(self, tmp_path, capsys):
        # p_a (1 - p_a) / n_A once raised OverflowError converting n_A to a float
        inp, out = tmp_path / "schools.csv", tmp_path / "gap.csv"
        write_csv_atomic(str(inp), ["id", "pass_A", "n_A", "pass_D", "n_D"],
                         [("ok", 20, 40, 10, 40), ("huge", 5 * 10**401, 10**402, 10, 40)])
        rc = main(["prep-gap", "--input", str(inp), "--output", str(out)])
        assert rc == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "NonsensicalCounts"
        assert "row 'huge': counts past the float range" in json.loads(lines[0])["detail"]
        assert not out.exists()


def test_manifest_reports_kernel_threads(tmp_path, caplog, monkeypatch):
    # the cap on the kernel threads of one density_grid call: the process's
    # own count, or its share of it in each worker process of a pooled run.
    # A call with fewer blocks uses fewer (these n=40 estimates run inline).
    monkeypatch.setattr(nesteb.kernel, "_THREADS", 4)
    rng = np.random.default_rng(6)
    inp = tmp_path / "in.csv"
    write_sample_csv(inp, rng.normal(size=40), rng.uniform(0.5, 1.5, 40))
    caplog.set_level(logging.INFO, logger="nesteb")
    runs = [
        (["estimate", "--input", str(inp), "--folds", "4"], 4),
        (["tune", "--input", str(inp), "--folds", "4"], 4),
        (["simulate", "--scenario", "normal", "--n", "60", "--reps", "2", "--estimators", "naive",
          "--threads", "2"], 2),
        (["simulate", "--scenario", "normal", "--n", "60", "--reps", "1", "--estimators", "naive",
          "--threads", "2"], 4),
        (["bias", "--setting", "single-center", "--reps", "1", "--select-k", "2", "--n", "60",
          "--folds", "3"], 4),
    ]
    for i, (argv, threads) in enumerate(runs):
        assert main(argv + ["--output", str(tmp_path / f"out{i}.csv")]) == 0
        manifest = json.loads(caplog.records[-1].getMessage())["manifest"]
        assert (manifest["command"], manifest["kernel_threads"]) == (argv[0], threads)


def loaded_after_cli_import(modules):
    """Which of the named modules a fresh `import nesteb.cli` loads."""
    src = os.path.dirname(os.path.dirname(nesteb.kernel.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, nesteb.cli\nprint(*(m for m in {modules!r} if m in sys.modules))\n"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return run.stdout.split()


def test_cli_import_leaves_scipy_special_unloaded():
    assert loaded_after_cli_import(["scipy", "scipy.special"]) == []


def test_cli_import_loads_no_process_pool():
    # the replication pool is imported where a --threads run starts it
    assert loaded_after_cli_import(["multiprocessing", "concurrent.futures.process"]) == []
