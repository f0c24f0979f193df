"""Command-line interface.

Every command emits a one-line JSON manifest to the diagnostic stream
(resolved bandwidths, grid, seed, version), exits 0 on success, and prints a
single machine-readable JSON error line on failure. Commands that draw folds
or data (estimate, tune, simulate, bias) take --seed; simulate and bias, the
ones with a process pool, take --threads. Kernel threads follow the CPU
affinity mask (`taskset` bounds them); no output depends on either count.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .data import Bandwidths, validate_sample
from .errors import NestError, NonsensicalCounts
from .estimators import (
    EstimatorSpec,
    KGroups,
    Naive,
    Nest,
    Oracle,
    Scaled,
    TF,
    check_truncation_bound,
    check_unique_names,
    default_truncation_bound,
    estimate,
    post_processed,
)
from .expfam import Beta, Binomial, FamilyPoint, Gamma, NegBinomial, ScoreEstimate, posterior_mean
from .io import fmt_value, read_csv, write_csv_atomic
from .priors import NormalPrior, SparseMixPrior, TwoPointPrior
from .simulation import (
    _BIAS_SETTINGS,
    kernel_threads,
    resolve_spec,
    run_bias_experiment,
    run_mse_study,
    scenario_from_ratio,
    study_spec,
    table_specs,
)
from .sure import SureGrid, default_grid, tune

log = logging.getLogger("nesteb")


def _manifest(command: str, args: argparse.Namespace, **resolved) -> None:
    payload = {
        "manifest": {
            "command": command,
            "seed": getattr(args, "seed", None),
            "threads": getattr(args, "threads", None),
            "version": __version__,
            **resolved,
        }
    }
    log.info(json.dumps(payload))


# `--prior` kind -> its prior class, whose fields are the parameters in order.
_PRIORS = {"normal": NormalPrior, "sparsemix": SparseMixPrior, "twopoint": TwoPointPrior}
_PRIOR_FORMS = " | ".join(f"{kind}:{','.join(f.name for f in fields(c))}" for kind, c in _PRIORS.items())


def _parse_prior(text: str):
    kind, _, rest = text.partition(":")
    try:
        parts = [float(p) for p in rest.split(",")] if rest else []
    except ValueError:
        raise NestError(f"bad prior parameters in {text!r}") from None
    make = _PRIORS.get(kind)
    if make is None or len(parts) != len(fields(make)):
        raise NestError(f"bad prior spec {text!r}; expected {_PRIOR_FORMS}")
    return make(*parts)


def int_at_least(least: int):
    """An argparse type: an int of at least ``least``; a smaller one exits 2."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    parse.__name__ = "int"   # argparse names the type in its message
    return parse


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise NestError(f"bad float list: {text!r}") from None


def _load_sample(path: str):
    ids, xs, sigmas = read_csv(path, {"id": str, "x": float, "sigma": float})
    return ids, validate_sample(xs, sigmas)


def _oracle(prior) -> Oracle:
    if prior is None:
        raise NestError("--prior is required for the oracle method")
    return Oracle(prior)


def _nest(hx, hsigma) -> Nest:
    if (hx is None) != (hsigma is None):
        missing = "--hsigma" if hsigma is None else "--hx"
        raise ValueError(f"nest takes both --hx and --hsigma or neither; {missing} is missing")
    return Nest(None if hx is None else Bandwidths(hx, hsigma))


# One entry per method token, shared by `estimate --method` and `simulate
# --estimators`: its builder and the options it takes, in order. A bandwidth
# left None goes to the SURE tuner, a group count left None to KGroups' own.
# `estimate` refuses an option that no requested method takes.
_METHODS = {
    "naive": (Naive, ()),
    "oracle": (_oracle, ("prior",)),
    "nest": (_nest, ("hx", "hsigma")),
    "tf": (TF, ("hx",)),
    "scaled": (Scaled, ("hx",)),
    "kgroups": (lambda k: KGroups() if k is None else KGroups(k), ("k_groups",)),
}


def _build(name: str, options: dict):
    make, takes = _METHODS[name]
    return make(*(options.get(option) for option in takes))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_estimate(args) -> int:
    methods = args.method or ["nest"]
    check_unique_names(methods)
    for option in dict.fromkeys(o for _, takes in _METHODS.values() for o in takes):
        users = [name for name, (_, takes) in _METHODS.items() if option in takes]
        if getattr(args, option) is not None and not set(users) & set(methods):
            flag = "--" + option.replace("_", "-")
            raise ValueError(f"{flag} is used only by {', '.join(users)}; none of them was requested")
    bound = None if args.truncate in (None, "auto") else check_truncation_bound(float(args.truncate))
    prior = _parse_prior(args.prior) if args.prior else None
    chosen = [_build(name, {**vars(args), "prior": prior}) for name in methods]
    ids, sample = _load_sample(args.input)
    if sample.n == 1:
        log.warning("single-row input: density fits degenerate to the query point itself")
    if args.truncate == "auto":
        bound = default_truncation_bound(sample.n)

    columns: dict[str, np.ndarray] = {}
    resolved_log: dict[str, object] = {}
    for name, method in zip(methods, chosen):
        spec = post_processed(method, bound, args.stabilize_sign)
        spec = resolve_spec(spec, sample, folds_k=args.folds, seed=args.seed)
        if (described := spec.method.describe()) is not None:
            resolved_log[name] = described
        columns[name] = estimate(spec, sample)

    header = ["id", "x", "sigma"] + methods
    # Python floats format as NumPy's do (".17g") and are far cheaper to index
    rows = zip(ids, sample.x.tolist(), sample.sigma.tolist(), *(columns[m].tolist() for m in methods))
    write_csv_atomic(args.output, header, rows)
    _manifest(
        "estimate",
        args,
        resolved=resolved_log,
        truncate=bound,
        kernel_threads=kernel_threads(1, 1),  # one process, no pool
    )
    return 0


def cmd_tune(args) -> int:
    _, sample = _load_sample(args.input)
    base = default_grid(sample, k=args.folds, seed=args.seed)
    grid = SureGrid(
        _parse_floats(args.grid_hx) if args.grid_hx else base.h_x_values,
        _parse_floats(args.grid_hsigma) if args.grid_hsigma else base.h_sigma_values,
        k=args.folds,
        seed=args.seed,
    )
    report = tune(sample, grid)
    # a degenerate cell's S may be inf or NaN: it is written as an empty field
    surface = [[float(v) if math.isfinite(v) else "" for v in row] for row in report.surface]
    write_csv_atomic(
        args.output,
        ["h_x", "h_sigma", "S"],
        ((hx, hs, surface[i][j])
         for i, hx in enumerate(report.h_x_values) for j, hs in enumerate(report.h_sigma_values)),
    )
    am = report.argmin
    s_min = float(report.surface[report.h_x_values.index(am.h_x), report.h_sigma_values.index(am.h_sigma)])
    print(f"argmin,{am.h_x:.17g},{am.h_sigma:.17g},{s_min:.17g}")
    _manifest(
        "tune",
        args,
        grid={"h_x": list(grid.h_x_values), "h_sigma": list(grid.h_sigma_values), "folds": grid.k},
        argmin={"h_x": am.h_x, "h_sigma": am.h_sigma},
        kernel_threads=kernel_threads(1, 1),  # one process, no pool
    )
    return 0


_SCENARIO_PRIORS = {
    "normal": NormalPrior(3.0, 1.0),
    "sparse": SparseMixPrior(0.7, 3.0, 0.3),
    "twopoint": TwoPointPrior(0.5, 0.0, 3.0),
}


def _parse_estimators(text: str, prior, n: int) -> list[EstimatorSpec]:
    """`simulate --estimators` tokens: the method table's names, with the
    group count appended to k-Groups as kgroups:K."""
    specs = []
    for token in text.split(","):
        token = token.strip()
        name, sep, k = token.partition(":")
        if name not in _METHODS or bool(sep) != (name == "kgroups"):
            raise NestError(f"unknown estimator {token!r}")
        try:
            k = int(k) if sep else None
        except ValueError:
            raise NestError(f"unknown estimator {token!r}") from None
        specs.append(study_spec(_build(name, {"prior": prior, "k_groups": k}), prior, n))
    return specs


def cmd_simulate(args) -> int:
    prior = _SCENARIO_PRIORS[args.scenario]
    n = args.n if args.n is not None else (5000 if args.full else 1000)
    reps = args.reps if args.reps is not None else (50 if args.full else 10)
    scenario = scenario_from_ratio(
        prior, args.ratio, n, reps, args.seed, label=f"{args.scenario}-ratio{args.ratio:g}"
    )
    if args.estimators:
        specs = _parse_estimators(args.estimators, prior, n)
    else:
        specs = table_specs(prior, n)
    table = run_mse_study(scenario, specs, folds_k=args.folds, threads=args.threads)
    write_csv_atomic(
        args.output,
        ["scenario", "estimator", "mse", "se", "n", "reps"],
        ((table.scenario, name, row.mse, row.se, table.n, row.reps) for name, row in table.iter_rows()),
    )
    _manifest(
        "simulate",
        args,
        scenario=scenario.label,
        sigma_law={"lo": scenario.sigma_law.lo, "hi": scenario.sigma_law.hi},
        n=n,
        reps=reps,
        kernel_threads=kernel_threads(args.threads, reps),
    )
    return 0


def cmd_bias(args) -> int:
    results = run_bias_experiment(
        args.setting,
        reps=args.reps,
        select_k=args.select_k,
        seed=args.seed,
        n=args.n,
        folds_k=args.folds,
        threads=args.threads,
    )
    rows = ((name, rep, d) for name, res in results.items() for rep, diffs in enumerate(res.diffs.tolist())
            for d in diffs)
    write_csv_atomic(args.output, ["estimator", "rep", "diff"], rows)
    _manifest(
        "bias",
        args,
        setting=args.setting,
        reps=args.reps,
        select_k=args.select_k,
        n=args.n,
        kernel_threads=kernel_threads(args.threads, args.reps),
    )
    return 0


# `expfam --family` -> its family class, whose one field is the option holding its parameter.
_FAMILIES = {"binomial": Binomial, "negbinomial": NegBinomial, "gamma": Gamma, "beta": Beta}


def cmd_expfam(args) -> int:
    make = _FAMILIES[args.family]
    (option,) = fields(make)
    param = getattr(args, option.name)
    if param is None:
        raise NestError(f"--{option.name.replace('_', '-')} is required for {args.family}")
    family = make(param)
    point = FamilyPoint(family, family.coordinate(args.x))
    header = ["family", "value", "lh_prime", "lf1", "posterior_mean"]
    row = (args.family, float(point.value), point.carrier, args.lf1, posterior_mean(point, ScoreEstimate(args.lf1)))
    if args.output:
        write_csv_atomic(args.output, header, [row])
    else:
        print(",".join(header))
        print(",".join(fmt_value(v) for v in row))
    _manifest("expfam", args, family=args.family)
    return 0


def cmd_prep_gap(args) -> int:
    columns = read_csv(args.input, {"id": str, "pass_A": int, "n_A": int, "pass_D": int, "n_D": int})
    kept, filtered = [], []
    for rid, pa, na, pd_, nd in zip(*columns):
        if na <= 0 or nd <= 0 or pa < 0 or pd_ < 0 or pa > na or pd_ > nd:
            raise NonsensicalCounts(
                rid, f"pass/total counts inconsistent: pass_A={pa}, n_A={na}, pass_D={pd_}, n_D={nd}")
        if na < 30 or nd < 30:
            filtered.append((rid, "min-testers"))
            continue
        if pa < 5 or pd_ < 5:
            filtered.append((rid, "min-pass"))
            continue
        if na - pa < 5 or nd - pd_ < 5:
            filtered.append((rid, "min-fail"))
            continue
        p_a, p_d = pa / na, pd_ / nd
        x = 100.0 * (p_a - p_d)
        s = 100.0 * math.sqrt(p_a * (1 - p_a) / na + p_d * (1 - p_d) / nd)
        kept.append((rid, x, s))
    write_csv_atomic(args.output, ["id", "x", "s"], kept)
    sidecar = args.filtered_log or (args.output + ".filtered.csv")
    write_csv_atomic(sidecar, ["id", "reason"], filtered)
    _manifest("prep-gap", args, kept=len(kept), filtered=len(filtered), filtered_log=sidecar)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nesteb",
        description="Empirical Bayes shrinkage for heteroscedastic data: NEST, "
        "competitor rules, SURE bandwidth tuning, and simulation studies.",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int_at_least(0), default=0, help="non-negative base seed")
    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument("--threads", type=int_at_least(1), default=1, help="worker processes (output is thread-count independent)")
    folded = argparse.ArgumentParser(add_help=False)
    folded.add_argument("--folds", type=int_at_least(2), default=10, help="cross-fitting folds, at least 2")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", parents=[seeded, folded], help="estimate means from a CSV of (id, x, sigma)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--method", action="append", choices=list(_METHODS),
                   help="repeatable, each method at most once; one output column per method (default: nest)")
    p.add_argument("--hx", type=float,
                   help="fixed bandwidth: NEST h_x multiplier (with --hsigma), or the pooled h for tf/scaled")
    p.add_argument("--hsigma", type=float, help="fixed NEST h_sigma in sigma units (with --hx)")
    p.add_argument("--k-groups", type=int_at_least(1), dest="k_groups", help="group count for kgroups")
    p.add_argument("--prior", help=f"oracle prior: {_PRIOR_FORMS}")
    p.add_argument("--truncate", nargs="?", const="auto",
                   help="clip shrinkage estimates to +/-BOUND (default bound 2 log n)")
    p.add_argument("--stabilize-sign", action="store_true",
                   help="zero shrinkage estimates whose sign disagrees with x")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("tune", parents=[seeded, folded], help="SURE bandwidth surface and argmin")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="surface CSV (h_x, h_sigma, S)")
    p.add_argument("--grid-hx", help="comma list of h_x values")
    p.add_argument("--grid-hsigma", help="comma list of h_sigma values")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("simulate", parents=[seeded, pooled, folded], help="MSE study over one scenario cell")
    p.add_argument("--scenario", choices=sorted(_SCENARIO_PRIORS), required=True)
    p.add_argument("--ratio", type=float, default=0.9, help="target var(mu)/var(X) in (0,1)")
    p.add_argument("--n", type=int_at_least(1))
    p.add_argument("--reps", type=int_at_least(1))
    p.add_argument("--estimators", help=f"comma list of {','.join(_METHODS)}; kgroups takes a group count, kgroups:K")
    p.add_argument("--output", required=True)
    p.add_argument("--full", action="store_true",
                   help="n=5000, reps=50 unless overridden (default: n=1000, reps=10)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bias", parents=[seeded, pooled, folded], help="tail-selection bias experiment")
    p.add_argument("--setting", choices=_BIAS_SETTINGS, required=True)
    p.add_argument("--reps", type=int_at_least(1), default=200)
    p.add_argument("--select-k", type=int_at_least(1), default=20, dest="select_k")
    p.add_argument("--n", type=int_at_least(1), default=5000)
    p.add_argument("--output", required=True, help="CSV of (estimator, rep, diff)")
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("expfam", help="spot-evaluate an exponential-family posterior mean")
    p.add_argument("--family", choices=list(_FAMILIES), required=True)
    for make in _FAMILIES.values():
        (option,) = fields(make)   # the one field, annotated int or float
        p.add_argument(f"--{option.name.replace('_', '-')}", type={"int": int, "float": float}[option.type])
    p.add_argument("--x", type=float, required=True, help="observation (raw x for every family)")
    p.add_argument("--lf1", type=float, required=True, help="injected marginal score l'_f")
    p.add_argument("--output")
    p.set_defaults(func=cmd_expfam)

    p = sub.add_parser("prep-gap", help="two-proportion gap preprocessing")
    p.add_argument("--input", required=True, help="CSV of (id, pass_A, n_A, pass_D, n_D)")
    p.add_argument("--output", required=True, help="CSV of (id, x, s), x and s in percentage points")
    p.add_argument("--filtered-log", dest="filtered_log", help="sidecar CSV (default: OUTPUT.filtered.csv)")
    p.set_defaults(func=cmd_prep_gap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not log.handlers:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(json.dumps({"error": type(e).__name__, "detail": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
