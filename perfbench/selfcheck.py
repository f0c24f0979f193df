"""Self-check of the harness; runs no workload.

Usage: python3 perfbench/selfcheck.py

Checks that the output check accepts a reference as itself (bitwise) and a
2e-9 relative restructuring noise (not bitwise), and that it catches a
perturbed float, a non-finite value and a moved bandwidth. Also checks that
BENCHMARK.json names only workloads the code has and exactly the metrics
it reports.
Exits 1 on any mismatch.
"""

import copy
import json
import os
import sys

from check import compare, load_record, load_refs
from run import E2E, ROOT
from worker import PER_LAYER
from workloads import WORKLOADS, digest


def perturbed(ref, fn):
    out = copy.deepcopy(ref)
    fn(out)
    out["digest"] = digest(out)
    return out


def scale_all(factor):
    def fn(out):
        for key, vals in out["arrays"].items():
            out["arrays"][key] = [v * factor for v in vals]
    return fn


def shift_first_float(out):
    key = sorted(out["arrays"])[0]
    vals = out["arrays"][key]
    vals[0] += 1e-4 * max(abs(v) for v in vals)


def nan_first_float(out):
    out["arrays"][sorted(out["arrays"])[0]][0] = float("nan")


def nudge_first_bandwidth(out):
    out["bandwidths"][0][1][0] *= 1.0 + 1e-12


CASES = [
    # (label, perturbation, expected passes, expected bitwise)
    ("identical", None, True, True),
    ("2e-9 relative noise on every float", scale_all(1.0 + 2e-9), True, False),
    ("one float moved by 1e-4 of its array's scale", shift_first_float, False, False),
    ("one float turned NaN", nan_first_float, False, False),
    ("first bandwidth moved by 1e-12 relative", nudge_first_bandwidth, False, False),
]


def main():
    problems = []
    rtol = load_record()["output_check"]["rtol"]
    for name in WORKLOADS:
        refs = load_refs(name)
        for seed, ref in refs.items():
            for label, fn, want_ok, want_bitwise in CASES:
                out = copy.deepcopy(ref) if fn is None else perturbed(ref, fn)
                ok, bitwise, _ = compare(out, ref, rtol)
                if (ok, bitwise) != (want_ok, want_bitwise):
                    problems.append(f"{name} seed {seed}: {label}: got passes={ok} bitwise={bitwise}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    unknown = [w["name"] for w in bench["workloads"] if w["name"] not in WORKLOADS]
    if unknown:
        problems.append(f"BENCHMARK.json names workloads the code lacks: {unknown}")
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in bench["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
    }
    reported = {"end_to_end": E2E, "per_layer": PER_LAYER}
    for key in declared:
        if declared[key] != list(reported[key]):
            problems.append(f"BENCHMARK.json {key} differs from what the code reports")

    for p in problems:
        print(p)
    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
