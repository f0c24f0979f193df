"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

The first form runs one workload, prints what it measured and, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The second form runs every workload in turn and prints one table.

Each workload runs in fresh worker processes (see worker.py) from the
package source in ./src of the checkout; without it the benchmark exits 2.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from check import input_seed, load_record, load_refs
from worker import PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

E2E = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUPS = 3  # set-ups per untraced run; setup_s is their median
BUDGET_S = 170.0  # every worker of one run must end within this


def spawn(name, input_seed, seconds, trace, setup_only, deadline):
    """Run worker.py in a fresh process and return its JSON result."""
    args = [ROOT, name, str(input_seed), str(seconds), str(int(trace)), str(int(setup_only))]
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    spawned = time.monotonic()
    with subprocess.Popen([*cmd, repr(spawned)], cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"{name}: worker did not finish within {BUDGET_S:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail_text(walls):
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 20:
        return f"no percentile at or above the median has ten samples beyond it (n = {n} < 20)"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(walls)[n - 11]:.4f} s"


def run_workload(name, seed, seconds, trace):
    """Returns (result object for the last line, lines describing the run)."""
    wl = WORKLOADS[name]
    iseed = input_seed(seed, load_refs(name), load_record()["seeds"]["pool"])
    deadline = time.monotonic() + BUDGET_S
    if trace:
        setups = []
    else:
        setups = [spawn(name, iseed, seconds, False, True, deadline)["setup_s"] for _ in range(SETUPS - 1)]
    main = spawn(name, iseed, seconds, trace, False, deadline)
    setups.append(main["setup_s"])

    ops = main["ops"]
    failed = sum(not o["ok"] for o in ops)
    bitwise = sum(o["bitwise"] for o in ops)
    unit = wl.unit
    lines = [
        f"{name}: seed {seed} -> input seed {iseed}; {len(ops)} {unit}s"
        + (f" ({sum(o['traced'] for o in ops)} traced)" if trace else ""),
        f"  error_rate {failed}/{len(ops)} {unit}s = {failed / len(ops):.3g}"
        f"; bitwise identical to the reference: {bitwise}/{len(ops)} {unit}s",
    ]
    lines += [f"  failed: {o['error']}" for o in ops if not o["ok"]][:3]
    env = main["env"]
    lines.append(
        f"  environment: nproc {env['nproc']} (affinity {env['affinity']}), python {env['python']}, "
        f"numpy {env['numpy']}, blas {env['blas']}"
    )

    if trace:
        metrics = {m: {"value": main["layers"][m], "unit": u} for m, u, _ in PER_LAYER}
    else:
        walls = [o["wall"] for o in ops if o["ok"]] or [o["wall"] for o in ops]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in E2E}
        parts = ", ".join(f"{k.removesuffix('_s')} {v:.3f} s" for k, v in main["setup"].items())
        lines += [
            f"  wall_s: median {values['wall_s']:.4f} s over {len(walls)} {unit}s; {tail_text(walls)}",
            f"  setup_s: median {values['setup_s']:.4f} s of {len(setups)} set-ups "
            f"({', '.join(f'{s:.3f}' for s in setups)}); last: {parts}",
            f"  peak_rss_mb: {values['peak_rss_mb']:.1f} MB of the {wl.rss_of}",
        ]
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload and print one table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "nesteb", "__init__.py")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'nesteb')}", file=sys.stderr)
        return 2

    if not args.all:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result))
        return 0

    table = {}
    for name in WORKLOADS:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        table[name] = result
    names = list(table)
    print(f"\n{'metric':40}" + "".join(f"{n:>16}" for n in names))
    rows = [(m, u) for m, u, _ in PER_LAYER] if args.trace else E2E
    for m, u in rows:
        print(f"{m + ' [' + u + ']':40}" + "".join(f"{table[n]['metrics'][m]['value']:>16.6g}" for n in names))
    print(f"{'error_rate [failed/attempted]':40}"
          + "".join(f"{str(table[n]['failed']) + '/' + str(table[n]['attempted']):>16}" for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
