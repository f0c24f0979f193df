"""Runs one workload in a fresh process and prints its measurements as one
JSON line. A fresh process per workload keeps ``ru_maxrss``, a lifetime
high-water mark, from carrying over between workloads.

Usage: python worker.py ROOT WORKLOAD INPUT_SEED SECONDS TRACE SETUP_ONLY SPAWNED_AT

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so set-up includes interpreter start.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

from check import compare, load_record, load_refs  # noqa: E402
from probe import Probe, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

METHODS = ("nest", "tf", "scaled", "kgroups", "oracle", "naive")

# (name, unit, better); every *.s is self time per traced op.
PER_LAYER = [
    ("sure.tune.s", "s", "lower"),
    ("sure.tune.calls", "count", "lower"),
    ("sure.tune.pair_evals", "count", "lower"),
    ("sure.tune.useful_cell_ratio", "ratio", "higher"),
    ("sure.tune_pooled.s", "s", "lower"),
    ("sure.tune_pooled.calls", "count", "lower"),
    ("sure.tune_pooled.pair_evals", "count", "lower"),
    ("sure.tune_kgroups.self_s", "s", "lower"),
    ("kernel.in_sample_triple.s", "s", "lower"),
    ("kernel.in_sample_triple.calls", "count", "lower"),
    ("kernel.in_sample_triple.pair_evals", "count", "lower"),
    ("estimators.estimate.self_s", "s", "lower"),
    *((f"estimators.estimate.{m}.s", "s", "lower") for m in METHODS),
    ("simulation.rep.s.p50", "s", "lower"),
    ("simulation.rep.s.max", "s", "lower"),
    ("simulation.draw_scenario.s", "s", "lower"),
    ("simulation.resolve_spec.self_s", "s", "lower"),
    ("data.kfold_split.s", "s", "lower"),
    ("data.validate_sample.s", "s", "lower"),
    ("priors.posterior_mean.s", "s", "lower"),
    ("io.read_csv.s", "s", "lower"),
    ("io.write_csv_atomic.s", "s", "lower"),
    ("io.bytes_in", "bytes", "lower"),
    ("io.bytes_out", "bytes", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
]


class LayerTotals:
    """Sums of self times and counts over the traced ops of a run."""

    def __init__(self):
        self.ops = 0
        self.selfs = defaultdict(float)
        self.counts = defaultdict(float)
        self.rep_selfs = []
        self.import_s = 0.0
        self.unattributed = 0.0

    def add(self, wall, spans, counts, import_s):
        selfs, roots = self_times(spans)
        self.ops += 1
        for k, v in selfs.items():
            self.selfs[k] += v
        for k, v in counts.items():
            self.counts[k] += v
        if "simulation.rep" in selfs:
            self.rep_selfs.append(selfs["simulation.rep"])
        self.import_s += import_s
        self.unattributed += wall - import_s - roots

    def metrics(self, overhead):
        n = max(self.ops, 1)
        s = {k: v / n for k, v in self.selfs.items()}
        c = {k: v / n for k, v in self.counts.items()}
        cells = c.get("sure.tune.cells", 0.0)
        return {
            "sure.tune.s": s.get("sure.tune", 0.0),
            "sure.tune.calls": c.get("sure.tune.calls", 0.0),
            "sure.tune.pair_evals": c.get("sure.tune.pair_evals", 0.0),
            "sure.tune.useful_cell_ratio": c.get("sure.tune.useful_cells", 0.0) / cells if cells else 0.0,
            "sure.tune_pooled.s": s.get("sure.tune_pooled", 0.0),
            "sure.tune_pooled.calls": c.get("sure.tune_pooled.calls", 0.0),
            "sure.tune_pooled.pair_evals": c.get("sure.tune_pooled.pair_evals", 0.0),
            "sure.tune_kgroups.self_s": s.get("sure.tune_kgroups", 0.0),
            "kernel.in_sample_triple.s": s.get("kernel.in_sample_triple", 0.0),
            "kernel.in_sample_triple.calls": c.get("kernel.in_sample_triple.calls", 0.0),
            "kernel.in_sample_triple.pair_evals": c.get("kernel.in_sample_triple.pair_evals", 0.0),
            "estimators.estimate.self_s": s.get("estimators.estimate", 0.0),
            **{f"estimators.estimate.{m}.s": s.get(f"estimators.estimate.{m}", 0.0) for m in METHODS},
            "simulation.rep.s.p50": statistics.median(self.rep_selfs) if self.rep_selfs else 0.0,
            "simulation.rep.s.max": max(self.rep_selfs, default=0.0),
            "simulation.draw_scenario.s": s.get("simulation.draw_scenario", 0.0),
            "simulation.resolve_spec.self_s": s.get("simulation.resolve_spec", 0.0),
            "data.kfold_split.s": s.get("data.kfold_split", 0.0),
            "data.validate_sample.s": s.get("data.validate_sample", 0.0),
            "priors.posterior_mean.s": s.get("priors.posterior_mean", 0.0),
            "io.read_csv.s": s.get("io.read_csv", 0.0),
            "io.write_csv_atomic.s": s.get("io.write_csv_atomic", 0.0),
            "io.bytes_in": c.get("io.bytes_in", 0.0),
            "io.bytes_out": c.get("io.bytes_out", 0.0),
            "cli.import_s": self.import_s / n,
            "cli.main.self_s": s.get("cli.main", 0.0),
            "unattributed_s": self.unattributed / n,
            "trace_overhead_s": overhead,
        }


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def main(argv):
    root, name, seed, seconds, trace, setup_only, spawned_at = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    setup_only, spawned_at = setup_only == "1", float(spawned_at)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    t = time.monotonic()
    import nesteb

    if not os.path.abspath(nesteb.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"nesteb imported from {nesteb.__file__}, not from {src}")
    setup = {"interpreter_s": T_START - spawned_at, "import_s": time.monotonic() - t}

    wl = WORKLOADS[name]
    workdir = os.path.join(root, "perfbench", ".work", f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t = time.monotonic()
        warm_inputs = wl.prepare(seed, wl.n_warm, workdir)
        inputs = wl.prepare(seed, wl.n, workdir)
        setup["inputs_s"] = time.monotonic() - t

        probe = Probe(timing=trace)
        probe.install()
        t = time.monotonic()
        wl.run(warm_inputs, trace, probe, root)
        setup["warmup_s"] = time.monotonic() - t
        setup_s = time.monotonic() - spawned_at
        result = {"setup": setup, "setup_s": setup_s, "env": environment()}
        if not setup_only:
            result.update(timed_phase(wl, inputs, seed, seconds, trace, probe, root))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def timed_phase(wl, inputs, seed, seconds, trace, probe, root):
    rtol = load_record()["output_check"]["rtol"]
    ref = load_refs(wl.name).get(str(seed))
    totals = LayerTotals()
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        # A traced run alternates traced and untraced ops, starting traced.
        traced = trace and len(ops) % 2 == 0
        probe.timing = traced
        probe.reset()
        error = None
        t0 = time.perf_counter()
        try:
            raw = wl.run(inputs, traced, probe, root)
        except Exception as e:  # a failed op is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        ok = bitwise = False
        if error is None:
            try:
                out = wl.outputs(raw, inputs, probe)
            except Exception as e:  # unreadable output fails the check
                error = f"{type(e).__name__}: {e}"
            else:
                if ref is None:
                    error = f"no reference output for input seed {seed}"
                else:
                    ok, bitwise, error = compare(out, ref, rtol)
        ops.append({"wall": wall, "traced": traced, "ok": ok, "bitwise": bitwise, "error": error or None})
        if traced and ok:
            totals.add(wall, *wl.trace(inputs, probe))
        # Start another op only if it is expected to end before the deadline;
        # a traced run needs at least one op of each kind.
        if time.perf_counter() + wall > deadline and (not trace or len(ops) >= 2):
            break
    result = {"ops": ops, "peak_rss_mb": resource.getrusage(wl.rusage).ru_maxrss / 1024.0}
    if trace:
        walls = {kind: [o["wall"] for o in ops if o["ok"] and o["traced"] == kind] for kind in (True, False)}
        overhead = (statistics.median(walls[True]) - statistics.median(walls[False])
                    if walls[True] and walls[False] else 0.0)
        result["layers"] = totals.metrics(overhead)
    return result


if __name__ == "__main__":
    main(sys.argv[1:])
