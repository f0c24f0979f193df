"""The benchmark's workloads.

Each workload makes its inputs from a seed, runs one operation through the
package's public functions or its CLI (``threads=1``), and turns the result
into the outputs the check compares: the selected bandwidths (compared
exactly) and float arrays (compared within a relative tolerance).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def digest(obj) -> str:
    """sha256 of the canonical JSON of an output; equal iff bitwise equal."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class InProcess:
    """A workload whose op runs in the worker process itself."""

    rusage = resource.RUSAGE_SELF
    rss_of = "worker process"

    def trace(self, inputs, probe):
        """(spans, counts, import seconds) of the last traced op."""
        return probe.spans, probe.counts, 0.0


class MseCell(InProcess):
    """`run_mse_study` on criterion 3's two-point cell, one replication per op."""

    name = "mse-cell"
    unit = "replication"
    n, n_warm = 1000, 200

    def prepare(self, seed, n, workdir):
        from nesteb import TwoPointPrior
        from nesteb.simulation import scenario_from_ratio, table_specs

        prior = TwoPointPrior(0.5, 0.0, 3.0)
        scenario = scenario_from_ratio(prior, 9.2 / 10.2, n=n, reps=1, seed=seed, label="twopoint-9.2")
        return scenario, table_specs(prior, n, include_kgroups=(2,))

    def run(self, inputs, traced, probe, root):
        import nesteb.simulation as sim

        scenario, specs = inputs
        return sim.run_mse_study(scenario, specs, threads=1)

    def outputs(self, table, inputs, probe):
        out = {
            "bandwidths": probe.captured,
            "arrays": {name: [row.mse] for name, row in table.iter_rows()},
        }
        out["digest"] = digest(out)
        return out


class BiasTail(InProcess):
    """One criterion-6 replication per op: argmin-tuned NEST and TF, then the
    jackknifed NEST fit, on the 20 smallest of n = 5000."""

    name = "bias-tail"
    unit = "replication"
    n, n_warm = 5000, 500

    def prepare(self, seed, n, workdir):
        return {"seed": seed, "n": n}

    def run(self, inputs, traced, probe, root):
        import nesteb.simulation as sim

        return sim.run_bias_experiment(
            "single-center", reps=1, select_k=20, seed=inputs["seed"], n=inputs["n"], threads=1
        )

    def outputs(self, results, inputs, probe):
        out = {
            "bandwidths": probe.captured,
            "arrays": {name: res.diffs[0].tolist() for name, res in results.items()},
        }
        out["digest"] = digest(out)
        return out


class CliEstimate:
    """`nesteb estimate` as a child process on a generated id,x,sigma CSV."""

    name = "cli-estimate"
    unit = "invocation"
    rusage = resource.RUSAGE_CHILDREN
    rss_of = "largest nesteb child process"
    n, n_warm = 5000, 200
    methods = ["nest", "tf", "scaled", "naive"]
    flags = [
        "--method", "nest", "--method", "tf", "--method", "scaled", "--method", "naive",
        "--hx", "0.4", "--hsigma", "0.2", "--truncate", "--stabilize-sign",
    ]

    def prepare(self, seed, n, workdir):
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        mu = np.where(rng.random(n) < 0.5, 0.0, 3.0)
        sigma = rng.uniform(0.1, 1.5, n)
        x = mu + sigma * rng.standard_normal(n)
        ids = [f"r{i:05d}" for i in range(n)]
        path = os.path.join(workdir, f"input-{n}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("id,x,sigma\n")
            fh.writelines(f"{i},{a!r},{s!r}\n" for i, a, s in zip(ids, x.tolist(), sigma.tolist()))
        # Elementwise check rows: a fixed stride plus both extremes of x.
        rows = sorted(set(range(0, n, 79)) | {int(np.argmin(x)), int(np.argmax(x))})
        return {
            "input": path,
            "output": os.path.join(workdir, f"output-{n}.csv"),
            "spans": os.path.join(workdir, f"spans-{n}.json"),
            "ids": ids, "x": x.tolist(), "sigma": sigma.tolist(), "rows": rows,
        }

    def run(self, inputs, traced, probe, root):
        args = ["estimate", "--input", inputs["input"], "--output", inputs["output"], *self.flags]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "launch_cli.py"), inputs["spans"], *args]
        else:
            cmd = [sys.executable, "-m", "nesteb.cli", *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                _, err = proc.communicate(timeout=170.0)  # the whole run's budget
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0:
            raise RuntimeError(f"nesteb exited {proc.returncode}: {err.strip()[-500:]}")
        return err

    def trace(self, inputs, probe):
        with open(inputs["spans"], encoding="utf-8") as fh:
            data = json.load(fh)
        return data["spans"], data["counts"], data["import_s"]

    def outputs(self, stderr, inputs, probe):
        manifest = None
        for line in stderr.splitlines():
            if line.startswith("{") and '"manifest"' in line:
                manifest = json.loads(line)["manifest"]
        if manifest is None:
            raise RuntimeError("no manifest line on stderr")
        resolved = manifest["resolved"]
        bandwidths = [
            ["nest", [resolved["nest"]["h_x"], resolved["nest"]["h_sigma"]]],
            ["tf", [resolved["tf"]["h"]]],
            ["scaled", [resolved["scaled"]["h"]]],
            ["truncate", [manifest["truncate"]]],
        ]
        with open(inputs["output"], "rb") as fh:
            raw = fh.read()
        table = list(csv.reader(raw.decode("utf-8").splitlines()))
        header, body = table[0], table[1:]
        if header != ["id", "x", "sigma", *self.methods]:
            raise RuntimeError(f"unexpected output header {header}")
        cols = {h: [r[k] for r in body] for k, h in enumerate(header)}
        if (cols["id"] != inputs["ids"]
                or [float(v) for v in cols["x"]] != inputs["x"]
                or [float(v) for v in cols["sigma"]] != inputs["sigma"]):
            raise RuntimeError("id, x or sigma column does not echo the input")
        arrays = {}
        for m in self.methods:
            v = np.array([float(s) for s in cols[m]])
            arrays[m] = v[inputs["rows"]].tolist()
            arrays[m + ".l1"] = [float(np.abs(v).sum())]
            arrays[m + ".l2sq"] = [float((v * v).sum())]
        return {"bandwidths": bandwidths, "arrays": arrays, "digest": hashlib.sha256(raw).hexdigest()}


WORKLOADS = {w.name: w for w in (MseCell(), BiasTail(), CliEstimate())}
