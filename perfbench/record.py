"""Records the reference outputs that the output check compares against.

Usage: python3 perfbench/record.py [WORKLOAD ...]

Runs one op per input seed (the pool and the hold-out seed of RECORD.json)
and writes perfbench/refs/<workload>.json. References belong to the commit
that recorded them; re-record only when a change of results is intended and
explained.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from check import load_record  # noqa: E402
from probe import Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(names):
    seeds = load_record()["seeds"]
    seeds = list(range(seeds["pool"])) + [seeds["holdout"]]
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    import nesteb  # noqa: F401  (the probe wraps imported modules only)

    probe = Probe(timing=False)
    probe.install()
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        workdir = os.path.join(HERE, ".work", f"record-{name}")
        os.makedirs(workdir, exist_ok=True)
        outputs = {}
        try:
            for seed in seeds:
                inputs = wl.prepare(seed, wl.n, workdir)
                probe.reset()
                raw = wl.run(inputs, False, probe, ROOT)
                outputs[str(seed)] = wl.outputs(raw, inputs, probe)
                print(name, seed, outputs[str(seed)]["bandwidths"], flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
        with open(os.path.join(HERE, "refs", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "commit": commit, "outputs": outputs}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
