"""Output check against the reference outputs recorded at the seed commit.

Selected bandwidths must match exactly: an argmin change is a changed
result. Float arrays must match within ``rtol`` relative to the largest
magnitude in the same array (one estimator's MSE, one estimator's selected
diffs, one CLI column). Bitwise identity is reported separately and is not
a failure.
"""

from __future__ import annotations

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def load_record() -> dict:
    with open(os.path.join(HERE, "RECORD.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_refs(workload: str) -> dict:
    with open(os.path.join(HERE, "refs", f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def input_seed(seed: int, refs: dict, pool: int) -> int:
    """The input a --seed value selects: its own if a reference exists for it
    (the hold-out seed), else ``seed mod pool``."""
    return seed if str(seed) in refs else seed % pool


def compare(out: dict, ref: dict, rtol: float) -> tuple[bool, bool, str]:
    """(passes, bitwise, reason for a failure)."""
    if out["bandwidths"] != ref["bandwidths"]:
        return False, False, f"bandwidths {out['bandwidths']} != reference {ref['bandwidths']}"
    if sorted(out["arrays"]) != sorted(ref["arrays"]):
        return False, False, f"output arrays {sorted(out['arrays'])} != reference {sorted(ref['arrays'])}"
    for key, want in ref["arrays"].items():
        got = out["arrays"][key]
        if len(got) != len(want):
            return False, False, f"{key}: length {len(got)} != {len(want)}"
        tol = rtol * max(abs(w) for w in want)
        for i, (g, w) in enumerate(zip(got, want)):
            if not (math.isfinite(g) and abs(g - w) <= tol):
                return False, False, f"{key}[{i}] = {g!r}, reference {w!r}, tolerance {tol:.3g}"
    return True, out["digest"] == ref["digest"], ""
