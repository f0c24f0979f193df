"""Wrappers installed from outside the package, where callers look names up.

The package's modules import each other by name (``from .sure import tune``),
so a wrapper must replace the name in the module that *calls* it, e.g.
``nesteb.simulation.tune`` rather than ``nesteb.sure.tune``.

Every wrapper can capture the selected bandwidths (needed by the output
check in every run). With ``timing`` on it also records a span
``[name, key, start, end, parent]`` and work counts; self time is a span's
duration minus its children's.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _method_key(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return type(spec.method).__name__.lower()


def _tune_counts(args, kwargs, report):
    sample = args[0] if args else kwargs["sample"]
    cells = report.degenerate.size
    return {
        "sure.tune.pair_evals": cells * sample.n * sample.n,
        "sure.tune.cells": cells,
        "sure.tune.useful_cells": int((~report.degenerate).sum()),
    }


def _pooled_counts(args, kwargs, report):
    n = len(args[0] if args else kwargs["xd"])
    return {"sure.tune_pooled.pair_evals": len(report.h_values) * n * n}


def _triple_counts(args, kwargs, result):
    ctx = args[0] if args else kwargs["ctx"]
    return {"kernel.in_sample_triple.pair_evals": ctx.train.n * ctx.train.n}


def _bytes_in(args, kwargs, result):
    return {"io.bytes_in": os.path.getsize(args[0] if args else kwargs["path"])}


def _bytes_out(args, kwargs, result):
    return {"io.bytes_out": os.path.getsize(args[0] if args else kwargs["path"])}


# (calling module, attribute, span name, key fn, count fn, capture label)
SITES = [
    ("nesteb.simulation", "run_mse_study", "simulation.rep", None, None, None),
    ("nesteb.simulation", "run_bias_experiment", "simulation.rep", None, None, None),
    ("nesteb.simulation", "draw_scenario", "simulation.draw_scenario", None, None, None),
    ("nesteb.simulation", "resolve_spec", "simulation.resolve_spec", None, None, None),
    ("nesteb.cli", "resolve_spec", "simulation.resolve_spec", None, None, None),
    ("nesteb.simulation", "tune", "sure.tune", None, _tune_counts, "tune"),
    ("nesteb.simulation", "tune_pooled", "sure.tune_pooled", None, _pooled_counts, "tune_pooled"),
    ("nesteb.sure", "tune_pooled", "sure.tune_pooled", None, _pooled_counts, None),
    ("nesteb.simulation", "tune_kgroups", "sure.tune_kgroups", None, None, "tune_kgroups"),
    ("nesteb.estimators", "in_sample_triple", "kernel.in_sample_triple", None, _triple_counts, None),
    ("nesteb.simulation", "estimate", "estimators.estimate", _method_key, None, None),
    ("nesteb.cli", "estimate", "estimators.estimate", _method_key, None, None),
    ("nesteb.simulation", "kfold_split", "data.kfold_split", None, None, None),
    ("nesteb.sure", "kfold_split", "data.kfold_split", None, None, None),
    ("nesteb.cli", "validate_sample", "data.validate_sample", None, None, None),
    ("nesteb.priors.NormalPrior", "posterior_mean", "priors.posterior_mean", None, None, None),
    ("nesteb.priors.SparseMixPrior", "posterior_mean", "priors.posterior_mean", None, None, None),
    ("nesteb.priors.TwoPointPrior", "posterior_mean", "priors.posterior_mean", None, None, None),
    ("nesteb.cli", "read_csv", "io.read_csv", None, _bytes_in, None),
    ("nesteb.cli", "write_csv_atomic", "io.write_csv_atomic", None, _bytes_out, None),
    ("nesteb.cli", "main", "cli.main", None, None, None),
]


def _capture(label, result):
    if label == "tune":
        return [label, [float(result.argmin.h_x), float(result.argmin.h_sigma)]]
    if label == "tune_pooled":
        return [label, [float(result.best_h)]]
    return [label, [float(h) for h in result]]


def _resolve(path):
    """Module or class for a dotted path, or None if its module is not imported."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for p in parts[cut:]:
                obj = getattr(obj, p, None)
            return obj
    return None


class Probe:
    """Installs the wrappers of :data:`SITES` on every imported module and
    keeps the spans, counts and captured bandwidths of the current op."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.captured: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for path, attr, name, key, count, label in SITES:
            owner = _resolve(path)
            if owner is None:
                continue
            if not self.timing and label is None:
                continue
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, name, key, count, label))
            self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self.captured = []

    def _wrap(self, orig, name, key, count, label):
        probe = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not probe.timing:
                result = orig(*args, **kwargs)
            else:
                idx = len(probe.spans)
                parent = probe._stack[-1] if probe._stack else -1
                span = [name, key(args, kwargs) if key else None, time.perf_counter(), None, parent]
                probe.spans.append(span)
                probe._stack.append(idx)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    span[3] = time.perf_counter()
                    probe._stack.pop()
                probe.counts[name + ".calls"] += 1
                if count:
                    for k, v in count(args, kwargs, result).items():
                        probe.counts[k] += v
            if label:
                probe.captured.append(_capture(label, result))
            return result

        return wrapper


def self_times(spans) -> tuple[dict[str, float], float]:
    """Self seconds per metric name, and the summed duration of root spans.

    ``estimators.estimate`` spans are also credited per method under
    ``estimators.estimate.<method>.s``.
    """
    child = [0.0] * len(spans)
    roots = 0.0
    for name, key, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            roots += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, key, start, end, parent) in enumerate(spans):
        own = (end - start) - child[i]
        out[name] += own
        if key is not None:
            out[f"{name}.{key}"] += own
    return out, roots
