"""The package's public surface: the names it exports, the CLI commands
README shows, and its one runtime dependency, NumPy."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import nesteb
from nesteb.cli import build_parser
from nesteb.io import write_csv_atomic

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(set(nesteb.__all__)) == len(nesteb.__all__)
    assert [name for name in nesteb.__all__ if not hasattr(nesteb, name)] == []


def test_readme_commands_parse():
    # every `nesteb ...` line of README's sh blocks, continuation lines joined
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("nesteb ")]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
    # each command has an example
    assert {argv[1] for argv in commands} == {"estimate", "tune", "simulate", "bias", "expfam", "prep-gap"}


# Blocks scipy in a fresh interpreter, then runs the oracle rule's command
# with a one- and a two-component prior, a small simulation and the two
# closed forms that go through the priors' weight and tail.
_WITHOUT_SCIPY = """
import math, sys
sys.modules["scipy"] = None  # every import of scipy now raises ModuleNotFoundError
from nesteb import SparseMixPrior, TwoPointPrior, selection_bias_formula, tf_average_shrinkage
from nesteb.cli import main
inp, out = sys.argv[1:]
for prior in ("twopoint:0.5,0,3", "sparsemix:0.7,3,0.3"):
    assert main(["estimate", "--input", inp, "--output", out, "--method", "oracle", "--prior", prior]) == 0
assert main(["simulate", "--scenario", "twopoint", "--n", "200", "--reps", "1", "--output", out]) == 0
values = [selection_bias_formula(2.0, 1.0, SparseMixPrior(0.7, 3.0, 0.3)),
          selection_bias_formula(2.0, 1.5, TwoPointPrior(0.5, 0.0, 3.0)),
          tf_average_shrinkage(2.0, 1.0, 0.5, 1.0, 3.0, 0.7)]
assert all(map(math.isfinite, values)), values
"""


def test_package_runs_without_scipy(tmp_path):
    inp = tmp_path / "in.csv"
    write_csv_atomic(str(inp), ["id", "x", "sigma"], [("a", -1.0, 0.5), ("b", 2.0, 1.0), ("c", 3.5, 2.0)])
    src = os.path.dirname(os.path.dirname(nesteb.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(inp), str(tmp_path / "out.csv")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
