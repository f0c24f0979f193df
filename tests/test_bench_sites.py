"""Every wrapper site of the benchmark probe (perfbench/probe.py) names an
attribute the package still has where the probe looks it up; a renamed or
dropped import would otherwise break only traced benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

import nesteb.cli  # noqa: F401  imports every module the sites name

_spec = importlib.util.spec_from_file_location(
    "perfbench_probe", Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
)
probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe)


@pytest.mark.parametrize("path,attr", [site[:2] for site in probe.SITES])
def test_site_resolves(path, attr):
    owner = probe._resolve(path)
    assert owner is not None, f"{path} is not imported"
    assert hasattr(owner, attr), f"{path} has no attribute {attr}"
