"""Smoke tests for the scripts under ``scripts/`` that no other test runs."""

import importlib.util
import os
import re

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_transpose_growth_demo_runs(capsys):
    assert _load("transpose_growth_demo").main() == 0
    ratios = [float(r) for r in re.findall(r"best ratio (\S+)", capsys.readouterr().out)]
    assert len(ratios) == 3
    assert all(0 < r <= 1 + 1e-9 for r in ratios)
