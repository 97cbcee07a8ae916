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


def test_compare_outputs_cli_workload(capsys):
    from nclp.cli import run_command

    compare_outputs = _load("compare_outputs")
    argvs = compare_outputs.cli_argvs(5)
    assert len(argvs) == 19
    for argv in argvs:
        assert run_command(argv) == 0, argv
    capsys.readouterr()
    root = os.path.join(SCRIPTS, "..")
    assert compare_outputs.main(["--base", root, "--workload", "cli", "--seed", "5"]) == 0
    assert "cli seed 5: 0/19 outputs differ" in capsys.readouterr().out
