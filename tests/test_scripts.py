"""Smoke tests for the scripts under ``scripts/`` that no other test runs."""

import importlib.util
import json
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


def test_run_suite_filter_matching_nothing_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["run_suite.py", "--only", "no-such-property"])
    assert _load("run_suite").main() == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "no-such-property" in err


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
    assert "cli seed 5: 0/37 outputs differ" in capsys.readouterr().out


def test_compare_outputs_cli_workload_runs_every_command(tmp_path):
    from nclp.cli import _COMMANDS

    argvs = _load("compare_outputs").cli_argvs(5, str(tmp_path))
    assert {argv[0] for argv in argvs} == set(_COMMANDS)
    # the reading commands take their instances from files in the directory
    assert all(argv[-2:] == ["--in", str(tmp_path / argv[-1].rsplit(os.sep, 1)[-1])]
               for argv in argvs if argv[0] not in ("gen", "example", "suite"))


def test_compare_outputs_flags_disjoint_intervals():
    # two sound enclosures of one norm intersect; rounding-level gaps pass
    compare_outputs = _load("compare_outputs")
    iv = compare_outputs._interval
    assert iv({"interval": {"lower": 1.0, "upper": None}}) == (1.0, float("inf"))
    assert iv({"verdict": "ytf"}) is None and iv("not json") is None
    below = compare_outputs._below
    assert below(1.0, 1.0 + 1e-6) and not below(1.0, 1.0 + 1e-12)
    # an unbounded upper endpoint is above every finite one, and not above itself
    assert below(2.0, float("inf")) and not below(float("inf"), float("inf"))


def test_compare_outputs_counts_changed_pair_statuses_as_decisions():
    compare_outputs = _load("compare_outputs")

    def output(statuses, ratio=1.0):
        doc = {"verdict": "undetermined", "evidence": {"pair_statuses": statuses, "max_l12_ratio": ratio}}
        return [2, json.dumps(doc), ""]

    def tally(old, new):
        return compare_outputs._tally([(old, new)], ["classify-l2"])

    changed = tally(output({"undetermined": 18}), output({"not_disjoint": 18}))
    assert len(changed["decision"]) == 1 and "pair_statuses" in changed["decision"][0]
    assert changed["structure"] == [] and changed["max_rel"] == 0.0
    recounted = tally(output({"disjoint": 8, "undetermined": 10}), output({"disjoint": 9, "undetermined": 9}))
    assert len(recounted["decision"]) == 1 and recounted["max_rel"] == 0.0
    # equal counts leave only the numbers to compare
    drift = tally(output({"disjoint": 18}), output({"disjoint": 18}, 1.0 + 1e-9))
    assert drift["decision"] == [] and drift["structure"] == []
    assert drift["max_rel"] > 0 and drift["max_rel_at"].endswith("max_l12_ratio")


def test_compare_outputs_lists_every_moved_path():
    compare_outputs = _load("compare_outputs")

    def output(a, b, c=0.5):
        doc = {"verdict": "ytf", "evidence": {"hom": [a, 2 * a], "anti": b, "fixed": c}}
        return [0, json.dumps(doc), ""]

    pairs = [(output(1.0, 3.0), output(1.0 + 1e-14, 3.0)),
             (output(1.0, 3.0), output(1.0 + 4e-15, 3.0 * (1 + 2e-13))),
             (output(1.0, 3.0), output(1.0, 3.0))]
    summary = compare_outputs._tally(pairs, ["yeadon", "separating", "certify"])
    assert set(summary["moved"]) == {"$.evidence.hom[]", "$.evidence.anti"}
    assert 0.9e-14 < summary["moved"]["$.evidence.hom[]"] < 1.1e-14
    assert summary["moved"]["$.evidence.anti"] == summary["max_rel"]
    assert summary["max_rel_at"] == "op001 (separating) at $.evidence.anti"
    assert summary["byte_different"] == 2 and summary["structure"] == []


def test_compare_outputs_reports_changed_keys_one_by_one():
    # a key on one side only is a change of structure at that key; the
    # numbers under the shared keys are still compared
    diffs = _load("compare_outputs")._number_diffs
    old = {"route": "separating", "evidence": {"ratio": {"best": 1.0}, "op_norm": [1, 2]}}
    new = {"route": "separating", "evidence": {"op_norm": [1.5, 2]}}
    assert list(diffs(old, new)) == [("$.evidence.ratio", None), ("$.evidence.op_norm[0]", 1 / 3),
                                     ("$.evidence.op_norm[1]", 0.0)]
    assert list(diffs({"route": "p_equals_one"}, {"route": "p_equals_one", "alarm": False})) == [("$.alarm", None)]
    # the same keys in another order are a change of the dict itself
    assert list(diffs({"a": 1, "b": 2}, {"b": 2, "a": 1})) == [("$", None), ("$.a", 0.0), ("$.b", 0.0)]


def test_compare_outputs_tallies_a_dropped_key_and_the_moves_beside_it():
    compare_outputs = _load("compare_outputs")

    def output(evidence):
        return [0, json.dumps({"route": "separating", "evidence": evidence}), ""]

    summary = compare_outputs._tally([(output({"ratio": {"best": 1.0}, "op_norm": [1, 2]}),
                                       output({"op_norm": [1.5, 2]}))], ["certify"])
    assert summary["structure"] == ["op000 (certify) at $.evidence.ratio"]
    assert summary["moved"] == {"$.evidence.op_norm[]": 1 / 3}
