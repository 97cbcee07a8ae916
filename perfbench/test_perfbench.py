"""The benchmark's own tests: input determinism, exact-repeat counters and
the output checks.  Run with ``python -m pytest perfbench`` from the root of
a checkout."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import gen  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("dinq", "seqnorm", "maps")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_digest_depends_only_on_the_seed(workload, tmp_path):
    _, a = gen.build(workload, 5, str(tmp_path / "a"))
    _, b = gen.build(workload, 5, str(tmp_path / "b"))
    _, c = gen.build(workload, 6, str(tmp_path / "c"))
    assert a == b
    assert a != c


def _traced_counts(ops):
    import nclp.cli

    tr = tracing.Tracer()
    tr.install()
    try:
        for i, op in enumerate(ops):
            tr.op, tr.active = i, True
            try:
                run = bench.execute(nclp.cli.run_command, op)
            finally:
                tr.active = False
            assert run.code in (0, 1, 2), run.stderr
    finally:
        tr.restore()
    assert not tr.missing
    keys = [k for k in tr.calls if k.startswith("linalg.")]
    out = {k: tr.calls[k] for k in keys}
    out.update({k: v for k, v in tr.counts.items()
                if k in ("algebra.Element.constructed", "sequences.descent_iters")
                or k.startswith("certify.route.")})
    return out


def test_traced_counters_repeat_exactly(tmp_path):
    ops = gen.build("dinq", 3, str(tmp_path / "dinq"))[0][:6]
    seq = gen.build("seqnorm", 3, str(tmp_path / "seqnorm"))[0]
    ops += [op for op in seq if op.kind.startswith(("generic:M3:n2", "positive"))]
    maps = gen.build("maps", 3, str(tmp_path / "maps"))[0]
    ops += [op for op in maps if op.kind in (
        "certify:commutative:p2", "certify:separating:p2", "certify:depolarizing:p2",
        "certify:generic:p1", "classify-l2:one_sided_unitary")]
    first = _traced_counts(ops)
    assert first["algebra.Element.constructed"] > 0
    assert first["sequences.descent_iters"] > 0
    routes = sum(v for k, v in first.items() if k.startswith("certify.route."))
    assert routes == sum(op.command == "certify" for op in ops)
    assert first == _traced_counts(ops)


def _op(workload, kind_prefix, tmp_path):
    ops = gen.build(workload, 2, str(tmp_path / workload))[0]
    return next(op for op in ops if op.kind.startswith(kind_prefix))


def _failed(op, code, doc):
    run = bench.Run(code, json.dumps(doc), "", 0.0)
    return bool(bench.assess(op, run).problems)


def _iv(lower, upper, exact=False):
    return {"lower": lower, "upper": upper, "certified_exact": exact}


def test_checks_reject_wrong_dinq_answers(tmp_path):
    generic = _op("dinq", "generic", tmp_path)
    t = generic.facts["threshold"]
    assert not _failed(generic, 1, {"verdict": "not_disjoint", "interval": _iv(1.1 * t, 1.2 * t)})
    assert _failed(generic, 0, {"verdict": "disjoint", "interval": _iv(t, t)})
    pair = _op("dinq", "disjoint", tmp_path)
    t = pair.facts["threshold"]
    assert not _failed(pair, 0, {"verdict": "disjoint", "interval": _iv(t, t, True)})
    assert _failed(pair, 1, {"verdict": "not_disjoint", "interval": _iv(t, 1.1 * t)})
    assert _failed(pair, 2, {"verdict": "undetermined", "interval": _iv(1.01 * t, 1.1 * t)})


def test_checks_reject_wrong_seqnorm_answers(tmp_path):
    pos = _op("seqnorm", "positive", tmp_path)
    v = pos.facts["exact"]
    assert not _failed(pos, 0, {"interval": _iv(v, v, True)})
    assert _failed(pos, 0, {"interval": _iv(1.01 * v, 1.02 * v, True)})
    gen_op = _op("seqnorm", "generic", tmp_path)
    lo, hi = gen_op.facts["max_norm"], gen_op.facts["sum_norms"]
    assert not _failed(gen_op, 0, {"interval": _iv(lo, hi)})
    assert _failed(gen_op, 0, {"interval": _iv(lo, 0.99 * lo)})
    assert _failed(gen_op, 0, {"interval": _iv(1.01 * hi, 2 * hi)})
    assert _failed(gen_op, 3, {})


def test_checks_reject_wrong_certify_answers(tmp_path):
    tr = _op("maps", "certify:transpose:p3", tmp_path)
    assert not _failed(tr, 0, {"route": "separating", "alarm": "False", "interval": _iv(1.0, 2.0)})
    assert _failed(tr, 0, {"route": "separating", "alarm": False, "interval": _iv(1.5, 2.0)})
    assert _failed(tr, 0, {"route": "separating", "alarm": "True", "interval": _iv(1.0, 2.0)})
    sep = _op("maps", "certify:separating:p2", tmp_path)
    n = sep.facts["norm2"]
    assert not _failed(sep, 0, {"route": "separating", "interval": _iv(n, n, True)})
    assert _failed(sep, 0, {"route": "separating", "interval": _iv(0.5 * n, 0.9 * n)})
    com = _op("maps", "certify:commutative:p2", tmp_path)
    m = com.facts["modulus_norm2"]
    assert not _failed(com, 0, {"interval": _iv(m, m, True)})
    assert _failed(com, 0, {"interval": _iv(com.facts["norm2"], com.facts["norm2"], True)})
    cp = _op("maps", "certify:cp_contraction:p1.5", tmp_path)
    assert _failed(cp, 0, {"route": "sampled_only", "interval": _iv(1.2, None)})
    rot = _op("maps", "certify:rotation:p2", tmp_path)
    assert not _failed(rot, 0, {"route": "sampled_only", "interval": _iv(1.0, None)})
    assert _failed(rot, 0, {"route": "positive_4x", "interval": _iv(0.5, 0.9)})


def test_checks_reject_wrong_classify_answers(tmp_path):
    rot = _op("maps", "classify-l2:rotation", tmp_path)
    assert not _failed(rot, 1, {"verdict": "no_ytf", "alarm": False})
    assert _failed(rot, 0, {"verdict": "ytf", "alarm": False})
    emb = _op("maps", "classify-l2:twisted_embedding", tmp_path)
    assert not _failed(emb, 0, {"verdict": "ytf", "alarm": False})
    assert _failed(emb, 1, {"verdict": "no_ytf", "alarm": False})


def test_a_repeat_with_different_output_counts_as_failed(tmp_path):
    op = _op("dinq", "generic_positive", tmp_path)
    t = op.facts["threshold"]
    good = json.dumps({"verdict": "not_disjoint", "interval": _iv(1.1 * t, 1.1 * t, True)})
    runs = [bench.Run(1, good, "", 0.0), bench.Run(1, good, "", 0.0),
            bench.Run(1, good.replace("not_disjoint", "undetermined"), "", 0.0)]
    outcomes, failed = bench.check_runs([op], runs)
    assert failed == 1
    assert outcomes[0].problems == ["output differs from the first pass"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dinq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
