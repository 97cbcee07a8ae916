import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nclp
from nclp.algebra import matrix_algebra
from nclp.cli import _jsonable, run_command
from nclp.instances import parse_instance
from nclp.maps import depolarizing, identity_map, rotation_mixing, transpose_map


@pytest.fixture
def capcli(capsys, monkeypatch):
    """Run the CLI with a given stdin text, capture stdout and exit code."""

    def run(argv, stdin_text=""):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = run_command(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    return run


def test_example_transpose_certify_pipeline(capcli):
    code, inst_text, _ = capcli(["example", "transpose", "--p", "2"])
    assert code == 0
    code, result, _ = capcli(["certify"], stdin_text=inst_text)
    assert code == 0
    doc = json.loads(result)
    assert doc["route"] == "separating"
    assert doc["interval"]["lower"] == pytest.approx(1.0, abs=1e-6)
    assert doc["interval"]["upper"] == pytest.approx(1.0, abs=1e-6)
    assert doc["alarm"] is False


def test_example_transpose_certifies_exactly_at_p3(capcli):
    # the instance file carries only the action: positivity comes from the
    # extracted triple (w = 1), so the positive-unit bound closes at 1
    _, inst_text, _ = capcli(["example", "transpose", "--dim", "4", "--p", "3"])
    code, result, _ = capcli(["certify"], stdin_text=inst_text)
    assert code == 0
    doc = json.loads(result)
    assert doc["route"] == "separating"
    assert doc["interval"] == {"certified_exact": True, "lower": 1.0, "upper": 1.0}


def test_gen_copositive_map_certifies_by_homogeneity(capcli):
    # at this seed the mixture is co-CP with norm 6.49: not a contraction, but
    # T / |T| is a 2-copositive contraction, so the value is |T| itself
    _, inst_text, _ = capcli(["gen", "--kind", "positive-map", "--dims", "2,1",
                              "--weights", "1,0.5", "--seed", "1000"])
    code, result, _ = capcli(["certify", "--budget", "5"], stdin_text=inst_text)
    assert code == 0
    doc = json.loads(result)
    assert doc["p"] == 2.0
    assert doc["evidence"]["choi"] == {"cp": False, "co_cp": True, "positive": True}
    assert doc["route"] == "two_positive_contraction"
    upper = doc["evidence"]["op_norm"][1]
    assert upper == pytest.approx(6.49, abs=5e-3)
    assert doc["interval"]["upper"] == upper
    assert doc["interval"]["certified_exact"] is True


def test_example_yeadon_certifies_from_its_triple(capcli):
    _, inst_text, _ = capcli(["example", "yeadon", "--p", "3"])
    code, result, _ = capcli(["certify"], stdin_text=inst_text)
    assert code == 0
    doc = json.loads(result)
    assert doc["route"] == "separating"
    assert doc["evidence"]["separating"] == "certified"
    assert '"certified_exact": true' in result


def test_gen_commutative_map_certifies_exactly_at_p3(capcli):
    _, inst_text, _ = capcli(["gen", "--kind", "commutative-map", "--p", "3", "--seed", "4"])
    code, result, _ = capcli(["certify"], stdin_text=inst_text)
    assert code == 0
    doc = json.loads(result)
    assert doc["route"] == "commutative_regular"
    assert '"certified_exact": true' in result
    # frozen: the Collatz-Wielandt iteration closes the interval
    assert doc["interval"]["lower"] == doc["interval"]["upper"] == 3.5258979587374086
    assert doc["evidence"]["regular_norm"] == [3.5258979587374086] * 2


def test_certify_sampled_only_prints_boolean_alarm(capcli):
    code, inst_text, _ = capcli(["example", "rotation", "--p", "3"])
    assert code == 0
    _, result, _ = capcli(["certify"], stdin_text=inst_text)
    assert '"alarm": false' in result
    doc = json.loads(result)
    assert doc["route"] == "sampled_only"
    assert doc["alarm"] is False


def test_gen_positive_seq_seqnorm_pipeline(capcli):
    code, inst_text, _ = capcli(["gen", "--kind", "positive-seq", "--n", "3", "--seed", "7"])
    assert code == 0
    code, result, _ = capcli(["seqnorm", "--p", "2"], stdin_text=inst_text)
    assert code == 0
    doc = json.loads(result)
    assert doc["interval"]["certified_exact"] is True
    # the certified value equals the norm of the sum (checked independently)
    from nclp.instances import parse_instance
    from nclp.sequences import sum_elements
    from nclp.lp import lp_norm

    inst = parse_instance(inst_text)
    seq = inst.sequences["seq"]
    assert doc["value"] == pytest.approx(lp_norm(sum_elements(seq), 2.0), rel=1e-9)


def test_rotation_classify_exit_code(capcli):
    code, inst_text, _ = capcli(["example", "rotation", "--theta", "0.7854"])
    assert code == 0
    code, result, _ = capcli(["classify-l2"], stdin_text=inst_text)
    assert code == 1
    doc = json.loads(result)
    assert doc["verdict"] == "no_ytf"
    assert "witness" in doc


def test_disjoint_exit_codes(capcli):
    code, pair_text, _ = capcli(["gen", "--kind", "disjoint-pair", "--dims", "3", "--seed", "4"])
    assert code == 0
    code, out, _ = capcli(["disjoint"], stdin_text=pair_text)
    assert code == 0 and json.loads(out)["verdict"] == "disjoint"
    code, pair_text, _ = capcli(["gen", "--kind", "nondisjoint-pair", "--dims", "3", "--seed", "4"])
    code, out, _ = capcli(["disjoint"], stdin_text=pair_text)
    assert code == 1 and json.loads(out)["verdict"] == "not_disjoint"


def test_dinq_exit_codes(capcli):
    _, pair_text, _ = capcli(["gen", "--kind", "positive-disjoint-pair", "--dims", "3", "--seed", "4"])
    code, out, _ = capcli(["dinq"], stdin_text=pair_text)
    assert code == 0 and json.loads(out)["verdict"] == "disjoint"
    _, pair_text, _ = capcli(["gen", "--kind", "nondisjoint-pair", "--dims", "2,2", "--seed", "5"])
    code, out, _ = capcli(["dinq"], stdin_text=pair_text)
    assert code in (0, 1, 2)
    assert json.loads(out)["verdict"] in ("disjoint", "not_disjoint", "undetermined")


def test_yeadon_and_separating_commands(capcli):
    _, inst_text, _ = capcli(["example", "yeadon", "--seed", "3"])
    code, out, _ = capcli(["yeadon"], stdin_text=inst_text)
    assert code == 0 and json.loads(out)["verdict"] == "factorized"
    code, out, _ = capcli(["separating"], stdin_text=inst_text)
    assert code == 0 and json.loads(out)["verdict"] == "certified"
    _, rot_text, _ = capcli(["example", "rotation", "--theta", "1.0"])
    code, out, _ = capcli(["separating"], stdin_text=rot_text)
    assert code == 1 and json.loads(out)["verdict"] == "falsified"
    code, out, _ = capcli(["yeadon"], stdin_text=rot_text)
    assert code == 1


def test_norm_command(capcli):
    _, inst_text, _ = capcli(["gen", "--kind", "positive-element", "--dims", "4", "--seed", "2"])
    code, out, _ = capcli(["norm", "--p", "3"], stdin_text=inst_text)
    assert code == 0
    assert json.loads(out)["value"] > 0


def test_outputs_are_valid_json_on_all_verdicts(capcli):
    _, rot, _ = capcli(["example", "rotation"])
    for argv in (["separating"], ["classify-l2"], ["yeadon"], ["certify"]):
        code, out, _ = capcli(argv, stdin_text=rot)
        assert code in (0, 1, 2)
        json.loads(out)  # must parse


def test_byte_identical_determinism(capcli):
    a = capcli(["gen", "--kind", "cp-map", "--seed", "11"])
    b = capcli(["gen", "--kind", "cp-map", "--seed", "11"])
    assert a == b
    _, inst_text, _ = a
    r1 = capcli(["certify"], stdin_text=inst_text)
    r2 = capcli(["certify"], stdin_text=inst_text)
    assert r1 == r2


def test_env_seed_default(capcli, monkeypatch):
    monkeypatch.setenv("NCLP_SEED", "21")
    _, via_env, _ = capcli(["gen", "--kind", "element"])
    monkeypatch.delenv("NCLP_SEED")
    _, via_flag, _ = capcli(["gen", "--kind", "element", "--seed", "21"])
    assert via_env == via_flag
    # the flag wins over the environment
    monkeypatch.setenv("NCLP_SEED", "99")
    _, flagged, _ = capcli(["gen", "--kind", "element", "--seed", "21"])
    assert flagged == via_flag


def test_input_error_exit_3(capcli):
    code, out, err = capcli(["norm"], stdin_text="{not json")
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("tol", ["inf", "1e300", "nan", "1", "0"])
def test_tolerance_flag_outside_unit_interval_is_input_error(capcli, tol):
    # a huge tolerance made every element pass as positive and certified
    # a value below the proved lower endpoint
    _, inst, _ = capcli(["gen", "--kind", "seq", "--n", "3", "--dims", "3", "--seed", "3"])
    code, out, err = capcli(["seqnorm", "--p", "3", "--tol", tol], stdin_text=inst)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "algebraic_tol" in err


@pytest.mark.parametrize(
    "gen, cmd",
    [
        (["example", "rotation"], ["certify", "--p", "inf"]),
        (["example", "rotation"], ["certify", "--p", "nan"]),
        (["gen", "--kind", "seq", "--dims", "2"], ["seqnorm", "--p", "nan"]),
    ],
)
def test_exponent_outside_the_sequence_range_is_input_error(capcli, gen, cmd):
    # these used to reach LAPACK and print "error: SVD did not converge"
    _, inst, _ = capcli(gen)
    code, out, err = capcli(cmd, stdin_text=inst)
    assert code == 3 and out == ""
    assert err.startswith("error:") and f"p = {cmd[-1]}" in err, err


def _edited_instance(capcli, argv, edit):
    _, text, _ = capcli(argv)
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)  # writes NaN / Infinity tokens as Python's json does


def test_non_finite_instance_values_are_input_errors(capcli):
    seq = ["gen", "--kind", "seq", "--n", "2", "--dims", "2", "--seed", "3"]
    pair = ["gen", "--kind", "disjoint-pair", "--dims", "1,2", "--seed", "3"]

    def opt_tol(doc):
        doc["tolerances"] = {"opt_tol": float("inf")}

    def nan_entry(doc):
        doc["elements"]["x0"]["blocks"][0][1][0] = [float("nan"), 0.0]

    def inf_weight(doc):
        doc["algebras"]["M"]["blocks"][1]["weight"] = float("inf")

    def inf_seed(doc):
        doc["tolerances"] = {}
        doc["seed"] = float("inf")

    cases = [
        (seq, ["seqnorm", "--p", "3"], opt_tol, "opt_tol"),
        (pair, ["dinq"], inf_seed, "$.seed"),
        (seq, ["seqnorm", "--p", "3"], nan_entry, "$.elements.x0.blocks[0][1][0]"),
        (pair, ["dinq"], inf_weight, "$.algebras.M.blocks[1]"),
    ]
    for gen, cmd, edit, field in cases:
        text = _edited_instance(capcli, gen, edit)
        code, out, err = capcli(cmd, stdin_text=text)
        assert code == 3 and out == "", (field, out)
        assert err.startswith("error:") and field in err, err


def test_missing_stdin_is_input_error(capcli):
    code, _, err = capcli(["certify"], stdin_text="")
    assert code == 3


def test_suite_command_filter(capcli):
    code, out, _ = capcli(["suite", "--only", "polar", "--budget", "10", "--seed", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["overall_pass"] is True
    assert [p["id"] for p in doc["properties"]] == ["polar-roundtrip"]
    # timings are zeroed by default so output is reproducible
    assert all(p["wall_ms"] == 0.0 for p in doc["properties"])


def test_suite_filter_matching_nothing_is_input_error(capcli):
    code, out, err = capcli(["suite", "--only", "no-such-property"])
    assert code == 3 and out == ""
    assert err.startswith("error:") and "no-such-property" in err


def test_out_flag_writes_file(capcli, tmp_path):
    target = tmp_path / "res.json"
    _, inst_text, _ = capcli(["example", "transpose"])
    code, out, _ = capcli(["norm", "--el", "missing", "--out", str(target)], stdin_text=inst_text)
    assert code == 3  # no elements in a map-only instance
    _, pair, _ = capcli(["gen", "--kind", "element", "--seed", "1"])
    code, out, _ = capcli(["norm", "--out", str(target)], stdin_text=pair)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["value"] > 0


# the overflow must surface as NumericError before any nan reaches sequences
@pytest.mark.filterwarnings("error::RuntimeWarning:nclp.sequences")
def test_non_finite_exact_enclosure_is_input_error(capcli):
    # the positive closed form overflows to inf (its value is past the
    # largest float); an exact [inf, inf] used to be printed as certified
    _, text, _ = capcli(["gen", "--kind", "seq", "--n", "2", "--dims", "2", "--seed", "3"])
    doc = json.loads(text)
    big = [[[8e307, 0.0], [0.0, 0.0]], [[0.0, 0.0], [8e307, 0.0]]]
    for name in ("x0", "x1"):
        doc["elements"][name]["blocks"] = [big]
    code, out, err = capcli(["seqnorm", "--p", "3"], stdin_text=json.dumps(doc))
    assert code == 3 and out == ""
    assert err.startswith("error:") and "not finite" in err

    # weight 4: the 2-norm of the sum is 8e307 * sqrt(8), past the largest float
    _, text, _ = capcli(["gen", "--kind", "disjoint-pair", "--dims", "2", "--weights", "4", "--seed", "3"])
    doc = json.loads(text)
    names = list(doc["elements"])
    doc["elements"][names[0]]["blocks"] = [[[[8e307, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
    doc["elements"][names[1]]["blocks"] = [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [8e307, 0.0]]]]
    code, out, err = capcli(["dinq"], stdin_text=json.dumps(doc))
    assert code == 3 and out == ""
    assert err.startswith("error:") and "not finite" in err


def test_far_out_generic_pair_is_not_disjoint(capcli):
    # at 1e-200 the cross products underflowed, and the pair printed disjoint
    _, text, _ = capcli(["gen", "--kind", "disjoint-pair", "--dims", "2", "--seed", "3"])
    doc = json.loads(text)
    names = list(doc["elements"])
    results = []
    for c in (1.0, 1e-200):
        for name, m in zip(names, ([[1, 2], [3, 4]], [[5, 6], [7, 8]])):
            doc["elements"][name]["blocks"] = [[[[c * v, 0.0] for v in row] for row in m]]
        code, out, err = capcli(["dinq"], stdin_text=json.dumps(doc))
        assert code == 1 and err == ""
        results.append(json.loads(out))
    unit, far = results
    assert unit["verdict"] == far["verdict"] == "not_disjoint" and not far["evidence"]["algebraic"]
    for end in ("lower", "upper"):
        assert far["interval"][end] == pytest.approx(1e-200 * unit["interval"][end], rel=1e-14, abs=0.0)


def test_far_out_disjoint_pair_is_decided(capcli):
    # the 2-norms, 1e300 each, are finite; squaring them as Python floats
    # raised OverflowError, which ended the command in a traceback
    _, text, _ = capcli(["gen", "--kind", "disjoint-pair", "--dims", "2", "--seed", "3"])
    doc = json.loads(text)
    names = list(doc["elements"])
    doc["elements"][names[0]]["blocks"] = [[[[1e300, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
    doc["elements"][names[1]]["blocks"] = [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e300, 0.0]]]]
    code, out, err = capcli(["dinq"], stdin_text=json.dumps(doc))
    assert code == 0 and err == ""
    result = json.loads(out)
    assert result["verdict"] == "disjoint" and result["evidence"]["algebraic"]
    assert result["threshold"] == pytest.approx(1e300 * np.sqrt(2.0), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("seed", ["-1", str(2**32), str(2**40)])
def test_seed_outside_honoured_range_is_input_error(capcli, monkeypatch, seed):
    _, inst, _ = capcli(["example", "identity", "--dim", "2"])
    code, out, err = capcli(["certify", "--seed", seed], stdin_text=inst)
    assert code == 3 and out == "" and "--seed" in err
    monkeypatch.setenv("NCLP_SEED", seed)
    code, out, err = capcli(["certify"], stdin_text=inst)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "NCLP_SEED" in err


def test_seed_is_read_only_by_commands_that_use_one(capcli, monkeypatch):
    # no verdict of norm, disjoint, seqnorm or dinq depends on a seed, so a
    # bad NCLP_SEED cannot stop them; certify still refuses it
    _, pair, _ = capcli(["gen", "--kind", "disjoint-pair", "--dims", "2", "--seed", "3"])
    _, seq, _ = capcli(["gen", "--kind", "seq", "--n", "2", "--dims", "2", "--seed", "3"])
    _, el, _ = capcli(["gen", "--kind", "element", "--dims", "2", "--seed", "3"])
    _, inst, _ = capcli(["example", "identity", "--dim", "2"])
    runs = [(["norm"], el), (["disjoint"], pair), (["seqnorm", "--p", "3"], seq), (["dinq"], pair)]
    want = [capcli(argv, stdin_text=text) for argv, text in runs]
    monkeypatch.setenv("NCLP_SEED", "-1")
    got = [capcli(argv, stdin_text=text) for argv, text in runs]
    assert got == want and [code for code, _, _ in got] == [0, 0, 0, 0]
    code, out, err = capcli(["certify"], stdin_text=inst)
    assert code == 3 and out == "" and "NCLP_SEED" in err


def _overflow_pair(capcli, c: float = 1e308, weight: str = "8") -> str:
    # a non-positive pair c x, c y on M_2 with the given weight; at c = 1e308
    # and weight 8 its norm at p = 3 is past the largest float
    _, text, _ = capcli(["gen", "--kind", "seq", "--n", "2", "--dims", "2", "--weights", weight, "--seed", "3"])
    doc = json.loads(text)
    doc["elements"]["x0"]["blocks"] = [[[[c, 0.0], [c, 0.0]], [[0.0, 0.0], [c, 0.0]]]]
    doc["elements"]["x1"]["blocks"] = [[[[0.0, 0.0], [c, 0.0]], [[c, 0.0], [0.0, 0.0]]]]
    return json.dumps(doc)


# the overflow must surface as NumericError before any nan reaches sequences
@pytest.mark.filterwarnings("error::RuntimeWarning:nclp.sequences")
def test_factor_overflow_is_input_error(capcli):
    # near 1e300 the factor products used to overflow; the pair now ascends
    # at unit scale and prints c times the unit pair's enclosure
    runs = [capcli(["seqnorm", "--p", "3"], stdin_text=_overflow_pair(capcli, c, "1")) for c in (1.0, 1e300)]
    assert [code for code, _, _ in runs] == [0, 0]
    unit, far = (json.loads(out)["interval"] for _, out, _ in runs)
    assert far["certified_exact"] == unit["certified_exact"]
    for end in ("lower", "upper"):
        assert far[end] == pytest.approx(1e300 * unit[end], rel=1e-14, abs=0.0)
    code, out, err = capcli(["seqnorm", "--p", "3"], stdin_text=_overflow_pair(capcli))
    assert code == 3 and out == ""
    assert err.startswith("error:") and "overflowed" in err


def test_overflow_prints_only_its_error_line(capcli):
    # run as a process, the overflowing enclosure writes its error line and
    # nothing else: no numpy RuntimeWarning, with the path of its source
    # file, ahead of it
    src = os.path.dirname(os.path.dirname(os.path.abspath(nclp.__file__)))
    run = subprocess.run([sys.executable, "-m", "nclp.cli", "seqnorm", "--p", "3"], input=_overflow_pair(capcli),
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert run.returncode == 3 and run.stdout == ""
    [line] = run.stderr.splitlines()
    assert line.startswith("error:") and "overflowed" in line


def test_shared_parser_matches_a_fresh_one(capcli, monkeypatch):
    # run_command reuses one parser per process; a sequence of commands,
    # including a rejected argv, must print what fresh parsers print
    import nclp.cli as cli

    _, pair, _ = capcli(["gen", "--kind", "nondisjoint-pair", "--dims", "2", "--seed", "4"])
    _, seq, _ = capcli(["gen", "--kind", "seq", "--n", "3", "--dims", "2", "--seed", "3"])
    runs = [(["dinq"], pair), (["seqnorm", "--p", "3"], seq), (["dinq", "--p"], pair), (["dinq"], pair)]
    shared = [capcli(argv, stdin_text=text) for argv, text in runs]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [capcli(argv, stdin_text=text) for argv, text in runs]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 3, 1]


EXAMPLE_MAPS = {
    "transpose": lambda: transpose_map(matrix_algebra(3), 3.0),
    "identity": lambda: identity_map(matrix_algebra(3), 3.0),
    "rotation": lambda: rotation_mixing(np.pi / 4, 3.0),
    "depolarizing": lambda: depolarizing(matrix_algebra(3), 0.5, 3.0),
    "unitary": None,
    "yeadon": None,
}


@pytest.mark.parametrize("kind", sorted(EXAMPLE_MAPS))
def test_every_example_kind_emits_a_parseable_instance(capcli, kind):
    code, out, err = capcli(["example", kind, "--p", "3", "--dim", "3"])
    assert (code, err) == (0, "")
    T = parse_instance(out).maps["T"]
    assert T.p == 3.0
    if EXAMPLE_MAPS[kind] is not None:
        assert np.array_equal(T.action, EXAMPLE_MAPS[kind]().action)


def test_unknown_example_kind_is_input_error(capcli):
    code, out, err = capcli(["example", "sideways"])
    assert code == 3 and out == "" and "unknown example kind" in err


@pytest.mark.parametrize(
    "kind", ["map", "separating-map", "cp-map", "positive-map", "isometry", "commutative-map"]
)
def test_every_gen_map_kind_emits_a_parseable_instance(capcli, kind):
    # the kinds that draw their own algebras take no --dims or --weights
    algebra = [] if kind in FIXED_ALGEBRA_KINDS else ["--dims", "2,1", "--weights", "0.5,2"]
    code, out, err = capcli(["gen", "--kind", kind, *algebra])
    assert (code, err) == (0, "")
    assert set(parse_instance(out).maps) == {"T"}


FIXED_ALGEBRA_KINDS = ("separating-map", "isometry", "commutative-map")


@pytest.mark.parametrize("kind", FIXED_ALGEBRA_KINDS)
@pytest.mark.parametrize("flags", [["--dims", "4"], ["--weights", "2"], ["--dims", "2,1", "--weights", "1,0.5"]])
def test_gen_kinds_with_their_own_algebras_refuse_dims_and_weights(capcli, kind, flags):
    code, out, err = capcli(["gen", "--kind", kind, *flags])
    assert code == 3 and out == ""
    assert err == f"error: --kind {kind} draws its own algebras and takes no {flags[0]}\n"


def test_gen_dims_default_to_one_block_of_two(capcli):
    _, default, _ = capcli(["gen", "--kind", "seq", "--seed", "3"])
    _, explicit, _ = capcli(["gen", "--kind", "seq", "--dims", "2", "--seed", "3"])
    assert default == explicit
    assert parse_instance(default).algebras["M"] == matrix_algebra(2)


def test_classify_l2_on_a_one_dimensional_domain(capcli):
    # M_1 has no nonzero disjoint pairs: the map is classified by extraction alone
    _, inst, _ = capcli(["example", "identity", "--dim", "1"])
    code, out, err = capcli(["classify-l2"], stdin_text=inst)
    doc = json.loads(out)
    assert (code, err, doc["verdict"]) == (0, "", "ytf")
    assert doc["evidence"]["pair_statuses"] == {}
    assert doc["evidence"]["max_l12_ratio"] is None


@pytest.mark.parametrize("seed", ["0", "3", "7"])
def test_gen_isometry_honours_p(capcli, seed):
    # the same draws and action at every exponent; the instance carries --p
    maps = {}
    for p in ("2", "3"):
        code, out, err = capcli(["gen", "--kind", "isometry", "--p", p, "--seed", seed])
        assert (code, err) == (0, "")
        maps[p] = parse_instance(out).maps["T"]
    assert (maps["2"].p, maps["3"].p) == (2.0, 3.0)
    assert np.array_equal(maps["2"].action, maps["3"].action)
    assert (maps["2"].domain, maps["2"].codomain) == (maps["3"].domain, maps["3"].codomain)


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--tol", "1e-3"],
        ["seqnorm", "--budget", "5"],
        ["disjoint", "--seed", "1"],
        ["dinq", "--p", "3"],
        ["yeadon", "--restarts", "2"],
        ["separating", "--p", "3"],
        ["certify", "--restarts", "9"],
        ["classify-l2", "--p", "3"],
        ["gen", "--kind", "element", "--tol", "1e-3"],
        ["example", "transpose", "--budget", "5"],
        ["suite", "--p", "3"],
        # the sequence-norm solver reads neither restarts nor a seed
        ["seqnorm", "--restarts", "2"],
        ["seqnorm", "--seed", "1"],
        ["dinq", "--restarts", "2"],
        ["dinq", "--seed", "1"],
        ["classify-l2", "--restarts", "2"],
        ["suite", "--restarts", "2"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capcli, argv):
    # each subcommand takes only the flags that can change its output
    _, pair, _ = capcli(["gen", "--kind", "nondisjoint-pair", "--dims", "2", "--seed", "4"])
    code, out, err = capcli(argv, stdin_text=pair)
    assert code == 3 and out == ""
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["certify", "--budget", "0"], "--budget"),
        (["classify-l2", "--budget", "-3"], "--budget"),
        (["separating", "--budget", "-3"], "--budget"),
        (["suite", "--budget", "-5"], "--budget"),
        (["example", "transpose", "--dim", "0"], "--dim"),
        (["gen", "--kind", "seq", "--n", "0"], "--n"),
        (["gen", "--kind", "commutative-map", "--n", "two"], "--n"),
    ],
)
def test_counts_below_one_are_input_errors(capcli, argv, flag):
    # a zero used to mean "the default" and a negative budget ran no samples
    _, inst, _ = capcli(["example", "rotation"])
    code, out, err = capcli(argv, stdin_text=inst)
    assert code == 3 and out == ""
    assert f"argument {flag}: must be an integer >= 1" in err


@pytest.mark.parametrize("gen", [["example", "rotation"], ["gen", "--kind", "map"], ["gen", "--kind", "seq"]])
@pytest.mark.parametrize("p", ["0.5", "nan", "-1.5"])
def test_generators_refuse_exponents_below_one(capcli, gen, p):
    # these used to write an instance that certify refused, or die in JSON
    # serialization with a message that did not name the exponent
    code, out, err = capcli([*gen, "--p", p])
    assert code == 3 and out == ""
    assert err.startswith("error:") and f"p = {p}" in err
    code, out, _ = capcli([*gen, "--p", "inf"])
    assert code == 0 and parse_instance(out)


def test_rotation_classify_frozen_evidence(capcli):
    # re-recorded when the ascent began to update both factors in every
    # step; before, with one factor per step, the two ratios printed
    # 1.2651331767497545 and 1.265133176508795.  The digits moved inside the
    # ascent's stop gap, and the old values bound the new ones to 1e-9
    # relative.
    _, inst_text, _ = capcli(["example", "rotation"])
    code, result, _ = capcli(["classify-l2"], stdin_text=inst_text)
    assert code == 1
    evidence = json.loads(result)["evidence"]
    assert evidence == {
        "extraction": "commutation (c)", "max_l12_ratio": 1.265133176892069,
        "max_certified_l12_ratio": 1.2651331760160756,
        "pair_statuses": {"not_disjoint": 18}}
    for key, old in (("max_l12_ratio", 1.2651331767497545), ("max_certified_l12_ratio", 1.265133176508795)):
        assert evidence[key] == pytest.approx(old, rel=1e-9, abs=0)


def test_numpy_booleans_print_as_json_booleans(capcli):
    # a numpy bool used to print as the string "False", which reads as true
    assert _jsonable({"a": np.bool_(True), "b": [np.bool_(False), True]}) == {"a": True, "b": [False, True]}
    _, inst_text, _ = capcli(["example", "rotation", "--p", "3"])
    _, result, _ = capcli(["certify"], stdin_text=inst_text)
    doc = json.loads(result)
    assert doc["route"] == "sampled_only" and doc["interval"]["certified_exact"] is False
    assert '"certified_exact": false' in result
