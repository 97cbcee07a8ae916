import json

import numpy as np
import pytest

from nclp.algebra import AlgebraDescriptor, DomainError, matrix_algebra
from nclp.instances import (
    ParseError,
    make_instance,
    parse_instance,
    serialize_instance,
)
from nclp.maps import LinearMap, transpose_map
from nclp.sampling import ginibre, random_element, random_positive, rng_from


def _sample_instance():
    rng = rng_from(101)
    alg = AlgebraDescriptor(((2, 1.0), (3, 0.5)))
    x = random_element(alg, rng)
    y = random_positive(alg, rng)
    T = LinearMap(alg, alg, ginibre(rng, alg.coord_dim), 2.0)
    return make_instance(
        {"M": alg},
        {"x": x, "y": y},
        {"seq": ["x", "y", "x"]},
        {"T": T},
        positive={"y"},
        seed=7,
    )


def test_roundtrip_byte_identical():
    inst = _sample_instance()
    text = serialize_instance(inst)
    again = serialize_instance(parse_instance(text))
    assert text == again


def test_roundtrip_preserves_values():
    inst = _sample_instance()
    back = parse_instance(serialize_instance(inst))
    assert back.algebras["M"] == inst.algebras["M"]
    assert (back.elements["x"] - inst.elements["x"]).sup_norm() == 0.0
    assert np.abs(back.maps["T"].action - inst.maps["T"].action).max() == 0.0
    assert back.sequence_refs["seq"] == ["x", "y", "x"]
    assert back.seed == 7
    assert "y" in back.declared_positive


def test_zero_weight_rejected():
    doc = {
        "version": "nclp-1",
        "algebras": {"M": {"blocks": [{"dim": 2, "weight": 0.0}]}},
    }
    with pytest.raises(ParseError, match="weight"):
        parse_instance(json.dumps(doc))


def test_shape_mismatch_names_block():
    doc = {
        "version": "nclp-1",
        "algebras": {"M": {"blocks": [{"dim": 2, "weight": 1.0}, {"dim": 3, "weight": 1.0}]}},
        "elements": {
            "x": {
                "algebra": "M",
                "blocks": [
                    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                    [[[0.0, 0.0]]],
                ],
            }
        },
    }
    with pytest.raises(ParseError, match=r"blocks\[1\]"):
        parse_instance(json.dumps(doc))


def test_positive_declaration_validated():
    alg = matrix_algebra(2)
    doc = {
        "version": "nclp-1",
        "algebras": {"M": {"blocks": [{"dim": 2, "weight": 1.0}]}},
        "elements": {
            "x": {
                "algebra": "M",
                "blocks": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
                "positive": True,
            }
        },
    }
    with pytest.raises(ParseError, match="Hermitian"):
        parse_instance(json.dumps(doc))


def test_negative_spectrum_declared_positive_rejected():
    doc = {
        "version": "nclp-1",
        "algebras": {"M": {"blocks": [{"dim": 2, "weight": 1.0}]}},
        "elements": {
            "x": {
                "algebra": "M",
                "blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-2.0, 0.0]]]],
                "positive": True,
            }
        },
    }
    with pytest.raises(ParseError, match="negative spectrum"):
        parse_instance(json.dumps(doc))


def test_failed_positivity_declaration_precedes_a_later_malformed_element():
    # an error names the first problem in document order: a failed positivity
    # declaration before a later element that does not parse
    doc = {
        "version": "nclp-1",
        "algebras": {"M": {"blocks": [{"dim": 2, "weight": 1.0}]}},
        "elements": {
            "y": {"algebra": "M", "blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
                  "positive": True},
            "x": {"algebra": "M", "blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-2.0, 0.0]]]],
                  "positive": True},
            "z": {"algebra": "M", "blocks": [[["oops"]]]},
        },
    }
    with pytest.raises(ParseError, match="negative spectrum") as exc:
        parse_instance(json.dumps(doc))
    assert exc.value.path == "$.elements.x"
    del doc["elements"]["x"]
    with pytest.raises(ParseError) as exc:
        parse_instance(json.dumps(doc))
    assert exc.value.path.startswith("$.elements.z.blocks[0]")


def test_unknown_version_rejected():
    with pytest.raises(ParseError, match="version"):
        parse_instance(json.dumps({"version": "other"}))


def test_unresolved_reference_rejected():
    doc = {
        "version": "nclp-1",
        "algebras": {"M": {"blocks": [{"dim": 1, "weight": 1.0}]}},
        "sequences": {"s": {"items": ["ghost"]}},
    }
    with pytest.raises(ParseError, match="ghost"):
        parse_instance(json.dumps(doc))


def test_malformed_complex_entry():
    doc = {
        "version": "nclp-1",
        "algebras": {"M": {"blocks": [{"dim": 1, "weight": 1.0}]}},
        "elements": {"x": {"algebra": "M", "blocks": [[["oops"]]]}},
    }
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


def test_map_action_shape_checked():
    doc = {
        "version": "nclp-1",
        "algebras": {"M": {"blocks": [{"dim": 2, "weight": 1.0}]}},
        "maps": {"T": {"domain": "M", "codomain": "M", "p": 2.0,
                        "action": [[[1.0, 0.0]]]}},
    }
    with pytest.raises(ParseError, match="action"):
        parse_instance(json.dumps(doc))


def test_infinite_exponent_roundtrip():
    alg = matrix_algebra(2)
    T = transpose_map(alg, np.inf)
    inst = make_instance({"M": alg}, maps={"T": T})
    back = parse_instance(serialize_instance(inst))
    assert back.maps["T"].p == np.inf


def _with_tolerances(tolerances, seed=None):
    doc = json.loads(serialize_instance(_sample_instance()))
    doc["tolerances"] = tolerances
    if seed is not None:
        doc["seed"] = seed
    return json.dumps(doc)  # writes NaN / Infinity tokens as Python's json does


@pytest.mark.parametrize(
    "tolerances, seed, path",
    [
        ({"algebraic_tol": "1e-9"}, None, "$.tolerances.algebraic_tol"),
        ({"algebraic_tol": True}, None, "$.tolerances.algebraic_tol"),
        ({"opt_tol": False}, None, "$.tolerances.opt_tol"),
        ({"opt_tol": None}, None, "$.tolerances.opt_tol"),
        ({"rank_cutoff": {}}, None, "$.tolerances.rank_cutoff"),
        ({"rank_cutoff": "1e-10"}, None, "$.tolerances.rank_cutoff"),
        ({"opt_tol": [1]}, None, "$.tolerances.opt_tol"),
        ({"opt_tol": "abc"}, None, "$.tolerances.opt_tol"),
        ({"rank_cutoff": None}, None, "$.tolerances.rank_cutoff"),
        ({}, float("inf"), "$.seed"),
        ({}, 1e400, "$.seed"),
        ({}, float("nan"), "$.seed"),
        # rng_from used to reduce seeds mod 2**32, so 0 and 2**32 drove one run
        ({}, -1, "$.seed"),
        ({}, 2**32, "$.seed"),
        ({}, 2**40, "$.seed"),
    ],
)
def test_tolerances_block_validated_with_field_path(tolerances, seed, path):
    with pytest.raises(ParseError) as info:
        parse_instance(_with_tolerances(tolerances, seed))
    assert info.value.path == path


def test_tolerances_block_accepts_integers_and_keeps_seed():
    # "restarts", which older files carry, is ignored like any unread key
    for restarts in (5, 0, float("inf"), "3"):
        inst = parse_instance(_with_tolerances({"restarts": restarts, "opt_tol": 1e-6}))
        assert not hasattr(inst.tolerances, "restarts")
        assert "restarts" not in serialize_instance(inst)
    assert inst.tolerances.opt_tol == 1e-6
    assert inst.tolerances.seed == inst.seed == 7


@pytest.mark.parametrize("seed", [-1, 2**32, 2**40])
def test_rng_from_refuses_seeds_it_cannot_honour(seed):
    with pytest.raises(DomainError):
        rng_from(seed)


def test_seed_range_endpoints_are_accepted():
    for seed in (0, 2**32 - 1):
        assert parse_instance(_with_tolerances({}, seed)).seed == seed
    assert rng_from(2**32 - 1).random() != rng_from(0).random()


def _ref_decode_matrix(obj, d_rows, d_cols, path):
    # the decoder as it was, checking entry by entry, copied as it was
    import math

    def expect(cond, message, where):
        if not cond:
            raise ParseError(message, where)

    expect(isinstance(obj, list) and len(obj) == d_rows, f"expected {d_rows} rows", path)
    out = np.zeros((d_rows, d_cols), dtype=complex)
    for i, row in enumerate(obj):
        expect(isinstance(row, list) and len(row) == d_cols, f"expected {d_cols} columns", f"{path}[{i}]")
        for j, z in enumerate(row):
            expect(isinstance(z, list) and len(z) == 2
                   and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in z),
                   "expected [re, im] number pair", f"{path}[{i}][{j}]")
            expect(all(math.isfinite(v) for v in z), "entry must be finite", f"{path}[{i}][{j}]")
            out[i, j] = complex(z[0], z[1])
    return out


def _outcome(decode, obj, d_rows=2, d_cols=2):
    try:
        got = decode(obj, d_rows, d_cols, "$.x")
    except ParseError as exc:
        return ("ParseError", str(exc), exc.path)
    except OverflowError as exc:
        return ("OverflowError", str(exc))
    assert got.shape == (d_rows, d_cols) and got.dtype == complex
    return ("ok", got.tobytes())


@pytest.mark.parametrize("obj", [
    [[[1, 2], [3.5, -0.0]], [[2**60 + 1, 1e308], [-7, 0]]],
    [[[1, 2], [3, 4]], [[5, 6], [np.float64(7.0), 8]]],
    [[[1, 2], [3, 4]]],
    "rows",
    [[[1, 2], [3, 4]], [[5, 6]]],
    [[[1, 2], [3, 4]], [[5, 6], [7, 8], [9, 10]]],
    [[[1, 2], [3, 4]], "row"],
    [[[1, 2], [True, 4]], [[5, 6], [7, 8]]],
    [[[1, 2], [3, "4"]], [[5, 6], [7, 8]]],
    [[[1, 2], [3]], [[5, 6], [7, 8]]],
    [[[1, 2], [3, 4, 5]], [[5, 6], [7, 8]]],
    [[[1, 2], None], [[5, 6], [7, 8]]],
    [[[1, float("nan")], [3, 4]], [[5, 6], [7, 8]]],
    [[[1, 2], [3, 4]], [[5, float("inf")], [7, 8]]],
    [[[1, float("nan")], [True, 4]], [[5, 6], [7, 8]]],
    [[[1, 2], [True, 4]], [[5, float("-inf")]]],
    [[[1, 10**400], [3, 4]], [[5, 6], [7, 8]]],
    [[[1, 2], [3, True]], [[10**400, 6], [7, 8]]],
    [[[10**400, 2], [3, 4]], [[5, 6]]],
    [[[1, float("nan")], [3, 4]], [[10**400, 6], [7, 8]]],
])
def test_decode_matrix_matches_the_entrywise_decoder(obj):
    # the one-pass decoder returns the same matrix, bit for bit, and raises
    # the same error at the same path as the entry-by-entry one
    from nclp.instances import _decode_matrix

    assert _outcome(_decode_matrix, obj) == _outcome(_ref_decode_matrix, obj)
