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
        ({"restarts": float("inf")}, None, "$.tolerances.restarts"),
        ({"restarts": float("nan")}, None, "$.tolerances.restarts"),
        ({"restarts": 2.5}, None, "$.tolerances.restarts"),
        ({"restarts": "3"}, None, "$.tolerances.restarts"),
        ({"restarts": True}, None, "$.tolerances.restarts"),
        ({"restarts": 0}, None, "$.tolerances.restarts"),
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
    inst = parse_instance(_with_tolerances({"restarts": 5, "opt_tol": 1e-6}))
    assert inst.tolerances.restarts == 5
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
