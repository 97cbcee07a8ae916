"""One map, one answer: ``certify_l1_norm`` gives the same certificate for a
map built in memory and for the same map read back from its instance file,
which keeps the action matrix and drops every other piece of metadata."""

import numpy as np
import pytest

from nclp import synth
from nclp.algebra import AlgebraDescriptor, Element, ToleranceConfig, identity, matrix_algebra
from nclp.certify import certify_l1_norm
from nclp.instances import make_instance, parse_instance, serialize_instance
from nclp.maps import (
    LinearMap,
    add_maps,
    adjoint_map,
    amplified_map,
    commutative_matrix,
    compose,
    convex_combination,
    depolarizing,
    identity_map,
    jordan_direct_sum,
    kraus_map,
    map_from_function,
    rotation_mixing,
    scale_map,
    transpose_map,
    unitary_conjugation,
    yeadon_synthetic,
)
from nclp.sampling import ginibre, random_unitary, rng_from

CFG = ToleranceConfig(seed=11)
EXPONENTS = (1.0, 1.5, 2.0, 3.0)

# (case, exponents) whose in-memory certificate still reads the convex split
# (t, T1, T2) that ``convex_combination`` records and an instance file drops,
# with the reason; each goes once a decomposition certificate read from the
# action alone replaces the split (ROADMAP item 2)
ROUND_TRIP_EXCEPTIONS = {
    (name, p): reason
    for name, reason in (
        ("random_positive_map", "the convex split proves a Kraus map mixed with a transposed one "
         "positive, although its component is neither CP nor co-CP"),
        ("convex_combination", "the convex split bounds the mixture by its certified parts, "
         "and proves it positive for the p = 1 closed form"),
    )
    for p in EXPONENTS
}


def _cases():
    alg = AlgebraDescriptor(((2, 1.0), (1, 0.5)))
    m2 = matrix_algebra(2)
    rng = rng_from(5)
    vs = [Element(alg, [ginibre(rng, d) for d in alg.dims]) for _ in range(2)]
    K = kraus_map(vs)
    G = LinearMap(alg, alg, ginibre(rng, alg.coord_dim))
    u = random_unitary(alg, rng)
    cases = {
        "identity_map": identity_map(alg),
        "transpose_map": transpose_map(alg),
        "unitary_conjugation": unitary_conjugation(u),
        "rotation_mixing": rotation_mixing(0.7),
        "commutative_matrix": commutative_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]), [1, 2], [1, 0.5]),
        "commutative_matrix signed": commutative_matrix(np.array([[1.0, -2.0], [0.5, 1.0]]), [1, 2], [1, 0.5]),
        "depolarizing": depolarizing(alg, 0.3),
        "kraus_map": K,
        "kraus_map transposed": kraus_map(vs, transposed=True),
        "jordan_direct_sum": jordan_direct_sum(alg, [(0, "hom"), (0, "anti"), (1, "hom")], [1.0, 2.0, 0.5]),
        "convex_combination": convex_combination(K, compose(K, transpose_map(alg)), 0.4),
        "yeadon_synthetic": yeadon_synthetic(identity(m2), 2.0 * identity(m2), identity_map(m2)),
        "map_from_function": map_from_function(alg, alg, lambda x: x - x.H),
        "compose": compose(G, K),
        "scale_map": scale_map(K, 3.0),
        "add_maps": add_maps(K, identity_map(alg)),
        "adjoint_map": adjoint_map(K),
        "amplified_map": amplified_map(transpose_map(m2), 2),
        "random_jordan_map": synth.random_jordan_map(rng_from(1)),
        # layout: one M_2 block holding an anti and two hom copies of the domain
        "random_jordan_map hom+anti": synth.random_jordan_map(rng_from(6)),
        "random_yeadon_map positive": synth.random_yeadon_map(rng_from(2), positive_w=True)[0],
        "random_yeadon_map": synth.random_yeadon_map(rng_from(3), positive_w=False)[0],
        "random_cp_contraction": synth.random_cp_contraction(alg, 2.0, rng_from(4)),
        "random_positive_map": synth.random_positive_map(alg, 2.0, rng_from(6)),
        "random_commutative_map": synth.random_commutative_map(rng_from(8)),
    }
    for i in range(5):  # the five kinds of the isometry battery
        cases[f"random_l2_isometry {i}"] = synth.random_l2_isometry(rng_from(7), i)
    return cases


CASES = _cases()


def _round_trip(T: LinearMap) -> LinearMap:
    algebras = {"M": T.domain}
    if T.codomain != T.domain:
        algebras["N"] = T.codomain
    text = serialize_instance(make_instance(algebras, maps={"T": T}))
    return parse_instance(text).maps["T"]


def _decision(T: LinearMap, p: float):
    cert = certify_l1_norm(T, p, CFG, ratio_budget=5)
    iv = cert.value_interval
    return cert.route, iv.lower, iv.upper, bool(iv.certified_exact), cert.alarm


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_survives_the_instance_round_trip(name):
    T = CASES[name]
    back = _round_trip(T)
    assert np.array_equal(back.action, T.action)
    for p in EXPONENTS:
        if (name, p) in ROUND_TRIP_EXCEPTIONS:
            continue
        assert _decision(back, p) == _decision(T, p), (name, p)


def test_round_trip_exceptions_still_differ():
    # an exception that agrees again should leave the list
    for name, p in ROUND_TRIP_EXCEPTIONS:
        T = CASES[name]
        assert _decision(_round_trip(T), p) != _decision(T, p), (name, p)
