import dataclasses

import numpy as np
import pytest

from nclp.algebra import (
    AlgebraDescriptor,
    DomainError,
    Element,
    StructuralError,
    ToleranceConfig,
    identity,
    matrix_algebra,
    matrix_unit,
)
from nclp.certify import (
    NO_YTF,
    NOT_ISOMETRY,
    ROUTE_COMMUTATIVE,
    ROUTE_P1,
    ROUTE_POSITIVE,
    ROUTE_SAMPLED,
    ROUTE_SEPARATING,
    ROUTE_TWO_POSITIVE,
    YTF,
    certify_l1_norm,
    classify_l2_isometry,
    constructive_witnesses,
    is_l2_isometry,
    l1_ratio_lower,
    regular_norm_commutative,
)
from nclp.lp import is_positive, lp_norm
from nclp.maps import (
    CERTIFIED,
    LinearMap,
    add_maps,
    commutative_matrix,
    compose,
    convex_combination,
    depolarizing,
    identity_map,
    kraus_map,
    map_from_function,
    op_norm,
    positivity_tests,
    rotation_mixing,
    scale_map,
    transpose_map,
    unitary_conjugation,
)
from nclp.sampling import ginibre, random_element, random_unitary, rng_from
from nclp.sequences import sequence
from nclp.yeadon import extract_yeadon, trace_density
from nclp import synth

CFG = ToleranceConfig(seed=555)


def test_ratio_lower_identity_and_scaling():
    alg = matrix_algebra(2)
    r, info = l1_ratio_lower(identity_map(alg), 2.0, CFG, budget=15)
    assert r >= 1.0 - 1e-7
    r2, _ = l1_ratio_lower(scale_map(identity_map(alg), 2.0), 2.0, CFG, budget=15)
    assert r2 >= 2.0 - 1e-6


def test_ratio_lower_transpose_contractive():
    T = transpose_map(matrix_algebra(2), 2.0)
    r, _ = l1_ratio_lower(T, 2.0, CFG, budget=25)
    assert r <= 1.0 + 1e-7


def test_certify_transpose_separating_route():
    T = transpose_map(matrix_algebra(2), 2.0)
    cert = certify_l1_norm(T, 2.0, CFG)
    assert cert.route == ROUTE_SEPARATING
    assert not cert.alarm
    assert cert.value_interval.lower == pytest.approx(1.0, abs=1e-6)
    assert cert.value_interval.upper == pytest.approx(1.0, abs=1e-6)


def test_certify_p1_route():
    rng = rng_from(1)
    alg = matrix_algebra(2)
    T = LinearMap(alg, alg, ginibre(rng, 4), 1.0)
    cert = certify_l1_norm(T, 1.0, CFG)
    assert cert.route == ROUTE_P1
    assert cert.value_interval.lower <= cert.value_interval.upper
    assert not cert.alarm


def test_certify_p1_positive_exact():
    # positive maps have an exact norm at p = 1, so the route collapses
    T = depolarizing(matrix_algebra(2), 0.3, 1.0)
    cert = certify_l1_norm(T, 1.0, CFG)
    assert cert.route == ROUTE_P1
    assert cert.value_interval.upper == pytest.approx(1.0, rel=1e-9)
    assert cert.value_interval.lower >= 1.0 - 1e-6


def test_certify_two_positive_route():
    T = depolarizing(matrix_algebra(2), 0.4, 2.0)
    cert = certify_l1_norm(T, 2.0, CFG)
    assert cert.route == ROUTE_TWO_POSITIVE
    assert cert.value_interval.upper <= 1.0 + 1e-9


def _block_positive_map(rng):
    # CP on the first block of M_2 + M_2 and co-CP on the second: the Choi
    # test proves it positive, though it is neither CP nor co-CP
    two = AlgebraDescriptor(((2, 1.0), (2, 0.3)))
    u, v = Element(two, [ginibre(rng, 2), np.zeros((2, 2))]), Element(two, [np.zeros((2, 2)), ginibre(rng, 2)])
    return add_maps(kraus_map([u]), kraus_map([v], transposed=True))


def test_certify_positive_4x_route():
    T = _block_positive_map(rng_from(2))
    cert = certify_l1_norm(T, 2.0, CFG)
    assert cert.route == ROUTE_POSITIVE
    n2 = op_norm(T, 2.0, CFG)
    assert cert.value_interval.lower <= 4.0 * n2.upper * (1 + 1e-9)


def test_certify_convex_combination():
    rng = rng_from(3)
    alg = matrix_algebra(2)
    v = random_element(alg, rng)
    lam = max((v * v.H).sup_norm(), (v.H * v).sup_norm())
    v = (1.0 / np.sqrt(lam)) * v
    mix = convex_combination(kraus_map([v], 2.0), kraus_map([v], 2.0, transposed=True), 0.5)
    cert = certify_l1_norm(mix, 2.0, CFG)
    assert cert.route == ROUTE_TWO_POSITIVE
    assert cert.evidence.get("via") == "convex_combination"
    assert cert.value_interval.upper <= 1.0 + 1e-9


def _minus_trace_part(alg):
    # D(x) = x - tau(x) 1 / tau(1): not positive, and it fixes e_12, so
    # every norm of D is at least 1
    one = identity(alg)
    return map_from_function(alg, alg, lambda x: x - ((x * one).trace() / one.trace()) * one)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_metadata_that_the_action_does_not_match_certifies_nothing(p):
    # a positive mixture's split, carried over to the action of D
    alg = matrix_algebra(2)
    T = dataclasses.replace(synth.random_positive_map(alg, 2.0, rng_from(0)), action=_minus_trace_part(alg).action)
    nv, cert = op_norm(T, p, CFG), certify_l1_norm(T, p, CFG)
    assert nv.upper >= 1.0 and cert.value_interval.upper >= 1.0
    assert cert.route == ROUTE_SAMPLED and not cert.alarm and "via" not in cert.evidence


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_stale_convex_split_is_not_taken(p):
    alg = matrix_algebra(2)
    K = depolarizing(alg, 0.5)
    T = dataclasses.replace(convex_combination(K, compose(K, transpose_map(alg)), 0.5),
                            action=10.0 * _minus_trace_part(alg).action)
    cert = certify_l1_norm(T, p, CFG)
    assert not cert.alarm and "via" not in cert.evidence and cert.route != ROUTE_TWO_POSITIVE
    assert cert.value_interval.upper >= op_norm(T, p, CFG).lower >= 10.0 * (1 - 1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_positive_mixture_certifies_through_its_split(p):
    for alg in (matrix_algebra(2), AlgebraDescriptor(((2, 1.0), (1, 0.5)))):
        T = synth.random_positive_map(alg, p, rng_from(1))
        cert = certify_l1_norm(T, p, CFG)
        assert cert.route == ROUTE_TWO_POSITIVE and cert.evidence["via"] == "convex_combination"
        assert not cert.alarm
        assert cert.value_interval.upper < 4.0 * op_norm(T, p, CFG).upper
        assert positivity_tests(T, "positive", CFG).status == CERTIFIED


def test_complex_scale_of_a_positive_mixture():
    T = synth.random_positive_map(matrix_algebra(2), 2.0, rng_from(0))
    S = scale_map(T, 1j)
    assert np.array_equal(S.action, 1j * T.action)
    t, S1, S2 = S.meta["convex_parts"]
    assert np.array_equal(S1.action, 1j * T.meta["convex_parts"][1].action)
    assert certify_l1_norm(S, 2.0, CFG).value_interval.upper >= op_norm(T, 2.0, CFG).lower


def test_certify_commutative_route_and_regular_norm():
    M = commutative_matrix(np.array([[1, -1], [1, 1]]) / np.sqrt(2), [1, 1], [1, 1], 2.0)
    # frozen: entrywise modulus has top singular value sqrt(2), plain norm 1
    assert regular_norm_commutative(M, 2.0, CFG) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert op_norm(M, 2.0, CFG).upper == pytest.approx(1.0, rel=1e-12)
    cert = certify_l1_norm(M, 2.0, CFG)
    assert cert.route == ROUTE_COMMUTATIVE
    assert cert.value_interval.upper == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_regular_norm_nonnegative_matrix_equals_op_norm():
    M = commutative_matrix(np.array([[0.5, 0.25], [0.1, 1.0]]), [1, 2], [2, 1], 2.0)
    assert regular_norm_commutative(M, 2.0, CFG) == pytest.approx(
        op_norm(M, 2.0, CFG).upper, rel=1e-12
    )


def test_regular_norm_identity():
    M = commutative_matrix(np.eye(3), [1, 1, 1], [1, 1, 1], 2.0)
    assert regular_norm_commutative(M, 2.0, CFG) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("p", [0.5, np.inf, np.nan])
def test_ratio_lower_and_certificate_refuse_exponents_outside_one_to_inf(p):
    T = rotation_mixing(0.3, 2.0)
    with pytest.raises(DomainError, match=f"p = {p}"):
        l1_ratio_lower(T, p, CFG)
    with pytest.raises(DomainError, match=f"p = {p}"):
        certify_l1_norm(T, p, CFG)


def test_op_norm_refuses_nan_exponent():
    with pytest.raises(DomainError, match="p = nan"):
        op_norm(rotation_mixing(0.3, 2.0), np.nan, CFG)


def test_regular_norm_rejects_matrix_blocks():
    with pytest.raises(DomainError):
        regular_norm_commutative(transpose_map(matrix_algebra(2), 2.0), 2.0, CFG)


def _regular_norm_cases():
    reducible = np.array([[1.0, 2.0, -0.5j], [0.0, 3.0, 1.0], [0.0, 0.0, 0.25]])
    zero_row_col = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.0, -3.0, 1j]])
    return [(reducible, [1.0, 0.5, 2.0], [0.7, 1.3, 1.0]),
            (zero_row_col, [0.6, 1.0, 1.5], [2.0, 1.0, 0.8]),
            (np.zeros((2, 3)), [1.0, 0.5, 2.0], [1.0, 1.5])]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_regular_norm_collatz_wielandt(p):
    for A, dom_w, cod_w in _regular_norm_cases():
        M = commutative_matrix(A, dom_w, cod_w, p)
        cert = certify_l1_norm(M, p, CFG, ratio_budget=5)
        assert cert.route == ROUTE_COMMUTATIVE and not cert.alarm
        assert cert.value_interval.certified_exact
        value = regular_norm_commutative(M, p, CFG)
        assert cert.value_interval.upper == value
        ref = op_norm(LinearMap(M.domain, M.codomain, np.abs(M.action), p), p, CFG)
        assert ref.lower * (1 - 1e-12) <= value <= ref.upper * (1 + 1e-12)
        B = np.abs(A) * (np.array(cod_w)[:, None] / np.array(dom_w)) ** (1 / p)
        if p == 1:
            assert value == pytest.approx(B.sum(axis=0).max(), rel=1e-12, abs=0)
        if p == 2:
            assert value == pytest.approx(np.linalg.norm(B, 2), rel=1e-12, abs=0)


def test_regular_norm_closed_forms_at_two_and_inf():
    # a near-tied spectrum stalls a power iteration; the SVD is exact at p = 2
    M = commutative_matrix(np.diag([1.0, 0.999]), [1.0, 1.0], [1.0, 1.0], 2.0)
    cert = certify_l1_norm(M, 2.0, CFG, ratio_budget=5)
    assert cert.route == ROUTE_COMMUTATIVE and cert.value_interval.certified_exact
    assert cert.value_interval.upper == cert.value_interval.lower == 1.0
    M = commutative_matrix(np.array([[1.0, -2.0], [3.0, 4j]]), [1.0, 2.0], [1.0, 0.5], np.inf)
    assert regular_norm_commutative(M, np.inf, CFG) == 7.0


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_regular_norm_starts_from_the_best_column(p):
    # the power iteration converges slowly on a near-tied spectrum; the best
    # column is a singleton that closes the interval
    M = commutative_matrix(np.diag([1.0, 0.999]), [1.0, 1.0], [1.0, 1.0], p)
    cert = certify_l1_norm(M, p, CFG, ratio_budget=5)
    assert cert.route == ROUTE_COMMUTATIVE and cert.value_interval.certified_exact
    assert cert.value_interval.lower == cert.value_interval.upper == 1.0


@pytest.mark.parametrize("entry, p", [(3.0, 1.001), (1e4, 1.01), (1e-160, 3.0), (1e120, 3.0)])
def test_regular_norm_scales_out_extreme_entries(entry, p):
    A = np.array([[1.0, 0.5, 0.0], [0.25, 2.0, 1.0]])
    one = commutative_matrix(np.array([[entry]]), [1.0], [1.0], p)
    assert regular_norm_commutative(one, p, CFG) == pytest.approx(entry, rel=1e-12, abs=0)
    from nclp.certify import _regular_norm_interval

    scaled = commutative_matrix(entry * A, [1.0, 0.5, 2.0], [0.7, 1.3], p)
    unit = commutative_matrix(A, [1.0, 0.5, 2.0], [0.7, 1.3], p)
    reg = _regular_norm_interval(scaled, p, CFG)
    assert reg.certified_exact
    assert reg.upper == pytest.approx(entry * regular_norm_commutative(unit, p, CFG), rel=1e-12, abs=0)


def test_structural_routes_ignore_the_seed():
    from nclp.yeadon import verify_jordan

    M = synth.random_commutative_map(rng_from(4), 3, 3, 3.0)
    T = synth.random_yeadon_map(rng_from(3), positive_w=False)[0]
    J = synth.random_jordan_map(rng_from(6))
    J = LinearMap(J.domain, J.codomain, J.action + 1e-9 * np.ones(J.action.shape), 2.0)
    seen = []
    for seed in (0, 1, 2**31):
        cfg = ToleranceConfig(seed=seed)
        seen.append((certify_l1_norm(M, 3.0, cfg, ratio_budget=5).evidence["regular_norm"],
                     certify_l1_norm(T, 1.5, cfg, ratio_budget=5).evidence["density"],
                     verify_jordan(J, cfg)))
    assert seen[0] == seen[1] == seen[2]


def test_classify_unitary_conjugation_ytf():
    rng = rng_from(4)
    T = unitary_conjugation(random_unitary(matrix_algebra(2), rng))
    cls = classify_l2_isometry(T, CFG)
    assert cls.status == YTF and not cls.alarm


def test_classify_rotation_no_ytf_with_witness():
    cls = classify_l2_isometry(rotation_mixing(np.pi / 4), CFG)
    assert cls.status == NO_YTF
    assert cls.witness is not None
    a, b = cls.witness
    from nclp.lp import disjoint

    T = rotation_mixing(np.pi / 4)
    assert disjoint(a, b, CFG) and not disjoint(T(a), T(b), CFG)
    assert not cls.alarm


def test_classify_one_dimensional_domain_by_extraction_alone():
    # M_1 has no nonzero disjoint pairs, so no pair is drawn
    cls = classify_l2_isometry(identity_map(matrix_algebra(1)), CFG)
    assert cls.status == YTF and not cls.alarm and cls.witness is None
    assert cls.evidence["pair_statuses"] == {}
    assert cls.evidence["max_l12_ratio"] is None and cls.evidence["max_certified_l12_ratio"] is None


def test_classify_non_isometry():
    cls = classify_l2_isometry(scale_map(identity_map(matrix_algebra(2)), 2.0), CFG)
    assert cls.status == NOT_ISOMETRY


def test_classify_positive_block_embedding():
    # a positive isometry always factors
    dom = matrix_algebra(2, 1.0)
    cod = AlgebraDescriptor(((2, 1.0), (2, 1.0)))
    from nclp.maps import map_from_function, yeadon_synthetic

    def embed(x):
        return Element(cod, [x.blocks[0].copy(), np.zeros((2, 2))])

    J = map_from_function(dom, cod, embed, 2.0)
    e = J(identity(dom))
    T = yeadon_synthetic(e, e, J, 2.0)
    assert is_l2_isometry(T, CFG)
    cls = classify_l2_isometry(T, CFG)
    assert cls.status == YTF and not cls.alarm


def test_polarization_witness_reconstructs():
    rng = rng_from(5)
    alg = matrix_algebra(2)
    seq = sequence([random_element(alg, rng) for _ in range(2)])
    w = constructive_witnesses(identity_map(alg), seq, "polarization", CFG)
    assert w.reconstruction_residual < 1e-9
    for comp in w.components:
        for y in comp:
            assert is_positive(y, CFG)
    # with normalized factors, each component sum stays below 4
    for s in w.component_sum_norms:
        assert s <= 4.0 + 1e-9


def test_polarization_single_product():
    alg = matrix_algebra(2)
    e11 = matrix_unit(alg, 0, 0, 0)
    e12 = matrix_unit(alg, 0, 0, 1)
    seq = sequence([e11 * e12])
    w = constructive_witnesses(identity_map(alg), seq, "polarization", CFG)
    assert w.reconstruction_residual < 1e-12


def test_two_positive_sqrt_identity_on_e12():
    # frozen oracle: the 2x2 block matrix over E11, E12 and its square root
    alg = matrix_algebra(2)
    T = identity_map(alg)
    e12 = matrix_unit(alg, 0, 0, 1)
    seq = sequence([e12])
    w = constructive_witnesses(T, seq, "two_positive_sqrt", CFG)
    assert w.identity_residual < 1e-9
    # independent 4x4 eigendecomposition oracle for the square root
    a, b = np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex)
    iv_a, iv_b = None, None
    from nclp.sequences import l1_norm_bounds

    iv = l1_norm_bounds(seq, 2.0, CFG)
    a_el, b_el = iv.witness[0][0], iv.witness[1][0]
    big = np.zeros((4, 4), dtype=complex)
    big[:2, :2] = (a_el * a_el.H).blocks[0]
    big[:2, 2:] = (a_el * b_el).blocks[0]
    big[2:, :2] = (b_el.H * a_el.H).blocks[0]
    big[2:, 2:] = (b_el.H * b_el).blocks[0]
    vals, vecs = np.linalg.eigh(big)
    root = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
    assert np.abs(root @ root - big).max() < 1e-10


def test_two_positive_sqrt_norm_bound():
    rng = rng_from(6)
    alg = matrix_algebra(2)
    T = synth.random_cp_contraction(alg, 2.0, rng)
    seq = sequence([random_element(alg, rng) for _ in range(2)])
    w = constructive_witnesses(T, seq, "two_positive_sqrt", CFG)
    assert w.identity_residual < 1e-8
    nv = op_norm(T, 2.0, CFG)
    from nclp.sequences import l1_norm_bounds

    iv = l1_norm_bounds(seq, 2.0, CFG)
    assert w.factor_bound <= nv.upper * iv.upper * (1 + 1e-6) * (1 + 1e-6)


@pytest.mark.parametrize("seq_scale, map_scale", [(1.0, 1.0), (1e9, 1.0), (1.0, 1e-9)])
def test_two_positive_sqrt_residual_is_relative_to_the_images(monkeypatch, seq_scale, map_scale):
    # the identities hold in the normalized factors, so a wrong square root
    # must fail however large the sequence or however small the map
    import nclp.certify

    rng = rng_from(6)
    alg = matrix_algebra(2)
    T = scale_map(synth.random_cp_contraction(alg, 2.0, rng), map_scale)
    seq = sequence([seq_scale * random_element(alg, rng) for _ in range(2)])
    assert constructive_witnesses(T, seq, "two_positive_sqrt", CFG).identity_residual < 1e-8 * map_scale
    root = nclp.certify.positive_sqrt
    monkeypatch.setattr(nclp.certify, "positive_sqrt", lambda x, cfg: root(x, cfg) + 0.1 * identity(x.algebra))
    with pytest.raises(StructuralError, match="square-root identities failed"):
        constructive_witnesses(T, seq, "two_positive_sqrt", CFG)


def test_two_positive_sqrt_requires_certified_map():
    T = transpose_map(matrix_algebra(2), 2.0)
    seq = sequence([identity(matrix_algebra(2))])
    with pytest.raises(DomainError):
        constructive_witnesses(T, seq, "two_positive_sqrt", CFG)


def test_certified_routes_dominate_sampled_ratios():
    rng = rng_from(7)
    battery = [
        transpose_map(matrix_algebra(2), 2.0),
        depolarizing(matrix_algebra(2), 0.7, 2.0),
        synth.random_yeadon_map(rng, p=2.0)[0],
        synth.random_cp_contraction(matrix_algebra(2), 2.0, rng),
    ]
    for T in battery:
        cert = certify_l1_norm(T, T.p, CFG, ratio_budget=15)
        assert not cert.alarm
        assert cert.value_interval.lower <= cert.value_interval.upper * (1 + 1e-7)


def _count_ascents(monkeypatch):
    import nclp.maps

    calls = []
    ascent = nclp.maps._boyd_ascent

    def counted(*args, **kwargs):
        calls.append(args[1])
        return ascent(*args, **kwargs)

    monkeypatch.setattr(nclp.maps, "_boyd_ascent", counted)
    return calls


def test_positive_route_runs_one_boyd_ascent(monkeypatch):
    T = _block_positive_map(rng_from(2))
    calls = _count_ascents(monkeypatch)
    cert = certify_l1_norm(T, 3.0, CFG)
    assert cert.route == ROUTE_POSITIVE
    assert calls == [3.0]
    nv = op_norm(T, 3.0, CFG)
    assert cert.evidence["op_norm"] == (min(cert.evidence["ratio"]["singleton"], nv.upper), nv.upper)
    assert cert.value_interval.upper == 4.0 * nv.upper


def test_general_route_runs_one_ascent_and_keeps_the_op_norm_lower_endpoint(monkeypatch):
    # at most one ascent, and none where a closed form encloses |T|_p: at
    # p = 2, and at p = 1 for the two positive maps
    rng = rng_from(12)
    alg = matrix_algebra(2)
    maps = [LinearMap(alg, alg, ginibre(rng, 4)), synth.random_cp_contraction(alg, 2.0, rng),
            _block_positive_map(rng)]
    calls = _count_ascents(monkeypatch)
    for p in (1.0, 1.5, 2.0, 3.0):
        for T in maps:
            del calls[:]
            cert = certify_l1_norm(T, p, CFG)
            assert cert.route not in (ROUTE_COMMUTATIVE, ROUTE_SEPARATING)
            assert calls == ([] if p == 2 or (p == 1 and T is not maps[0]) else [p])
            assert cert.value_interval.lower >= op_norm(T, p, CFG).lower * (1 - 1e-12)


def test_separating_route_reads_the_triple(monkeypatch):
    import nclp.certify
    import nclp.yeadon

    T, w, _, _ = synth.random_yeadon_map(rng_from(3), positive_w=False)
    assert not is_positive(w, CFG)
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(nclp.certify, "_norm_bounds", counted("_norm_bounds", nclp.certify._norm_bounds))
    monkeypatch.setattr(nclp.yeadon, "certify_separating",
                        counted("certify_separating", nclp.yeadon.certify_separating))
    for p in (1.0, 1.5, 3.0):
        cert = certify_l1_norm(T, p, CFG)
        assert cert.route == ROUTE_SEPARATING and not cert.alarm
        assert cert.value_interval.certified_exact
        h = trace_density(extract_yeadon(T, CFG), T.domain, p, CFG)
        assert cert.evidence["density"] == h.tolist()
        assert cert.value_interval.upper == h.max() ** (1.0 / p)
    assert calls == []


def test_scaled_convex_combination_rescales_its_parts():
    # scale_map used to keep the unscaled parts, so five times a mixture of
    # contractions printed a certified [1, 1] under the alarm
    alg = matrix_algebra(2)
    K = depolarizing(alg, 0.5, 2.0)
    T = scale_map(convex_combination(K, compose(K, transpose_map(alg)), 0.5), 5.0)
    t, T1, T2 = T.meta["convex_parts"]
    assert t == 0.5 and np.array_equal(T1.action, 5.0 * K.action)
    cert = certify_l1_norm(T, 2.0, CFG)
    norm = op_norm(T, 2.0, CFG).upper
    assert norm == pytest.approx(5.0, rel=1e-12)
    assert not cert.alarm
    assert cert.value_interval.lower <= norm * (1 + 1e-12) <= cert.value_interval.upper * (1 + 1e-12)


def test_ratio_lower_frozen_values():
    # the digits of the nine-row operator-norm search, with one image
    # product per sequence length
    assert l1_ratio_lower(rotation_mixing(0.7, 3.0), 3.0, CFG)[1] == {
        "best": 1.1153555552907908, "singleton": 1.0763032937574777,
        "positive_singleton": 1.0763032937574777, "samples": 42}
    assert l1_ratio_lower(transpose_map(matrix_algebra(3), 1.5), 1.5, CFG)[1] == {
        "best": 1.0000000000000004, "singleton": 1.0000000000000004,
        "positive_singleton": 1.0000000000000004, "samples": 42}


def test_ratio_singleton_is_the_norm_at_p2():
    rng = rng_from(13)
    alg = AlgebraDescriptor(((2, 1.0), (1, 0.5)))
    for T in (LinearMap(alg, alg, ginibre(rng, 5)), rotation_mixing(0.7, 2.0)):
        info = l1_ratio_lower(T, 2.0, CFG, budget=0)[1]
        assert info["singleton"] == pytest.approx(op_norm(T, 2.0, CFG).upper, rel=1e-12, abs=0)
        assert info["samples"] == 2


def test_ratio_samples_take_one_solve_per_length_and_side(monkeypatch):
    import nclp.certify
    from nclp.certify import RATIO_STEPS

    calls = []
    solve = nclp.certify._solve

    def counted(X, weights, p, cfg, max_steps):
        calls.append((X[0].shape[1], max_steps, len(X[0])))
        return solve(X, weights, p, cfg, max_steps)

    monkeypatch.setattr(nclp.certify, "_solve", counted)
    # p = 2 draws every class: positive sequences of lengths 2 and 3,
    # singletons, disjoint and generic pairs, and the top singular vector
    # and its modulus
    _, info = l1_ratio_lower(rotation_mixing(0.7, 2.0), 2.0, CFG, budget=25)
    lengths = sorted({n for n, _, _ in calls})
    assert lengths == [1, 2, 3]
    assert sorted((n, steps) for n, steps, _ in calls) == [
        (n, steps) for n in lengths for steps in sorted((0, RATIO_STEPS))]
    inputs = [rows for _, steps, rows in calls if steps == 0]
    assert sum(inputs) == info["samples"] == 5 + 2 * 5 + 5 + 5 + 2


def test_classify_reads_positivity_from_the_choi_test(monkeypatch):
    import nclp.maps

    calls = []
    sampled = nclp.maps._sampled_positivity
    monkeypatch.setattr(nclp.maps, "_sampled_positivity",
                        lambda *args: calls.append(args[1]) or sampled(*args))
    cls = classify_l2_isometry(rotation_mixing(np.pi / 4), CFG)
    assert cls.status == NO_YTF and not cls.alarm
    assert calls == []


def test_classify_sends_its_pairs_through_one_solve(monkeypatch):
    import nclp.sequences
    from nclp.sequences import MAX_STEPS

    calls = []
    solve = nclp.sequences._solve

    def counted(X, weights, p, cfg, max_steps, *sup):
        calls.append((len(X[0]), X[0].shape[1], p, max_steps))
        return solve(X, weights, p, cfg, max_steps, *sup)

    monkeypatch.setattr(nclp.sequences, "_solve", counted)
    cls = classify_l2_isometry(rotation_mixing(np.pi / 4), CFG, pairs=18)
    assert cls.evidence["pair_statuses"] == {"not_disjoint": 18}
    assert calls == [(18, 2, 2.0, MAX_STEPS)]


def _assert_scaled(cert, base, c):
    assert cert.route == base.route and cert.alarm == base.alarm
    assert cert.value_interval.lower == pytest.approx(c * base.value_interval.lower, rel=1e-9)
    assert cert.value_interval.upper == pytest.approx(c * base.value_interval.upper, rel=1e-9)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_small_transposition_certifies_separating(p):
    # extraction measures the zero weight against the action's scale: the
    # transposition scaled by 1e-9 is not taken for the zero map
    T = transpose_map(matrix_algebra(2))
    cert = certify_l1_norm(scale_map(T, 1e-9), p, CFG)
    assert cert.route == ROUTE_SEPARATING and not cert.alarm
    assert cert.value_interval.lower == pytest.approx(1e-9, rel=1e-9)
    assert cert.value_interval.upper == pytest.approx(1e-9, rel=1e-9)
    _assert_scaled(cert, certify_l1_norm(T, p, CFG), 1e-9)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_small_rotation_is_not_completely_positive(p):
    # the Choi test is relative to each Choi matrix's norm: rotation_mixing
    # scaled by 1e-9 is neither CP nor positive, as at unit scale
    T = rotation_mixing(np.pi / 4)
    cert = certify_l1_norm(scale_map(T, 1e-9), p, CFG)
    assert cert.route == ROUTE_SAMPLED and not cert.alarm
    assert cert.value_interval.upper == np.inf
    _assert_scaled(cert, certify_l1_norm(T, p, CFG), 1e-9)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_large_rank_one_kraus_map_stays_two_positive(p):
    v = random_element(AlgebraDescriptor(((2, 1.0), (1, 0.5))), rng_from(3))
    T = kraus_map([v])
    cert = certify_l1_norm(scale_map(T, 1e12), p, CFG)
    assert cert.route == ROUTE_TWO_POSITIVE and not cert.alarm
    _assert_scaled(cert, certify_l1_norm(T, p, CFG), 1e12)


def _count_ratios(monkeypatch):
    import nclp.certify

    calls = []
    ratio = nclp.certify.l1_ratio_lower

    def counted(*args, **kwargs):
        calls.append(args[1])
        return ratio(*args, **kwargs)

    monkeypatch.setattr(nclp.certify, "l1_ratio_lower", counted)
    return calls


def test_closed_routes_skip_the_sampled_ratio(monkeypatch):
    # a theorem that closes the interval leaves nothing for the ratio to add
    rng = rng_from(21)
    alg = matrix_algebra(2)
    closed = [(synth.random_commutative_map(rng), p) for p in (1.5, 3.0)]
    closed += [(synth.random_yeadon_map(rng, p=p)[0], p) for p in (1.5, 3.0)]
    closed += [(transpose_map(alg, p), p) for p in (1.5, 3.0)]
    closed += [(depolarizing(alg, 0.7), 2.0), (synth.random_cp_contraction(alg, 2.0, rng), 2.0)]
    two_blocks = AlgebraDescriptor(((2, 1.0), (1, 0.5)))
    closed += [(synth.random_cp_contraction(a, p, rng), p) for a in (alg, two_blocks) for p in (1.5, 3.0)]
    calls = _count_ratios(monkeypatch)
    for T, p in closed:
        cert = certify_l1_norm(T, p, CFG)
        assert cert.value_interval.certified_exact and not cert.alarm
        assert "ratio" not in cert.evidence
    assert calls == []


def test_open_routes_run_the_sampled_ratio_once(monkeypatch):
    alg = matrix_algebra(2)
    calls = _count_ratios(monkeypatch)
    for T, p, route in [(rotation_mixing(0.7), 1.5, ROUTE_SAMPLED), (rotation_mixing(0.7), 2.0, ROUTE_SAMPLED),
                        (_block_positive_map(rng_from(2)), 3.0, ROUTE_POSITIVE)]:
        del calls[:]
        cert = certify_l1_norm(T, p, CFG)
        assert cert.route == route and calls == [p]
        assert cert.value_interval.lower == cert.evidence["ratio"]["best"]


def test_alarm_fires_without_the_ratio(monkeypatch):
    # a wrong closed form is caught by the lower endpoint read from T
    import nclp.certify
    from nclp.lp import lp_norm

    T = synth.random_yeadon_map(rng_from(23), p=3.0)[0]
    density = nclp.certify.trace_density
    monkeypatch.setattr(nclp.certify, "trace_density", lambda *args: density(*args) / 4)
    cert = certify_l1_norm(T, 3.0, CFG)
    assert cert.route == ROUTE_SEPARATING and cert.alarm and "ratio" not in cert.evidence
    k = int(np.argmax(cert.evidence["density"]))
    unit = Element(T.domain, [np.eye(d) * (j == k) for j, d in enumerate(T.domain.dims)])
    assert cert.evidence["alarm_lower"] == lp_norm(T(unit), 3.0) / lp_norm(unit, 3.0)
    assert cert.value_interval.lower == cert.value_interval.upper < cert.evidence["alarm_lower"]


def test_copositive_map_on_two_weighted_blocks_certifies_without_the_ratio(monkeypatch):
    # theta T is CP, so the Lieb-concavity bound closes the interval at p = 3
    alg = AlgebraDescriptor(((2, 1.0), (2, 0.3)))
    rng = rng_from(31)
    T = kraus_map([Element(alg, [ginibre(rng, 2), ginibre(rng, 2)]) for _ in range(2)], 3.0, transposed=True)
    calls = _count_ratios(monkeypatch)
    cert = certify_l1_norm(T, 3.0, CFG)
    assert cert.evidence["choi"] == {"cp": False, "co_cp": True, "positive": True}
    assert cert.route == ROUTE_TWO_POSITIVE and not cert.alarm
    assert cert.value_interval.certified_exact is True
    assert "ratio" not in cert.evidence and calls == []
    lieb = cert.evidence["lieb"]
    assert (cert.value_interval.lower, cert.value_interval.upper) == (lieb["lower"], lieb["upper"])
    assert cert.evidence["op_norm"] == (lieb["lower"], lieb["upper"])
    # op_norm reads the same enclosure
    nv = op_norm(T, 3.0, CFG)
    assert (nv.lower, nv.upper, nv.certified_exact) == (lieb["lower"], lieb["upper"], True)


def test_rejected_lieb_bound_falls_back_to_the_interpolation_and_the_ratio(monkeypatch):
    import nclp.maps

    T = synth.random_cp_contraction(matrix_algebra(2), 3.0, rng_from(22))
    monkeypatch.setattr(nclp.maps, "_cp_norm_upper", lambda *args: "non-Hermitian gradient")
    calls = _count_ratios(monkeypatch)
    cert = certify_l1_norm(T, 3.0, CFG)
    assert cert.route == ROUTE_TWO_POSITIVE and calls == [3.0]
    assert cert.evidence["lieb"]["rejected"] == "non-Hermitian gradient"
    assert cert.value_interval.upper == op_norm(T, 3.0, CFG).upper
    assert not cert.value_interval.certified_exact


def test_rounding_above_the_upper_endpoint_is_recorded_not_hidden():
    # at p = 1 the ratio's Boyd singletons pass |T*(1)|_inf in the last bits;
    # at p = 3 the raw Lieb bound falls below the Boyd value of a unital map,
    # and its rounding allowance lifts it back
    T = synth.random_cp_contraction(matrix_algebra(2), 1.0, rng_from(0))
    cert = certify_l1_norm(T, 1.0, CFG)
    iv = cert.value_interval
    assert cert.route == ROUTE_P1 and not cert.alarm and iv.lower == iv.upper
    assert iv.upper < cert.evidence["lower_above_upper"] <= iv.upper * (1 + 1e-14)
    cert = certify_l1_norm(depolarizing(matrix_algebra(2, 0.5), 0.3, 3.0), 3.0, CFG)
    lieb = cert.evidence["lieb"]
    assert cert.value_interval.certified_exact and not cert.alarm
    assert lieb["raw_upper"] < lieb["lower"] <= lieb["upper"] <= lieb["lower"] * (1 + 1e-12)


def test_op_norm_and_certify_read_one_enclosure(monkeypatch):
    # CP and co-CP maps at every p, and positive maps at p = 1, where the
    # enclosure closes from T alone: the same interval, exact, and at p = 1
    # without the sampled ratio
    rng = rng_from(41)
    one, two = matrix_algebra(2), AlgebraDescriptor(((2, 1.0), (2, 0.3)))
    kraus = [kraus_map([Element(alg, [ginibre(rng, d) for d in alg.dims]) for _ in range(2)], transposed=flip)
             for alg in (one, two) for flip in (False, True)]
    # CP on the first block, co-CP on the second: positive, neither CP nor co-CP
    u, v = Element(two, [ginibre(rng, 2), np.zeros((2, 2))]), Element(two, [np.zeros((2, 2)), ginibre(rng, 2)])
    positive = [synth.random_positive_map(alg, 2.0, rng) for alg in (one, two)]
    positive.append(add_maps(kraus_map([u]), kraus_map([v], transposed=True)))
    calls = _count_ratios(monkeypatch)
    for T, ps in [(T, (1.0, 1.5, 3.0)) for T in kraus] + [(T, (1.0,)) for T in positive]:
        for p in ps:
            del calls[:]
            cert = certify_l1_norm(T, p, CFG)
            nv = op_norm(T, p, CFG)
            assert nv.certified_exact and not cert.alarm
            assert (nv.lower, nv.upper) == cert.evidence["op_norm"]
            assert p > 1 or calls == []
    for T in kraus + positive:  # attained at the identity
        nv = op_norm(T, np.inf, CFG)
        assert nv.certified_exact and nv.lower == nv.upper == lp_norm(T(identity(T.domain)), np.inf)
