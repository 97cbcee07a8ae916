import numpy as np
import pytest

from nclp.algebra import (
    AlgebraDescriptor,
    Element,
    StructuralError,
    ToleranceConfig,
    basis,
    identity,
    matrix_algebra,
    matrix_unit,
    zero_element,
)
from nclp.lp import disjoint
from nclp.maps import (
    LinearMap,
    _jordan_layout,
    amplified_map,
    identity_map,
    jordan_direct_sum,
    map_from_function,
    rotation_mixing,
    transpose_map,
    unitary_conjugation,
    yeadon_synthetic,
)
from nclp.sampling import (
    haar_unitary,
    random_algebra,
    random_disjoint_pair,
    random_selfadjoint,
    random_unitary,
    rng_from,
)
from nclp.yeadon import (
    CERTIFIED,
    FALSIFIED,
    ExtractionFailure,
    YeadonTriple,
    central_decompose,
    certify_separating,
    extract_yeadon,
    structural_checks,
    verify_jordan,
)
from nclp import synth

CFG = ToleranceConfig(seed=321)


def test_transpose_extraction():
    alg = matrix_algebra(2)
    T = transpose_map(alg, 2.0)
    tri = extract_yeadon(T, CFG)
    assert isinstance(tri, YeadonTriple)
    one = identity(alg)
    assert (tri.w - one).sup_norm() < 1e-10
    assert (tri.B - one).sup_norm() < 1e-10
    # J is the transposition itself: a pure anti-homomorphic part
    assert tri.g.sup_norm() < 1e-10
    assert (tri.f - one).sup_norm() < 1e-10
    x = matrix_unit(alg, 0, 0, 1)
    assert (tri.J(x) - T(x)).sup_norm() < 1e-10


def test_synthetic_roundtrip_exact():
    rng = rng_from(1)
    for i in range(15):
        T, w0, B0, J0 = synth.random_yeadon_map(rng, p=(1.0, 1.5, 2.0, 3.0)[i % 4])
        tri = extract_yeadon(T, CFG)
        assert isinstance(tri, YeadonTriple), getattr(tri, "all_reasons", None)
        assert (tri.w - w0).sup_norm() < 1e-8
        assert (tri.B - B0).sup_norm() < 1e-8 * max(1.0, B0.sup_norm())
        assert np.abs(tri.J.action - J0.action).max() < 1e-8


def test_rotation_extraction_fails_jordan_route():
    fail = extract_yeadon(rotation_mixing(np.pi / 4), CFG)
    assert isinstance(fail, ExtractionFailure)
    assert "jordan" in fail.all_reasons or "commutation (c)" in fail.all_reasons


def test_zero_map_has_zero_triple():
    alg = matrix_algebra(2)
    Z = LinearMap(alg, alg, np.zeros((4, 4)), 2.0)
    tri = extract_yeadon(Z, CFG)
    assert isinstance(tri, YeadonTriple)
    assert tri.w.sup_norm() == 0 and tri.B.sup_norm() == 0


def test_zero_weight_failure():
    # T(1) = 0 with T nonzero cannot factor: a zero weight forces a zero map
    alg = matrix_algebra(2)

    def fn(x):
        off = x.blocks[0][0, 1]
        return Element(alg, [np.array([[0, off], [0, 0]])])

    T = map_from_function(alg, alg, fn, 2.0)
    fail = extract_yeadon(T, CFG)
    assert isinstance(fail, ExtractionFailure)
    assert fail.reason == "zero_weight"


def test_verify_jordan_identity_and_transpose():
    alg = matrix_algebra(3)
    assert verify_jordan(identity_map(alg), CFG).ok
    assert verify_jordan(transpose_map(alg, 2.0), CFG).ok


def test_verify_jordan_detects_perturbation():
    rng = rng_from(2)
    alg = matrix_algebra(2)
    J = transpose_map(alg, 2.0)
    eps = 3e-4
    noisy = LinearMap(alg, alg, J.action + eps * rng.standard_normal((4, 4)), 2.0)
    report = verify_jordan(noisy, CFG)
    assert not report.ok
    # the defect tracks the perturbation scale
    assert 1e-5 < report.defect < 1e-1


def test_central_decompose_identity():
    alg = matrix_algebra(2)
    dec = central_decompose(identity_map(alg), CFG)
    assert (dec.g - identity(alg)).sup_norm() < 1e-8
    assert dec.f.sup_norm() < 1e-8


def test_central_decompose_hom_plus_anti():
    alg = matrix_algebra(2)
    J = jordan_direct_sum(alg, [(0, "hom"), (0, "anti")])
    dec = central_decompose(J, CFG)
    # oracle: the laws per block decide the split
    want_g = Element(J.codomain, [np.eye(2), np.zeros((2, 2))])
    want_f = Element(J.codomain, [np.zeros((2, 2)), np.eye(2)])
    assert (dec.g - want_g).sup_norm() < 1e-8
    assert (dec.f - want_f).sup_norm() < 1e-8
    rng = rng_from(3)
    from nclp.sampling import random_element

    x, y = random_element(alg, rng), random_element(alg, rng)
    assert (dec.pi(x * y) - dec.pi(x) * dec.pi(y)).sup_norm() < 1e-9
    assert (dec.sigma(x * y) - dec.sigma(y) * dec.sigma(x)).sup_norm() < 1e-9


def test_central_decompose_commutative_range_goes_to_hom():
    # a commutative codomain satisfies both laws; the tie-break assigns to g
    dom = AlgebraDescriptor(((1, 1.0), (1, 2.0)))
    J = jordan_direct_sum(dom, [(0, "hom"), (1, "hom")])
    dec = central_decompose(J, CFG)
    one_img = J(identity(dom))
    assert (dec.g - one_img).sup_norm() < 1e-8
    assert dec.f.sup_norm() < 1e-8


def _per_pair_reference(J):
    """Today's per-pair evaluation: images, products of matrix units, scale."""
    dom = J.domain
    coords = [(k, i, j) for k, d in enumerate(dom.dims) for i in range(d) for j in range(d)]
    index = {c: n for n, c in enumerate(coords)}
    images = [J(e) for e in basis(dom)]
    zero = zero_element(J.codomain)

    def unit_image(a, b):  # J(e_a e_b)
        (ka, ia, ja), (kb, ib, jb) = coords[a], coords[b]
        return images[index[(ka, ia, jb)]] if ka == kb and ja == ib else zero

    scale = max(1.0, max(im.sup_norm() for im in images)) ** 2
    return coords, index, images, unit_image, scale


def _jordan_reference(J, cfg, spot_checks=3):
    coords, index, images, unit_image, scale = _per_pair_reference(J)
    defect = 0.0
    for a in range(len(coords)):
        for b in range(a, len(coords)):
            lhs = unit_image(a, b) + unit_image(b, a)
            rhs = images[a] * images[b] + images[b] * images[a]
            defect = max(defect, (lhs - rhs).sup_norm())
    for a, (k, i, j) in enumerate(coords):
        defect = max(defect, (images[index[(k, j, i)]] - images[a].H).sup_norm())
    rng = rng_from(cfg.seed, 9100)
    for _ in range(spot_checks):
        x = random_selfadjoint(J.domain, rng)
        defect = max(defect, (J(x * x) - J(x) * J(x)).sup_norm() / max(1.0, x.sup_norm() ** 2))
    tol = max(1e-7, 100.0 * cfg.algebraic_tol)
    return defect <= tol * scale, defect


def _central_reference(J, g, f, cfg):
    """Per-pair residuals of the multiplicative law on g and the reversed
    law on f, with the tolerance they are held to."""
    coords, _, images, unit_image, scale = _per_pair_reference(J)
    hom = anti = 0.0
    for a in range(len(coords)):
        for b in range(len(coords)):
            hom = max(hom, (unit_image(a, b) * g - images[a] * images[b] * g).sup_norm())
            anti = max(anti, (unit_image(a, b) * f - images[b] * images[a] * f).sup_norm())
    return hom, anti, max(1e-7, 100.0 * cfg.algebraic_tol) * scale


def _product_table_cases():
    alg = AlgebraDescriptor(((2, 0.6), (3, 1.7)))
    rng = rng_from(41)
    T = transpose_map(alg, 2.0)
    noise = 1e-3 * rng.standard_normal(T.action.shape)
    return {
        "identity": identity_map(alg),
        "transpose": T,
        "hom+anti": jordan_direct_sum(alg, [(0, "hom"), (1, "anti"), (0, "anti")],
                                      weights=[0.5, 2.0, 1.3]),
        "perturbed": LinearMap(alg, alg, T.action + noise, 2.0),
    }


@pytest.mark.parametrize("name", ["identity", "transpose", "hom+anti", "perturbed"])
def test_product_table_matches_per_pair_loops(name):
    J = _product_table_cases()[name]
    report = verify_jordan(J, CFG)
    ok, defect = _jordan_reference(J, CFG, spot_checks=0)
    assert report.defect == defect  # bitwise
    assert report.ok == ok == (name != "perturbed")
    if name == "perturbed":
        return
    dec = central_decompose(J, CFG)
    hom, anti, tol = _central_reference(J, dec.g, dec.f, CFG)
    assert hom <= tol and anti <= tol
    if name == "hom+anti":
        want = Element(J.codomain, [np.zeros((2, 2)), np.eye(3), np.eye(2)])
        assert (dec.f - want).sup_norm() < 1e-12


def _oracle_f(J, layout, unitaries):
    """u_l (0 (+) the anti parts of dimension >= 2 (+) 0) u_l* per codomain
    block, from the layout that built J."""
    blocks = []
    for (parts, dead), u in zip(layout, unitaries):
        diag = [float(kind == "anti" and J.domain.dims[k] >= 2)
                for k, kind in parts for _ in range(J.domain.dims[k])]
        q = np.diag(diag + [0.0] * dead).astype(complex)
        blocks.append(u @ q @ u.conj().T)
    return Element(J.codomain, blocks)


def _assert_split_matches_layout(J, layout, unitaries):
    dec = central_decompose(J, CFG)
    assert (dec.f - _oracle_f(J, layout, unitaries)).sup_norm() < 1e-12
    want_g = J(identity(J.domain)) - dec.f
    assert all(np.array_equal(a, b) for a, b in zip(dec.g.blocks, want_g.blocks))


def test_central_split_matches_the_generator_layout():
    rng = rng_from(44)
    for _ in range(200):
        J, layout, unitaries = synth._random_jordan(
            rng, random_algebra(rng, max_blocks=2, max_dim=3), 2.0)
        _assert_split_matches_layout(J, layout, unitaries)


@pytest.mark.parametrize("layout", [
    [([(0, "anti"), (1, "hom")], 0)],  # a 1 x 1 anti part obeys both laws: g
    [([(1, "hom"), (1, "anti")], 0), ([(0, "hom")], 0)],  # hom and anti copies in one block
    [([(1, "anti")], 2), ([], 1)],  # dead corners
], ids=["one-by-one-anti", "hom-and-anti-copies", "dead-corner"])
def test_central_split_fixed_layouts(layout):
    dom = AlgebraDescriptor(((1, 0.7), (3, 1.3)))
    rng = rng_from(45)
    unitaries = [haar_unitary(rng, sum(dom.dims[k] for k, _ in parts) + dead)
                 for parts, dead in layout]
    J = _jordan_layout(dom, layout, [1.0] * len(layout), unitaries, 2.0, {})
    _assert_split_matches_layout(J, layout, unitaries)


def test_central_split_reads_no_seed():
    rng = rng_from(46)
    for _ in range(10):
        J = synth.random_jordan_map(rng)
        a = central_decompose(J, ToleranceConfig(seed=0))
        b = central_decompose(J, ToleranceConfig(seed=12345))
        for x, y in zip(a.g.blocks + a.f.blocks, b.g.blocks + b.f.blocks):
            assert np.array_equal(x, y)


def test_central_decompose_rejects_map_obeying_neither_law():
    # x -> (x + x^T) / 2 is unital with range generating M_2, but
    # J(e12 e21) = e11 while J(e12) J(e21) = J(e21) J(e12) = 1 / 4
    alg = matrix_algebra(2)
    J = LinearMap(alg, alg, 0.5 * (np.eye(4) + transpose_map(alg).action), 2.0)
    assert not verify_jordan(J, CFG).ok
    with pytest.raises(StructuralError, match="neither multiplication law"):
        central_decompose(J, CFG)


def test_certify_separating_transpose():
    v = certify_separating(transpose_map(matrix_algebra(2), 2.0), CFG)
    assert v.status == CERTIFIED


def test_certify_separating_rotation_falsified_with_witness():
    v = certify_separating(rotation_mixing(np.pi / 4), CFG)
    assert v.status == FALSIFIED
    a, b = v.witness
    # the witness is a genuinely disjoint positive pair whose images are not
    from nclp.lp import is_positive

    assert is_positive(a, CFG) and is_positive(b, CFG)
    assert disjoint(a, b, CFG)
    T = rotation_mixing(np.pi / 4)
    assert not disjoint(T(a), T(b), CFG)


def test_witness_budget_draws_four_pairs_per_unit(monkeypatch):
    import nclp.yeadon
    from nclp.maps import LinearMap
    from nclp.yeadon import UNDETERMINED

    draws = []

    def counted(*args, **kwargs):
        draws.append(1)
        return random_disjoint_pair(*args, **kwargs)

    monkeypatch.setattr(nclp.yeadon, "random_disjoint_pair", counted)
    # off a Jordan map by more than extraction tolerates and by less than a
    # witness must show: every pair of the budget is tried
    J = transpose_map(matrix_algebra(2), 2.0)
    T = LinearMap(J.domain, J.codomain, J.action + 1e-7 * np.ones(J.action.shape), 2.0)
    assert certify_separating(T, CFG, witness_seeds=3).status == UNDETERMINED
    assert len(draws) == 12


def test_jordan_homomorphism_maps_certify():
    rng = rng_from(4)
    for _ in range(5):
        J = synth.random_jordan_map(rng)
        assert certify_separating(J, CFG).status == CERTIFIED


def test_separating_verdict_reproducible():
    T = rotation_mixing(1.1)
    assert certify_separating(T, CFG).status == certify_separating(T, CFG).status


def test_structural_checks_transpose():
    alg = matrix_algebra(2)
    T = transpose_map(alg, 2.0)
    tri = extract_yeadon(T, CFG)
    rep = structural_checks(tri, T, CFG)
    assert rep.injective
    assert rep.positive  # w = 1 is a projection
    assert not rep.two_separating  # the anti part is everything
    assert rep.cross_checks["two_separating_amplified"] == FALSIFIED
    assert rep.consistent


def test_structural_checks_unitary_conjugation():
    rng = rng_from(5)
    u = random_unitary(matrix_algebra(2), rng)
    T = unitary_conjugation(u)
    tri = extract_yeadon(T, CFG)
    rep = structural_checks(tri, T, CFG)
    assert rep.injective and rep.two_separating and rep.consistent


def test_structural_checks_rank_deficient():
    # a map killing one block is not injective, matching the rank oracle
    dom = AlgebraDescriptor(((2, 1.0), (2, 1.0)))
    J = jordan_direct_sum(dom, [(0, "hom")])
    T = yeadon_synthetic(J(identity(dom)), J(identity(dom)), J, 2.0)
    tri = extract_yeadon(T, CFG)
    assert isinstance(tri, YeadonTriple)
    rep = structural_checks(tri, T, CFG)
    assert not rep.injective
    assert rep.cross_checks["injective_rank_of_T"] is False
    # independent rank oracle: column rank of the action matrix is deficient
    rank = np.linalg.matrix_rank(T.action, tol=1e-10)
    assert rank < T.domain.coord_dim


def test_separating_preserved_on_samples():
    rng = rng_from(6)
    T, *_ = synth.random_yeadon_map(rng, p=2.0)
    scale = float(np.abs(T.action).max())
    for i in range(20):
        a, b = random_disjoint_pair(T.domain, rng, positive=(i % 2 == 0))
        ta, tb = T(a), T(b)
        if ta.sup_norm() <= 1e-12 * scale * a.sup_norm():
            continue
        if tb.sup_norm() <= 1e-12 * scale * b.sup_norm():
            continue
        assert disjoint(ta, tb, ToleranceConfig(algebraic_tol=1e-7, seed=0))


def test_amplified_transpose_not_separating():
    T = transpose_map(matrix_algebra(2), 2.0)
    v = certify_separating(amplified_map(T, 2), CFG)
    assert v.status == FALSIFIED


def test_trace_density():
    from nclp.maps import scale_map
    from nclp.yeadon import trace_density

    rng = rng_from(7)
    alg = matrix_algebra(2)
    # a conjugation is an isometry at every exponent: h = 1
    u = random_unitary(alg, rng)
    T = unitary_conjugation(u)
    tri = extract_yeadon(T, CFG)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert np.allclose(trace_density(tri, alg, p, CFG), 1.0, rtol=0, atol=1e-12)
    # twice it has B = 2, so h = 2^p
    tri2 = extract_yeadon(scale_map(T, 2.0), CFG)
    assert isinstance(tri2, YeadonTriple)
    assert np.allclose(trace_density(tri2, alg, 2.0, CFG), 4.0, rtol=0, atol=1e-12)


def _ref_failure(T, cfg):
    """(reason, residual, all_reasons) of a failed extraction, as
    ``extract_yeadon`` computed them before the Jordan check became lazy,
    copied as it was (without the zero-weight and central branches)."""
    from nclp.algebra import _nearly_selfadjoint, _sup_norms, polar_support, pseudo_inverse
    from nclp.maps import _map_from_images, _unit_images
    from nclp.yeadon import _round_projection

    dom, cod = T.domain, T.codomain
    one = identity(dom)
    t1 = T(one)
    w, B, sB = polar_support(t1, cfg)
    B_pinv = pseudo_inverse(B, cfg)
    T_images = _unit_images(T)
    J_images = [np.matmul(bp, np.matmul(u, S))
                for bp, u, S in zip(B_pinv.blocks, w.H.blocks, T_images)]
    J = _map_from_images(dom, cod, J_images, T.p, {"kind": "extracted_jordan"})
    out_scale = float(_sup_norms(T_images).max())
    tol = max(1e-7, 100.0 * cfg.algebraic_tol)
    residuals = {}
    reasons = []
    wB = w * B
    rec = float(_sup_norms([S - np.matmul(b, Jl)
                            for S, b, Jl in zip(T_images, wB.blocks, J_images)]).max())
    residuals["reconstruction"] = rec / out_scale
    if rec > tol * out_scale:
        reasons.append("reconstruction (a)")
    J1 = J(one)
    sup_res = (w.H * w - sB).sup_norm()
    if _nearly_selfadjoint(J1, max(1e-7, 100 * cfg.algebraic_tol)):
        rounded = _round_projection(J1, cfg)
        sup_res = max(sup_res, (rounded - sB).sup_norm(), (J1 - rounded).sup_norm())
    else:
        sup_res = max(sup_res, (J1 - J1.H).sup_norm())
    residuals["support"] = sup_res
    if sup_res > tol * 10:
        reasons.append("support (b)")
    comm = float(_sup_norms([np.matmul(b, Jl) - np.matmul(Jl, b)
                             for b, Jl in zip(B.blocks, J_images)]).max())
    residuals["commutation"] = comm / B.sup_norm()
    if comm > tol * B.sup_norm() * float(_sup_norms(J_images).max()):
        reasons.append("commutation (c)")
    report = verify_jordan(J, cfg)
    residuals["jordan"] = report.defect
    if not report.ok:
        reasons.append("jordan")
    return reasons[0], max(residuals.values()), reasons


def _failing_maps():
    # the rotation mixing fails at (c) and the Jordan check, x -> diag(1, 2) x
    # at (c) alone, x -> x_11 e_11 + x_12 e_21 at (a) and a Ginibre map at (c)
    alg = matrix_algebra(2)
    left = map_from_function(alg, alg, lambda x: Element(alg, [np.diag([1.0, 2.0]) @ x.blocks[0]]), 2.0)
    off = map_from_function(alg, alg, lambda x: Element(alg, [np.array([[x.blocks[0][0, 0], 0.0], [x.blocks[0][0, 1], 0.0]])]), 3.0)
    wide = AlgebraDescriptor(((2, 1.0), (1, 0.5)))
    return [rotation_mixing(np.pi / 4), left, off,
            LinearMap(wide, wide, synth.ginibre(rng_from(44), wide.coord_dim), 2.0)]


@pytest.mark.parametrize("index", range(4))
def test_failed_extraction_checks_jordan_only_when_read(monkeypatch, index):
    # once (a), (b) or (c) has failed the reason is known; the Jordan check
    # behind all_reasons and residual runs once, when one of them is read,
    # and gives what the eager extraction gave
    import nclp.yeadon

    T = _failing_maps()[index]
    want = _ref_failure(T, CFG)
    calls = []

    def counted(*args):
        calls.append(1)
        return verify_jordan(*args)

    monkeypatch.setattr(nclp.yeadon, "verify_jordan", counted)
    fail = extract_yeadon(T, CFG)
    assert isinstance(fail, ExtractionFailure) and fail.reason == want[0] != "jordan"
    assert not calls
    assert fail.all_reasons == want[2] and len(calls) == 1
    assert fail.residual == want[1] and len(calls) == 1
    assert fail == ExtractionFailure(*want)
