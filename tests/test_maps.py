import numpy as np
import pytest

from nclp.algebra import (
    AlgebraDescriptor,
    Element,
    StructuralError,
    ToleranceConfig,
    apply_spectral,
    block_entries,
    block_matrix,
    identity,
    matrix_algebra,
    matrix_unit,
    polar_support,
    zero_element,
)
from nclp.lp import conjugate_exponent, disjoint, duality_pair, lp_norm
from nclp.maps import (
    CERTIFIED,
    FALSIFIED,
    LinearMap,
    _boyd_ascent,
    _norming_dual,
    adjoint_map,
    amplified_map,
    apply_map,
    choi_components,
    commutative_matrix,
    compose,
    depolarizing,
    identity_map,
    is_completely_positive,
    jordan_direct_sum,
    kraus_map,
    op_norm,
    positivity_tests,
    rotation_mixing,
    scale_map,
    transpose_map,
    unitary_conjugation,
    unvec,
    vec,
    yeadon_synthetic,
)
from nclp.sampling import ginibre, random_element, random_unitary, rng_from

CFG = ToleranceConfig(seed=99)


def test_vec_unvec_roundtrip():
    rng = rng_from(1)
    alg = AlgebraDescriptor(((2, 1.0), (3, 0.5)))
    x = random_element(alg, rng)
    assert (unvec(alg, vec(x)) - x).sup_norm() == 0.0


def test_identity_map_applies():
    rng = rng_from(2)
    alg = matrix_algebra(3)
    x = random_element(alg, rng)
    assert (identity_map(alg)(x) - x).sup_norm() == 0.0


def test_apply_rejects_wrong_domain():
    T = identity_map(matrix_algebra(2))
    with pytest.raises(StructuralError):
        apply_map(T, identity(matrix_algebra(3)))


def test_adjoint_pairing_identity():
    # oracle: the defining bilinear pairing, evaluated directly
    rng = rng_from(3)
    alg = AlgebraDescriptor(((2, 0.7), (3, 1.3)))
    T = LinearMap(alg, alg, ginibre(rng, alg.coord_dim), 2.0)
    Ts = adjoint_map(T)
    for _ in range(5):
        x, y = random_element(alg, rng), random_element(alg, rng)
        assert duality_pair(T(x), y) == pytest.approx(duality_pair(x, Ts(y)), rel=1e-10)


def test_adjoint_duality_between_different_algebras():
    # weighted 3-block domain into a different 2-block codomain
    rng = rng_from(31)
    dom = AlgebraDescriptor(((1, 0.5), (2, 1.7), (3, 0.8)))
    cod = AlgebraDescriptor(((2, 2.5), (3, 0.6)))
    T = LinearMap(dom, cod, rng.standard_normal((cod.coord_dim, dom.coord_dim))
                  + 1j * rng.standard_normal((cod.coord_dim, dom.coord_dim)), 3.0)
    Ts = adjoint_map(T)
    assert (Ts.domain, Ts.codomain) == (cod, dom)
    assert Ts.p == pytest.approx(1.5)
    for _ in range(5):
        x, y = random_element(dom, rng), random_element(cod, rng)
        lhs, rhs = (T(x) * y).trace(), (x * Ts(y)).trace()
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    # the permutation form equals solving with the weighted-transposition
    # pairing matrices K (tau(x y) = vec(x)^T K vec(y)) bit for bit
    def pairing(alg):
        K = np.zeros((alg.coord_dim, alg.coord_dim))
        pos = 0
        for d, w in alg.blocks:
            for i in range(d):
                for j in range(d):
                    K[pos + i * d + j, pos + j * d + i] = w
            pos += d * d
        return K

    want = np.linalg.solve(pairing(dom), T.action.T @ pairing(cod))
    assert np.array_equal(Ts.action, want)


def test_adjoint_is_involution():
    rng = rng_from(4)
    alg = AlgebraDescriptor(((2, 1.0), (2, 3.0)))
    T = LinearMap(alg, alg, ginibre(rng, alg.coord_dim), 2.0)
    back = adjoint_map(adjoint_map(T))
    assert np.abs(back.action - T.action).max() < 1e-12


def test_op_norm_identity_and_scaling():
    alg = AlgebraDescriptor(((2, 1.0), (3, 0.5)))
    I = identity_map(alg)
    for p in (1.0, 1.5, 2.0, 3.0):
        iv = op_norm(I, p, CFG)
        assert iv.lower == pytest.approx(1.0, rel=1e-9)
        assert iv.upper == pytest.approx(1.0, rel=1e-9)
    two = scale_map(identity_map(alg), 2.0)
    assert op_norm(two, 2.0, CFG).upper == pytest.approx(2.0, rel=1e-12)


def test_op_norm_transpose_is_isometry():
    # transposition preserves singular values blockwise
    T = transpose_map(matrix_algebra(4), 2.0)
    assert op_norm(T, 2.0, CFG).upper == pytest.approx(1.0, rel=1e-12)
    iv = op_norm(T, 3.0, CFG)
    assert iv.upper == pytest.approx(1.0)
    assert iv.certified_exact


def test_op_norm_p2_weighted_oracle():
    # oracle: dense SVD of the weighted action computed in the test
    rng = rng_from(5)
    alg = AlgebraDescriptor(((2, 0.25), (2, 4.0)))
    A = ginibre(rng, alg.coord_dim)
    T = LinearMap(alg, alg, A, 2.0)
    w = np.concatenate([np.full(d * d, wt) for d, wt in alg.blocks])
    want = np.linalg.norm((A * np.sqrt(w)[:, None]) / np.sqrt(w)[None, :], 2)
    assert op_norm(T, 2.0, CFG).upper == pytest.approx(want, rel=1e-12)


def test_op_norm_positive_interpolation_upper_sound():
    rng = rng_from(6)
    alg = matrix_algebra(3)
    T = depolarizing(alg, 0.3, 3.0)
    iv = op_norm(T, 3.0, CFG)
    assert iv.lower <= iv.upper * (1 + 1e-12)
    assert iv.upper <= 1.0 + 1e-9


def test_boyd_lower_reaches_exact_p2_value():
    rng = rng_from(7)
    alg = matrix_algebra(2)
    T = LinearMap(alg, alg, ginibre(rng, 4), 2.0)
    exact = op_norm(T, 2.0, CFG).upper
    # p slightly off 2 keeps the power-iteration lower bound within a few
    # percent of the exact p = 2 value
    lower = op_norm(T, 2.05, CFG).lower
    assert lower >= 0.85 * exact


KERNEL_ALGEBRAS = [
    matrix_algebra(3),
    AlgebraDescriptor(((1, 0.4), (2, 1.0), (2, 2.5))),
]
KERNEL_PS = [1.0, 1.5, 2.0, 3.0, np.inf]


def _kernel_inputs(alg, seed):
    """Zero, generic, rank-deficient (rank one, first block zero when there
    are several) and tiny inputs."""
    x = random_element(alg, rng_from(seed))
    low = [np.outer(b[:, 0], b[0, :]) for b in x.blocks]
    if len(low) > 1:
        low[0] = np.zeros_like(low[0])
    return [zero_element(alg), x, Element(alg, low), 1e-6 * x]


def _polar_chain_dual(y, p, cfg):
    """The norming dual as lp_norm -> polar_support -> apply_spectral
    computes it, written out independently of the one-SVD kernel."""
    ny = lp_norm(y, p)
    if ny == 0:
        return zero_element(y.algebra)
    if p == np.inf:
        tops = [np.linalg.svd(b, compute_uv=False)[0] for b in y.blocks]
        k = int(np.argmax(tops))
        U, _, Vh = np.linalg.svd(y.blocks[k])
        blocks = [np.zeros((d, d), dtype=complex) for d in y.algebra.dims]
        blocks[k] = np.outer(Vh[0].conj(), U[:, 0].conj()) / y.algebra.weights[k]
        return Element(y.algebra, blocks)
    u, m, _ = polar_support(y, cfg)
    if p == 1:
        return u.H
    power = apply_spectral(m, lambda v: np.clip(v, 0.0, None) ** (p - 1.0), cfg)
    return (1.0 / ny ** (p - 1.0)) * (power * u.H)


@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS)
@pytest.mark.parametrize("p", KERNEL_PS)
def test_norming_dual_kernel(alg, p):
    for y in _kernel_inputs(alg, 31):
        ny, z = _norming_dual(y, p, CFG)
        ref = lp_norm(y, p)
        assert abs(ny - ref) <= 1e-12 * ref
        if ref == 0:
            assert z.sup_norm() == 0.0
            continue
        assert abs(duality_pair(z, y) - ny) <= 1e-10 * ny
        assert lp_norm(z, conjugate_exponent(p)) == pytest.approx(1.0, rel=1e-10)
        old = _polar_chain_dual(y, p, CFG)
        assert (z - old).sup_norm() <= 1e-10 * max(old.sup_norm(), 1.0)


@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS)
@pytest.mark.parametrize("p", KERNEL_PS)
def test_boyd_ascent_reports_realised_ratios(alg, p):
    rng = rng_from(32)
    T = LinearMap(alg, alg, ginibre(rng, alg.coord_dim), p)
    best, arg = _boyd_ascent(T, p, CFG, 8, random_element(alg, rng))
    assert best > 0
    assert abs(best - lp_norm(T(arg), p)) <= 1e-12 * best
    assert lp_norm(arg, p) == pytest.approx(1.0, abs=1e-12)


def test_transpose_positivity_hierarchy():
    T = transpose_map(matrix_algebra(2), 2.0)
    assert positivity_tests(T, "positive", CFG).status == CERTIFIED
    two = positivity_tests(T, "two_positive", CFG)
    assert two.status == FALSIFIED
    # explicit witness: a positive input of the doubled algebra whose image
    # has a negative eigenvalue
    assert two.witness is not None
    amp = amplified_map(T, 2)
    img = amp(two.witness)
    low = min(np.linalg.eigvalsh(b).min() for b in (0.5 * (img + img.H)).blocks)
    assert low < -1e-6
    assert positivity_tests(T, "completely_positive", CFG).status == FALSIFIED


def test_unitary_conjugation_is_cp():
    rng = rng_from(8)
    u = random_unitary(matrix_algebra(3), rng)
    T = unitary_conjugation(u)
    for level in ("positive", "two_positive", "completely_positive"):
        assert positivity_tests(T, level, CFG).status == CERTIFIED


def test_choi_matrix_of_conjugation_is_rank_one():
    rng = rng_from(9)
    u = random_unitary(matrix_algebra(2), rng)
    T = unitary_conjugation(u)
    C = choi_components(T)[0][0]
    vals = np.linalg.eigvalsh(C)
    assert vals.min() > -1e-10
    assert np.sum(vals > 1e-8) == 1


def test_choi_components_match_definition():
    # C_lk has the (i, j) block T(e_ij of domain block k) restricted to block l
    rng = rng_from(32)
    dom = AlgebraDescriptor(((2, 0.7), (1, 1.0), (3, 2.0)))
    cod = AlgebraDescriptor(((3, 1.5), (2, 0.4)))
    T = LinearMap(dom, cod, rng.standard_normal((cod.coord_dim, dom.coord_dim))
                  + 1j * rng.standard_normal((cod.coord_dim, dom.coord_dim)), 2.0)
    comps = choi_components(T)
    assert len(comps) == 2 and all(len(row) == 3 for row in comps)
    for l, c in enumerate(cod.dims):
        for k, d in enumerate(dom.dims):
            want = np.zeros((d * c, d * c), dtype=complex)
            for i in range(d):
                for j in range(d):
                    img = T(matrix_unit(dom, k, i, j)).blocks[l]
                    want[i * c : (i + 1) * c, j * c : (j + 1) * c] = img
            assert np.array_equal(comps[l][k], want)


def test_trace_subtraction_falsified_on_rank_one():
    alg = matrix_algebra(2)
    I = identity_map(alg)
    # x -> x - tr(x) 1 / 2 is not positive: evaluate on E11
    def fn(x):
        return x - (complex(x.trace()) / 2.0) * identity(alg)

    from nclp.maps import map_from_function

    T = map_from_function(alg, alg, fn, 2.0)
    v = positivity_tests(T, "positive", CFG)
    assert v.status == FALSIFIED
    # the witness is an explicit positive input with a negative image eigenvalue
    assert v.witness is not None
    img = T(v.witness)
    low = min(np.linalg.eigvalsh(b).min() for b in (0.5 * (img + img.H)).blocks)
    assert low < -1e-8
    # oracle from the defining formula: already E11 is mapped off the cone
    e11 = matrix_unit(alg, 0, 0, 0)
    assert np.linalg.eigvalsh(fn(e11).blocks[0]).min() < -0.4


def test_depolarizing_cp_certified():
    T = depolarizing(matrix_algebra(2), 0.5, 2.0)
    ok, eig = is_completely_positive(T, CFG)
    assert ok and eig > -1e-10


def test_cp_blockwise_on_direct_sums():
    rng = rng_from(10)
    alg = AlgebraDescriptor(((2, 1.0), (2, 0.5)))
    v = random_element(alg, rng)
    T = kraus_map([v], 2.0)
    ok, _ = is_completely_positive(T, CFG)
    assert ok
    K = kraus_map([v], 2.0, transposed=True)
    ok2, _ = is_completely_positive(K, CFG)
    assert not ok2  # transposed Kraus maps are co-CP, not CP, generically


def test_amplified_identity_is_identity():
    alg = matrix_algebra(2)
    amp = amplified_map(identity_map(alg), 2)
    assert np.abs(amp.action - np.eye(16)).max() == 0.0


def test_amplified_map_entrywise_oracle():
    # oracle: apply the base map entry by entry on the grid
    rng = rng_from(11)
    alg = AlgebraDescriptor(((2, 1.0), (2, 2.0)))
    T = LinearMap(alg, alg, ginibre(rng, alg.coord_dim), 2.0)
    amp = amplified_map(T, 2)
    grid = [[random_element(alg, rng) for _ in range(2)] for _ in range(2)]
    X = block_matrix(alg, grid)
    got = block_entries(alg, 2, amp(X))
    for i in range(2):
        for j in range(2):
            assert (got[i][j] - T(grid[i][j])).sup_norm() < 1e-12


def test_amplified_map_between_different_algebras():
    rng = rng_from(33)
    dom = AlgebraDescriptor(((2, 0.7), (1, 1.0)))
    cod = AlgebraDescriptor(((1, 1.5), (3, 0.4)))
    T = LinearMap(dom, cod, rng.standard_normal((cod.coord_dim, dom.coord_dim)), 1.5)
    amp = amplified_map(T, 3)
    grid = [[random_element(dom, rng) for _ in range(3)] for _ in range(3)]
    got = block_entries(cod, 3, amp(block_matrix(dom, grid)))
    for i in range(3):
        for j in range(3):
            assert (got[i][j] - T(grid[i][j])).sup_norm() < 1e-12


def test_amplified_embeds_corner():
    alg = matrix_algebra(2)
    T = transpose_map(alg, 2.0)
    amp = amplified_map(T, 2)
    x = matrix_unit(alg, 0, 0, 1)
    corner = block_matrix(alg, [[x, zero_element(alg)], [zero_element(alg), zero_element(alg)]])
    got = block_entries(alg, 2, amp(corner))
    assert (got[0][0] - T(x)).sup_norm() == 0.0
    assert got[0][1].sup_norm() == 0.0


def test_partial_transpose_expands_trace_norm():
    # amplification must not inherit the every-exponent isometry flag: the
    # partial transpose doubles the trace norm of the identity-correlated
    # rank-one projector on M_2(M_2)
    T = transpose_map(matrix_algebra(2), 1.0)
    amp = amplified_map(T, 2)
    assert "isometry_all_p" not in amp.meta
    iv = op_norm(amp, 1.0, CFG)
    assert iv.lower >= 2.0 - 1e-9
    # independent witness: the normalized maximally correlated projector
    big = matrix_algebra(4)
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    from nclp.algebra import Element

    omega = Element(big, [np.outer(psi, psi.conj())])
    from nclp.lp import lp_norm as _lp

    assert _lp(amp(omega), 1.0) == pytest.approx(2.0, rel=1e-12)
    assert _lp(omega, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_transpose_on_e12():
    alg = matrix_algebra(2)
    T = transpose_map(alg, 2.0)
    e12 = matrix_unit(alg, 0, 0, 1)
    e21 = matrix_unit(alg, 0, 1, 0)
    assert (T(e12) - e21).sup_norm() == 0.0


def test_yeadon_synthetic_identity():
    alg = matrix_algebra(2)
    one = identity(alg)
    T = yeadon_synthetic(one, one, identity_map(alg), 2.0)
    x = matrix_unit(alg, 0, 0, 1)
    assert (T(x) - x).sup_norm() == 0.0


def test_yeadon_synthetic_validation_names_condition():
    alg = matrix_algebra(2)
    one = identity(alg)
    bad_w = 2.0 * one  # not a partial isometry
    with pytest.raises(StructuralError, match=r"\(b\)"):
        yeadon_synthetic(bad_w, one, identity_map(alg), 2.0)
    bad_B = np.diag([1.0, 2.0])
    from nclp.algebra import Element

    B = Element(alg, [bad_B])
    J = jordan_direct_sum(alg, [(0, "hom")])
    with pytest.raises(StructuralError, match=r"\(c\)"):
        yeadon_synthetic(identity(J.codomain), B, J, 2.0)


def test_rotation_mixing_moves_disjoint_pair():
    alg = matrix_algebra(2)
    T = rotation_mixing(np.pi / 4)
    e12 = matrix_unit(alg, 0, 0, 1)
    e21 = matrix_unit(alg, 0, 1, 0)
    assert disjoint(e12, e21)
    assert not disjoint(T(e12), T(e21))
    e11 = matrix_unit(alg, 0, 0, 0)
    e22 = matrix_unit(alg, 0, 1, 1)
    assert disjoint(e11, e22)
    assert not disjoint(T(e11), T(e22))


def test_rotation_mixing_is_hs_unitary():
    A = rotation_mixing(1.234).action
    assert np.abs(A.conj().T @ A - np.eye(4)).max() < 1e-12


def test_commutative_matrix_and_meta():
    M = commutative_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]), [1, 1], [1, 1], 2.0)
    assert M.meta.get("positive")
    N = commutative_matrix(np.array([[1.0, -2.0], [0.0, 1.0]]), [1, 1], [1, 1], 2.0)
    assert not N.meta.get("positive")


def test_jordan_direct_sum_anti_law():
    rng = rng_from(12)
    alg = matrix_algebra(2)
    J = jordan_direct_sum(alg, [(0, "anti")])
    x, y = random_element(alg, rng), random_element(alg, rng)
    assert (J(x * y) - J(y) * J(x)).sup_norm() < 1e-12


def test_compose_and_scale():
    rng = rng_from(13)
    alg = matrix_algebra(2)
    T = LinearMap(alg, alg, ginibre(rng, 4), 2.0)
    S = LinearMap(alg, alg, ginibre(rng, 4), 2.0)
    x = random_element(alg, rng)
    assert (compose(S, T)(x) - S(T(x))).sup_norm() < 1e-12



def test_positivity_sampling_applies_the_probe_once_per_sample(monkeypatch):
    from nclp import synth
    from nclp.maps import UNDETERMINED

    T = synth.random_positive_map(matrix_algebra(2), 2.0, rng_from(2))
    calls = []
    apply = LinearMap.__call__
    monkeypatch.setattr(LinearMap, "__call__", lambda self, x: calls.append(x) or apply(self, x))
    assert positivity_tests(T, "positive", CFG).status == CERTIFIED  # by provenance
    assert len(calls) == 49
    # without the provenance flag the evidence is the worst sample, which
    # must equal that of the loop that applied the probe twice per sample
    del T.meta["positive"]
    calls.clear()
    verdict = positivity_tests(T, "positive", CFG)
    assert len(calls) == 49
    worst = np.inf
    for x in calls:
        y = apply(T, x)
        h = 0.5 * (y + y.H)
        lo = min(float(np.linalg.eigvalsh(b).min()) for b in h.blocks)
        defect = (y - h).sup_norm()
        lo = min(lo, -defect) if defect > 0 else lo
        worst = min(worst, lo / max(apply(T, x).sup_norm(), 1.0))
    assert verdict.status == UNDETERMINED
    assert verdict.evidence == {"trials": 49, "worst_relative_eig": worst}
