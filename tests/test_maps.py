import numpy as np
import pytest

from nclp.algebra import (
    AlgebraDescriptor,
    Element,
    NumericError,
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
from nclp.lp import _schatten, conjugate_exponent, disjoint, duality_pair, lp_norm
from nclp.maps import (
    CERTIFIED,
    FALSIFIED,
    LinearMap,
    _boyd_ascent,
    _cp_norm,
    _cp_norm_upper,
    _norm_search,
    _norming_duals,
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
    ys = _kernel_inputs(alg, 31)
    norms, Z, fs = _norming_duals(alg, np.stack([vec(y) for y in ys]), p, CFG)
    assert Z.shape == (len(ys), alg.coord_dim)
    q = conjugate_exponent(p)
    for i, (y, ny, row) in enumerate(zip(ys, norms, Z)):
        z = unvec(alg, row)
        ref = lp_norm(y, p)
        assert abs(ny - ref) <= 1e-12 * ref
        # the returned f are the singular values of each block of z
        f = [fk[i] for fk in fs]
        for fk, b in zip(f, z.blocks):
            assert np.abs(fk - np.linalg.svd(b, compute_uv=False)).max() <= 1e-12 * max(fk.max(), 1.0)
        if ref == 0:
            assert z.sup_norm() == 0.0 and not any(fk.any() for fk in f)
            continue
        assert abs(_schatten(f, alg.weights, q) - 1.0) <= 1e-12
        assert abs(duality_pair(z, y) - ny) <= 1e-10 * ny
        assert lp_norm(z, q) == pytest.approx(1.0, rel=1e-10)
        old = _polar_chain_dual(y, p, CFG)
        assert (z - old).sup_norm() <= 1e-10 * max(old.sup_norm(), 1.0)


@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS)
@pytest.mark.parametrize("p", KERNEL_PS)
def test_boyd_ascent_reports_realised_ratios(alg, p):
    rng = rng_from(32)
    T = LinearMap(alg, alg, ginibre(rng, alg.coord_dim), p)
    X0 = np.stack([vec(random_element(alg, rng)), np.zeros(alg.coord_dim), vec(random_element(alg, rng))])
    best, args = _boyd_ascent(T, p, CFG, 8, X0)
    assert best[1] == 0.0 and not args[1].any()
    for i in (0, 2):
        arg = unvec(alg, args[i])
        assert best[i] > 0
        assert abs(best[i] - lp_norm(T(arg), p)) <= 1e-12 * best[i]
        assert lp_norm(arg, p) == pytest.approx(1.0, abs=1e-12)
    # the stacked run agrees with one run per start
    for i, x0 in enumerate(X0):
        single, single_arg = _boyd_ascent(T, p, CFG, 8, x0[None, :])
        assert abs(best[i] - single[0]) <= 1e-12 * best[i]
        assert np.abs(args[i] - single_arg[0]).max() <= 1e-12


def _capped_boyd(T, p, cfg, iters, X0):
    """Every start runs all ``iters`` steps, |x|_p measured afresh by an SVD
    each step: the loop the stop rule must agree with."""
    T_adj = adjoint_map(T, p)
    X = np.array(X0, dtype=complex)
    best = np.zeros(len(X))
    for _ in range(iters):
        nx = np.array([lp_norm(unvec(T.domain, x), p) for x in X])
        ny, Z, _ = _norming_duals(T.codomain, X @ T.action.T, p, cfg)
        best = np.maximum(best, ny / np.where(nx > 0, nx, 1.0))
        X = _norming_duals(T.domain, Z @ T_adj.action.T, T_adj.p, cfg)[1]
    return best


def _counted_duals(monkeypatch):
    import nclp.maps

    calls = []
    duals = nclp.maps._norming_duals
    monkeypatch.setattr(nclp.maps, "_norming_duals",
                        lambda alg, rows, p, cfg: calls.append(len(rows)) or duals(alg, rows, p, cfg))
    return calls


@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS)
@pytest.mark.parametrize("p", KERNEL_PS)
def test_boyd_stop_keeps_the_capped_best(alg, p):
    rng = rng_from(33)
    T = LinearMap(alg, alg, ginibre(rng, alg.coord_dim), p)
    X0 = np.stack([vec(identity(alg)), *(vec(random_element(alg, rng)) for _ in range(4))])
    best, _ = _boyd_ascent(T, p, CFG, 30, X0)
    ref = _capped_boyd(T, p, CFG, 30, X0)
    assert np.abs(best - ref).max() <= 1e-12 * ref.max()


def test_boyd_start_at_a_fixed_point_leaves_after_two_steps(monkeypatch):
    alg = AlgebraDescriptor(((2, 1.0), (3, 0.5)))
    calls = _counted_duals(monkeypatch)
    best, arg = _boyd_ascent(identity_map(alg, 3.0), 3.0, CFG, 30, vec(identity(alg))[None, :])
    # T x, T* z, then T x' once more, which does not rise
    assert calls == [1, 1, 1]
    assert best[0] == pytest.approx(1.0, rel=1e-15)
    assert lp_norm(unvec(alg, arg[0]), 3.0) == pytest.approx(1.0, rel=1e-15)


def test_boyd_stack_rows_stop_apart_and_match_solo_runs(monkeypatch):
    alg = AlgebraDescriptor(((1, 0.4), (2, 1.0), (2, 2.5)))
    rng = rng_from(34)
    T = LinearMap(alg, alg, ginibre(rng, alg.coord_dim), 1.0)
    X0 = np.stack([vec(identity(alg)), np.zeros(alg.coord_dim),
                   *(vec(random_element(alg, rng)) for _ in range(3))])
    calls = _counted_duals(monkeypatch)
    best, args = _boyd_ascent(T, 1.0, CFG, 30, X0)
    stack_calls = list(calls)
    steps = []
    for i, x0 in enumerate(X0):
        calls.clear()
        single, single_arg = _boyd_ascent(T, 1.0, CFG, 30, x0[None, :])
        steps.append(len(calls))
        assert abs(best[i] - single[0]) <= 1e-12 * max(best[i], 1e-300)
        assert np.abs(args[i] - single_arg[0]).max() <= 1e-12
    # the rows leave at different steps, and the stack shrinks as they do
    assert len(set(steps)) >= 3
    assert stack_calls == sorted(stack_calls, reverse=True) and stack_calls[0] == len(X0)
    assert len(stack_calls) == max(steps)


def test_op_norm_overflow_raises():
    alg = AlgebraDescriptor(((2, 1.0), (1, 0.5)))
    A = ginibre(rng_from(0), alg.coord_dim)
    base = op_norm(LinearMap(alg, alg, A, 3.0), 3.0, CFG)
    # the Schatten sums of |T x|_3 leave the float range from about c = 1e103
    # on and are summed again scaled, so the enclosure scales with T; the
    # ascent's unscaled first sum still warns there (its errstate would cost
    # every maps op)
    for c in (1e100, 1e110, 1e300):
        with np.errstate(over="warn" if c < 1e103 else "ignore"):
            big = op_norm(LinearMap(alg, alg, c * A, 3.0), 3.0, CFG)
        assert not big.certified_exact
        assert abs(big.lower - c * base.lower) <= 1e-12 * big.lower
        assert abs(big.upper - c * base.upper) <= 1e-12 * big.upper
    # T x overflows; the search that raises op_norm's lower endpoint raises
    # rather than return a non-finite value to its certification test
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="overflowed"):
        _norm_search(LinearMap(alg, alg, 4e307 * A, 3.0), 3.0, CFG)


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
    # the transposition is isometric at every exponent, its amplification is
    # not: the partial transpose doubles the trace norm of the
    # identity-correlated rank-one projector on M_2(M_2)
    T = transpose_map(matrix_algebra(2), 1.0)
    amp = amplified_map(T, 2)
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
    # positivity is read from the action: a nonnegative matrix has 1 x 1
    # Choi components that are all nonnegative, a signed one sends the second
    # unit to a vector with a negative entry
    M = commutative_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]), [1, 1], [1, 1], 2.0)
    assert M.meta == {"kind": "commutative"}
    assert positivity_tests(M, "positive", CFG).status == CERTIFIED
    N = commutative_matrix(np.array([[1.0, -2.0], [0.0, 1.0]]), [1, 1], [1, 1], 2.0)
    assert positivity_tests(N, "positive", CFG).status == FALSIFIED


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
    import nclp.maps
    from nclp import synth
    from nclp.lp import is_positive
    from nclp.maps import UNDETERMINED

    T = synth.random_positive_map(matrix_algebra(2), 2.0, rng_from(2))
    calls, judged = [], []
    apply, positive = LinearMap.__call__, nclp.maps._positive
    monkeypatch.setattr(LinearMap, "__call__", lambda self, x: calls.append(x) or apply(self, x))
    monkeypatch.setattr(nclp.maps, "_positive",
                        lambda stacks, cfg: judged.append([S.shape for S in stacks]) or positive(stacks, cfg))
    verdict = positivity_tests(T, "positive", CFG)
    assert verdict.status == CERTIFIED  # by provenance
    assert verdict.evidence == {"route": "provenance", "trials": 49}
    # one stack for the Choi component and its partial transpose, then the
    # 49 probe images from one product, judged at once; no per-sample call
    assert judged == [[(2, 4, 4)], [(49, 2, 2)]] and calls == []
    del T.meta["positive"]
    verdict = positivity_tests(T, "positive", CFG)
    assert verdict.status == UNDETERMINED and verdict.evidence == {"trials": 49}
    # a falsified map comes with a rank-one positive input whose image
    # is_positive rejects
    amp = amplified_map(transpose_map(matrix_algebra(2)), 2)
    verdict = positivity_tests(amp, "positive", CFG)
    assert verdict.status == FALSIFIED and is_positive(verdict.witness, CFG)
    assert np.linalg.matrix_rank(verdict.witness.blocks[0]) == 1
    assert not is_positive(amp(verdict.witness), CFG)

@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-9])
def test_yeadon_synthetic_rejects_small_noncommuting_B(c):
    # condition (c) is relative to |B| |J(e_a)|: a small B does not commute
    # with the range of J any better than a large one
    alg = matrix_algebra(2)
    J = jordan_direct_sum(alg, [(0, "hom")])
    B = Element(J.codomain, [c * np.diag([1.0, 2.0])])
    with pytest.raises(StructuralError, match=r"\(c\)"):
        yeadon_synthetic(identity(J.codomain), B, J, 2.0)


@pytest.mark.parametrize("c", [1.0, 1e6, 1e8])
def test_yeadon_synthetic_rejects_a_large_B_with_the_wrong_support(c):
    # condition (b) compares projections, so it is absolute: s(B) = 1 is not
    # J(1) = e_11 however large B is
    from nclp.maps import _jordan_layout

    J = _jordan_layout(matrix_algebra(1), [([(0, "hom")], 1)], [1.0], None, 2.0, {})
    w = matrix_unit(J.codomain, 0, 0, 0)
    with pytest.raises(StructuralError, match=r"\(b\)"):
        yeadon_synthetic(w, c * identity(J.codomain), J, 2.0)


@pytest.mark.parametrize("c", [1e-9, 1.0, 1e8])
def test_yeadon_synthetic_accepts_a_scalar_B_at_every_scale(c):
    alg = matrix_algebra(2)
    J = jordan_direct_sum(alg, [(0, "hom")])
    one = identity(J.codomain)
    T = yeadon_synthetic(one, c * one, J, 2.0)
    x = matrix_unit(alg, 0, 0, 1)
    assert (T(x) - c * x).sup_norm() <= 1e-15 * c


def test_op_norm_keeps_a_search_value_above_the_upper_endpoint():
    # Boyd passes the exact positive-unit bound |T*(1)|_inf of a CP map at
    # p = 1 in the last bits: the interval is clipped, the value kept
    from nclp import synth

    T = synth.random_cp_contraction(matrix_algebra(2), 1.0, rng_from(0))
    iv = op_norm(T, 1.0, CFG)
    assert iv.lower == iv.upper and iv.meta["method"] == "positive_unit"
    assert iv.upper < iv.meta["search_above_upper"] <= iv.upper * (1 + 1e-14)
    assert "search_above_upper" not in op_norm(rotation_mixing(0.7, 3.0), 3.0, CFG).meta


@pytest.mark.parametrize("p", [1.2, 3.0, 5.0])
def test_cp_norm_encloses_a_rank_one_kraus_norm(p):
    # x -> a b* x b a* has norm |a|^2 |b|^2 on M_3 at every p: its maximiser
    # is the rank-one projection onto b, on the boundary of the cone
    rng = np.random.default_rng(5)
    a, b = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
    v = Element(matrix_algebra(3), [np.outer(a, b.conj())])
    exact = float(np.linalg.norm(a) ** 2 * np.linalg.norm(b) ** 2)
    lower, upper, ev = _cp_norm(kraus_map([v], p), p, CFG)
    assert lower <= exact * (1 + 1e-12) and exact <= upper
    assert upper - lower <= CFG.opt_tol * upper and ev["steps"] <= 150


def test_cp_norm_upper_rejects_a_non_hermitian_gradient():
    T = depolarizing(matrix_algebra(2), 0.4, 3.0)
    x = vec(identity(matrix_algebra(2))) / 2 ** (1 / 3)
    bound, raw = _cp_norm_upper(T, 3.0, x, CFG)
    assert 1.0 <= bound <= 1.0 + 1e-12 and raw <= bound
    # a generic perturbation no longer maps Hermitian elements to Hermitian ones
    S = LinearMap(T.domain, T.codomain, T.action + 1e-3 * ginibre(rng_from(7), 4), 3.0)
    assert _cp_norm_upper(S, 3.0, x, CFG) == "non-Hermitian gradient"
