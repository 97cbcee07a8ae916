import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp.algebra import (
    AlgebraDescriptor,
    DomainError,
    Element,
    NumericError,
    ToleranceConfig,
    diagonal_algebra,
    identity,
    matrix_algebra,
    matrix_unit,
    zero_element,
)
from nclp.lp import lp_norm
from nclp.sampling import (
    random_disjoint_pair,
    random_element,
    random_positive,
    rng_from,
)
from nclp.sequences import (
    DISJOINT,
    NOT_DISJOINT,
    NormInterval,
    _augment_and_gauge,
    _feasibility_repair,
    _gauge_descent,
    _gram_spectra,
    _grams,
    _objective,
    _polar_factors,
    _stacks,
    column_embed,
    column_row_norm,
    dinq_disjoint_test,
    l12_norm,
    l1_norm_bounds,
    l1_norm_positive,
    phase_lower_bound,
    row_embed,
    sequence,
    sum_elements,
)

CFG = ToleranceConfig(seed=77)


def test_column_norm_frozen_example():
    # sum b_n* b_n = E11 + E11 = 2 E11, so the column norm is sqrt(2)
    alg = matrix_algebra(2)
    seq = sequence([matrix_unit(alg, 0, 0, 0), matrix_unit(alg, 0, 1, 0)])
    assert column_row_norm(seq, 2.0, "column") == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_single_element_column_row_collapse():
    rng = rng_from(1)
    alg = AlgebraDescriptor(((3, 1.0), (2, 0.5)))
    x = random_element(alg, rng)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert column_row_norm(sequence([x]), p, "column") == pytest.approx(
            lp_norm(x, p), rel=1e-10
        )
        assert column_row_norm(sequence([x]), p, "row") == pytest.approx(
            lp_norm(x, p), rel=1e-10
        )


def test_column_of_adjoints_is_row():
    rng = rng_from(2)
    alg = matrix_algebra(3)
    items = [random_element(alg, rng) for _ in range(3)]
    seq = sequence(items)
    adj = sequence([x.H for x in items])
    for p in (1.5, 2.0, 3.0):
        assert column_row_norm(seq, p, "column") == pytest.approx(
            column_row_norm(adj, p, "row"), rel=1e-12
        )


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_embedding_matches_formula(p):
    # oracle: the block-matrix embedding computes the same norm directly
    rng = rng_from(3)
    alg = AlgebraDescriptor(((2, 1.0), (2, 0.5)))
    seq = sequence([random_element(alg, rng) for _ in range(3)])
    assert lp_norm(column_embed(seq), p) == pytest.approx(
        column_row_norm(seq, p, "column"), rel=1e-10
    )
    assert lp_norm(row_embed(seq), p) == pytest.approx(
        column_row_norm(seq, p, "row"), rel=1e-10
    )


def test_positive_rule_two_copies():
    alg = matrix_algebra(2)
    e11 = matrix_unit(alg, 0, 0, 0)
    assert l1_norm_positive(sequence([e11, e11]), 1.0) == pytest.approx(2.0)


def test_positive_rule_rejects_nonpositive():
    alg = matrix_algebra(2)
    with pytest.raises(DomainError):
        l1_norm_positive(sequence([matrix_unit(alg, 0, 0, 1)]), 2.0)


def test_positive_disjoint_projections_diagonal():
    # eigenvalues of e + f are zeros and ones, so the norm is a counting power
    alg = diagonal_algebra([1.0, 1.0, 1.0, 1.0])
    e = matrix_unit(alg, 0, 0, 0) + matrix_unit(alg, 1, 0, 0)
    f = matrix_unit(alg, 2, 0, 0)
    for p in (1.0, 2.0, 3.0):
        want = (complex(e.trace()).real + complex(f.trace()).real) ** (1.0 / p)
        assert l1_norm_positive(sequence([e, f]), p) == pytest.approx(want, rel=1e-12)


def test_singleton_interval_collapses():
    rng = rng_from(4)
    alg = AlgebraDescriptor(((3, 1.0), (2, 2.0)))
    x = random_element(alg, rng)
    for p in (1.0, 1.5, 2.0, 3.0):
        iv = l1_norm_bounds(sequence([x]), p, CFG)
        assert iv.certified_exact
        assert iv.lower == pytest.approx(lp_norm(x, p), rel=1e-12)
        assert iv.upper == pytest.approx(lp_norm(x, p), rel=1e-12)


def test_positive_sequence_matches_sum_rule():
    rng = rng_from(5)
    alg = AlgebraDescriptor(((2, 1.0), (3, 0.5)))
    for p in (1.0, 1.5, 2.0, 3.0):
        seq = sequence([random_positive(alg, rng) for _ in range(3)])
        iv = l1_norm_bounds(seq, p, CFG)
        want = l1_norm_positive(seq, p, CFG)
        assert iv.certified_exact
        assert iv.upper == pytest.approx(want, rel=1e-9)
        assert iv.lower == pytest.approx(want, rel=1e-9)


def test_p1_closed_form():
    rng = rng_from(6)
    alg = matrix_algebra(3)
    items = [random_element(alg, rng) for _ in range(3)]
    iv = l1_norm_bounds(sequence(items), 1.0, CFG)
    want = sum(lp_norm(x, 1.0) for x in items)
    assert iv.certified_exact
    assert iv.upper == pytest.approx(want, rel=1e-12)


def test_l12_zero_second_entry():
    rng = rng_from(7)
    alg = matrix_algebra(2)
    x = random_element(alg, rng)
    iv = l12_norm(x, zero_element(alg), 2.0, CFG)
    assert iv.upper == pytest.approx(lp_norm(x, 2.0), rel=1e-9)


def test_l12_equal_projections():
    alg = matrix_algebra(2)
    e11 = matrix_unit(alg, 0, 0, 0)
    iv = l12_norm(e11, e11, 2.0, CFG)
    assert iv.certified_exact
    assert iv.upper == pytest.approx(2.0, rel=1e-12)


def test_disjoint_pair_exact_value_p2():
    rng = rng_from(8)
    alg = AlgebraDescriptor(((3, 1.0), (2, 0.7)))
    for i in range(10):
        a, b = random_disjoint_pair(alg, rng, positive=(i % 2 == 0))
        iv = l12_norm(a, b, 2.0, CFG)
        want = np.sqrt(lp_norm(a, 2) ** 2 + lp_norm(b, 2) ** 2)
        assert iv.upper <= want * (1 + 1e-9)
        assert iv.lower >= want * (1 - 1e-9)


def test_optimizer_interval_and_holder_floor():
    rng = rng_from(9)
    alg = matrix_algebra(3)
    seq = sequence([random_element(alg, rng) for _ in range(3)])
    for p in (1.5, 2.0, 3.0):
        iv = l1_norm_bounds(seq, p, CFG)
        floor = lp_norm(sum_elements(seq), p)
        assert iv.lower <= iv.upper * (1 + 1e-12)
        assert iv.lower >= max(lp_norm(x, p) for x in seq) * (1 - 1e-9)
        # every visited objective dominates the norm of the sum
        assert min(min(h) for h in iv.meta["histories"]) >= floor * (1 - 1e-9)
        # descent: the final upper never exceeds the polar initialization
        assert iv.upper <= iv.meta["init_upper"] * (1 + 1e-12)


def test_polar_initialization_value():
    # the polar start evaluates to the geometric mean of |sum |x_n*|| and |sum |x_n||
    from nclp.algebra import absolute

    rng = rng_from(10)
    alg = matrix_algebra(3)
    seq = sequence([random_element(alg, rng) for _ in range(3)])
    p = 2.0
    iv = l1_norm_bounds(seq, p, CFG)
    left = lp_norm(sum_elements(sequence([absolute(x.H) for x in seq])), p)
    right = lp_norm(sum_elements(sequence([absolute(x) for x in seq])), p)
    assert iv.meta["init_upper"] == pytest.approx(np.sqrt(left * right), rel=1e-9)


def test_witness_is_exact_factorization():
    rng = rng_from(11)
    alg = matrix_algebra(3)
    seq = sequence([random_element(alg, rng) for _ in range(2)])
    iv = l1_norm_bounds(seq, 2.0, CFG)
    a_list, b_list = iv.witness
    for a, b, x in zip(a_list, b_list, seq):
        assert (a * b - x).sup_norm() < 1e-8 * max(x.sup_norm(), 1.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_scalar_homogeneity(seed):
    rng = rng_from(seed)
    alg = matrix_algebra(2)
    items = [random_element(alg, rng) for _ in range(2)]
    c = 0.25 + float(rng.random())
    iv = l1_norm_bounds(sequence(items), 2.0, CFG)
    ivc = l1_norm_bounds(sequence([c * x for x in items]), 2.0, CFG)
    assert ivc.upper == pytest.approx(c * iv.upper, rel=1e-7)
    assert ivc.lower == pytest.approx(c * iv.lower, rel=1e-7)


def test_permutation_invariance_polar_only():
    rng = rng_from(13)
    alg = matrix_algebra(3)
    items = [random_element(alg, rng) for _ in range(3)]
    cfg1 = ToleranceConfig(seed=77, restarts=1)
    iv = l1_norm_bounds(sequence(items), 2.0, cfg1)
    ivp = l1_norm_bounds(sequence(items[::-1]), 2.0, cfg1)
    assert iv.upper == pytest.approx(ivp.upper, rel=1e-10)
    assert iv.lower == pytest.approx(ivp.lower, rel=1e-10)


def test_phase_lower_bound_simple():
    alg = matrix_algebra(2)
    e11 = matrix_unit(alg, 0, 0, 0)
    # aligned copies add up: sup over phases of |e11 + eps e11| = 2
    assert phase_lower_bound(sequence([e11, e11]), 2.0, CFG) == pytest.approx(2.0)


def test_dinq_verdicts():
    alg = matrix_algebra(2)
    e11 = matrix_unit(alg, 0, 0, 0)
    e22 = matrix_unit(alg, 0, 1, 1)
    assert dinq_disjoint_test(e11, e22, CFG).status == DISJOINT
    v = dinq_disjoint_test(e11, e11, CFG)
    assert v.status == NOT_DISJOINT
    # the exact positive value 2 strictly beats the threshold sqrt(2)
    assert v.interval.lower == pytest.approx(2.0, rel=1e-12)
    assert v.threshold == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_dinq_constructed_disjoint():
    rng = rng_from(14)
    alg = AlgebraDescriptor(((3, 1.0), (2, 1.5)))
    for i in range(10):
        a, b = random_disjoint_pair(alg, rng, positive=(i % 3 == 0))
        v = dinq_disjoint_test(a, b, CFG)
        assert v.status == DISJOINT
        assert v.algebraic


def test_norm_interval_validation():
    with pytest.raises(Exception):
        NormInterval(2.0, 1.0)
    iv = NormInterval(1.0, 1.0 + 1e-12)
    assert iv.width >= 0
    # an exact enclosure must be finite; an open-ended one may be infinite
    for lower, upper in ((np.inf, np.inf), (1.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(NumericError):
            NormInterval(lower, upper, True)
    assert NormInterval(1.0, np.inf, False).upper == np.inf


# the overflow must surface as NumericError before any nan reaches sequences
@pytest.mark.filterwarnings("error::RuntimeWarning:nclp.sequences")
def test_non_finite_exact_values_raise():
    # the closed forms overflow to inf at this scale
    alg = matrix_algebra(2)
    big = 1e300 * identity(alg)
    with pytest.raises(NumericError):
        l1_norm_bounds(sequence([big, big]), 3.0, CFG)
    a = Element(alg, [np.diag([1e300, 0.0])])
    b = Element(alg, [np.diag([0.0, 1e300])])
    with pytest.raises(NumericError):
        dinq_disjoint_test(a, b, CFG)


# the overflow must surface as NumericError before any nan reaches sequences
@pytest.mark.filterwarnings("error::RuntimeWarning:nclp.sequences")
def test_factor_product_overflow_raises_numeric_error():
    # the residual of a non-positive pair near 1e300 overflows; its operator
    # norm used to end in a raw LinAlgError from the SVD
    alg = matrix_algebra(2)
    x = Element(alg, [1e300 * np.array([[1.0, 2.0], [0.0, 1.0]])])
    y = Element(alg, [1e300 * np.array([[0.0, 1.0], [1.0, 0.0]])])
    with pytest.raises(NumericError, match="overflowed"):
        l1_norm_bounds(sequence([x, y]), 3.0, CFG)


@pytest.mark.parametrize("side", ["column", "row"])
def test_column_row_norm_at_infinity(side):
    # |sum x_n* x_n|_inf^(1/2) is the operator norm of the column embedding
    rng = rng_from(19)
    alg = AlgebraDescriptor(((2, 1.0), (3, 0.5)))
    seq = sequence([random_element(alg, rng) for _ in range(3)])
    embed = column_embed(seq) if side == "column" else row_embed(seq)
    assert column_row_norm(seq, np.inf, side) == pytest.approx(embed.sup_norm(), rel=1e-12)


def test_feasibility_repair_reanchors_drifted_items():
    # item 1 drifts off x_1 on one block; the repair restores its polar
    # factors inside the padded stacks and leaves the other items alone
    seq = _rank_deficient_sequence()
    A, B = _polar_factors(seq, CFG)
    _augment_and_gauge(seq.algebra, A, B, extra=1, rng=rng_from(CFG.seed, 7100, 1))
    kept = [a[[0, 2]].copy() for a in A]
    B[1][1] *= 1.5
    assert _feasibility_repair(seq, A, B, CFG) == 1
    polar_a, polar_b = _polar_factors(sequence([seq.items[1]]), CFG)
    for k, x in enumerate(_stacks(seq)):
        assert np.allclose(A[k] @ B[k], x, rtol=0.0, atol=1e-12)
        assert np.array_equal(A[k][[0, 2]], kept[k])
        r = polar_a[k].shape[2]
        assert np.array_equal(A[k][1, :, :r], polar_a[k][0])
        assert not A[k][1, :, r:].any() and not B[k][1, r:, :].any()


def test_grams_match_element_products():
    # the block-array Grams equal the Element sums they replace, bit for bit
    rng = rng_from(15)
    alg = AlgebraDescriptor(((1, 1.0), (3, 0.5)))
    xs = [random_element(alg, rng) for _ in range(3)]
    ys = [random_element(alg, rng) for _ in range(3)]
    Y1, Y2 = _grams(_stacks(xs), _stacks(ys))
    row, column = zero_element(alg), zero_element(alg)
    for x, y in zip(xs, ys):
        row = row + x * x.H
        column = column + y.H * y
    for k in range(len(alg.blocks)):
        assert np.array_equal(Y1[k], row.blocks[k])
        assert np.array_equal(Y2[k], column.blocks[k])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "alg", [matrix_algebra(3), AlgebraDescriptor(((1, 0.5), (2, 0.5)))]
)
def test_gauge_descent_on_nonpositive_sequence(alg, p):
    rng = rng_from(16)
    seq = sequence([random_element(alg, rng) for _ in range(3)])
    A, B = _polar_factors(seq, CFG)
    history = _gauge_descent(seq, A, B, p, CFG, max_iters=48)
    assert len(history) > 1
    assert all(b < a for a, b in zip(history, history[1:]))
    scale = max(x.sup_norm() for x in seq)
    for a, b, x in zip(A, B, _stacks(seq)):
        assert np.linalg.norm(a @ b - x, 2, axis=(1, 2)).max() <= 1e-10 * scale
    assert _objective(alg, A, B, p) == pytest.approx(min(history), rel=1e-12)
    _, n1, n2 = _gram_spectra(alg, A, B, p)
    assert n1 == pytest.approx(n2, rel=1e-12)


def test_sequence_rejects_quasi_norm_exponent():
    alg = matrix_algebra(2)
    with pytest.raises(DomainError):
        l1_norm_bounds(sequence([identity(alg)]), 0.5, CFG)


# ---------------------------------------------------------------------------
# Reference: the per-item gauge descent on lists of per-block factors
# ---------------------------------------------------------------------------
# A copy of the loop version that the per-block stacks replaced: factors are
# [item][block] arrays of shapes (d, r_n) and (r_n, d) with each item's own
# inner rank r_n, and every eigendecomposition and exponential is taken one
# item at a time.  The stacked descent must reproduce its history and its
# factor products.

REF_RTOL = 1e-12


def _ref_polar_factors(seq, cfg):
    from nclp.algebra import _ranked_svd

    A, B = [], []
    for x in seq:
        an, bn = [], []
        for U, s, Vh, keep in _ranked_svd(x.blocks, cfg):
            root = np.sqrt(s[keep])
            an.append(U[:, keep] * root[None, :])
            bn.append(root[:, None] * Vh[keep, :])
        A.append(an)
        B.append(bn)
    return A, B


def _ref_gram_norms(alg, A, B, p):
    from nclp.lp import _schatten

    Y1 = [np.zeros((d, d), dtype=complex) for d in alg.dims]
    Y2 = [np.zeros((d, d), dtype=complex) for d in alg.dims]
    for an, bn in zip(A, B):
        for k, (a, b) in enumerate(zip(an, bn)):
            Y1[k] += a @ a.conj().T
            Y2[k] += b.conj().T @ b

    def norm(blocks):
        return _schatten([np.linalg.svd(y, compute_uv=False) for y in blocks], alg.weights, p)

    return Y1, Y2, norm(Y1), norm(Y2)


def _ref_balance(A, B, n1, n2):
    if n1 <= 0 or n2 <= 0:
        return
    t = (n2 / n1) ** 0.25
    for an, bn in zip(A, B):
        an[:] = [a * t for a in an]
        bn[:] = [b / t for b in bn]


def _ref_psd_power(y, t):
    vals, vecs = np.linalg.eigh(0.5 * (y + y.conj().T))
    vals = np.clip(vals, 0.0, None)
    return (vecs * (vals**t)[None, :]) @ vecs.conj().T


def _ref_gauge_gradients(alg, A, B, Y1, Y2, n1, n2, p):
    v1, v2 = n1**p, n2**p
    pw1 = [_ref_psd_power(y, p - 1.0) for y in Y1]
    pw2 = [_ref_psd_power(y, p - 1.0) for y in Y2]
    grads = []
    for an, bn in zip(A, B):
        gn = []
        for k, (d, w) in enumerate(alg.blocks):
            a, b = an[k], bn[k]
            Ak = w * (a.conj().T @ pw1[k] @ a) / max(v1, 1e-300)
            Bk = w * (b @ pw2[k] @ b.conj().T) / max(v2, 1e-300)
            gn.append(Bk - Ak)
        grads.append(gn)
    return grads


def _ref_exp_step(vals, vecs, t):
    return (vecs * np.exp(t * vals)[None, :]) @ vecs.conj().T


def _ref_gauge_descent(seq, A, B, p, cfg, max_iters, target=0.0):
    alg = seq.algebra
    Y1, Y2, n1, n2 = _ref_gram_norms(alg, A, B, p)
    obj = float(np.sqrt(n1 * n2))
    history = [obj]
    eta = 0.5
    floor_gap = 0.3 * cfg.opt_tol
    step_gain = 0.02 * cfg.opt_tol
    for _ in range(max_iters):
        if obj <= target * (1.0 + floor_gap):
            break
        grads = _ref_gauge_gradients(alg, A, B, Y1, Y2, n1, n2, p)
        eigs = [[np.linalg.eigh(0.5 * (g + g.conj().T)) for g in gn] for gn in grads]
        gnorm = max(float(np.abs(vals).max(initial=0.0)) for en in eigs for vals, _ in en)
        if gnorm <= 1e-14:
            break
        accepted = False
        while eta > 1e-8:
            newA = [
                [a @ _ref_exp_step(*e, +0.5 * eta) for a, e in zip(an, en)]
                for an, en in zip(A, eigs)
            ]
            newB = [
                [_ref_exp_step(*e, -0.5 * eta) @ b for b, e in zip(bn, en)]
                for bn, en in zip(B, eigs)
            ]
            trial = _ref_gram_norms(alg, newA, newB, p)
            new_obj = float(np.sqrt(trial[2] * trial[3]))
            if new_obj < obj * (1 - 1e-14):
                gain = obj - new_obj
                A[:], B[:] = newA, newB
                Y1, Y2, n1, n2 = trial
                obj = new_obj
                history.append(obj)
                accepted = gain > step_gain * max(obj, 1e-300)
                eta = min(eta * 1.6, 1.0)
                break
            eta *= 0.5
        if not accepted:
            break
    _ref_balance(A, B, n1, n2)
    return history


def _ref_augment_and_gauge(alg, A, B, extra, rng):
    from nclp.sampling import ginibre

    for n in range(len(A)):
        for k, d in enumerate(alg.dims):
            a, b = A[n][k], B[n][k]
            r = a.shape[1]
            add = min(extra, max(d - r, 0))
            if add:
                a = np.concatenate([a, np.zeros((d, add), dtype=complex)], axis=1)
                b = np.concatenate([b, np.zeros((add, d), dtype=complex)], axis=0)
                r += add
            if r == 0:
                A[n][k], B[n][k] = a, b
                continue
            g = np.eye(r, dtype=complex) + 0.35 * ginibre(rng, r)
            while np.linalg.cond(g) > 1e4:
                g = np.eye(r, dtype=complex) + 0.35 * ginibre(rng, r)
            A[n][k] = np.linalg.solve(g.T, a.T).T
            B[n][k] = g @ b
    _, _, n1, n2 = _ref_gram_norms(alg, A, B, 2.0)
    _ref_balance(A, B, n1, n2)


def _rank_deficient_sequence():
    # M_1 + M_2 with weights 1/2; the last item vanishes on M_1 and has rank
    # one on M_2, so its factors are padded to the others' inner ranks
    alg = AlgebraDescriptor(((1, 0.5), (2, 0.5)))
    rng = rng_from(17)
    items = [random_element(alg, rng) for _ in range(2)]
    u, v = random_element(matrix_algebra(2), rng).blocks[0][:, :1], rng.standard_normal((1, 2))
    items.append(Element(alg, [np.zeros((1, 1)), u @ v]))
    return sequence(items)


def _generic_sequence():
    rng = rng_from(18)
    return sequence([random_element(matrix_algebra(3), rng) for _ in range(3)])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("restart", [0, 2])
@pytest.mark.parametrize("make", [_generic_sequence, _rank_deficient_sequence])
def test_stacked_descent_matches_per_item_reference(make, restart, p):
    seq = make()
    alg = seq.algebra
    A, B = _polar_factors(seq, CFG)
    RA, RB = _ref_polar_factors(seq, CFG)
    if restart:
        # both draw from the same stream, item by item and block by block
        _augment_and_gauge(alg, A, B, extra=restart, rng=rng_from(CFG.seed, 7100, restart))
        _ref_augment_and_gauge(alg, RA, RB, extra=restart, rng=rng_from(CFG.seed, 7100, restart))
    history = _gauge_descent(seq, A, B, p, CFG, max_iters=48)
    ref = _ref_gauge_descent(seq, RA, RB, p, CFG, max_iters=48)
    assert len(ref) > 1
    assert len(history) == len(ref)
    assert np.allclose(history, ref, rtol=REF_RTOL, atol=0.0)
    scale = max(x.sup_norm() for x in seq)
    for k in range(len(alg.blocks)):
        products = A[k] @ B[k]
        for n in range(len(seq)):
            want = RA[n][k] @ RB[n][k]
            assert np.abs(products[n] - want).max() <= REF_RTOL * scale


def test_polar_start_computed_once_per_call(monkeypatch):
    import nclp.sequences

    rng = rng_from(21)
    seq = sequence([random_element(matrix_algebra(3), rng) for _ in range(3)])
    want = l1_norm_bounds(seq, 3.0, CFG)
    calls = []

    def counted(*args):
        calls.append(1)
        return _polar_factors(*args)

    monkeypatch.setattr(nclp.sequences, "_polar_factors", counted)
    got = l1_norm_bounds(seq, 3.0, CFG)
    assert len(got.meta["histories"]) == CFG.restarts > 1
    assert len(calls) == 1
    assert (got.lower, got.upper, got.meta["histories"]) == (want.lower, want.upper, want.meta["histories"])
