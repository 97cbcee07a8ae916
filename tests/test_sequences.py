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
    _gauge_descent,
    _gram_norms,
    _grams,
    _objective,
    _polar_factors,
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


def test_grams_match_element_products():
    # the block-array Grams equal the Element sums they replace, bit for bit
    rng = rng_from(15)
    alg = AlgebraDescriptor(((1, 1.0), (3, 0.5)))
    xs = [random_element(alg, rng) for _ in range(3)]
    ys = [random_element(alg, rng) for _ in range(3)]
    Y1, Y2 = _grams(alg, [x.blocks for x in xs], [y.blocks for y in ys])
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
    for an, bn, x in zip(A, B, seq):
        for a, b, blk in zip(an, bn, x.blocks):
            assert np.linalg.norm(a @ b - blk, 2) <= 1e-10 * scale
    assert _objective(alg, A, B, p) == pytest.approx(min(history), rel=1e-12)
    _, _, n1, n2 = _gram_norms(alg, A, B, p)
    assert n1 == pytest.approx(n2, rel=1e-12)


def test_sequence_rejects_quasi_norm_exponent():
    alg = matrix_algebra(2)
    with pytest.raises(DomainError):
        l1_norm_bounds(sequence([identity(alg)]), 0.5, CFG)
