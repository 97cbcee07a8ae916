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
    _adjoint,
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
    MAX_STEPS,
    NormInterval,
    _block_split,
    _gram_norms,
    _grams,
    _intervals,
    _rows,
    _stack_ascent,
    _stacks,
    column_embed,
    column_row_norm,
    dinq_disjoint_test,
    l12_norm,
    l1_norm_bounds,
    l1_norm_positive,
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
    # the ascent makes the same steps on any order of the items
    rng = rng_from(13)
    alg = matrix_algebra(3)
    items = [random_element(alg, rng) for _ in range(3)]
    iv = l1_norm_bounds(sequence(items), 2.0, CFG)
    ivp = l1_norm_bounds(sequence(items[::-1]), 2.0, CFG)
    assert iv.upper == pytest.approx(ivp.upper, rel=1e-10)
    assert iv.lower == pytest.approx(ivp.lower, rel=1e-10)


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


def test_dinq_decomposes_each_matrix_once(monkeypatch):
    # one fixed M_2 + M_1 verdict of each route, counting np.linalg.svd calls:
    # a positive disjoint pair took 18 when positivity, the 2-norms and the
    # algebraic test each decomposed a and b again, and takes 4 (one SVD per
    # block of the pair's stack, one per block of a + b); a generic pair took
    # 29 and takes 15, the rest being the ascent's
    alg = AlgebraDescriptor(((2, 1.0), (1, 0.5)))
    pairs = [random_disjoint_pair(alg, rng_from(23), positive=True),
             (random_element(alg, rng_from(24)), random_element(alg, rng_from(25)))]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    counts = []
    for a, b in pairs:
        calls.clear()
        dinq_disjoint_test(a, b)
        counts.append(len(calls))
    assert counts[0] <= 4 and counts[1] <= 15


@pytest.mark.parametrize("c", [1e-150, 1e-120, 1e120, 1e150, 1e-200, 1e160, 1e250])
def test_enclosure_scales_with_the_sequence_outside_the_normal_range(c):
    # at p = 3 the Schatten sums of these items underflow or overflow; the
    # enclosure used to read [0, 0] certified at c = 1e-120 and 1e-150.
    # From c = 1e-200 and 1e160 on the ascent's product of factor norms
    # leaves the float range too: it read [0, 0] certified at 1e-200 and
    # raised at 1e160.  Such a row ascends as 4^k x, whose entries keep the
    # mantissas of c x, so the endpoints round a few units apart from c times
    # those of x
    rel = 3e-16 if 1e-150 <= c <= 1e150 else 5e-16
    alg = matrix_algebra(2)
    x = [identity(alg), matrix_unit(alg, 0, 0, 1)]
    base = l1_norm_bounds(sequence(x), 3.0, CFG)
    iv = l1_norm_bounds(sequence([c * y for y in x]), 3.0, CFG)
    assert iv.certified_exact == base.certified_exact
    assert iv.lower == pytest.approx(c * base.lower, rel=rel, abs=0.0)
    assert iv.upper == pytest.approx(c * base.upper, rel=rel, abs=0.0)
    assert iv.meta["histories"][0] == pytest.approx([c * h for h in base.meta["histories"][0]], rel=1e-13, abs=0.0)
    a, b = iv.witness  # the factors scaled back: each x_n = a_n b_n
    for y, a_n, b_n in zip(x, a, b):
        assert ((a_n * b_n) - c * y).sup_norm() <= 1e-9 * c
    # and the polar witness of a single item, a closed form
    [a_1], [b_1] = l1_norm_bounds(sequence([c * x[1]]), 3.0, CFG).witness
    assert ((a_1 * b_1) - c * x[1]).sup_norm() <= 1e-9 * c


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
    # the closed forms overflow to inf: their values are past the largest float
    alg = matrix_algebra(2)
    big = 8e307 * identity(alg)
    with pytest.raises(NumericError):
        l1_norm_bounds(sequence([big, big]), 3.0, CFG)
    heavy = matrix_algebra(2, 4.0)  # the 2-norm of a + b is 8e307 * sqrt(8)
    a = Element(heavy, [np.diag([8e307, 0.0])])
    b = Element(heavy, [np.diag([0.0, 8e307])])
    with pytest.raises(NumericError):
        dinq_disjoint_test(a, b, CFG)


@pytest.mark.parametrize("c", [1e-200, 1e160, 1e300])
def test_far_out_generic_pair_is_judged_at_unit_scale(c):
    # the cross products of a and b used to underflow at 1e-200, which made
    # the pair [0, 0] certified and algebraically disjoint, and overflow
    # from 1e160 on, which raised; the pair is judged as 4^k (a, b)
    alg = matrix_algebra(2)
    a, b = (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0], [7.0, 8.0]]))
    base = dinq_disjoint_test(Element(alg, [a]), Element(alg, [b]), CFG)
    v = dinq_disjoint_test(Element(alg, [c * a]), Element(alg, [c * b]), CFG)
    assert base.status == v.status == NOT_DISJOINT and not v.algebraic
    assert v.interval.certified_exact == base.interval.certified_exact
    for got, want in ((v.interval.lower, base.interval.lower), (v.interval.upper, base.interval.upper),
                      (v.threshold, base.threshold)):
        assert got == pytest.approx(c * want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("c", [1e300, 1e200, 1e-200])
def test_far_out_positive_disjoint_pair_has_a_finite_verdict(c):
    # the 2-norms of a and b are finite, but their squares leave the float
    # range: the threshold used to square them as Python floats, whose **
    # raises OverflowError past 1e154 and underflows to 0 below 1e-154
    alg = matrix_algebra(2)
    a = Element(alg, [np.diag([c, 0.0])])
    b = Element(alg, [np.diag([0.0, c])])
    v = dinq_disjoint_test(a, b, CFG)
    assert v.status == DISJOINT and v.algebraic and v.interval.certified_exact
    assert v.threshold == pytest.approx(c * np.sqrt(2.0), rel=1e-15, abs=0.0)
    assert v.interval.upper == pytest.approx(v.threshold, rel=1e-15, abs=0.0)


# the overflow must surface as NumericError before any nan reaches sequences
@pytest.mark.filterwarnings("error::RuntimeWarning:nclp.sequences")
def test_factor_product_overflow_raises_numeric_error():
    # the factor products of a non-positive pair near 1e300 (and near 1e160
    # at p = 2) used to overflow and raise; the rows now ascend at unit
    # scale, so they get their values, in a stack among normal rows too
    alg = matrix_algebra(2)
    X, Y = np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
    rng = rng_from(29)
    fine = [sequence([random_element(alg, rng) for _ in range(2)]) for _ in range(2)]
    for c, p in ((1e300, 3.0), (1e160, 2.0)):
        far = sequence([Element(alg, [c * X]), Element(alg, [c * Y])])
        base = l1_norm_bounds(sequence([Element(alg, [X]), Element(alg, [Y])]), p, CFG)
        rows = _intervals(_rows([fine[0], far, fine[1]]), alg, p, CFG)
        for iv in (l1_norm_bounds(far, p, CFG), rows[1]):
            assert iv.certified_exact
            assert iv.lower == pytest.approx(c * base.lower, rel=1e-14, abs=0.0)
            assert iv.upper == pytest.approx(c * base.upper, rel=1e-14, abs=0.0)
        for row, seq in zip((rows[0], rows[2]), fine):
            assert (row.lower, row.upper) == (l1_norm_bounds(seq, p, CFG).lower, l1_norm_bounds(seq, p, CFG).upper)
    # a value past the largest float still raises, wherever its row sits
    heavy = matrix_algebra(2, 8.0)
    past = sequence([Element(heavy, [1e308 * np.array([[1.0, 1.0], [0.0, 1.0]])]), Element(heavy, [1e308 * Y])])
    with pytest.raises(NumericError, match="overflowed"):
        l1_norm_bounds(past, 3.0, CFG)
    with pytest.raises(NumericError, match="overflowed"):
        _intervals(_rows([sequence([random_element(heavy, rng) for _ in range(2)]), past]), heavy, 3.0, CFG)


@pytest.mark.parametrize("side", ["column", "row"])
def test_column_row_norm_at_infinity(side):
    # |sum x_n* x_n|_inf^(1/2) is the operator norm of the column embedding
    rng = rng_from(19)
    alg = AlgebraDescriptor(((2, 1.0), (3, 0.5)))
    seq = sequence([random_element(alg, rng) for _ in range(3)])
    embed = column_embed(seq) if side == "column" else row_embed(seq)
    assert column_row_norm(seq, np.inf, side) == pytest.approx(embed.sup_norm(), rel=1e-12)


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
def test_ascent_on_nonpositive_sequence(alg, p):
    rng = rng_from(16)
    seq = sequence([random_element(alg, rng) for _ in range(3)])
    iv = l1_norm_bounds(seq, p, CFG)
    [history] = iv.meta["histories"]
    assert len(history) > 1 and iv.certified_exact
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert iv.upper == history[-1] and iv.meta["init_upper"] == history[0]
    scale = max(x.sup_norm() for x in seq)
    wa, wb = iv.witness
    for a, b, x in zip(wa, wb, seq):
        assert (a * b - x).sup_norm() <= 1e-10 * scale
    # the witness is balanced across blocks and attains the upper endpoint
    n1, n2 = _gram_norms(*_grams(_stacks(wa), _stacks(wb)), alg.weights, p)
    assert n1 == pytest.approx(n2, rel=1e-12)
    assert np.sqrt(n1 * n2) == pytest.approx(iv.upper, rel=1e-12)


def test_sequence_rejects_quasi_norm_exponent():
    alg = matrix_algebra(2)
    with pytest.raises(DomainError):
        l1_norm_bounds(sequence([identity(alg)]), 0.5, CFG)


@pytest.mark.parametrize("p", [np.inf, np.nan])
def test_sequence_rejects_infinite_and_nan_exponents(p):
    alg = matrix_algebra(2)
    with pytest.raises(DomainError, match=f"p = {p}"):
        l1_norm_bounds(sequence([identity(alg)]), p, CFG)


# ---------------------------------------------------------------------------
# The solver: dual below primal, the block split, closed forms, corners
# ---------------------------------------------------------------------------


def _rank_deficient_sequence():
    # M_1 + M_2 with weights 1/2; the last item vanishes on M_1 and has rank
    # one on M_2
    alg = AlgebraDescriptor(((1, 0.5), (2, 0.5)))
    rng = rng_from(17)
    items = [random_element(alg, rng) for _ in range(2)]
    u, v = random_element(matrix_algebra(2), rng).blocks[0][:, :1], rng.standard_normal((1, 2))
    items.append(Element(alg, [np.zeros((1, 1)), u @ v]))
    return sequence(items)


def _generic_sequence():
    rng = rng_from(18)
    return sequence([random_element(matrix_algebra(3), rng) for _ in range(3)])


def _rank_one_sequence():
    rng = rng_from(22)
    g = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return sequence([Element(matrix_algebra(3), [g(3, 1) @ g(1, 3)]) for _ in range(3)])


def _zero_block_sequence():
    # the second block of every item vanishes, as for pairs disjoint across blocks
    alg = AlgebraDescriptor(((2, 1.0), (3, 0.7)))
    rng = rng_from(23)
    items = [random_element(alg, rng) for _ in range(2)]
    return sequence([Element(alg, [x.blocks[0], np.zeros((3, 3))]) for x in items])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "make", [_generic_sequence, _rank_deficient_sequence, _rank_one_sequence, _zero_block_sequence]
)
def test_dual_below_primal_at_every_step(make, p):
    # every dual iterate is a lower bound and every primal one an upper
    # bound, so after any number of steps the best of each are in order
    for X in _rows([make()]):
        trace, *_, [steps] = _stack_ascent(X, p, CFG, 200)
        lower, upper = trace[0, :2]
        previous = (0.0, np.inf)
        for k in range(steps):
            lo, up = _stack_ascent(X, p, CFG, k)[0][0, :2]
            assert lo <= up * (1 + 1e-12)
            assert lo >= previous[0] and up <= previous[1]
            previous = (lo, up)
        assert previous == (lower, upper)
        assert upper - lower <= 0.01 * CFG.opt_tol * upper


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_block_split_matches_block_diagonal_embedding(p):
    # with weight one on every block, M_2 + M_3 sits inside M_5 with the
    # same trace, and the sequence norm does not see the difference
    alg = AlgebraDescriptor(((2, 1.0), (3, 1.0)))
    rng = rng_from(24)
    seq = sequence([random_element(alg, rng) for _ in range(3)])
    big = sequence([
        Element(matrix_algebra(5), [np.block([[x.blocks[0], np.zeros((2, 3))],
                                              [np.zeros((3, 2)), x.blocks[1]]])])
        for x in seq
    ])
    iv, ivb = l1_norm_bounds(seq, p, CFG), l1_norm_bounds(big, p, CFG)
    assert iv.certified_exact and ivb.certified_exact
    assert iv.upper == pytest.approx(ivb.upper, rel=CFG.opt_tol)
    assert iv.lower <= ivb.upper * (1 + 1e-12) and ivb.lower <= iv.upper * (1 + 1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_diagonal_algebra_is_exact(p):
    # on 1 x 1 blocks the norm is (sum_k w_k (sum_n |x_nk|)^p)^(1/p); with
    # unit weights it equals the value of the same items as diagonal matrices
    rng = rng_from(25)
    vals = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    for weights in ((1.0, 1.0, 1.0, 1.0), (0.5, 2.0, 1.0, 0.3)):
        alg = diagonal_algebra(weights)
        seq = sequence([Element(alg, [[[v]] for v in row]) for row in vals])
        want = float(np.sum(np.array(weights) * np.abs(vals).sum(axis=0) ** p) ** (1 / p))
        iv = l1_norm_bounds(seq, p, CFG)
        assert iv.certified_exact and len(iv.meta["histories"][0]) == 1
        assert iv.lower == pytest.approx(want, rel=1e-12)
        assert iv.upper == pytest.approx(want, rel=1e-12)
    diag = sequence([Element(matrix_algebra(4), [np.diag(row)]) for row in vals])
    ivd = l1_norm_bounds(diag, p, CFG)
    assert ivd.certified_exact
    assert ivd.upper == pytest.approx(float(np.sum(np.abs(vals).sum(axis=0) ** p) ** (1 / p)),
                                      rel=CFG.opt_tol)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_corner_items_give_the_corner_value(p):
    # items on a 2-dim corner of M_3: the optimal a and b are singular there
    rng = rng_from(26)
    small = [random_element(matrix_algebra(2), rng) for _ in range(3)]
    corner = [np.pad(x.blocks[0], ((0, 1), (0, 1))) for x in small]
    iv2 = l1_norm_bounds(sequence(small), p, CFG)
    iv3 = l1_norm_bounds(sequence([Element(matrix_algebra(3), [b]) for b in corner]), p, CFG)
    assert iv3.certified_exact
    assert iv3.upper == pytest.approx(iv2.upper, rel=CFG.opt_tol)
    assert iv3.lower <= iv2.upper * (1 + 1e-12) and iv2.lower <= iv3.upper * (1 + 1e-12)


def test_upper_endpoint_counts_the_factor_residual():
    # a rank cutoff that drops real singular values makes the pseudo-inverse
    # factorizations miss x_n; their residual keeps the upper endpoint sound
    seq = _generic_sequence()
    exact = l1_norm_bounds(seq, 3.0, CFG)
    for X in _rows([seq]):
        lower, upper = _stack_ascent(X, 3.0, ToleranceConfig(rank_cutoff=0.6), 40)[0][0, :2]
        assert lower <= exact.upper * (1 + 1e-12)
        assert upper >= exact.lower * (1 - 1e-12)


def test_polar_start_computed_once_per_call(monkeypatch):
    # one ascent for every block of the algebra, whose first step is the
    # polar factorization, and no restarts: a second call repeats the first
    # exactly
    import nclp.sequences

    rng = rng_from(21)
    seq = sequence([random_element(AlgebraDescriptor(((2, 1.0), (3, 0.7))), rng) for _ in range(3)])
    want = l1_norm_bounds(seq, 3.0, CFG)
    calls = []

    def counted(*args):
        calls.append(1)
        return _stack_ascent(*args)

    monkeypatch.setattr(nclp.sequences, "_stack_ascent", counted)
    got = l1_norm_bounds(seq, 3.0, CFG)
    assert len(got.meta["histories"]) == 1
    assert len(calls) == 1
    assert (got.lower, got.upper, got.meta["histories"]) == (want.lower, want.upper, want.meta["histories"])


def _mixed_rows():
    # pairs over M_2 + M_1 + M_2 + M_1, whose same-dimension blocks share an
    # ascent: a disjoint pair (its gap closes at step 1), generic pairs (they
    # run long), a pair with a zero block and an all-positive pair
    alg = AlgebraDescriptor(((2, 1.0), (1, 0.5), (2, 0.7), (1, 2.0)))
    rng = rng_from(30)
    generic = [sequence([random_element(alg, rng) for _ in range(2)]) for _ in range(2)]
    zero = sequence([Element(alg, [x.blocks[0], np.zeros((1, 1)), np.zeros((2, 2)), x.blocks[3]])
                     for x in generic[1]])
    return [sequence(random_disjoint_pair(alg, rng)), generic[0], zero,
            sequence([random_positive(alg, rng) for _ in range(2)]), generic[1]]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (0.5, 2.0, 0.7)])
def test_padded_blocks_follow_their_own_ascent(monkeypatch, weights, p):
    # every block of M_1 + M_2 + M_3 ascends in the corner of one 3 x 3
    # stack: its endpoints and steps are those of its own ascent on M_d,
    # and its factors are cut back to d x d
    import nclp.sequences

    alg = AlgebraDescriptor(tuple(zip((1, 2, 3), weights)))
    rng = rng_from(31)
    seqs = [sequence([random_element(alg, rng) for _ in range(3)]) for _ in range(2)]
    X = _rows(seqs)
    runs = []

    def recorded(*args):
        runs.append(_stack_ascent(*args))
        return runs[-1]

    monkeypatch.setattr(nclp.sequences, "_stack_ascent", recorded)
    lower, upper, factors, histories = _block_split(X, weights, p, CFG, MAX_STEPS)
    [(trace, *_, steps)] = runs
    alone = [_stack_ascent(S, p, CFG, MAX_STEPS) for S in X]
    for k, run in enumerate(alone):
        np.testing.assert_allclose(trace[2 * k:2 * k + 2, :2], run[0][:, :2], rtol=1e-12)
        assert steps[2 * k:2 * k + 2].tolist() == run[4].tolist()
    for i in range(2):
        assert len(histories[i]) == max(run[4][i] for run in alone) > 1
        want = [float(np.sum(np.array(weights) * np.array([run[0][i, j] for run in alone]) ** p) ** (1 / p))
                for j in (0, 1)]
        np.testing.assert_allclose([lower[i], upper[i]], want, rtol=1e-12)
        assert [(a.shape, b.shape) for a, b, *_ in factors[i]] == [((3, d, d), (3, d, d)) for d in (1, 2, 3)]
    for iv in _intervals(X, alg, p, CFG):
        for x in (*iv.witness[0], *iv.witness[1]):
            assert [b.shape for b in x.blocks] == [(1, 1), (2, 2), (3, 3)]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
def test_reading_the_primal_at_every_step_changes_no_stop(monkeypatch, p):
    # the settle rule skips a row's primal endpoint only while its dual
    # still rises: on these rows it changes histories, but no step count
    # and no endpoint
    import nclp.sequences

    rows = _mixed_rows()
    X, w = _rows(rows), rows[0].algebra.weights
    settled = _block_split(X, w, p, CFG, MAX_STEPS)
    monkeypatch.setattr(nclp.sequences, "SETTLE", np.inf)
    every = _block_split(X, w, p, CFG, MAX_STEPS)
    assert [len(h) for h in settled[3]] == [len(h) for h in every[3]]
    np.testing.assert_allclose(settled[0], every[0], rtol=1e-14)
    np.testing.assert_allclose(settled[1], every[1], rtol=1e-14)
    assert settled[3] != every[3]


def _closed_form_stacks():
    # padded rows on the corners of M_4 whose norm has a closed form:
    # positive sequences, normed by their sum, and singletons
    rng = rng_from(41)
    g = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dims = np.array([1, 2, 3, 4, 2, 3, 4, 4])
    out = []
    for n, positive in ((3, True), (1, False)):
        X = np.zeros((len(dims), n, 4, 4), dtype=complex)
        for i, d in enumerate(dims.tolist()):
            # every fourth row rank-one
            y = g(n, d, 1) @ g(n, 1, d) if i % 4 == 3 else g(n, d, d)
            X[i, :, :d, :d] = y @ _adjoint(y) if positive else y
        out.append((X, dims, X.sum(axis=1)))
    return out


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 5.0])
def test_ascent_encloses_closed_form_norms(p):
    # whatever the update rule, every dual iterate is a lower endpoint and
    # every primal one an upper endpoint: the ascent brackets the exact
    # norm, closes its gap, and records no upper endpoint below its lower one
    for X, dims, total in _closed_form_stacks():
        trace, *_, steps = _stack_ascent(X, p, CFG, MAX_STEPS, dims)
        exact = np.sum(np.linalg.svd(total, compute_uv=False) ** p, axis=-1) ** (1 / p)
        lower, upper = trace[:, 0], trace[:, 1]
        assert (lower <= exact * (1 + 1e-12)).all() and (exact <= upper * (1 + 2e-12)).all()
        assert (upper - lower <= 0.01 * CFG.opt_tol * upper).all() and (steps <= MAX_STEPS).all()
        assert (trace[:, :1] <= trace[:, 1:] * (1 + 1e-12)).all()


def _budget_stacks():
    # 100 rows: n = 2..5 items on the corners of M_4 (1 to 4), every
    # fourth row rank-one
    rng = rng_from(40)
    g = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = []
    for n in (2, 3, 4, 5):
        dims = rng.integers(1, 5, 25)
        X = np.zeros((25, n, 4, 4), dtype=complex)
        for i, d in enumerate(dims.tolist()):
            X[i, :, :d, :d] = g(n, d, 1) @ g(n, 1, d) if i % 4 == 3 else g(n, d, d)
        out.append((X, dims))
    return out


def test_ascent_step_budget():
    # updating both factors in every step takes 1,755 steps over these 300
    # row solves; updating one factor per step took 2,409
    stacks = _budget_stacks()
    steps = sum(int(_stack_ascent(X, p, CFG, MAX_STEPS, dims)[4].sum())
                for p in (1.5, 2.0, 3.0) for X, dims in stacks)
    assert steps <= 1755 * 1.05


def _same_factors(f, g):
    # per block (alpha, beta, |Y1|_p, |Y2|_p)
    return all(np.array_equal(a1, a2) and np.array_equal(b1, b2) and norms1 == norms2
               for (a1, b1, *norms1), (a2, b2, *norms2) in zip(f, g))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_stack_matches_rows_solved_alone(p):
    # each row of a stack leaves it when its own gap closes, so its
    # endpoints, factors and history equal those of solving it alone, bit
    # for bit, at every step cap and with or without the closed forms
    rows = _mixed_rows()
    w = rows[0].algebra.weights
    for cap in (0, 1, 3, MAX_STEPS):
        together = _block_split(_rows(rows), w, p, CFG, cap)
        for i, seq in enumerate(rows):
            [lo], [up], [f], [h] = _block_split(_rows([seq]), w, p, CFG, cap)
            assert (together[0][i], together[1][i], together[3][i]) == (lo, up, h)
            assert _same_factors(together[2][i], f)
    steps = [len(h) for h in _block_split(_rows(rows), w, p, CFG, MAX_STEPS)[3]]
    if p > 1:
        assert steps[0] == 2 and max(steps) > 5
    together = _intervals(_rows(rows), rows[0].algebra, p, CFG)
    for iv, alone in zip(together, [l1_norm_bounds(seq, p, CFG) for seq in rows]):
        assert (iv.lower, iv.upper, iv.certified_exact, iv.meta) == (
            alone.lower, alone.upper, alone.certified_exact, alone.meta)
        for got, want in zip(iv.witness, alone.witness):
            assert all(np.array_equal(x, y) for a, b in zip(got, want) for x, y in zip(a.blocks, b.blocks))


def test_small_non_selfadjoint_items_keep_the_optimizer_route():
    # |x - x*| is judged against |x| alone, so these two non-self-adjoint
    # items scaled by 1e-9 are not taken for positives: the enclosure is
    # 1e-9 times the one at unit scale, 3.37685, not the positive route's
    # |x + y|_2 = sqrt(10)
    alg = matrix_algebra(2)

    def bounds(c):
        items = [Element(alg, [c * np.array([[1.0, 1.0], [0.0, 1.0]])]),
                 Element(alg, [c * np.array([[1.0, 0.0], [1.0, 1.0]])])]
        return l1_norm_bounds(sequence(items), 2.0, CFG)

    unit, small = bounds(1.0), bounds(1e-9)
    assert unit.meta["route"] == small.meta["route"] == "optimizer"
    assert unit.lower == pytest.approx(3.37685, rel=1e-5)
    assert small.lower == pytest.approx(1e-9 * unit.lower, rel=1e-9)
    assert small.upper == pytest.approx(1e-9 * unit.upper, rel=1e-9)


def _ref_witnesses(X, alg, p, cfg):
    """The witnesses ``_intervals`` built eagerly before they became lazy,
    copied as they were: one polar step for the singleton and p = 1 rows
    together, square roots for the positive rows."""
    from nclp.algebra import positive_sqrt
    from nclp.sequences import _solve, _witness

    lower, upper, routes, factors, histories = _solve(X, alg.weights, p, cfg, MAX_STEPS)
    polar = [i for i, route in enumerate(routes) if route in ("singleton", "p1_direct_sum")]
    if polar:
        sub = X if len(polar) == len(routes) else [S[polar] for S in X]
        for i, f in zip(polar, _block_split(sub, alg.weights, p, cfg, 0)[2]):
            factors[i] = f
    out = []
    for i, (route, f) in enumerate(zip(routes, factors)):
        if route == "positive":
            items = [Element(alg, [S[i, k] for S in X]) for k in range(X[0].shape[1])]
            roots = [positive_sqrt(0.5 * (x + x.H), cfg) for x in items]
            out.append((roots, roots))
        else:
            out.append(_witness(alg, f))
    return out


def _witness_stacks():
    # (stack, p, routes): a positive, a singleton, a p = 1 and an optimizer
    # sequence, then stacks mixing the positive and the other rows
    alg = AlgebraDescriptor(((2, 1.0), (1, 0.5), (3, 0.7)))
    rng = rng_from(47)
    pos = sequence([random_positive(alg, rng) for _ in range(3)])
    gen = [sequence([random_element(alg, rng) for _ in range(3)]) for _ in range(2)]
    single = sequence([random_element(alg, rng)])
    return [([pos], 1.5, ["positive"]), ([single], 3.0, ["singleton"]), ([gen[0]], 1.0, ["p1_direct_sum"]),
            ([gen[0]], 2.0, ["optimizer"]), ([gen[0], pos, gen[1]], 1.0, ["p1_direct_sum", "positive", "p1_direct_sum"]),
            ([pos, gen[1]], 3.0, ["positive", "optimizer"])]


@pytest.mark.parametrize("index", range(6))
def test_witness_is_built_when_read(monkeypatch, index):
    # the enclosure computes no square root and no polar step until the
    # witness is read; the witness read equals the eager one bit for bit
    import nclp.sequences

    seqs, p, routes = _witness_stacks()[index]
    alg, X = seqs[0].algebra, _rows(seqs)
    want = _ref_witnesses(X, alg, p, CFG)
    calls = {"positive_sqrt": 0, "_block_split": 0}
    for name in calls:
        def counted(*args, _f=getattr(nclp.sequences, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(nclp.sequences, name, counted)
    ivs = [l1_norm_bounds(seqs[0], p, CFG)] if len(seqs) == 1 else _intervals(X, alg, p, CFG)
    assert [iv.meta["route"] for iv in ivs] == routes
    solved = routes.count("optimizer") > 0
    assert calls == {"positive_sqrt": 0, "_block_split": int(solved)}
    for iv, (wa, wb), route in zip(ivs, want, routes):
        before = dict(calls)
        got_a, got_b = iv.witness
        assert iv.witness is iv.witness  # built once
        for got, ref in ((got_a, wa), (got_b, wb)):
            assert len(got) == len(ref)
            for x, y in zip(got, ref):
                assert x.algebra == y.algebra
                assert all(u.dtype == v.dtype and np.array_equal(u, v) for u, v in zip(x.blocks, y.blocks))
        roots = len(wa) if route == "positive" else 0
        polar = int(route in ("singleton", "p1_direct_sum"))
        assert calls == {"positive_sqrt": before["positive_sqrt"] + roots, "_block_split": before["_block_split"] + polar}


def test_given_witness_is_kept():
    alg = matrix_algebra(2)
    a, b = [identity(alg)], [zero_element(alg)]
    iv = NormInterval(1.0, 2.0, False, witness=(a, b))
    assert iv.witness == (a, b) and NormInterval(1.0, 2.0).witness is None
    lazy = NormInterval(1.0, 2.0, witness=lambda: (a, b))
    assert lazy.witness == (a, b) and lazy == iv
