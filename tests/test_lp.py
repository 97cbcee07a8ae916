import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp.algebra import (
    AlgebraDescriptor,
    DomainError,
    Element,
    NumericError,
    identity,
    matrix_algebra,
    matrix_unit,
    pseudo_inverse,
    zero_element,
)
from nclp.lp import (
    _schatten,
    conjugate_exponent,
    disjoint,
    duality_pair,
    hs_inner,
    is_positive,
    lp_norm,
    schatten_quasi,
)
from nclp.sampling import (
    random_disjoint_pair,
    random_element,
    random_positive,
    rng_from,
)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 7.0])
def test_identity_norm_power_law(n, q):
    alg = matrix_algebra(n, 1.0)
    assert lp_norm(identity(alg), q) == pytest.approx(n ** (1.0 / q), rel=1e-12)


def test_infinity_norm_is_operator_norm():
    alg = matrix_algebra(2)
    x = Element(alg, [np.diag([3.0, -7.0])])
    assert lp_norm(x, np.inf) == pytest.approx(7.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, np.inf])
def test_schatten_kernel_matches_blockwise_sum(p):
    # the summation order of the kernel is the one every caller used before
    rng = rng_from(17)
    alg = AlgebraDescriptor(((1, 0.4), (2, 1.0), (3, 2.5)))
    x = random_element(alg, rng)
    svals = [np.linalg.svd(b, compute_uv=False) for b in x.blocks]
    if p == np.inf:
        want = x.sup_norm()
    else:
        total = 0.0
        for (_, w), s in zip(alg.blocks, svals):
            total += w * float(np.sum(s**p))
        want = total ** (1.0 / p)
    assert _schatten(svals, alg.weights, p) == want
    assert type(_schatten(svals, alg.weights, p)) is float
    assert schatten_quasi(x, p) == want


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, np.inf])
def test_batched_schatten_equals_per_item_values_bit_for_bit(p):
    rng = rng_from(18)
    alg = AlgebraDescriptor(((1, 0.4), (2, 1.0), (3, 2.5), (9, 0.7)))
    xs = [random_element(alg, rng) for _ in range(40)] + [zero_element(alg)]
    svals = [np.linalg.svd(np.stack(blocks), compute_uv=False) for blocks in zip(*(x.blocks for x in xs))]
    batched = _schatten(svals, alg.weights, p)
    assert batched.shape == (len(xs),)
    for i in range(len(xs)):
        assert batched[i] == _schatten([s[i] for s in svals], alg.weights, p)
    # two leading axes give the same values
    grid = _schatten([np.stack([s, s]) for s in svals], alg.weights, p)
    assert grid.shape == (2, len(xs)) and (grid == batched).all()


def test_public_boundary_rejects_quasi_norm():
    alg = matrix_algebra(2)
    for p in (0.5, np.nan):
        with pytest.raises(DomainError):
            lp_norm(identity(alg), p)
    # internal entry accepts it
    assert schatten_quasi(identity(alg), 0.5) == pytest.approx(2.0 ** 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_adjoint_norm_invariance(seed, p):
    rng = rng_from(seed)
    alg = AlgebraDescriptor(((2, 1.3), (3, 0.4)))
    x = random_element(alg, rng)
    assert lp_norm(x.H, p) == pytest.approx(lp_norm(x, p), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_holder_random(seed):
    rng = rng_from(seed)
    alg = AlgebraDescriptor(((3, 0.8), (2, 1.0)))
    x, y = random_element(alg, rng), random_element(alg, rng)
    for p, q, r in [(2.0, 2.0, 1.0), (3.0, 1.5, 1.0), (4.0, 4.0, 2.0)]:
        assert lp_norm(x * y, r) <= lp_norm(x, p) * lp_norm(y, q) * (1 + 1e-12)


def test_duality_pair_unit():
    alg = matrix_algebra(2)
    e11 = matrix_unit(alg, 0, 0, 0)
    assert duality_pair(e11, e11) == pytest.approx(1.0)


def test_duality_bound_and_p2_attainment():
    rng = rng_from(42)
    alg = AlgebraDescriptor(((3, 1.0), (2, 2.0)))
    for p in (1.0, 1.5, 2.0, 3.0):
        a, b = random_element(alg, rng), random_element(alg, rng)
        assert abs(duality_pair(a, b)) <= lp_norm(a, p) * lp_norm(
            b, conjugate_exponent(p)
        ) * (1 + 1e-12)
    a = random_element(alg, rng)
    n2 = lp_norm(a, 2)
    # the norming functional at p = 2 is pairing against a* / |a|_2
    assert abs(duality_pair(a, (1 / n2) * a.H)) == pytest.approx(n2, rel=1e-12)


def test_conjugate_exponent():
    assert conjugate_exponent(1.0) == np.inf
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(np.inf) == 1.0
    assert conjugate_exponent(1.5) == pytest.approx(3.0)


def test_positivity():
    alg = matrix_algebra(2)
    assert is_positive(Element(alg, [np.diag([1.0, 0.0])]))
    assert not is_positive(Element(alg, [np.diag([1.0, -0.5])]))
    assert not is_positive(matrix_unit(alg, 0, 0, 1))
    rng = rng_from(3)
    assert is_positive(random_positive(alg, rng))


def test_disjoint_matrix_units():
    alg = matrix_algebra(2)
    e11 = matrix_unit(alg, 0, 0, 0)
    e22 = matrix_unit(alg, 0, 1, 1)
    e12 = matrix_unit(alg, 0, 0, 1)
    assert disjoint(e11, e22)
    # a* b = E12 is nonzero, so this pair is not disjoint
    assert not disjoint(e11, e12)
    e21 = matrix_unit(alg, 0, 1, 0)
    assert disjoint(e12, e21)


def test_disjointness_absolute_value_equivalence():
    from nclp.algebra import absolute

    rng = rng_from(17)
    alg = AlgebraDescriptor(((3, 1.0), (2, 0.5)))
    for _ in range(25):
        a, b = random_disjoint_pair(alg, rng)
        assert disjoint(a, b)
        assert disjoint(absolute(a), absolute(b))
        assert disjoint(absolute(a.H), absolute(b.H))
        # perturbation breaks the pair and the absolute-value pair together
        c = b + 0.3 * a
        assert disjoint(a, c) == (
            disjoint(absolute(a), absolute(c))
            and disjoint(absolute(a.H), absolute(c.H))
        )


def test_positive_orthogonality_iff_disjoint():
    rng = rng_from(18)
    alg = AlgebraDescriptor(((3, 1.0), (2, 2.0)))
    for _ in range(25):
        a, b = random_disjoint_pair(alg, rng, positive=True)
        assert abs(duality_pair(a, b)) < 1e-10 * lp_norm(a, 2) * lp_norm(b, 2)
        g, h = random_positive(alg, rng), random_positive(alg, rng)
        if abs(duality_pair(g, h)) > 1e-6 * lp_norm(g, 2) * lp_norm(h, 2):
            assert not disjoint(g, h)


def test_hs_inner_matches_pairing_on_adjoint():
    rng = rng_from(19)
    alg = matrix_algebra(3)
    a, b = random_element(alg, rng), random_element(alg, rng)
    assert hs_inner(a, b) == pytest.approx(duality_pair(a.H, b), rel=1e-12)


_KERNELS = {"lp_norm": lambda x: lp_norm(x, 3.0), "lp_norm_inf": lambda x: lp_norm(x, np.inf),
            "sup_norm": lambda x: x.sup_norm(), "is_positive": is_positive, "pseudo_inverse": pseudo_inverse,
            "schatten_quasi": lambda x: schatten_quasi(x, 0.5)}


@pytest.mark.parametrize(
    "kernel, entry",
    [pytest.param(_KERNELS[name], np.nan, id=name)
     for name in ("lp_norm", "lp_norm_inf", "sup_norm", "is_positive", "pseudo_inverse")]
    + [pytest.param(_KERNELS[name], np.inf, id=f"{name}_of_inf")
       for name in ("lp_norm", "lp_norm_inf", "sup_norm", "schatten_quasi", "is_positive", "pseudo_inverse")],
)
def test_svd_kernels_name_non_finite_input(kernel, entry):
    # numpy's SVD raises a raw LinAlgError ("SVD did not converge") on nan,
    # and returns nan singular values for an inf entry; the positivity test
    # used to warn on inf - inf and the pseudo-inverse to return 0
    alg = AlgebraDescriptor(((2, 1.0), (1, 0.5)))
    x = Element(alg, [np.array([[entry, 1.0], [0.0, 1.0]]), np.ones((1, 1))])
    with pytest.raises(NumericError, match="non-finite"):
        kernel(x)


@pytest.mark.parametrize("c", [1e-150, 1e-120, 1e120, 1e150])
def test_norms_scale_with_the_element_outside_the_normal_range(c):
    # sum_k w_k sum_i s_ki^p underflows or overflows at these scales and is
    # summed again with the singular values over the top one: the norm moves
    # by a few units in the last place, the rounding of that division
    alg = AlgebraDescriptor(((2, 1.0), (1, 0.5)))
    x = random_element(alg, rng_from(21))
    for p in (3.0, 7.0):
        assert lp_norm(c * x, p) == pytest.approx(c * lp_norm(x, p), rel=1e-15, abs=0.0)
    assert lp_norm(c * identity(alg), 3.0) == pytest.approx(c * 2.5 ** (1 / 3), rel=1e-15, abs=0.0)
