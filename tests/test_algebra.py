from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclp.algebra import (
    AlgebraDescriptor,
    DomainError,
    Element,
    StructuralError,
    ToleranceConfig,
    absolute,
    amplify,
    block_entries,
    block_matrix,
    diagonal_algebra,
    identity,
    matrix_algebra,
    matrix_unit,
    opposite_element,
    polar_support,
    positive_sqrt,
    pseudo_inverse,
    spectral_projection,
    zero_element,
)
from nclp.sampling import random_element, random_selfadjoint, rng_from


def test_trace_of_identity_m2():
    alg = matrix_algebra(2)
    assert identity(alg).trace() == pytest.approx(2.0)


def test_trace_weighted():
    alg = AlgebraDescriptor(((2, 0.5), (3, 2.0)))
    assert identity(alg).trace() == pytest.approx(0.5 * 2 + 2.0 * 3)


def test_diagonal_algebra_trace():
    alg = diagonal_algebra([1.0, 2.0, 3.0])
    assert identity(alg).trace() == pytest.approx(6.0)


def test_descriptor_rejects_bad_blocks():
    with pytest.raises(StructuralError):
        AlgebraDescriptor(((0, 1.0),))
    with pytest.raises(StructuralError):
        AlgebraDescriptor(((2, 0.0),))
    with pytest.raises(StructuralError):
        AlgebraDescriptor(())


def test_element_shape_mismatch():
    alg = matrix_algebra(2)
    with pytest.raises(StructuralError):
        Element(alg, [np.zeros((3, 3))])


def test_algebra_mismatch_raises():
    x = identity(matrix_algebra(2))
    y = identity(matrix_algebra(2, 0.5))
    with pytest.raises(StructuralError):
        x + y


def test_elements_immutable():
    x = identity(matrix_algebra(2))
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 5.0


def test_sup_norm_matches_spectral_norm_exactly():
    rng = rng_from(41)
    alg = AlgebraDescriptor(((1, 0.3), (2, 1.0), (3, 2.0), (4, 0.7)))
    for _ in range(20):
        x = random_element(alg, rng)
        want = max(float(np.linalg.norm(b, 2)) for b in x.blocks)
        assert x.sup_norm() == want


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_adjoint_involution_and_traciality(seed):
    rng = rng_from(seed)
    alg = AlgebraDescriptor(((2, 1.0), (3, 0.5)))
    x = random_element(alg, rng)
    y = random_element(alg, rng)
    assert (x.H.H - x).sup_norm() == 0.0
    assert abs((x * y).trace() - (y * x).trace()) < 1e-12 * max(
        1.0, x.sup_norm() * y.sup_norm()
    )


def test_absolute_diagonal_case():
    alg = matrix_algebra(2)
    x = Element(alg, [np.diag([3.0, -4.0])])
    got = absolute(x, 0.5)
    want = np.diag([np.sqrt(3.0), 2.0])
    assert np.allclose(got.blocks[0], want, atol=1e-12)


def test_absolute_power_roundtrip():
    # oracle: |x| from an eigendecomposition of x*x done directly in the test
    rng = rng_from(71)
    alg = AlgebraDescriptor(((3, 1.0),))
    x = random_element(alg, rng)
    p = 3.0
    got = absolute(absolute(x, p), 1.0 / p)
    gram = x.blocks[0].conj().T @ x.blocks[0]
    vals, vecs = np.linalg.eigh(gram)
    want = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
    assert np.allclose(got.blocks[0], want, atol=1e-10)


def test_spectral_projection_rank_matches_eigen_count():
    rng = rng_from(5)
    alg = AlgebraDescriptor(((4, 1.0), (2, 2.0)))
    x = random_selfadjoint(alg, rng)
    evals = np.concatenate([np.linalg.eigvalsh(b) for b in x.blocks])
    evals.sort()
    lam = 0.5 * (evals[2] + evals[3])
    proj = spectral_projection(x, lam)
    rank = round(sum(np.trace(b).real for b in proj.blocks))
    assert rank == int(np.sum(evals >= lam))
    # idempotent and self-adjoint
    assert (proj * proj - proj).sup_norm() < 1e-10
    assert (proj - proj.H).sup_norm() < 1e-10


def test_spectral_projection_rejects_nonhermitian():
    alg = matrix_algebra(2)
    with pytest.raises(DomainError):
        spectral_projection(matrix_unit(alg, 0, 0, 1), 0.0)


def test_disjoint_interval_projections_multiply_to_zero():
    rng = rng_from(6)
    alg = matrix_algebra(4)
    x = random_selfadjoint(alg, rng)
    p1 = spectral_projection(x, 0.1, np.inf)
    p2 = spectral_projection(x, -np.inf, 0.1 - 1e-9)
    assert (p1 * p2).sup_norm() < 1e-10


def test_polar_matrix_unit():
    alg = matrix_algebra(2)
    e12 = matrix_unit(alg, 0, 0, 1)
    u, m, s = polar_support(e12)
    assert np.allclose(u.blocks[0], e12.blocks[0])
    e22 = matrix_unit(alg, 0, 1, 1).blocks[0]
    assert np.allclose(m.blocks[0], e22)
    assert np.allclose(s.blocks[0], e22)


def test_polar_zero():
    alg = matrix_algebra(3)
    u, m, s = polar_support(zero_element(alg))
    assert u.sup_norm() == 0 and m.sup_norm() == 0 and s.sup_norm() == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_polar_roundtrip_random(seed):
    # oracle: numpy SVD identities computed independently
    rng = rng_from(seed)
    alg = AlgebraDescriptor(((3, 1.0), (2, 0.7)))
    x = random_element(alg, rng)
    u, m, s = polar_support(x)
    scale = max(x.sup_norm(), 1e-300)
    assert (u * m - x).sup_norm() < 1e-10 * scale
    assert (u.H * u * m - m).sup_norm() < 1e-10 * scale
    assert (u * u.H * u - u).sup_norm() < 1e-10
    assert (u.H * u - s).sup_norm() < 1e-10


def test_pseudo_inverse():
    alg = matrix_algebra(3)
    rng = rng_from(8)
    x = random_element(alg, rng)
    xp = pseudo_inverse(x)
    assert (x * xp * x - x).sup_norm() < 1e-10 * x.sup_norm()


def test_positive_sqrt_squares_back():
    rng = rng_from(9)
    alg = matrix_algebra(3)
    g = random_element(alg, rng)
    pos = g * g.H
    r = positive_sqrt(pos)
    assert (r * r - pos).sup_norm() < 1e-10 * max(pos.sup_norm(), 1.0)


def test_positive_sqrt_tests_selfadjointness_once(monkeypatch):
    import nclp.algebra as algebra

    calls = []
    real = algebra._nearly_selfadjoint

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(algebra, "_nearly_selfadjoint", counted)
    rng = rng_from(27)
    g = random_element(matrix_algebra(3), rng)
    positive_sqrt(g * g.H)
    assert len(calls) == 1
    with pytest.raises(DomainError):
        positive_sqrt(g)


def test_amplify_descriptor():
    alg = matrix_algebra(2, 1.0)
    amp = amplify(alg, 2)
    assert amp.blocks == ((4, 1.0),)


def test_block_matrix_roundtrip():
    rng = rng_from(10)
    alg = AlgebraDescriptor(((2, 1.0), (3, 0.5)))
    grid = [[random_element(alg, rng) for _ in range(2)] for _ in range(2)]
    big = block_matrix(alg, grid)
    back = block_entries(alg, 2, big)
    for i in range(2):
        for j in range(2):
            assert (back[i][j] - grid[i][j]).sup_norm() == 0.0


def test_opposite_antihomomorphism():
    rng = rng_from(11)
    alg = AlgebraDescriptor(((3, 1.0), (2, 1.0)))
    x, y = random_element(alg, rng), random_element(alg, rng)
    lhs = opposite_element(x * y)
    rhs = opposite_element(y) * opposite_element(x)
    assert (lhs - rhs).sup_norm() < 1e-12 * max(1.0, lhs.sup_norm())


def test_faithfulness():
    rng = rng_from(12)
    alg = AlgebraDescriptor(((2, 0.3), (2, 1.7)))
    for _ in range(50):
        x = random_element(alg, rng)
        val = (x.H * x).trace()
        assert val.real > 0


def test_tolerance_config_validation():
    with pytest.raises(StructuralError):
        ToleranceConfig(algebraic_tol=-1.0)
    with pytest.raises(TypeError):
        ToleranceConfig(restarts=3)  # the field went with the gauge descent's restarts
    for name in ("algebraic_tol", "opt_tol", "rank_cutoff"):
        for bad in (0.0, 1.0, 1e300, float("inf"), float("nan")):
            with pytest.raises(StructuralError, match=name):
                ToleranceConfig(**{name: bad})
    with pytest.raises(StructuralError, match="weight"):
        AlgebraDescriptor(((2, float("inf")),))


@pytest.mark.parametrize("seed", [-1, 2**32, 2**40])
def test_tolerance_config_refuses_seeds_outside_the_honoured_range(seed):
    with pytest.raises(StructuralError, match="seed"):
        ToleranceConfig(seed=seed)
    with pytest.raises(StructuralError, match="seed"):
        replace(ToleranceConfig(), seed=seed)


def test_tolerance_config_accepts_seed_range_endpoints():
    for seed in (0, 2**32 - 1):
        assert ToleranceConfig(seed=seed).seed == seed
        assert replace(ToleranceConfig(seed=5), seed=seed).seed == seed
