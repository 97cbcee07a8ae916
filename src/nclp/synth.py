"""Structured random instances: factorizable maps, isometry batteries,
completely positive contractions, positive non-2-positive mixtures.

Positivity is read from the action matrix, and separating maps certify
from their extracted triple.  Only the positive mixtures still set
``meta["positive"]``, until an exact test proves them positive.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    identity,
    matrix_algebra,
)
from .maps import (
    LinearMap,
    _jordan_layout,
    add_maps,
    adjoint_map,
    commutative_matrix,
    depolarizing,
    kraus_map,
    rotation_mixing,
    scale_map,
    unitary_conjugation,
    yeadon_synthetic,
)
from .sampling import ginibre, haar_unitary, random_algebra, random_unitary


def _random_jordan(
    rng: np.random.Generator, domain: AlgebraDescriptor, p: float
) -> tuple[LinearMap, list[tuple[list[tuple[int, str]], int]], list[np.ndarray]]:
    """Draw a parts layout, codomain weights and conjugating unitaries, and
    return the Jordan homomorphism they define with its layout and unitaries."""
    n_dom = len(domain.dims)
    n_parts = int(rng.integers(1, 4))
    part_specs = [
        (int(rng.integers(0, n_dom)), "anti" if rng.random() < 0.5 else "hom")
        for _ in range(n_parts)
    ]
    n_cod = int(rng.integers(1, 3))
    buckets: list[list[tuple[int, str]]] = [[] for _ in range(n_cod)]
    for spec in part_specs:
        buckets[int(rng.integers(0, n_cod))].append(spec)
    layout = []
    for parts in buckets:
        dead = int(rng.integers(1, 3)) if (rng.random() < 0.3 or not parts) else 0
        layout.append((parts, dead))
    weights = [float(rng.uniform(0.5, 2.0)) for _ in range(n_cod)]
    unitaries = []
    for parts, dead in layout:
        size = sum(domain.dims[k] for k, _ in parts) + dead
        unitaries.append(haar_unitary(rng, size))
    J = _jordan_layout(
        domain, layout, weights, unitaries, p,
        {"kind": "jordan_layout", "layout": tuple((tuple(ps), dd) for ps, dd in layout)},
    )
    return J, layout, unitaries


def random_jordan_map(
    rng: np.random.Generator, p: float = 2.0, domain: AlgebraDescriptor | None = None
) -> LinearMap:
    """Random Jordan homomorphism mixing plain and transposed copies of the
    domain blocks, conjugated by Haar unitaries, with optional dead corners."""
    if domain is None:
        domain = random_algebra(rng, max_blocks=2, max_dim=3)
    return _random_jordan(rng, domain, p)[0]


def random_yeadon_map(
    rng: np.random.Generator,
    p: float = 2.0,
    positive_w: bool | None = None,
) -> tuple[LinearMap, Element, Element, LinearMap]:
    """T = w B J(.) with random valid data; returns (T, w, B, J).

    B is constant on each part (it must commute with the range) with scales
    in [0.4, 2.0]; w is either the range projection itself (giving a
    positive map) or a random unitary times it.
    """
    J, layout, unitaries = _random_jordan(rng, random_algebra(rng, max_blocks=2, max_dim=3), p)
    cod = J.codomain
    dims = J.domain.dims
    b_blocks, e_blocks = [], []
    for parts, dead in layout:
        scales: list[float] = []
        for k, _ in parts:
            scales.extend([float(rng.uniform(0.4, 2.0))] * dims[k])
        scales.extend([0.0] * dead)
        arr = np.array(scales, dtype=complex)
        b_blocks.append(np.diag(arr))
        e_blocks.append(np.diag((arr != 0).astype(complex)))
    B = Element(cod, [u @ b @ u.conj().T for u, b in zip(unitaries, b_blocks)])
    e = Element(cod, [u @ m @ u.conj().T for u, m in zip(unitaries, e_blocks)])
    if positive_w is None:
        positive_w = bool(rng.random() < 0.4)
    if positive_w:
        w = e
    else:
        w = random_unitary(cod, rng) * e
    T = yeadon_synthetic(w, B, J, p)
    return T, w, B, J


def random_cp_contraction(
    algebra: AlgebraDescriptor, p: float, rng: np.random.Generator
) -> LinearMap:
    """Kraus map normalized to be doubly substochastic, hence a completely
    positive contraction at every exponent."""
    n_ops = int(rng.integers(1, 4))
    vs = [Element(algebra, [ginibre(rng, d) for d in algebra.dims]) for _ in range(n_ops)]
    T = kraus_map(vs, p)
    one = identity(algebra)
    lam = max(T(one).sup_norm(), adjoint_map(T, 1)(one).sup_norm())
    if lam <= 0:
        return depolarizing(algebra, 0.5, p)
    T = scale_map(T, 1.0 / lam)
    T.meta["kind"] = "cp_contraction"
    if rng.random() < 0.3:
        T = add_maps(scale_map(T, 0.5), scale_map(depolarizing(algebra, 0.5, p), 0.5))
        T.meta["kind"] = "cp_contraction"
    return T


def random_positive_map(
    algebra: AlgebraDescriptor, p: float, rng: np.random.Generator
) -> LinearMap:
    """Positive but generically not 2-positive: a mixture of a Kraus map and
    a transposed Kraus map, with a random overall scale."""
    k1 = kraus_map(
        [Element(algebra, [ginibre(rng, d) for d in algebra.dims])], p
    )
    k2 = kraus_map(
        [Element(algebra, [ginibre(rng, d) for d in algebra.dims])], p, transposed=True
    )
    t = float(rng.uniform(0.25, 0.75))
    T = add_maps(scale_map(k1, t), scale_map(k2, 1.0 - t))
    T = scale_map(T, float(rng.uniform(0.5, 1.5)))
    T.meta["positive"] = True
    T.meta["kind"] = "positive_mixture"
    return T


def random_l2_isometry(rng: np.random.Generator, index: int) -> LinearMap:
    """Battery of L^2 isometries: unitary conjugations, one-sided unitary
    multiplications, block embeddings, balanced twisted embeddings (all of
    which factor), and rotation mixings (which do not)."""
    kind = index % 5
    if kind == 0:
        alg = matrix_algebra(2 + index % 2)
        return unitary_conjugation(random_unitary(alg, rng), 2.0)
    if kind == 1:
        alg = matrix_algebra(2)
        u = random_unitary(alg, rng).blocks[0]
        return LinearMap(alg, alg, np.kron(u, np.eye(2)), 2.0,
                         {"kind": "left_unitary"})
    if kind == 2:
        d = 2 + index % 2
        w = float(rng.uniform(0.5, 2.0))
        dom = matrix_algebra(d, w)
        layout = [([(0, "hom")], 0), ([], int(rng.integers(1, 3)))]
        J = _jordan_layout(dom, layout, [w, float(rng.uniform(0.5, 2.0))], None, 2.0,
                           {"kind": "block_embedding"})
        e = J(identity(dom))
        return yeadon_synthetic(e, e, J, 2.0)
    if kind == 3:
        w = float(rng.uniform(0.5, 2.0))
        layout = [([(0, "hom")], 0), ([(0, "anti")], 0)]
        J = _jordan_layout(matrix_algebra(2, w), layout, [w, w], None, 2.0,
                           {"kind": "hom_anti_embedding"})
        one = identity(J.codomain)
        return yeadon_synthetic(one, (1.0 / np.sqrt(2.0)) * one, J, 2.0)
    theta = float(rng.uniform(0.4, np.pi - 0.4))
    return rotation_mixing(theta, 2.0)


def random_commutative_map(
    rng: np.random.Generator, n_dom: int = 3, n_cod: int = 3, p: float = 2.0
) -> LinearMap:
    entries = ginibre(rng, max(n_dom, n_cod))[:n_cod, :n_dom]
    dom_w = [float(rng.uniform(0.5, 2.0)) for _ in range(n_dom)]
    cod_w = [float(rng.uniform(0.5, 2.0)) for _ in range(n_cod)]
    return commutative_matrix(entries, dom_w, cod_w, p)
