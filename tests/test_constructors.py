"""Map constructors against the definitions they encode.

Every constructor builds its action matrix directly (index copies and
Kronecker products).  The reference here is ``map_from_function``, which
evaluates the defining formula on every matrix unit.  Index-copy maps must
agree bit for bit; Kronecker-product maps may differ in the last bit of a
complex product, so they are held to 1e-15 of the action's scale.
"""

import numpy as np
import pytest

from nclp import synth
from nclp.algebra import AlgebraDescriptor, Element, StructuralError, identity, matrix_algebra
from nclp.maps import (
    _jordan_layout,
    depolarizing,
    jordan_direct_sum,
    kraus_map,
    map_from_function,
    transpose_map,
    unitary_conjugation,
    yeadon_synthetic,
)
from nclp.sampling import ginibre, haar_unitary, random_algebra, random_unitary, rng_from

ALG = AlgebraDescriptor(((2, 0.5), (3, 1.7), (1, 2.3)))
KRON_RTOL = 1e-15


def _close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= KRON_RTOL * np.abs(want).max()


def _transposed(x: Element) -> Element:
    return Element(x.algebra, [b.T for b in x.blocks])


def test_transpose_map_copies_coordinates():
    ref = map_from_function(ALG, ALG, _transposed)
    assert np.array_equal(transpose_map(ALG).action, ref.action)


def test_jordan_direct_sum_copies_coordinates():
    parts = [(1, "anti"), (0, "hom"), (1, "hom"), (2, "anti")]
    weights = [0.3, 1.1, 2.0, 0.8]
    J = jordan_direct_sum(ALG, parts, weights)
    cod = AlgebraDescriptor(((3, 0.3), (2, 1.1), (3, 2.0), (1, 0.8)))
    ref = map_from_function(
        ALG, cod,
        lambda x: Element(cod, [x.blocks[k].T if kind == "anti" else x.blocks[k] for k, kind in parts]),
    )
    assert J.codomain == cod
    assert np.array_equal(J.action, ref.action)


def test_depolarizing_matches_formula():
    lam = 0.37
    tau1 = ALG.trace_of_identity
    one = identity(ALG)
    ref = map_from_function(
        ALG, ALG, lambda x: (1.0 - lam) * x + (lam * complex(x.trace()) / tau1) * one
    )
    assert np.array_equal(depolarizing(ALG, lam).action, ref.action)


def test_unitary_conjugation_matches_formula():
    u = random_unitary(ALG, rng_from(3))
    _close(unitary_conjugation(u).action, map_from_function(ALG, ALG, lambda x: u * x * u.H).action)


@pytest.mark.parametrize("transposed", [False, True])
def test_kraus_map_matches_formula(transposed):
    rng = rng_from(4)
    vs = [Element(ALG, [3.0 * ginibre(rng, d) for d in ALG.dims]) for _ in range(3)]

    def fn(x):
        src = _transposed(x) if transposed else x
        out = vs[0] * src * vs[0].H
        for v in vs[1:]:
            out = out + v * src * v.H
        return out

    _close(kraus_map(vs, transposed=transposed).action, map_from_function(ALG, ALG, fn).action)


def _ref_block_diag(mats):
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for m in mats:
        d = m.shape[0]
        out[pos : pos + d, pos : pos + d] = m
        pos += d
    return out


def _ref_jordan_from_layout(domain, layout, weights, unitaries, p):
    """J(x) = (+)_l u_l ( (+)_i phi_i(x_{k_i}) (+) 0_dead ) u_l*, evaluated on
    every matrix unit (the per-basis builder that ``_jordan_layout`` replaced)."""
    dims = domain.dims
    cod_blocks = []
    for (parts, dead), w in zip(layout, weights):
        size = sum(dims[k] for k, _ in parts) + dead
        cod_blocks.append((size, w))
    cod = AlgebraDescriptor(tuple(cod_blocks))

    def fn(x):
        out = []
        for l, (parts, dead) in enumerate(layout):
            mats = []
            for k, kind in parts:
                blk = x.blocks[k]
                mats.append(blk.T if kind == "anti" else blk)
            if dead:
                mats.append(np.zeros((dead, dead), dtype=complex))
            big = _ref_block_diag(mats) if mats else np.zeros((dead, dead), dtype=complex)
            u = unitaries[l]
            out.append(u @ big @ u.conj().T)
        return Element(cod, out)

    return map_from_function(domain, cod, fn, p)


LAYOUTS = [
    [([(0, "hom"), (1, "anti")], 1), ([(1, "hom")], 0), ([], 2)],
    [([(2, "anti"), (0, "anti"), (0, "hom")], 2)],
    [([(1, "anti")], 0), ([(2, "hom"), (1, "hom")], 1)],
]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_jordan_layout_matches_per_basis_reference(layout):
    rng = rng_from(5)
    weights = [float(rng.uniform(0.5, 2.0)) for _ in layout]
    sizes = [sum(ALG.dims[k] for k, _ in parts) + dead for parts, dead in layout]
    unitaries = [haar_unitary(rng, s) for s in sizes]
    J = _jordan_layout(ALG, layout, weights, unitaries, 1.5, {"kind": "test"})
    ref = _ref_jordan_from_layout(ALG, layout, weights, unitaries, 1.5)
    assert J.codomain == ref.codomain and J.p == 1.5 and J.meta == {"kind": "test"}
    _close(J.action, ref.action)
    # without conjugation the action is a pure index copy
    plain = _jordan_layout(ALG, layout, weights, None, 1.5, {})
    eyes = [np.eye(s, dtype=complex) for s in sizes]
    assert np.array_equal(plain.action, _ref_jordan_from_layout(ALG, layout, weights, eyes, 1.5).action)


def test_random_jordan_maps_match_reference_on_their_layouts():
    for seed in range(8):
        J = synth.random_jordan_map(rng_from(seed, 1))
        layout = [(list(parts), dead) for parts, dead in J.meta["layout"]]
        # the same draws again, to recover the unitaries
        rng = rng_from(seed, 1)
        domain = random_algebra(rng, max_blocks=2, max_dim=3)
        _, layout2, unitaries = synth._random_jordan(rng, domain, 2.0)
        assert layout2 == layout
        weights = [w for _, w in J.codomain.blocks]
        _close(J.action, _ref_jordan_from_layout(J.domain, layout, weights, unitaries, 2.0).action)


@pytest.mark.parametrize(
    "parts, match",
    [
        ([(2, "hom")], "part 0: no source block 2"),
        ([(0, "hom"), (-1, "anti")], "part 1: no source block -1"),
        ([(0, "hom"), (1, "sideways")], "part 1: kind must be"),
    ],
)
def test_bad_part_raises_structural_error(parts, match):
    alg = AlgebraDescriptor(((2, 1.0), (1, 0.5)))
    with pytest.raises(StructuralError, match=match):
        jordan_direct_sum(alg, parts)


def test_jordan_layout_rejects_bad_parts_and_weights():
    with pytest.raises(StructuralError, match="part 2: no source block 5"):
        _jordan_layout(ALG, [([(0, "hom")], 0), ([(1, "hom"), (5, "hom")], 0)], [1.0, 1.0], None, 2.0, {})
    with pytest.raises(StructuralError, match="one weight per codomain block"):
        jordan_direct_sum(ALG, [(0, "hom"), (1, "hom")], [1.0])
    with pytest.raises(StructuralError, match="at least one part"):
        jordan_direct_sum(ALG, [])


def _ref_l2_isometry(rng, index):
    """The one-sided and embedding kinds of ``synth.random_l2_isometry``,
    built by per-basis evaluation with the same draws in the same order."""
    kind = index % 5
    if kind == 1:
        alg = matrix_algebra(2)
        u = random_unitary(alg, rng)
        return map_from_function(alg, alg, lambda x: u * x, 2.0)
    if kind == 2:
        d = 2 + index % 2
        w = float(rng.uniform(0.5, 2.0))
        dom = matrix_algebra(d, w)
        cod = AlgebraDescriptor(((d, w), (int(rng.integers(1, 3)), float(rng.uniform(0.5, 2.0)))))
        J = map_from_function(
            dom, cod, lambda x: Element(cod, [x.blocks[0], np.zeros((cod.dims[1],) * 2)]), 2.0
        )
        e = J(identity(dom))
        return yeadon_synthetic(e, e, J, 2.0)
    w = float(rng.uniform(0.5, 2.0))
    dom = matrix_algebra(2, w)
    cod = AlgebraDescriptor(((2, w), (2, w)))
    J = map_from_function(dom, cod, lambda x: Element(cod, [x.blocks[0], x.blocks[0].T]), 2.0)
    one = identity(cod)
    return yeadon_synthetic(one, (1.0 / np.sqrt(2.0)) * one, J, 2.0)


@pytest.mark.parametrize("index", [1, 2, 3, 6, 7, 8, 11, 12, 13])
def test_l2_isometries_match_per_basis_reference(index):
    T = synth.random_l2_isometry(rng_from(11, index), index)
    ref = _ref_l2_isometry(rng_from(11, index), index)
    assert (T.domain, T.codomain) == (ref.domain, ref.codomain)
    assert np.array_equal(T.action, ref.action)
