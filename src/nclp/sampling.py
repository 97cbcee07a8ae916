"""Seeded random instance generation.

Every sampler takes an explicit ``numpy.random.Generator``; helpers derive
child generators from (seed, labels) via SeedSequence so that parallel or
reordered execution reproduces the same streams.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraDescriptor, Element, hermitian_part

def rng_from(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *map(int, keys)]))


def ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)


def wishart(rng: np.random.Generator, d: int) -> np.ndarray:
    g = ginibre(rng, d)
    return g @ g.conj().T


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, d))
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return q * phases[None, :]


def random_element(algebra: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    return Element(algebra, [ginibre(rng, d) for d in algebra.dims])


def random_selfadjoint(algebra: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    return hermitian_part(random_element(algebra, rng))


def random_positive(algebra: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    return Element(algebra, [wishart(rng, d) for d in algebra.dims])


def random_unitary(algebra: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    return Element(algebra, [haar_unitary(rng, d) for d in algebra.dims])


def _random_split_projection(
    rng: np.random.Generator, d: int, single_block: bool
) -> np.ndarray:
    """Random orthogonal projection; inside a single-block algebra the rank
    is kept strictly between 0 and d so both sides of the split survive."""
    if single_block:
        r = int(rng.integers(1, d))
    else:
        r = int(rng.integers(0, d + 1))
    u = haar_unitary(rng, d)
    diag = np.zeros(d)
    diag[:r] = 1.0
    return (u * diag[None, :]) @ u.conj().T


def random_disjoint_pair(
    algebra: AlgebraDescriptor,
    rng: np.random.Generator,
    positive: bool = False,
) -> tuple[Element, Element]:
    """A pair (a, b) with a* b = a b* = 0, built from orthogonal supports.

    Left supports of a and b sit under complementary projections, and so do
    the right supports; for the positive flavour a single splitting is used
    on both sides so that a, b >= 0 and a b = 0.
    """
    if algebra.coord_dim < 2:
        raise ValueError("a one-dimensional algebra has no nonzero disjoint pairs")
    single = len(algebra.dims) == 1
    for _ in range(128):
        pa, pb = [], []
        for d in algebra.dims:
            left = _random_split_projection(rng, d, single)
            right = left if positive else _random_split_projection(rng, d, single)
            comp_l = np.eye(d) - left
            comp_r = np.eye(d) - right
            if positive:
                pa.append(left @ wishart(rng, d) @ left)
                pb.append(comp_l @ wishart(rng, d) @ comp_l)
            else:
                pa.append(left @ ginibre(rng, d) @ right)
                pb.append(comp_l @ ginibre(rng, d) @ comp_r)
        a = Element(algebra, pa)
        b = Element(algebra, pb)
        if a.sup_norm() > 1e-9 and b.sup_norm() > 1e-9:
            return a, b
    raise RuntimeError("failed to draw a nonzero disjoint pair")


def random_algebra(
    rng: np.random.Generator,
    max_blocks: int = 3,
    max_dim: int = 3,
) -> AlgebraDescriptor:
    nb = int(rng.integers(1, max_blocks + 1))
    blocks = tuple(
        (int(rng.integers(1, max_dim + 1)), float(rng.uniform(0.5, 2.0)))
        for _ in range(nb)
    )
    return AlgebraDescriptor(blocks)
