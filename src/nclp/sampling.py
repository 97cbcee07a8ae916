"""Seeded random instance generation.

Every sampler takes an explicit ``numpy.random.Generator``; helpers derive
child generators from (seed, labels) via SeedSequence so that parallel or
reordered execution reproduces the same streams.

Disjoint pairs come from one stacked sampler, ``_disjoint_stacks``, which
returns per block (m, d, d) stacks A and B; ``random_disjoint_pair`` is its
one-pair view, on the same stream.  Each try of a pair draws, block by
block: the left rank and the Ginibre matrix of the left Haar unitary;
unless positive, the right rank and its Ginibre matrix; then the Ginibre
(or, positive, Wishart) factors of a and of b.  The normals come in groups,
in that order: (2, d, d) after the left rank, then (6, d, d) after the
right rank, or (4, d, d) when positive.  A try is rejected from its ranks
alone; the complex matrices, QRs, projections and products of the
accepted tries are then batched per block.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraDescriptor, DomainError, Element, _adjoint, _sup_norms, hermitian_part


def rng_from(seed: int, *keys: int) -> np.random.Generator:
    """The generator of (seed, *keys); seeds outside [0, 2**32) are refused
    rather than reduced, so distinct seeds never share a stream."""
    if not 0 <= seed < 2**32:
        raise DomainError(f"seed must lie in [0, 2**32), got {seed}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, keys)]))


def _ginibre(N: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices from standard normals N, (..., 2, d, d): the
    real parts, then the imaginary parts."""
    return (N[..., 0, :, :] + 1j * N[..., 1, :, :]) / np.sqrt(2.0)


def ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    return _ginibre(rng.standard_normal((2, d, d)))


def wishart(rng: np.random.Generator, d: int) -> np.ndarray:
    g = ginibre(rng, d)
    return g @ g.conj().T


def _haar(G: np.ndarray) -> np.ndarray:
    """Haar unitaries from the Ginibre matrices of the (..., d, d) stack G:
    the Q of each QR with the phases of R's diagonal moved into it."""
    q, r = np.linalg.qr(G)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    return _haar(ginibre(rng, d))


def random_element(algebra: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    return Element(algebra, [ginibre(rng, d) for d in algebra.dims])


def random_selfadjoint(algebra: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    return hermitian_part(random_element(algebra, rng))


def random_positive(algebra: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    return Element(algebra, [wishart(rng, d) for d in algebra.dims])


def random_unitary(algebra: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    return Element(algebra, [haar_unitary(rng, d) for d in algebra.dims])


def _disjoint_stacks(
    algebra: AlgebraDescriptor, rngs, positive
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per block the (m, d, d) stacks A and B of m pairs with a* b = a b* = 0:
    pair i is drawn from ``rngs[i]`` (a repeated generator continues its
    stream), and is positive with orthogonal supports where ``positive[i]``.
    The draws of each try, block by block, are in the module docstring's
    order; the projections and products of all pairs are batched."""
    if algebra.coord_dim < 2:
        raise ValueError("a one-dimensional algebra has no nonzero disjoint pairs")
    low = 1 if len(algebra.dims) == 1 else 0  # a single block keeps both sides of its split
    tries = []  # per pair, per block: the (left, right) ranks, then the normals of its four matrices
    for rng, pos in zip(rngs, positive):
        for _ in range(128):
            blocks = []
            for d in algebra.dims:
                rank, left = int(rng.integers(low, d + 1 - low)), rng.standard_normal((2, d, d))
                right = rank if pos else int(rng.integers(low, d + 1 - low))
                blocks.append(((rank, right), [left] * (1 + pos) + [rng.standard_normal((4 if pos else 6, d, d))]))
            ranks = [r for r, _ in blocks]
            # a vanishes iff every block has a side of rank 0, b iff one of rank d
            if not all(0 in r for r in ranks) and not all(d in r for r, d in zip(ranks, algebra.dims)):
                tries.append(blocks)
                break
        else:
            raise RuntimeError("failed to draw a nonzero disjoint pair")
    wisharts = np.flatnonzero(positive)
    A, B = [], []
    for k, d in enumerate(algebra.dims):
        ranks = np.array([t[k][0] for t in tries])  # (m, 2)
        # per pair the left and the right Ginibre, then the factors of a and of b
        M = _ginibre(np.array([np.concatenate(t[k][1]) for t in tries]).reshape(-1, 4, 2, d, d))
        G, F = M[:, :2], M[:, 2:]
        F[wisharts] = F[wisharts] @ _adjoint(F[wisharts])
        U = _haar(G)
        P = (U * (np.arange(d) < ranks[..., None])[..., None, :]) @ _adjoint(U)  # left and right splits
        C = np.eye(d) - P
        A.append(P[:, 0] @ F[:, 0] @ P[:, 1])
        B.append(C[:, 0] @ F[:, 1] @ C[:, 1])
    if not ((_sup_norms(A) > 1e-9) & (_sup_norms(B) > 1e-9)).all():
        raise RuntimeError("failed to draw a nonzero disjoint pair")
    return A, B


def random_disjoint_pair(
    algebra: AlgebraDescriptor,
    rng: np.random.Generator,
    positive: bool = False,
) -> tuple[Element, Element]:
    """A pair (a, b) with a* b = a b* = 0, built from orthogonal supports.

    Left supports of a and b sit under complementary projections, and so do
    the right supports; for the positive flavour a single splitting is used
    on both sides so that a, b >= 0 and a b = 0.  The one-pair view of
    ``_disjoint_stacks``.
    """
    A, B = _disjoint_stacks(algebra, [rng], [positive])
    return Element(algebra, [S[0] for S in A]), Element(algebra, [S[0] for S in B])


def random_algebra(rng: np.random.Generator, max_blocks: int = 3, max_dim: int = 3) -> AlgebraDescriptor:
    nb = int(rng.integers(1, max_blocks + 1))
    blocks = tuple((int(rng.integers(1, max_dim + 1)), float(rng.uniform(0.5, 2.0))) for _ in range(nb))
    return AlgebraDescriptor(blocks)
