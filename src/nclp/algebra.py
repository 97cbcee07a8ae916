"""Finite-dimensional tracial von Neumann algebras as weighted sums of matrix blocks.

An algebra is a direct sum of full complex matrix blocks M_{d_1} + ... + M_{d_m},
carrying the faithful trace  tau(x) = sum_k weight_k * Tr(x_k).  Elements are
tuples of complex matrices, one per block.  Everything here is immutable and
every operation is a pure function of its inputs, so values can be shared
freely across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np


class AlgebraError(ValueError):
    pass


class StructuralError(AlgebraError):
    """Shapes, descriptors or construction parameters do not fit together."""


class DomainError(AlgebraError):
    """Input outside the mathematical domain of the operation."""


class NumericError(AlgebraError):
    """A backend decomposition failed to converge."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared across the toolkit.

    algebraic_tol: relative tolerance for identity checks.
    opt_tol:       convergence / certification gap tolerance for optimizers.
    rank_cutoff:   relative singular-value cutoff for supports and pseudo-inverses.
    restarts:      number of random restarts for nonconvex searches.
    seed:          root seed; all randomness is derived from it deterministically.
    """

    algebraic_tol: float = 1e-9
    opt_tol: float = 1e-7
    rank_cutoff: float = 1e-10
    restarts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("algebraic_tol", "opt_tol", "rank_cutoff"):
            t = getattr(self, name)
            if not 0 < t < 1:  # also rejects nan
                raise StructuralError(f"{name} must lie in (0, 1), got {t!r}")
        if self.restarts < 1:
            raise StructuralError("restarts must be >= 1")
        if not 0 <= self.seed < 2**32:
            raise StructuralError(f"seed must lie in [0, 2**32), got {self.seed!r}")


DEFAULT_CONFIG = ToleranceConfig()


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Direct sum of full matrix blocks with a weighted trace.

    blocks[k] = (dimension, weight); tau(x) = sum_k weight_k * Tr(x_k).
    Weights must be strictly positive so the trace is faithful.
    """

    blocks: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise StructuralError("algebra needs at least one block")
        norm = []
        for k, (dim, weight) in enumerate(self.blocks):
            if int(dim) != dim or dim < 1:
                raise StructuralError(f"block {k}: dimension must be a positive integer")
            if not (0 < float(weight) < math.inf):
                raise StructuralError(f"block {k}: weight must be finite and > 0")
            norm.append((int(dim), float(weight)))
        object.__setattr__(self, "blocks", tuple(norm))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.blocks)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.blocks)

    @functools.cached_property
    def slices(self) -> tuple[slice, ...]:
        """Coordinate range of each block: row-major within a block, blocks
        concatenated.  Every coordinate layout in the package reads it."""
        ends = itertools.accumulate(d * d for d in self.dims)
        return tuple(slice(end - d * d, end) for d, end in zip(self.dims, ends))

    @property
    def coord_dim(self) -> int:
        """Complex dimension of the underlying space, sum of d_k**2."""
        return self.slices[-1].stop

    @property
    def trace_of_identity(self) -> float:
        return sum(d * w for d, w in self.blocks)

    def __repr__(self) -> str:
        inner = " + ".join(f"M{d}(w={w:g})" for d, w in self.blocks)
        return f"AlgebraDescriptor({inner})"


def matrix_algebra(dim: int, weight: float = 1.0) -> AlgebraDescriptor:
    return AlgebraDescriptor(((dim, weight),))


def diagonal_algebra(weights: Sequence[float]) -> AlgebraDescriptor:
    """Commutative algebra: one 1x1 block per point, measure = weights."""
    return AlgebraDescriptor(tuple((1, float(w)) for w in weights))


def direct_sum(*algebras: AlgebraDescriptor) -> AlgebraDescriptor:
    return AlgebraDescriptor(tuple(b for a in algebras for b in a.blocks))


def amplify(algebra: AlgebraDescriptor, n: int) -> AlgebraDescriptor:
    """M_n(A) with trace tr (x) tau: block dims scale by n, weights stay."""
    if n < 1:
        raise StructuralError("amplification order must be >= 1")
    return AlgebraDescriptor(tuple((n * d, w) for d, w in algebra.blocks))


class Element:
    """A block-diagonal complex matrix tuple attached to an AlgebraDescriptor.

    Supports +, -, scalar *, Element * Element (blockwise matrix product),
    adjoint and trace.  Data arrays are frozen after construction.
    """

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: AlgebraDescriptor, blocks: Sequence[np.ndarray]):
        if len(blocks) != len(algebra.blocks):
            raise StructuralError(
                f"expected {len(algebra.blocks)} blocks, got {len(blocks)}"
            )
        frozen = []
        for k, block in enumerate(blocks):
            arr = np.array(block, dtype=complex)
            d = algebra.blocks[k][0]
            if arr.shape != (d, d):
                raise StructuralError(
                    f"block {k}: shape {arr.shape} does not match dimension {d}"
                )
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "blocks", tuple(frozen))

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    # -- arithmetic ---------------------------------------------------------

    def _same(self, other: "Element") -> None:
        if self.algebra != other.algebra:
            raise StructuralError("elements belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "Element":
        return Element(self.algebra, [-a for a in self.blocks])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._same(other)
            return Element(
                self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)]
            )
        return Element(self.algebra, [complex(other) * a for a in self.blocks])

    def __rmul__(self, scalar) -> "Element":
        return Element(self.algebra, [complex(scalar) * a for a in self.blocks])

    def __matmul__(self, other: "Element") -> "Element":
        return self.__mul__(other)

    @property
    def H(self) -> "Element":
        """Adjoint (blockwise conjugate transpose)."""
        return Element(self.algebra, [a.conj().T for a in self.blocks])

    def trace(self) -> complex:
        return sum(
            w * np.trace(blk) for (_, w), blk in zip(self.algebra.blocks, self.blocks)
        )

    # -- misc ---------------------------------------------------------------

    def sup_norm(self) -> float:
        """Operator norm (largest singular value over all blocks)."""
        return float(_sup_norms(self.blocks))

    def __repr__(self) -> str:
        return f"Element({self.algebra!r}, sup={self.sup_norm():.3g})"


def zero_element(algebra: AlgebraDescriptor) -> Element:
    return Element(algebra, [np.zeros((d, d)) for d in algebra.dims])


def identity(algebra: AlgebraDescriptor) -> Element:
    return Element(algebra, [np.eye(d) for d in algebra.dims])


def matrix_unit(algebra: AlgebraDescriptor, block: int, i: int, j: int) -> Element:
    blocks = [np.zeros((d, d), dtype=complex) for d in algebra.dims]
    blocks[block][i, j] = 1.0
    return Element(algebra, blocks)


def basis(algebra: AlgebraDescriptor) -> Iterator[Element]:
    """Matrix-unit basis of the underlying space, block by block, row-major."""
    for k, d in enumerate(algebra.dims):
        for i in range(d):
            for j in range(d):
                yield matrix_unit(algebra, k, i, j)


def hermitian_part(x: Element) -> Element:
    return 0.5 * (x + x.H)


def _nearly_selfadjoint(x: Element, tol: float, norm: Optional[float] = None) -> bool:
    """|x - x*| <= tol * max(|x|, 1) in operator norm; pass |x| as ``norm``
    when it is already known."""
    if norm is None:
        norm = x.sup_norm()
    return (x - x.H).sup_norm() <= tol * max(norm, 1.0)


def is_selfadjoint(x: Element, cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    return _nearly_selfadjoint(x, cfg.algebraic_tol)


# ---------------------------------------------------------------------------
# Block kernels: each acts on per-block arrays, batched over any leading axes
# ---------------------------------------------------------------------------


def _adjoint(s: np.ndarray) -> np.ndarray:
    return s.conj().swapaxes(-1, -2)


def _spectral(vals: np.ndarray, vecs: np.ndarray, f: np.ndarray) -> np.ndarray:
    """vecs diag(f) vecs*, batched over the leading axes; f is shaped like vals."""
    return (vecs * f[..., None, :]) @ _adjoint(vecs)


def _sup_norms(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Operator norms of the elements given blockwise as (..., d, d) stacks."""
    return functools.reduce(np.maximum, [np.linalg.svd(S, compute_uv=False)[..., 0] for S in stacks])


def _ranked_svd(
    blocks: Sequence[np.ndarray], cfg: ToleranceConfig
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(U, s, Vh, keep) per block: the full SVD of each (..., d, d) stack
    and the mask of singular values above the relative rank cutoff,
    measured per item against its largest singular value over all blocks
    (all False for a zero item)."""
    svds = [np.linalg.svd(b) for b in blocks]
    cut = cfg.rank_cutoff * functools.reduce(np.maximum, [s[..., 0] for _, s, _ in svds])
    return [(U, s, Vh, s > cut[..., None]) for U, s, Vh in svds]


def _eigh_blocks(blocks: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    for blk in blocks:
        try:
            vals, vecs = np.linalg.eigh(blk)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
            raise NumericError(f"eigendecomposition failed: {exc}") from exc
        out.append((vals, vecs))
    return out


# ---------------------------------------------------------------------------
# Functional calculus
# ---------------------------------------------------------------------------


def apply_spectral(
    x: Element, f: Callable[[np.ndarray], np.ndarray], cfg: ToleranceConfig = DEFAULT_CONFIG
) -> Element:
    """f(x) for self-adjoint x via blockwise eigendecomposition."""
    if not is_selfadjoint(x, cfg):
        raise DomainError("spectral function needs a self-adjoint element")
    eig = _eigh_blocks(hermitian_part(x).blocks)
    return Element(x.algebra, [_spectral(vals, vecs, f(vals)) for vals, vecs in eig])


def spectral_projection(
    x: Element, lo: float, hi: float = np.inf, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> Element:
    """Projection onto eigenvectors of self-adjoint x with eigenvalue in [lo, hi]."""
    return apply_spectral(x, lambda v: ((v >= lo) & (v <= hi)).astype(float), cfg)


def absolute(x: Element, power: float = 1.0) -> Element:
    """|x|**power computed from the eigendecomposition of x* x.

    Eigenvalues of the nominally positive x*x are clipped at zero before the
    fractional power; round-off negativity would otherwise poison the result.
    Eigenvalues at machine-noise level relative to the largest one are set
    to exactly zero, since fractional powers amplify them (sqrt turns 1e-16
    noise into 1e-8 junk in the kernel directions).
    """
    if power <= 0:
        raise DomainError("absolute: power must be > 0")
    grams = [_adjoint(b) @ b for b in x.blocks]
    eig = _eigh_blocks([0.5 * (g + _adjoint(g)) for g in grams])
    noise = 64.0 * np.finfo(float).eps * max(0.0, *(float(vals[-1]) for vals, _ in eig))
    return Element(
        x.algebra,
        [_spectral(vals, vecs, np.where(vals > noise, vals, 0.0) ** (power / 2.0)) for vals, vecs in eig],
    )


def positive_sqrt(x: Element, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Element:
    """Square root of a positive element (eigenvalues clipped at zero)."""
    if not is_selfadjoint(x, cfg):
        raise DomainError("positive_sqrt needs a self-adjoint element")
    return apply_spectral(x, lambda v: np.sqrt(np.clip(v, 0.0, None)), cfg)


def pseudo_inverse(x: Element, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Element:
    """Moore-Penrose inverse; singular values below the relative cutoff
    (measured against the largest singular value of the whole element) are
    treated as zero."""
    svds = _ranked_svd(x.blocks, cfg)
    if not any(keep.any() for *_, keep in svds):
        return zero_element(x.algebra)
    blocks = []
    for U, s, Vh, keep in svds:
        inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        blocks.append((Vh.conj().T * inv[None, :]) @ U.conj().T)
    return Element(x.algebra, blocks)


def polar_support(
    x: Element, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[Element, Element, Element]:
    """Polar data (u, m, s): x = u m, m = |x| positive, u a partial isometry.

    u is assembled from the singular vectors of x above the relative rank
    cutoff, so u* u equals the support projection s = s(|x|) exactly by
    construction.  For self-adjoint x the support of x itself is u* u.
    """
    us, ms, ss = [], [], []
    for U, s, Vh, keep in _ranked_svd(x.blocks, cfg):
        V = Vh.conj().T
        Ur, Vr = U[:, keep], V[:, keep]
        us.append(Ur @ Vr.conj().T)
        ms.append((V * s[None, :]) @ Vh)
        ss.append(Vr @ Vr.conj().T)
    return Element(x.algebra, us), Element(x.algebra, ms), Element(x.algebra, ss)


def support_projection(x: Element, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Element:
    return polar_support(x, cfg)[2]


# ---------------------------------------------------------------------------
# Constructions: amplification embedding, opposite representation
# ---------------------------------------------------------------------------


def block_matrix(
    algebra: AlgebraDescriptor, entries: Sequence[Sequence[Element]]
) -> Element:
    """Assemble an n x n grid of Elements of ``algebra`` into M_n(algebra).

    Consistent with the identification of n x n matrices over L^p(M) with
    L^p(M_n(M)) under the trace tr (x) tau.
    """
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise StructuralError("block_matrix needs a square grid")
    for row in entries:
        for e in row:
            if e.algebra != algebra:
                raise StructuralError("grid entry from a different algebra")
    big = []
    for k, d in enumerate(algebra.dims):
        blk = np.zeros((n * d, n * d), dtype=complex)
        for i in range(n):
            for j in range(n):
                blk[i * d : (i + 1) * d, j * d : (j + 1) * d] = entries[i][j].blocks[k]
        big.append(blk)
    return Element(amplify(algebra, n), big)


def block_entries(
    algebra: AlgebraDescriptor, n: int, x: Element
) -> list[list[Element]]:
    """Inverse of ``block_matrix``: split an M_n(algebra) element into its grid."""
    if x.algebra != amplify(algebra, n):
        raise StructuralError("element does not live in the n-fold amplification")
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            blocks = []
            for k, d in enumerate(algebra.dims):
                blocks.append(x.blocks[k][i * d : (i + 1) * d, j * d : (j + 1) * d])
            grid[i][j] = Element(algebra, blocks)
    return grid


def opposite_element(x: Element) -> Element:
    """Representation of x inside the opposite algebra: blockwise transpose.

    Anti-homomorphism law: opposite_element(x * y) == opposite_element(y) *
    opposite_element(x).
    """
    return Element(x.algebra, [b.T for b in x.blocks])
