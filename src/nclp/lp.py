"""Trace-weighted Schatten norms, duality pairing, positivity, disjointness.

The norm of x is tau(|x|^p)^(1/p), computed from the singular values per
block with the trace weights; p = inf is the plain operator norm.  Exponents
below 1 occur internally as quasi-norms (needed by the column/row formulas
for p < 2) and are not accepted on the public boundary.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    DEFAULT_CONFIG,
    DomainError,
    Element,
    StructuralError,
    ToleranceConfig,
    _adjoint,
    _nearly_selfadjoint,
)


def _schatten(svals: list[np.ndarray], weights: tuple[float, ...], p: float) -> float:
    """(sum_k w_k sum_i s_ki^p)^(1/p) from the singular values s_k of each
    block and the block weights w_k, or max_k s_k0 for p = inf.  Every
    weighted Schatten value in the package is summed here."""
    if p == np.inf:
        return max((float(s[0]) if s.size else 0.0) for s in svals)
    total = 0.0
    for w, s in zip(weights, svals):
        total += w * float(np.sum(s**p))
    return total ** (1.0 / p)


def schatten_quasi(x: Element, p: float) -> float:
    """tau(|x|^p)^(1/p) for any p > 0, or the operator norm for p = inf.

    Internal entry point: does not reject quasi-norm exponents p < 1.
    """
    if not p > 0:
        raise DomainError("exponent must be positive")
    return _schatten([np.linalg.svd(b, compute_uv=False) for b in x.blocks], x.algebra.weights, p)


def lp_norm(x: Element, p: float) -> float:
    """The p-norm of x for p in [1, inf]."""
    if p != np.inf and p < 1:
        raise DomainError("lp_norm requires p >= 1 (quasi-norms are internal only)")
    return schatten_quasi(x, p)


def conjugate_exponent(p: float) -> float:
    if p == 1:
        return np.inf
    if p == np.inf:
        return 1.0
    return p / (p - 1.0)


def duality_pair(a: Element, b: Element) -> complex:
    """Bilinear pairing <a, b> = tau(a b); satisfies |tau(ab)| <= |a|_p |b|_p'."""
    if a.algebra != b.algebra:
        raise StructuralError("pairing needs elements of one algebra")
    return complex((a * b).trace())


def hs_inner(a: Element, b: Element) -> complex:
    """Hilbertian inner product tau(a* b) (the p = 2 geometry)."""
    if a.algebra != b.algebra:
        raise StructuralError("inner product needs elements of one algebra")
    return complex((a.H * b).trace())


def _hermitian_spectrum(x: Element) -> np.ndarray:
    """Eigenvalues of the Hermitian part (x + x*)/2 over all blocks, ascending."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(0.5 * (b + _adjoint(b))) for b in x.blocks]))


def is_positive(x: Element, cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """Self-adjoint with spectrum above -algebraic_tol * operator norm."""
    scale = x.sup_norm()
    if scale == 0.0:
        return True
    if not _nearly_selfadjoint(x, cfg.algebraic_tol, scale):
        return False
    return float(_hermitian_spectrum(x)[0]) >= -cfg.algebraic_tol * scale


def disjoint(a: Element, b: Element, cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """Whether a* b and a b* both vanish, relative to the factor norms.

    The scaling by |a| |b| (operator norms) keeps the test meaningful for
    tiny elements; an absolute threshold would classify everything small as
    disjoint.
    """
    if a.algebra != b.algebra:
        raise StructuralError("disjointness needs elements of one algebra")
    na, nb = a.sup_norm(), b.sup_norm()
    if na == 0.0 or nb == 0.0:
        return True
    cross = max((a.H * b).sup_norm(), (a * b.H).sup_norm())
    return cross <= cfg.algebraic_tol * na * nb
