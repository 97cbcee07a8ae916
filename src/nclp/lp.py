"""Trace-weighted Schatten norms, duality pairing, positivity, disjointness.

The norm of x is tau(|x|^p)^(1/p), computed from the singular values per
block with the trace weights; p = inf is the plain operator norm.  Exponents
below 1 occur internally as quasi-norms (needed by the column/row formulas
for p < 2) and are not accepted on the public boundary.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import (
    DEFAULT_CONFIG,
    DomainError,
    Element,
    NumericError,
    StructuralError,
    ToleranceConfig,
    _adjoint,
    _selfadjoint,
    _sup_norms,
    _svd,
)


_TINY = np.finfo(float).tiny  # the smallest normal float


def _power_sums(svals: list[np.ndarray], weights: tuple[float, ...], p: float) -> np.ndarray:
    """sum_k w_k sum_i s_ki^p, an array over the leading axes of the s_k."""
    if len(svals) == 1 and weights[0] == 1.0:  # one unweighted block, as in the ascent's steps
        return (svals[0] ** p).sum(-1)
    return functools.reduce(np.add, [w * (s**p).sum(-1) for w, s in zip(weights, svals)])


def _schatten(svals: list[np.ndarray], weights: tuple[float, ...], p: float):
    """(sum_k w_k sum_i s_ki^p)^(1/p) from the singular values s_k of each
    block, (..., d_k) in descending order, and the block weights w_k, or
    max_k s_k0 for p = inf: a float for 1-D s_k, else an array over their
    leading axes, each root Python's pow (numpy's can differ in the last
    bit).  Every weighted Schatten value in the package is summed here.

    A sum that underflows to 0 or a subnormal, or overflows, is summed again
    with the s_k divided by the element's top singular value t, which comes
    back as t (sum_k w_k sum_i (s_ki / t)^p)^(1/p): every other sum is left
    as it was, so the guard costs one test on the sums.  A caller that can
    pass singular values past about 1e100 runs it with numpy's overflow
    warning off, as ``_solve`` and ``_norms`` do; ``maps._norming_duals``,
    called on every ascent step, does not."""
    if p == np.inf:
        total, root = functools.reduce(np.maximum, [s[..., 0] for s in svals]), 1.0
    else:
        total, root = _power_sums(svals, weights, p), 1.0 / p
    sums = total.ravel().tolist()
    values = [t**root for t in sums]
    if p != np.inf and not _TINY <= min(sums) <= max(sums) < np.inf:
        top = functools.reduce(np.maximum, [s[..., 0] for s in svals])
        unit = np.where(top > 0.0, top, 1.0)[..., None]
        with np.errstate(invalid="ignore"):  # inf / inf: the sum stays nan, as it was
            scaled = _power_sums([s / unit for s in svals], weights, p).ravel().tolist()
        values = [v if _TINY <= t < np.inf else u * r**root
                  for v, t, u, r in zip(values, sums, top.ravel().tolist(), scaled)]
    if total.ndim == 0:
        return values[0]
    return np.array(values).reshape(total.shape)


def _unit_shifts(top: np.ndarray):
    """Per row with largest entry or norm ``top``, the k with 4^k top in
    [1/2, 2) where top lies outside [2^-256, 2^256], else 0 (also for 0, inf
    and nan), within [-511, 511] so that 4^k and 4^-k are normal floats; None
    when every row lies inside, which one min and one max decide.  A row
    solved as 4^k x meets no product or square outside the float range, and
    a power of two rounds nothing: its norms come back as 4^-k times those
    of 4^k x, its factors x = a b as 2^-k times theirs."""
    if 2.0 ** -256 <= top.min() and top.max() <= 2.0 ** 256:
        return None
    far = (top < 2.0 ** -256) | (top > 2.0 ** 256)
    return np.where(far, np.clip(-(np.frexp(top)[1] // 2), -511, 511), 0)


@np.errstate(over="ignore")  # ``_schatten`` sums an overflowing element again, scaled
def _norms(stacks: list[np.ndarray], weights: tuple[float, ...], p: float):
    """``schatten_quasi`` of each element given blockwise as (..., d_k, d_k) stacks."""
    return _schatten([_svd(S, False) for S in stacks], weights, p)


def schatten_quasi(x: Element, p: float) -> float:
    """tau(|x|^p)^(1/p) for any p > 0, or the operator norm for p = inf.

    Internal entry point: does not reject quasi-norm exponents p < 1.
    """
    if not p > 0:
        raise DomainError("exponent must be positive")
    if np.isnan(value := _norms(x.blocks, x.algebra.weights, p)):  # LAPACK's answer to an inf entry
        raise NumericError(f"the {p}-norm is nan, most likely from a non-finite (inf) entry")
    return value


def lp_norm(x: Element, p: float) -> float:
    """The p-norm of x for p in [1, inf]."""
    if not p >= 1:  # also rejects nan
        raise DomainError(f"lp_norm requires p >= 1 (quasi-norms are internal only), got p = {p}")
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


def _positive(stacks: list[np.ndarray], cfg: ToleranceConfig, sup=None) -> np.ndarray:
    """``is_positive`` of each element given blockwise as (..., d_k, d_k)
    stacks: |x - x*| <= tol * |x|, then (only if some element passes) the
    Hermitian part's lowest eigenvalue >= -tol * |x|, with (|x|, |x - x*|)
    from ``algebra._selfadjoint`` or, in the pair verdicts, the one batched
    SVD that gives them every scale (``sup``).  Every positivity verdict in
    the package, the Choi test, the probes of ``maps`` and the declarations
    of instance files included, is decided here."""
    scale, defect = _selfadjoint(stacks) if sup is None else sup
    if np.isnan(scale).any():  # LAPACK's answer to an inf entry
        raise NumericError("positivity test on an element with a non-finite (inf) entry")
    ok = defect <= cfg.algebraic_tol * scale
    if ok.any():
        spectra = [np.linalg.eigvalsh(0.5 * (S + _adjoint(S)))[..., 0] for S in stacks]
        ok &= functools.reduce(np.minimum, spectra) >= -cfg.algebraic_tol * scale
    return ok


def is_positive(x: Element, cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """Self-adjoint with spectrum above -algebraic_tol * operator norm."""
    return bool(_positive(x.blocks, cfg))


def _disjoint(na: np.ndarray, nb: np.ndarray, cross: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """``disjoint`` from the operator norms |a|, |b| and max(|a* b|, |a b*|),
    read from one batched SVD per block, batched over any shape."""
    return (cross <= cfg.algebraic_tol * na * nb) | (na == 0.0) | (nb == 0.0)


def disjoint(a: Element, b: Element, cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """Whether a* b and a b* both vanish, relative to the factor norms.

    The scaling by |a| |b| (operator norms) keeps the test meaningful for
    tiny elements; an absolute threshold would classify everything small as
    disjoint.
    """
    if a.algebra != b.algebra:
        raise StructuralError("disjointness needs elements of one algebra")
    na, nb, *cross = _sup_norms([np.stack((x, y, _adjoint(x) @ y, x @ _adjoint(y)))
                                 for x, y in zip(a.blocks, b.blocks)])
    return bool(_disjoint(na, nb, np.maximum(*cross), cfg))
