"""Linear maps between trace-weighted block algebras.

A map is stored as a dense complex matrix over the coordinate bases of the
block spaces (row-major within each block, blocks concatenated), together
with the exponent p giving its norm semantics.  The module provides
application, trace-duality adjoints, norm enclosures, the positivity
hierarchy (positive / 2-positive / completely positive via component Choi
matrices, 2-positivity read as positivity of the 2-amplification; every
verdict, the seeded rank-one probes included, comes from the one test
``lp._positive``), amplification, and a library of constructors that
write their action matrix directly, as coordinate copies or sums of
kron(v, conj v).
``map_from_function`` (evaluation on every matrix unit) is their reference.
``_norm_bounds`` is the one enclosure of the norm read from T, for
``op_norm`` and ``certify``: closed forms at p = 2 and for positive maps at
p = 1 and inf, and for a completely (co)positive map one Boyd ascent on the
positive cone and the Lieb-concavity bound (``_cp_norm``).  Where it stays
open, sampled lower bounds come from Boyd's power method, run from a stack
of starts at once, the rows of one coordinate array: each step takes two
matrix products and, per block, two batched SVDs (T x and T* z), and each
start leaves the stack at its fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .algebra import (
    DEFAULT_CONFIG,
    AlgebraDescriptor,
    DomainError,
    Element,
    NumericError,
    StructuralError,
    ToleranceConfig,
    _adjoint,
    _eigh_blocks,
    _ranked_svd,
    _sup_norms,
    amplify,
    basis,
    diagonal_algebra,
    identity,
    matrix_algebra,
    polar_support,
)
from .lp import _norms, _positive, _schatten, _unit_shifts, conjugate_exponent, is_positive, lp_norm
from .sampling import ginibre, rng_from, wishart
from .sequences import UNDETERMINED, NormInterval


def vec(x: Element) -> np.ndarray:
    return np.concatenate([b.reshape(-1) for b in x.blocks])


def unvec(algebra: AlgebraDescriptor, v: np.ndarray) -> Element:
    if v.shape != (algebra.coord_dim,):
        raise StructuralError("coordinate vector has wrong length")
    return Element(algebra, [v[s].reshape(d, d) for d, s in zip(algebra.dims, algebra.slices)])


def coord_weights(algebra: AlgebraDescriptor) -> np.ndarray:
    """Trace weight attached to each coordinate (w_k repeated d_k^2 times)."""
    out = np.empty(algebra.coord_dim)
    for s, w in zip(algebra.slices, algebra.weights):
        out[s] = w
    return out


def _transposed_coords(algebra: AlgebraDescriptor) -> np.ndarray:
    """Coordinate index of e_ji for each matrix unit e_ij (an involution)."""
    return np.concatenate(
        [np.arange(s.start, s.stop).reshape(d, d).T.reshape(-1) for d, s in zip(algebra.dims, algebra.slices)]
    )


def _block_stacks(algebra: AlgebraDescriptor, rows: np.ndarray) -> list[np.ndarray]:
    """Split coordinate rows (m, coord_dim) into one (m, d, d) stack per block."""
    return [np.ascontiguousarray(rows[:, s]).reshape(-1, d, d) for d, s in zip(algebra.dims, algebra.slices)]


@dataclass
class LinearMap:
    """T: L^p(domain) -> L^p(codomain), given by its coordinate action."""

    domain: AlgebraDescriptor
    codomain: AlgebraDescriptor
    action: np.ndarray
    p: float = 2.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.action = np.ascontiguousarray(self.action, dtype=complex)
        want = (self.codomain.coord_dim, self.domain.coord_dim)
        if self.action.shape != want:
            raise StructuralError(
                f"action shape {self.action.shape} does not match {want}"
            )

    def __call__(self, x: Element) -> Element:
        if x.algebra != self.domain:
            raise StructuralError("element is not in the domain of the map")
        return unvec(self.codomain, self.action @ vec(x))

    def __repr__(self) -> str:
        kind = self.meta.get("kind", "linear")
        return f"LinearMap({kind}: {self.domain!r} -> {self.codomain!r}, p={self.p:g})"


def apply_map(T: LinearMap, x: Element) -> Element:
    return T(x)


def _unit_images(T: LinearMap) -> list[np.ndarray]:
    """T(e_a) for every domain matrix unit e_a, as one (D, c_l, c_l) stack per
    codomain block l; column a of the action is vec(T(e_a))."""
    return _block_stacks(T.codomain, T.action.T)


def _map_from_images(
    domain: AlgebraDescriptor,
    codomain: AlgebraDescriptor,
    images: list[np.ndarray],
    p: float,
    meta: Optional[dict] = None,
) -> LinearMap:
    """Inverse of ``_unit_images``: the map sending e_a to the a-th images."""
    D = domain.coord_dim
    cols = np.concatenate([S.reshape(D, -1) for S in images], axis=1)
    return LinearMap(domain, codomain, cols.T, p, dict(meta or {}))


def map_from_function(
    domain: AlgebraDescriptor,
    codomain: AlgebraDescriptor,
    fn: Callable[[Element], Element],
    p: float = 2.0,
    meta: Optional[dict] = None,
) -> LinearMap:
    cols = [vec(fn(e)) for e in basis(domain)]
    return LinearMap(domain, codomain, np.array(cols).T, p, dict(meta or {}))


def identity_map(algebra: AlgebraDescriptor, p: float = 2.0) -> LinearMap:
    return LinearMap(algebra, algebra, np.eye(algebra.coord_dim), p, {"kind": "identity"})


def compose(S: LinearMap, T: LinearMap) -> LinearMap:
    if T.codomain != S.domain:
        raise StructuralError("composition domains do not match")
    return LinearMap(T.domain, S.codomain, S.action @ T.action, T.p)


def scale_map(T: LinearMap, c: complex) -> LinearMap:
    meta = dict(T.meta)
    if split := _convex_split(T):
        t, T1, T2 = split
        meta["convex_parts"] = (t, scale_map(T1, c), scale_map(T2, c))
    return LinearMap(T.domain, T.codomain, c * T.action, T.p, meta)


def add_maps(S: LinearMap, T: LinearMap) -> LinearMap:
    if S.domain != T.domain or S.codomain != T.codomain:
        raise StructuralError("sum needs maps with equal domain and codomain")
    return LinearMap(S.domain, S.codomain, S.action + T.action, T.p)


def adjoint_map(T: LinearMap, p: Optional[float] = None) -> LinearMap:
    """The trace-duality adjoint: tau(T(x) y) = tau(x T*(y)) for all x, y.

    The pairing is bilinear (no conjugation): tau(x y) = vec(x)^T K vec(y)
    with K = diag(w) P, P the transposition of coordinates.  So the adjoint
    action K_dom^{-1} A^T K_cod is A^T with both coordinate sets transposed,
    its columns scaled by the codomain weights and its rows divided by the
    domain weights.  The returned map carries the conjugate exponent.
    """
    p = T.p if p is None else p
    At = T.action[_transposed_coords(T.codomain)][:, _transposed_coords(T.domain)].T
    A_star = (At * coord_weights(T.codomain)[None, :]) / coord_weights(T.domain)[:, None]
    meta = {"kind": "adjoint", "of": T.meta.get("kind")}
    return LinearMap(T.codomain, T.domain, A_star, conjugate_exponent(p), meta)


# ---------------------------------------------------------------------------
# Norm enclosure
# ---------------------------------------------------------------------------


def _weighted_action(T: LinearMap) -> np.ndarray:
    wd = np.sqrt(coord_weights(T.domain))
    wc = np.sqrt(coord_weights(T.codomain))
    return (T.action * wc[:, None]) / wd[None, :]


def _norming_duals(
    algebra: AlgebraDescriptor, rows: np.ndarray, p: float, cfg: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(|y|_p, z, f) for each coordinate row y of ``rows`` (m, coord_dim): z
    the row with tau(z y) = |y|_p and |z|_{p'} = 1 (z = 0 for y = 0), from
    one batched SVD y_k = U s V* per block: z_k = V_r f_k U_r* with
    f_k = (s_r / |y|_p)^(p-1) over the singular values above the rank cutoff
    (f_k = 1 at p = 1), and at p = inf the rank-one term v u* / w_k at the
    top singular pair of the block holding the largest singular value.  The
    f_k, (m, d_k) in descending order, are the singular values of z_k."""
    svds = _ranked_svd(_block_stacks(algebra, rows), cfg)
    ny = _schatten([s for _, s, _, _ in svds], algebra.weights, p)
    if p == np.inf:
        top = np.argmax(np.stack([s[:, 0] for _, s, _, _ in svds]), axis=0)
    scale = np.where(ny > 0, ny, 1.0)[:, None]
    Z = np.zeros(rows.shape, dtype=complex)
    fs = []
    for k, ((U, s, Vh, keep), w, sl) in enumerate(zip(svds, algebra.weights, algebra.slices)):
        if p == np.inf:
            f = np.where(keep & (top[:, None] == k) & (np.arange(s.shape[1]) == 0), 1.0 / w, 0.0)
        else:
            f = np.where(keep, (s / scale) ** (p - 1.0), 0.0)
        Z[:, sl] = ((_adjoint(Vh) * f[:, None, :]) @ _adjoint(U)).reshape(len(rows), -1)
        fs.append(f)
    return ny, Z, fs


def _boyd_ascent(
    T: LinearMap, p: float, cfg: ToleranceConfig, iters: int, X0: np.ndarray, stop=None
) -> tuple[np.ndarray, np.ndarray]:
    """Nonlinear power iteration (Boyd, Linear Algebra Appl. 9, 1974) for
    the p -> p ratio, run from every coordinate row of X0 (m, coord_dim) at
    once for at most ``iters`` steps: z is the norming dual of T x, and the
    next x the norming dual of T* z.  Each step's value |T x|_p / |x|_p is
    a valid lower bound, and the values never fall: for |x|_p = 1, Hoelder
    twice gives
        |T x|_p = tau(x T* z) <= |T* z|_{p'} = tau(T x' z) <= |T x'|_p.
    So a step that does not raise a start's value finds it at its fixed
    point to rounding, and the start leaves the stack.  After the first
    step |x|_p comes from the singular values of the norming dual.
    Returns each start's best value and its argument row scaled to norm
    one; a start that T sends to zero (a zero start too) gets value 0 and a
    zero row.  A value that overflows raises NumericError.  ``stop``, if
    given, sees (step, values, rows) after every step and ends the ascent
    by returning True."""
    dom, T_adj = T.domain, adjoint_map(T, p)
    X = np.array(X0, dtype=complex)
    best, arg = np.zeros(len(X)), np.zeros_like(X)
    live = np.arange(len(X))
    nx = _norms(_block_stacks(dom, X), dom.weights, p)
    for step in range(iters):
        ny, Z, _ = _norming_duals(T.codomain, X @ T.action.T, p, cfg)
        value = ny / np.where(nx > 0, nx, 1.0)
        bad = ~(np.isfinite(value) & np.isfinite(nx))
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericError(f"operator-norm ascent overflowed: |T x|_p = {ny[i]}, |x|_p = {nx[i]}")
        up = value > best[live]
        live, X, Z, nx = live[up], X[up], Z[up], nx[up]
        best[live], arg[live] = value[up], X / nx[:, None]
        if (stop is not None and stop(step, best, arg)) or not live.size or step == iters - 1:
            break
        _, X, f = _norming_duals(dom, Z @ T_adj.action.T, T_adj.p, cfg)
        nx = _schatten(f, dom.weights, p)
    return best, arg


def _norm_search(T: LinearMap, p: float, cfg: ToleranceConfig, extra=()) -> tuple[np.ndarray, np.ndarray]:
    """Lower endpoints of the L^p -> L^p norm, each with its argument as a
    coordinate row of norm one.  At p = 2 the one row is the top right
    singular vector of the weighted action, unweighted, and its value is the
    norm.  Otherwise one stacked Boyd ascent (at most 30 steps) from the
    identity, six seeded draws and the rows of ``extra``."""
    if p == 2:
        _, s, Vh = np.linalg.svd(_weighted_action(T))
        return s[:1], (Vh[0].conj() / np.sqrt(coord_weights(T.domain)))[None, :]
    rng = rng_from(cfg.seed, 8000)
    draws = [np.concatenate([draw(rng, d).reshape(-1) for d in T.domain.dims])
             for draw in (ginibre, wishart) * 3]
    return _boyd_ascent(T, p, cfg, 30, np.stack([vec(identity(T.domain)), *draws, *extra]))


# ``_cp_norm`` checks its certificate every CP_CHECK steps of an ascent of at
# most CP_STEPS steps.  Its point is mixed with the least multiple
# eps >= CP_MIX of each block's top eigenvalue (eps^2 on a zero block) that
# keeps every divided difference of t^r within a factor CP_GAIN of the one
# at that top eigenvalue, which bounds the rounding allowance
CP_MIX, CP_GAIN, CP_CHECK, CP_STEPS = 1e-12, 5e6, 5, 150
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), the relative error bound of an
    n-term inner product (Accuracy and Stability of Numerical Algorithms,
    2002, section 3.1)."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _divided_differences(lam: np.ndarray, r: float) -> np.ndarray:
    """(a^r - b^r) / (a - b) over all pairs a, b of the positive values lam,
    and r a^(r-1) on ties.  For a >= b it is b^(r-1) expm1(r log1p(d)) / d
    with d = (a - b) / b, which cancels nothing: each entry is good to a
    few units in the last place."""
    a, b = np.maximum.outer(lam, lam), np.minimum.outer(lam, lam)
    d = (a - b) / b
    safe = np.where(d > 0, d, 1.0)
    return b ** (r - 1.0) * np.where(d > 0, np.expm1(r * np.log1p(safe)) / safe, r)


def _cp_spectra(algebra: AlgebraDescriptor, row: np.ndarray, p: float):
    """Per block (lam, V): the eigenvalues of z^p over the largest over all
    blocks, and the eigenvectors, for the positive coordinate row z (its
    Hermitian part, clipped at 0); None for z = 0."""
    eig = [(np.maximum(vals[0], 0.0) ** p, vecs[0]) for vals, vecs in
           _eigh_blocks([0.5 * (S + _adjoint(S)) for S in _block_stacks(algebra, row[None])])]
    top = max(float(lam.max()) for lam, _ in eig)
    return [(lam / top, V) for lam, V in eig] if top > 0 else None


def _cp_point(spectra, eps: float, r: float):
    """The point Z of ``_cp_norm_upper`` from ``_cp_spectra``: each block's
    eigenvalues raised by eps times its top one (eps^2 on a zero block).
    Returns per block the eigenvectors V, the eigenvalues of Z and
    e = |V* V - 1|_F + gamma_d, V's distance from a unitary; the coordinate
    row of Z^r; and per block the bound (2 e + gamma_(d+2)) max lam^r on
    that row's rounding error."""
    points, roots, errs = [], [], []
    for lam, V in spectra:
        top = float(lam.max())
        lam = lam + (eps * top if top > 0 else eps * eps)
        d = len(lam)
        e = float(np.linalg.norm(_adjoint(V) @ V - np.eye(d))) + _gamma(d)
        points.append((V, lam, e))
        roots.append(((V * lam ** r) @ _adjoint(V)).reshape(-1))
        errs.append((2.0 * e + _gamma(d + 2)) * float(lam.max()) ** r)
    return points, np.concatenate(roots), errs


def _cp_norm_upper(T: LinearMap, p: float, x: np.ndarray, cfg: ToleranceConfig):
    """Certified upper bound on |T|_p, 1 < p < inf, for a completely
    positive T, evaluated once at the point built from the positive
    coordinate row x: (bound, the bound without its rounding allowance), or
    the reason for rejecting it.

    Proof.  For 2-positive T and any x, [[|x*|, x], [x*, |x|]] >= 0 maps to
    a positive matrix, so T(x) = T(|x*|)^(1/2) K T(|x|)^(1/2) with |K| <= 1,
    and Hoelder gives |T x|_p <= |T |x*| |_p^(1/2) |T |x| |_p^(1/2): |T|_p
    is a sup over x >= 0 (Audenaert, Linear Algebra Appl. 430, 2009).  With
    X = x^p, Y = y^p' and tau(X) = tau(Y) = 1 it is the max of
        F(X, Y) = tau(Y^(1/p') T(X^(1/p))),
    whose Kraus terms w_l tr(K* Y_l^(1/p') K X_k^(1/p)) are jointly concave
    (Lieb, Adv. Math. 11, 1973), so F is concave and 1-homogeneous.  At
    any X, Y > 0, concavity and Euler's identity <grad F, (X, Y)> = F give
    F(X', Y') <= tau(G_X X') + tau(G_Y Y') <= s_X + s_Y on the feasible
    set, s(G) = max(0, max_k lambda_max(G_k)).  The same at (a X, b Y),
    minimised over a, b > 0, is the Frank-Wolfe bound
        |T|_p <= (p s_X)^(1/p) (p' s_Y)^(1/p'),
    which is invariant under (X, Y) -> (a X, b Y) and an equality at an
    interior maximiser.  By Daleckii-Krein, in the eigenbasis X = V L V*,
    G_X = V (Gamma o V* A V) V* with A = T*(Y^(1/p')) and Gamma the divided
    differences of t^(1/p) at L; G_Y likewise with C = T(X^(1/p)).

    The point is X = x^p and Y = (T x)^p, each scaled to top eigenvalue 1
    and mixed per block (``_cp_point``); any point gives a valid bound, so
    none is searched for.  Rounding allowance, added to each block's top
    eigenvalue (Weyl): with e the unitarity defect of V, dM the error bound
    gamma_(D+2) |action| |row| + |action| (row error) of the product A or
    C, and Gamma_max = max Gamma,
        Gamma_max (|dM|_F + (4 e + gamma_(2d+2)) |M|_F)
          + (16 u + 2 e + gamma_(2d)) |Gamma o B|_F + gamma_(4d) |G|_F,
    which covers V against its nearest unitary, the two products with V,
    Gamma's few ulps and eigvalsh's backward error; the two powers and the
    product then take a factor 1 + 8u.  A non-finite gradient, or one whose
    anti-Hermitian part exceeds twice its allowance plus algebraic_tol |G|_F,
    is rejected."""
    q = p / (p - 1.0)
    spectra = [_cp_spectra(T.domain, x, p), _cp_spectra(T.codomain, T.action @ x, p)]
    if None in spectra:
        return "zero point"
    # the least eps >= CP_MIX with (lam_min / lam_max + eps)^(r-1) <= CP_GAIN on every block
    eps = CP_MIX
    for spec, r in zip(spectra, (1.0 / p, 1.0 / q)):
        for lam, _ in spec:
            if lam.max() > 0:
                eps = max(eps, CP_GAIN ** (1.0 / (r - 1.0)) - lam.min() / lam.max())
    (px, xr, ex), (py, yr, ey) = _cp_point(spectra[0], eps, 1.0 / p), _cp_point(spectra[1], eps, 1.0 / q)
    sigmas, raws = [], []
    for points, S, row, errs, src, dst, r in ((px, adjoint_map(T, p), yr, ey, T.codomain, T.domain, 1.0 / p),
                                              (py, T, xr, ex, T.domain, T.codomain, 1.0 / q)):
        row_err = np.concatenate([np.full(d * d, err) for d, err in zip(src.dims, errs)])
        M, absA = S.action @ row, np.abs(S.action)
        dM = _gamma(len(row) + 2) * (absA @ (np.abs(row) + row_err)) + absA @ row_err
        top = raw = 0.0
        for (V, lam, e), sl, d in zip(points, dst.slices, dst.dims):
            Mk = M[sl].reshape(d, d)
            Gam = _divided_differences(lam, r)
            GB = Gam * (_adjoint(V) @ Mk @ V)
            G = V @ GB @ _adjoint(V)
            nM, nGB, nG = (float(np.linalg.norm(a)) for a in (Mk, GB, G))
            allow = (float(Gam.max()) * (float(np.linalg.norm(dM[sl])) + (4 * e + _gamma(2 * d + 2)) * nM)
                     + (16 * _UNIT_ROUNDOFF + 2 * e + _gamma(2 * d)) * nGB + _gamma(4 * d) * nG)
            if not (np.isfinite(G).all() and np.isfinite(allow)):
                return "non-finite gradient"
            if float(np.linalg.norm(G - _adjoint(G))) > 2 * allow + cfg.algebraic_tol * nG:
                return "non-Hermitian gradient"
            lmax = float(np.linalg.eigvalsh(0.5 * (G + _adjoint(G)))[-1])
            top, raw = max(top, lmax + allow), max(raw, lmax)
        sigmas.append(top)
        raws.append(raw)
    bound = (p * sigmas[0]) ** (1.0 / p) * (q * sigmas[1]) ** (1.0 / q) * (1.0 + 8 * _UNIT_ROUNDOFF)
    return bound, (p * raws[0]) ** (1.0 / p) * (q * raws[1]) ** (1.0 / q)


def _cp_norm(T: LinearMap, p: float, cfg: ToleranceConfig, transposed: bool = False) -> tuple[float, float, dict]:
    """Enclosure (lower, upper, evidence) of |T|_p, 1 < p < inf, for a
    completely positive T, or with ``transposed`` for a completely
    copositive one through theta T (theta the blockwise transpose, an
    isometry at every p).  One positive-cone Boyd ascent from the identity
    (a positive map keeps x >= 0), of at most CP_STEPS steps: every
    CP_CHECK steps and at its end, the lower endpoint is the best of
    |T x|_p / |x|_p and of x restricted to each domain block, and the upper
    endpoint the least ``_cp_norm_upper`` so far; the ascent stops once they
    meet within opt_tol, or at a rejected bound (upper endpoint inf)."""
    if transposed:
        T = LinearMap(T.domain, T.codomain, T.action[_transposed_coords(T.codomain)], p)
    dom = T.domain
    masks = np.repeat(np.eye(len(dom.dims), dtype=bool), [d * d for d in dom.dims], axis=1)
    state = {"lower": 0.0, "upper": np.inf, "raw_upper": np.inf, "steps": 0}

    def check(value: float, x: np.ndarray) -> bool:
        if len(dom.dims) > 1:  # each block's part of x alone is a lower endpoint too
            R = masks * x
            nx = _norms(_block_stacks(dom, R), dom.weights, p)
            ny = _norms(_block_stacks(T.codomain, R @ T.action.T), T.codomain.weights, p)
            value = max(value, float(np.max(np.where(nx > 0, ny, 0.0) / np.where(nx > 0, nx, 1.0))))
        state["lower"] = max(state["lower"], value)
        bound = _cp_norm_upper(T, p, x, cfg)
        if isinstance(bound, str):
            state["rejected"], state["upper"] = bound, np.inf
            return True
        state["upper"], state["raw_upper"] = min(state["upper"], bound[0]), min(state["raw_upper"], bound[1])
        return state["upper"] - state["lower"] <= cfg.opt_tol * state["upper"]

    def stop(step: int, values: np.ndarray, rows: np.ndarray) -> bool:
        state["steps"] = step + 1
        state["done"] = (step + 1) % CP_CHECK == 0 and check(float(values[0]), rows[0])
        return state["done"]

    values, rows = _boyd_ascent(T, p, cfg, CP_STEPS, vec(identity(dom))[None], stop)
    if not state.pop("done") and state["steps"] % CP_CHECK:  # the last row is not checked yet
        check(float(values[0]), rows[0])
    return state["lower"], state["upper"], state


def _norm_bounds(T: LinearMap, p: float, cfg: ToleranceConfig, choi: Optional[dict]) -> tuple[float, float, dict]:
    """Enclosure (lower, upper, meta) of |T|_p read from T alone, shared by
    ``op_norm`` and ``certify``.  ``choi`` is the caller's ``choi_positivity``
    verdict, from which ``_positivity_route`` decides ``positive`` (None
    claims no positivity); meta holds the upper endpoint's ``method``,
    ``positive`` and, for a CP or co-CP map, ``_cp_norm``'s ``lieb``
    evidence.  At p = 2 the weighted SVD, attained; else the p = 2 norm
    factored and interpolated, lower endpoint 0.  A positive map takes the
    unit evaluations |T*(1)|_inf^(1/p) |T(1)|_inf^(1-1/p) when smaller, and
    at p = inf the lower endpoint |T(1)|_inf, attained at 1.  At p = 1 it
    takes |T(P)|_1 / |P|_1 for P = v v*, v a unit top eigenvector of T*(1)
    in its block k: T(P) >= 0 gives |T(P)|_1 = tau(T(P)) = tau(P T*(1)) =
    w_k lambda_max and |P|_1 = w_k, and T*(1) >= 0 gives lambda_max =
    |T*(1)|_inf, so both endpoints are |T*(1)|_inf.  A CP or co-CP map at
    1 < p < inf takes ``_cp_norm``, its upper endpoint when smaller
    ("lieb_concavity")."""
    positive = choi is not None and _positivity_route(T, choi, cfg) is not None
    n2 = float(np.linalg.norm(_weighted_action(T), 2))
    if p == 2:
        return n2, n2, {"method": "weighted_svd", "positive": positive}
    # crude but certified: factor through p = 2 and interpolate.
    # |x|_2 <= |x|_1 / sqrt(w_min) and |y|_1 <= sqrt(tau(1)) |y|_2 give a
    # 1 -> 1 bound; the symmetric estimate handles inf -> inf; any finite
    # dimensional operator interpolates between its endpoint bounds.
    # (at p = 1 and p = inf the interpolation returns an endpoint exactly)
    crude1 = np.sqrt(T.codomain.trace_of_identity / min(T.domain.weights)) * n2
    crude_inf = np.sqrt(T.domain.trace_of_identity / min(T.codomain.weights)) * n2
    lower, upper = 0.0, float(crude1 ** (1.0 / p) * crude_inf ** (1.0 - 1.0 / p))
    endpoint = p in (1, np.inf)
    meta = {"method": "crude_factorization" if endpoint else "crude_interpolation", "positive": positive}
    if positive:
        adj_one = adjoint_map(T, 1)(identity(T.codomain))
        n1, ninf = lp_norm(adj_one, np.inf), lp_norm(T(identity(T.domain)), np.inf)
        pos_upper = n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p)
        if pos_upper < upper:
            upper = float(pos_upper)
            meta["method"] = "positive_unit" if endpoint else "positive_interpolation"
        if p == 1:
            eig = _eigh_blocks([0.5 * (b + _adjoint(b)) for b in adj_one.blocks])
            k = int(np.argmax([vals[-1] for vals, _ in eig]))
            v = eig[k][1][:, -1]
            P = Element(T.domain, [np.outer(v, v.conj()) if j == k else np.zeros((d, d))
                                   for j, d in enumerate(T.domain.dims)])
            lower = lp_norm(T(P), 1) / lp_norm(P, 1)
        elif p == np.inf:
            lower = ninf
    if choi and (choi["cp"] or choi["co_cp"]) and 1 < p < np.inf:
        lower, cp_upper, meta["lieb"] = _cp_norm(T, p, cfg, transposed=not choi["cp"])
        if cp_upper < upper:
            upper, meta["method"] = cp_upper, "lieb_concavity"
    return lower, upper, meta


def op_norm(T: LinearMap, p: Optional[float] = None, cfg: ToleranceConfig = DEFAULT_CONFIG) -> NormInterval:
    """Enclosure of the L^p -> L^p operator norm: ``_norm_bounds`` (with
    ``choi_positivity`` off p = 2), raised where it stays open by the best
    value of ``_norm_search``.  A lower endpoint above the upper one (by
    rounding) is clipped and kept as meta["search_above_upper"].  An action
    whose largest entry lies far from 1 is enclosed as 4^k T (``_unit_shifts``)
    and its endpoints scaled back by 4^-k."""
    p = T.p if p is None else p
    if not p >= 1:  # also rejects nan
        raise DomainError(f"op_norm needs p >= 1, got p = {p}")
    if k := int(_unit_shifts(np.abs(T.action).max()) or 0):
        T = scale_map(T, np.ldexp(1.0, 2 * k))
    lower, upper, bounds = _norm_bounds(T, p, cfg, choi_positivity(T, cfg) if p != 2 else None)
    if not upper - lower <= cfg.opt_tol * upper < np.inf:  # open, or upper = inf
        lower = max(lower, float(_norm_search(T, p, cfg)[0].max()))
    certified = upper < np.inf and (upper - lower) <= cfg.opt_tol * max(upper, 1e-300)
    back = float(np.ldexp(1.0, -2 * k))
    meta = {"method": bounds["method"]}
    if lower > upper:  # by rounding: the interval is clipped, the value kept here
        meta["search_above_upper"] = lower * back
    return NormInterval(min(lower, upper) * back, upper * back, certified, meta=meta)


# ---------------------------------------------------------------------------
# Positivity hierarchy
# ---------------------------------------------------------------------------

CERTIFIED = "certified"
FALSIFIED = "falsified"


@dataclass
class PositivityVerdict:
    status: str
    witness: Optional[Element] = None
    evidence: dict = field(default_factory=dict)


def choi_components(T: LinearMap) -> list[list[np.ndarray]]:
    """Choi matrices of the block components T_lk: M_{d_k} -> M_{c_l}.

    The map is completely positive exactly when every component matrix is
    positive semidefinite; direct sums split complete positivity blockwise.
    """
    comps = []
    for S, c in zip(_unit_images(T), T.codomain.dims):
        # T(e_ij)_l, at index i d + j of block k's slice, sits at rows i c..,
        # columns j c.. of C
        comps.append([
            S[s].reshape(d, d, c, c).transpose(0, 2, 1, 3).reshape(d * c, d * c)
            for d, s in zip(T.domain.dims, T.domain.slices)
        ])
    return comps


def is_completely_positive(
    T: LinearMap, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[bool, float]:
    """The "cp" verdict of ``choi_positivity``, with the smallest eigenvalue
    of the Hermitian parts of the component Choi matrices as evidence."""
    worst = min(float(np.linalg.eigvalsh(0.5 * (C + _adjoint(C)))[0])
                for row in choi_components(T) for C in row)
    return choi_positivity(T, cfg)["cp"], worst


def choi_positivity(T: LinearMap, cfg: ToleranceConfig = DEFAULT_CONFIG) -> dict:
    """Exact verdicts from the component Choi matrices C_lk, as bools: "cp"
    (every C_lk is positive semidefinite), "co_cp" (so is every C_lk
    transposed on its M_{c_l} factor: x -> T(x)^T is CP) and "positive"
    (every component T_lk is CP or co-CP, which proves T positive because
    T(x)_l = sum_k T_lk(x_k); a positive component that is neither, such as
    a hom plus an anti copy of one block, is missed).  Each C_lk and its
    partial transpose are judged as one stack by ``lp._positive``, each
    relative to its own norm."""
    cp = co_cp = positive = True
    for row, c in zip(choi_components(T), T.codomain.dims):
        for C, d in zip(row, T.domain.dims):
            C_co = C.reshape(d, c, d, c).transpose(0, 3, 2, 1).reshape(d * c, d * c)
            a, b = _positive([np.stack([C, C_co])], cfg).tolist()
            cp, co_cp, positive = cp and a, co_cp and b, positive and (a or b)
    return {"cp": cp, "co_cp": co_cp, "positive": positive}


def _rank_one_positives(algebra: AlgebraDescriptor, rng: np.random.Generator, count: int) -> np.ndarray:
    """Coordinate rows of rank-one positives psi psi*, the extreme rays of
    the cone: one on each block alone, then ``count`` with one on every
    block."""
    n = len(algebra.dims)
    X = np.zeros((n + count, algebra.coord_dim), dtype=complex)
    for k, (d, s) in enumerate(zip(algebra.dims, algebra.slices)):
        psi = rng.standard_normal((1 + count, d)) + 1j * rng.standard_normal((1 + count, d))
        outer = (psi[:, :, None] * psi[:, None, :].conj()).reshape(1 + count, d * d)
        X[k, s], X[n:, s] = outer[0], outer[1:]
    return X


def _convex_split(T: LinearMap, cfg: ToleranceConfig = DEFAULT_CONFIG):
    """The split (t, T1, T2) that ``convex_combination`` recorded, or None: at
    once where none is (a map read from a file), and unless 0 <= t <= 1, T1 and
    T2 act between T's algebras and t A1 + (1 - t) A2 is T's action to algebraic_tol relative."""
    split = T.meta.get("convex_parts")
    if split is None or not 0 <= split[0] <= 1 or any(
            S.domain != T.domain or S.codomain != T.codomain for S in split[1:]):
        return None
    t, T1, T2 = split
    defect = np.linalg.norm(t * T1.action + (1 - t) * T2.action - T.action)
    return split if defect <= cfg.algebraic_tol * np.linalg.norm(T.action) else None


def _positivity_route(T: LinearMap, choi: dict, cfg: ToleranceConfig) -> Optional[str]:
    """How T is proved positive, given its ``choi_positivity`` verdict: "choi",
    or "convex_split" where the Choi test proves a checked split's parts positive."""
    if choi["positive"]:
        return "choi"
    split = _convex_split(T, cfg)
    return "convex_split" if split and all(choi_positivity(S, cfg)["positive"] for S in split[1:]) else None


def _sampled_positivity(T: LinearMap, cfg: ToleranceConfig) -> PositivityVerdict:
    """Seeded rank-one probes, mapped by one product and judged by one
    ``lp._positive`` call: falsified with the first probe whose image leaves
    the cone, otherwise undetermined with the trial count."""
    X = _rank_one_positives(T.domain, rng_from(cfg.seed, 8100), 48)
    ok = _positive(_block_stacks(T.codomain, X @ T.action.T), cfg)
    if not ok.all():
        i = int(np.argmin(ok))
        return PositivityVerdict(FALSIFIED, witness=unvec(T.domain, X[i]), evidence={"trials": i + 1})
    return PositivityVerdict(UNDETERMINED, evidence={"trials": len(X)})


def positivity_tests(
    T: LinearMap,
    level: str,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> PositivityVerdict:
    """Positivity verdicts at the requested level.

    "certified" requires a proof: the Choi criterion for complete
    positivity, ``_positivity_route`` for positivity.  2-positivity is
    positivity of the 2-amplification.  Otherwise seeded rank-one probes
    can only falsify; a clean run is reported undetermined with the trial
    count as confidence.
    """
    if level not in ("positive", "two_positive", "completely_positive"):
        raise DomainError(f"unknown positivity level {level!r}")
    if level == "two_positive":
        return positivity_tests(amplified_map(T, 2), "positive", cfg)
    choi = choi_positivity(T, cfg)
    if level == "completely_positive":
        return PositivityVerdict(CERTIFIED if choi["cp"] else FALSIFIED, evidence={"route": "choi", **choi})
    if route := _positivity_route(T, choi, cfg):
        return PositivityVerdict(CERTIFIED, evidence={"route": route, **choi})
    return _sampled_positivity(T, cfg)


# ---------------------------------------------------------------------------
# Amplification
# ---------------------------------------------------------------------------


def amplified_map(T: LinearMap, n: int) -> LinearMap:
    """I (x) T acting entrywise on n x n operator matrices."""
    if n < 1:
        raise StructuralError("amplification order must be >= 1")
    if n == 1:
        return LinearMap(T.domain, T.codomain, T.action.copy(), T.p, dict(T.meta))
    # the big matrix unit E_rs (x) e_ab goes to E_rs (x) T(e_ab): the entry of
    # T_lk at (ij, ab) is copied to row (r i, s j), column (r a, s b)
    dom, cod = T.domain, T.codomain
    rows = []
    for c, rs in zip(cod.dims, cod.slices):
        cols = []
        for d, cs in zip(dom.dims, dom.slices):
            T_lk = T.action[rs, cs]
            big = np.zeros((n, c, n, c, n, d, n, d), dtype=complex)
            for r in range(n):
                for s in range(n):
                    big[r, :, s, :, r, :, s, :] = T_lk.reshape(c, c, d, d)
            cols.append(big.reshape((n * c) ** 2, (n * d) ** 2))
        rows.append(np.concatenate(cols, axis=1))
    meta = {"kind": "amplified", "of": T.meta.get("kind"), "order": n}
    return LinearMap(amplify(dom, n), amplify(cod, n), np.concatenate(rows), T.p, meta)


# ---------------------------------------------------------------------------
# Constructor library
# ---------------------------------------------------------------------------


def _conjugation_action(vs: list[Element]) -> np.ndarray:
    """Action of x -> sum_i v_i x v_i*: on row-major coordinates v x v* is
    kron(v, conj v) vec(x), so block k carries sum_i kron(v_ik, conj v_ik)."""
    alg = vs[0].algebra
    out = np.zeros((alg.coord_dim, alg.coord_dim), dtype=complex)
    for k, s in enumerate(alg.slices):
        out[s, s] = sum(np.kron(v.blocks[k], v.blocks[k].conj()) for v in vs)
    return out


def _jordan_layout(
    domain: AlgebraDescriptor,
    layout: list[tuple[list[tuple[int, str]], int]],
    weights,
    unitaries: Optional[list[np.ndarray]],
    p: float,
    meta: dict,
) -> LinearMap:
    """J(x) = (+)_l u_l ( (+)_i phi_i(x_{k_i}) (+) 0_dead ) u_l*, with phi_i
    the identity ('hom') or the transpose ('anti') of domain block k_i.

    layout[l] = (parts, dead): the parts stacked down the diagonal of
    codomain block l (weight weights[l]) and the dimension of its dead
    corner, outside the range of J.  The action copies domain coordinates
    into place and, when unitaries are given, is left-multiplied by
    kron(u_l, conj u_l) per codomain block.
    """
    dims = domain.dims
    if len(weights) != len(layout):
        raise StructuralError("need one weight per codomain block")
    for i, (k, kind) in enumerate(part for parts, _ in layout for part in parts):
        if not (0 <= k < len(dims)):
            raise StructuralError(f"part {i}: no source block {k}")
        if kind not in ("hom", "anti"):
            raise StructuralError(f"part {i}: kind must be 'hom' or 'anti'")
    rows, cod_blocks = [], []
    for l, ((parts, dead), w) in enumerate(zip(layout, weights)):
        size = sum(dims[k] for k, _ in parts) + dead
        R = np.zeros((size, size, domain.coord_dim))
        pos = 0
        for k, kind in parts:
            d = dims[k]
            r, c = np.indices((d, d))
            R[pos + r, pos + c, domain.slices[k].start + (c * d + r if kind == "anti" else r * d + c)] = 1.0
            pos += d
        R = R.reshape(size * size, -1)
        if unitaries is not None:
            u = unitaries[l]
            R = np.kron(u, u.conj()) @ R
        rows.append(R)
        cod_blocks.append((size, float(w)))
    return LinearMap(domain, AlgebraDescriptor(tuple(cod_blocks)), np.concatenate(rows), p, dict(meta))


def transpose_map(algebra: AlgebraDescriptor, p: float = 2.0) -> LinearMap:
    """Blockwise transposition; positive, separating, isometric at every p,
    but not 2-positive on blocks of dimension >= 2."""
    action = np.eye(algebra.coord_dim)[_transposed_coords(algebra)]
    return LinearMap(algebra, algebra, action, p, {"kind": "transpose"})


def unitary_conjugation(u: Element, p: float = 2.0) -> LinearMap:
    uu = u * u.H
    d = (uu - identity(u.algebra)).sup_norm()
    if d > 1e-9:
        raise StructuralError("conjugation needs a unitary element")
    return LinearMap(u.algebra, u.algebra, _conjugation_action([u]), p, {"kind": "unitary_conjugation"})


def rotation_mixing(theta: float, p: float = 2.0) -> LinearMap:
    """Unitary of the Hilbert space L^2(M_2) rotating the span of the (1,1)
    and (1,2) matrix units into each other and fixing the complement.  For
    generic angles it sends disjoint pairs to non-disjoint pairs."""
    alg = matrix_algebra(2, 1.0)
    c, s = np.cos(theta), np.sin(theta)
    A = np.eye(4, dtype=complex)
    A[0, 0], A[0, 1] = c, -s
    A[1, 0], A[1, 1] = s, c
    return LinearMap(alg, alg, A, p, {"kind": "rotation_mixing", "theta": theta})


def commutative_matrix(
    entries: np.ndarray,
    dom_weights,
    cod_weights,
    p: float = 2.0,
) -> LinearMap:
    entries = np.asarray(entries, dtype=complex)
    dom = diagonal_algebra(dom_weights)
    cod = diagonal_algebra(cod_weights)
    if entries.shape != (cod.coord_dim, dom.coord_dim):
        raise StructuralError("matrix shape does not match the weights")
    return LinearMap(dom, cod, entries, p, {"kind": "commutative"})


def depolarizing(algebra: AlgebraDescriptor, lam: float, p: float = 2.0) -> LinearMap:
    """(1 - lam) x + lam tau(x) 1 / tau(1): completely positive, unital,
    trace preserving, contractive at every exponent for 0 <= lam <= 1."""
    if not (0.0 <= lam <= 1.0):
        raise StructuralError("mixing parameter must lie in [0, 1]")
    one = vec(identity(algebra))
    action = (1.0 - lam) * np.eye(algebra.coord_dim) + np.outer(
        one, lam * (coord_weights(algebra) * one) / algebra.trace_of_identity
    )
    return LinearMap(algebra, algebra, action, p, {"kind": "depolarizing", "lam": lam})


def kraus_map(vs: list[Element], p: float = 2.0, transposed: bool = False) -> LinearMap:
    """x -> sum_i v_i x v_i* (or v_i tx v_i* when transposed), completely
    positive (resp. completely copositive) by construction."""
    if not vs:
        raise StructuralError("need at least one Kraus element")
    action = _conjugation_action(vs)
    if transposed:
        # x -> x^T permutes the coordinates, so it permutes the columns
        action = action[:, _transposed_coords(vs[0].algebra)]
    kind = "kraus_transposed" if transposed else "kraus"
    return LinearMap(vs[0].algebra, vs[0].algebra, action, p, {"kind": kind})


def jordan_direct_sum(
    domain: AlgebraDescriptor,
    parts: list[tuple[int, str]],
    weights=None,
    p: float = 2.0,
) -> LinearMap:
    """J(x) = (+)_i phi_i(x_{k_i}) with phi_i the identity ('hom') or the
    transpose ('anti') of the chosen source block; a normal Jordan
    homomorphism into the direct sum of the matching matrix blocks."""
    if not parts:
        raise StructuralError("need at least one part")
    return _jordan_layout(
        domain,
        [([part], 0) for part in parts],
        [1.0] * len(parts) if weights is None else weights,
        None,
        p,
        {"kind": "jordan_direct_sum", "parts": tuple(parts)},
    )


def convex_combination(T1: LinearMap, T2: LinearMap, t: float) -> LinearMap:
    """t T1 + (1 - t) T2, recording the split (t, T1, T2), which certification
    checks against the action (``_convex_split``) and bounds by its parts."""
    if not (0.0 <= t <= 1.0):
        raise StructuralError("mixing weight must lie in [0, 1]")
    T = add_maps(scale_map(T1, t), scale_map(T2, 1.0 - t))
    T.meta["kind"] = "convex_combination"
    T.meta["convex_parts"] = (t, T1, T2)
    return T


def yeadon_synthetic(
    w: Element,
    B: Element,
    J: LinearMap,
    p: float = 2.0,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> LinearMap:
    """x -> w B J(x), validating the factorization data:

    (b) w is a partial isometry with w* w = J(1) = s(B),
    (c) B is positive and commutes with the range of J on a basis.

    (a), the factorization identity itself, holds by construction here.
    Violations raise StructuralError naming the failed condition.
    """
    N = J.codomain
    if w.algebra != N or B.algebra != N:
        raise StructuralError("w and B must live in the codomain of J")
    tol = cfg.algebraic_tol * max(w.sup_norm(), 1.0)
    ww = w.H * w
    if (w * ww - w).sup_norm() > 10 * tol:
        raise StructuralError("condition (b) fails: w is not a partial isometry")
    if not is_positive(B, cfg):
        raise StructuralError("condition (c) fails: B is not positive")
    sB = polar_support(B, cfg)[2]
    J1 = J(identity(J.domain))
    # projections have norm at most 1, so (b) is absolute; (c) is relative to |B| |J(e_a)|
    if (ww - J1).sup_norm() > 1e-7 or (J1 - sB).sup_norm() > 1e-7:
        raise StructuralError("condition (b) fails: w*w, J(1), s(B) disagree")
    images = _unit_images(J)
    comm = _sup_norms([np.matmul(b, S) - np.matmul(S, b) for b, S in zip(B.blocks, images)])
    if np.any(comm > 1e-7 * B.sup_norm() * _sup_norms(images)):
        raise StructuralError("condition (c) fails: B does not commute with J range")
    wB = w * B
    return _map_from_images(
        J.domain,
        N,
        [np.matmul(b, S) for b, S in zip(wB.blocks, images)],
        p,
        {"kind": "yeadon_synthetic"},
    )

