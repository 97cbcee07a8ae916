"""Linear maps between trace-weighted block algebras.

A map is stored as a dense complex matrix over the coordinate bases of the
block spaces (row-major within each block, blocks concatenated), together
with the exponent p giving its norm semantics.  The module provides
application, trace-duality adjoints, norm enclosures, the positivity
hierarchy (positive / 2-positive / completely positive via component Choi
matrices), amplification, and a library of constructors that write their
action matrix directly, as coordinate copies or sums of kron(v, conj v).
``map_from_function`` (evaluation on every matrix unit) is their reference.
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
    StructuralError,
    ToleranceConfig,
    _ranked_svd,
    _sup_norms,
    amplify,
    basis,
    diagonal_algebra,
    hermitian_part,
    identity,
    matrix_algebra,
    polar_support,
)
from .lp import _hermitian_spectrum, _schatten, conjugate_exponent, is_positive, lp_norm
from .sampling import ginibre, rng_from, wishart
from .sequences import NormInterval


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
        self.action = np.asarray(self.action, dtype=complex)
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
    return LinearMap(
        algebra,
        algebra,
        np.eye(algebra.coord_dim),
        p,
        {"kind": "identity", "positive": True, "cp": True, "isometry_all_p": True},
    )


def compose(S: LinearMap, T: LinearMap) -> LinearMap:
    if T.codomain != S.domain:
        raise StructuralError("composition domains do not match")
    return LinearMap(T.domain, S.codomain, S.action @ T.action, T.p)


def scale_map(T: LinearMap, c: float) -> LinearMap:
    meta = dict(T.meta)
    meta.pop("isometry_all_p", None)
    if c < 0:
        meta.pop("positive", None)
        meta.pop("cp", None)
    return LinearMap(T.domain, T.codomain, c * T.action, T.p, meta)


def add_maps(S: LinearMap, T: LinearMap) -> LinearMap:
    if S.domain != T.domain or S.codomain != T.codomain:
        raise StructuralError("sum needs maps with equal domain and codomain")
    meta = {}
    if S.meta.get("positive") and T.meta.get("positive"):
        meta["positive"] = True
    if S.meta.get("cp") and T.meta.get("cp"):
        meta["cp"] = True
    return LinearMap(S.domain, S.codomain, S.action + T.action, T.p, meta)


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
    if T.meta.get("cp"):
        meta["cp"] = True
        meta["positive"] = True
    elif T.meta.get("positive"):
        meta["positive"] = True
    return LinearMap(T.codomain, T.domain, A_star, conjugate_exponent(p), meta)


# ---------------------------------------------------------------------------
# Norm enclosure
# ---------------------------------------------------------------------------


def _weighted_action(T: LinearMap) -> np.ndarray:
    wd = np.sqrt(coord_weights(T.domain))
    wc = np.sqrt(coord_weights(T.codomain))
    return (T.action * wc[:, None]) / wd[None, :]


def _norming_dual(y: Element, p: float, cfg: ToleranceConfig) -> tuple[float, Element]:
    """(|y|_p, z) with tau(z y) = |y|_p and |z|_{p'} = 1 (z = 0 if y = 0),
    from one SVD y_k = U s V* per block: z_k = V_r (s_r / |y|_p)^(p-1) U_r*
    over the singular values above the rank cutoff (u* at p = 1), and at
    p = inf the rank-one term v u* / w_k at the top singular pair."""
    svds = _ranked_svd(y.blocks, cfg)
    ny = _schatten([s for _, s, _, _ in svds], y.algebra.weights, p)
    blocks = [np.zeros((d, d), dtype=complex) for d in y.algebra.dims]
    if ny == 0:
        return 0.0, Element(y.algebra, blocks)
    if p == np.inf:
        k = int(np.argmax([s[0] for _, s, _, _ in svds]))
        U, _, Vh, _ = svds[k]
        blocks[k] = np.outer(Vh[0].conj(), U[:, 0].conj()) / y.algebra.weights[k]
        return ny, Element(y.algebra, blocks)
    for k, (U, s, Vh, keep) in enumerate(svds):
        blocks[k] = (Vh[keep].conj().T * (s[keep] / ny) ** (p - 1.0)) @ U[:, keep].conj().T
    return ny, Element(y.algebra, blocks)


def _boyd_ascent(
    T: LinearMap, p: float, cfg: ToleranceConfig, iters: int, x0: Element
) -> tuple[float, Optional[Element]]:
    """Nonlinear power iteration for the p -> p ratio; every step yields a
    valid lower bound, and the best (value, argument) pair is returned."""
    T_adj = adjoint_map(T, p)
    pprime = conjugate_exponent(p)
    best, arg = 0.0, None
    x = x0
    nx = lp_norm(x, p)
    if nx == 0:
        return 0.0, None
    x = (1.0 / nx) * x
    for _ in range(iters):
        ny, z = _norming_dual(T(x), p, cfg)
        if ny > best:
            best, arg = ny, x
        if ny <= 1e-300:
            break
        nw, x_new = _norming_dual(T_adj(z), pprime, cfg)
        if nw <= 1e-300:
            break
        nx = lp_norm(x_new, p)
        if nx <= 1e-300:
            break
        x = (1.0 / nx) * x_new
    return best, arg


def _op_norm_upper(T: LinearMap, p: float, positive_certified: bool) -> tuple[float, str]:
    """The certified upper endpoint of ``op_norm`` and the method behind it;
    exact at p = 2 and for constructors isometric at every exponent."""
    if p != 2 and T.meta.get("isometry_all_p"):
        return 1.0, "constructor_isometry"
    n2 = float(np.linalg.norm(_weighted_action(T), 2))
    if p == 2:
        return n2, "weighted_svd"
    # crude but certified: factor through p = 2 and interpolate.
    # |x|_2 <= |x|_1 / sqrt(w_min) and |y|_1 <= sqrt(tau(1)) |y|_2 give a
    # 1 -> 1 bound; the symmetric estimate handles inf -> inf; any finite
    # dimensional operator interpolates between its endpoint bounds.
    wmin_dom = min(w for _, w in T.domain.blocks)
    wmin_cod = min(w for _, w in T.codomain.blocks)
    crude1 = np.sqrt(T.codomain.trace_of_identity / wmin_dom) * n2
    crude_inf = np.sqrt(T.domain.trace_of_identity / wmin_cod) * n2
    if p == 1:
        upper, method = crude1, "crude_factorization"
    elif p == np.inf:
        upper, method = crude_inf, "crude_factorization"
    else:
        upper = crude1 ** (1.0 / p) * crude_inf ** (1.0 - 1.0 / p)
        method = "crude_interpolation"

    if positive_certified:
        n1 = lp_norm(adjoint_map(T, 1)(identity(T.codomain)), np.inf)
        ninf = lp_norm(T(identity(T.domain)), np.inf)
        if p == 1:
            pos_upper = n1
        elif p == np.inf:
            pos_upper = ninf
        else:
            pos_upper = n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p)
        if pos_upper < upper:
            upper = pos_upper
            method = "positive_unit" if p in (1, np.inf) else "positive_interpolation"
    return float(upper), method


def op_norm(
    T: LinearMap,
    p: Optional[float] = None,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    positive_certified: Optional[bool] = None,
    samples: int = 6,
    iters: int = 30,
) -> NormInterval:
    """Enclosure of the L^p -> L^p operator norm.

    p = 2 is exact (largest singular value in the trace-weighted inner
    products).  Otherwise the lower endpoint is the best sampled ratio
    improved by nonlinear power iterations; a certified upper endpoint
    exists for positivity-preserving maps (exact at p = 1 and p = inf via
    the unit evaluations, interpolated in between) and for constructors
    that are isometric at every exponent.  Without such structure the upper
    endpoint is infinite.
    """
    p = T.p if p is None else p
    if p != np.inf and p < 1:
        raise DomainError("op_norm needs p >= 1")
    if positive_certified is None:
        positive_certified = bool(T.meta.get("positive") or T.meta.get("cp"))

    upper, method = _op_norm_upper(T, p, positive_certified)
    if method in ("weighted_svd", "constructor_isometry"):
        return NormInterval(upper, upper, True, meta={"method": method})

    lower = 0.0
    starts = [identity(T.domain)]
    rng = rng_from(cfg.seed, 8000)
    for k in range(samples):
        draw = ginibre if k % 2 == 0 else wishart
        starts.append(Element(T.domain, [draw(rng, d) for d in T.domain.dims]))
    for x0 in starts:
        lower = max(lower, _boyd_ascent(T, p, cfg, iters, x0)[0])

    certified = upper < np.inf and (upper - lower) <= cfg.opt_tol * max(upper, 1e-300)
    lower = min(lower, upper)
    return NormInterval(lower, upper, certified, meta={"method": method})


# ---------------------------------------------------------------------------
# Positivity hierarchy
# ---------------------------------------------------------------------------

CERTIFIED = "certified"
FALSIFIED = "falsified"
UNDETERMINED = "undetermined"


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
    """Exact Choi criterion; returns (verdict, smallest component eigenvalue)."""
    worst = np.inf
    for row in choi_components(T):
        for C in row:
            H = 0.5 * (C + C.conj().T)
            herm_defect = float(np.linalg.norm(C - H, 2))
            lo = float(np.linalg.eigvalsh(H).min()) if C.size else 0.0
            scale = max(float(np.linalg.norm(H, 2)), 1.0)
            if herm_defect > cfg.algebraic_tol * scale:
                lo = -herm_defect
            worst = min(worst, lo)
    scale = max(abs(worst), 1.0)
    return worst >= -cfg.algebraic_tol * scale, float(worst)


def _positive_samples(algebra, rng, count):
    out = []
    for k, d in enumerate(algebra.dims):
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        blocks = [np.zeros((dd, dd), dtype=complex) for dd in algebra.dims]
        blocks[k] = np.outer(psi, psi.conj())
        out.append(Element(algebra, blocks))
    for _ in range(count):
        out.append(Element(algebra, [wishart(rng, d) for d in algebra.dims]))
    return out


def _entangled_samples(base, n, rng, count):
    """Rank-one positives of M_n(base) that straddle the grid, including the
    identity-correlated vectors that detect non 2-positive maps."""
    amp = amplify(base, n)
    out = []
    for k, d in enumerate(base.dims):
        if d < 2:
            continue
        psi = np.zeros(n * d, dtype=complex)
        for r in range(min(n, d)):
            psi[r * d + r] = 1.0
        blocks = [np.zeros((n * dd, n * dd), dtype=complex) for dd in base.dims]
        blocks[k] = np.outer(psi, psi.conj()) / max(np.linalg.norm(psi) ** 2, 1)
        out.append(Element(amp, blocks))
    for _ in range(count):
        blocks = []
        for dd in base.dims:
            psi = rng.standard_normal(n * dd) + 1j * rng.standard_normal(n * dd)
            blocks.append(np.outer(psi, psi.conj()))
        out.append(Element(amp, blocks))
    return out


def positivity_tests(
    T: LinearMap,
    level: str,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    samples: int = 48,
) -> PositivityVerdict:
    """Positivity verdicts at the requested level.

    Sampling can only falsify; "certified" requires a proof: the Choi
    criterion (complete positivity, which dominates the lower levels) or
    constructor provenance.  A clean sampling run without such a proof is
    reported undetermined with the trial count as confidence.
    """
    if level not in ("positive", "two_positive", "completely_positive"):
        raise DomainError(f"unknown positivity level {level!r}")

    cp_ok, cp_eig = is_completely_positive(T, cfg)
    if level == "completely_positive":
        if cp_ok:
            return PositivityVerdict(CERTIFIED, evidence={"choi_min_eig": cp_eig})
        return PositivityVerdict(FALSIFIED, evidence={"choi_min_eig": cp_eig})

    if cp_ok:
        return PositivityVerdict(
            CERTIFIED, evidence={"route": "choi", "choi_min_eig": cp_eig}
        )

    rng = rng_from(cfg.seed, 8100 if level == "positive" else 8200)
    if level == "positive":
        probe, inputs = T, _positive_samples(T.domain, rng, samples)
    else:
        probe = amplified_map(T, 2)
        inputs = _entangled_samples(T.domain, 2, rng, samples)

    floor = -cfg.algebraic_tol
    worst = np.inf
    for x in inputs:
        y = probe(x)
        lo = float(_hermitian_spectrum(y)[0])
        defect = (y - hermitian_part(y)).sup_norm()
        if defect > 0:
            lo = min(lo, -defect)
        scale = max(y.sup_norm(), 1.0)
        worst = min(worst, lo / scale)
        if lo < floor * scale:
            return PositivityVerdict(
                FALSIFIED, witness=x, evidence={"min_eig": lo, "level": level}
            )

    if T.meta.get("positive") and level == "positive":
        return PositivityVerdict(
            CERTIFIED, evidence={"route": "provenance", "trials": len(inputs)}
        )
    if T.meta.get("two_positive") and level == "two_positive":
        return PositivityVerdict(
            CERTIFIED, evidence={"route": "provenance", "trials": len(inputs)}
        )
    return PositivityVerdict(
        UNDETERMINED, evidence={"trials": len(inputs), "worst_relative_eig": worst}
    )


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
    # complete positivity survives amplification; plain positivity and
    # every-exponent isometry do not (the partial transpose is the standard
    # counterexample for both), so neither flag is carried over
    if T.meta.get("cp"):
        meta["cp"] = True
        meta["positive"] = True
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
    return LinearMap(
        algebra,
        algebra,
        np.eye(algebra.coord_dim)[_transposed_coords(algebra)],
        p,
        {"kind": "transpose", "positive": True, "isometry_all_p": True,
         "separating": True},
    )


def unitary_conjugation(u: Element, p: float = 2.0) -> LinearMap:
    uu = u * u.H
    d = (uu - identity(u.algebra)).sup_norm()
    if d > 1e-9:
        raise StructuralError("conjugation needs a unitary element")
    return LinearMap(
        u.algebra,
        u.algebra,
        _conjugation_action([u]),
        p,
        {"kind": "unitary_conjugation", "positive": True, "cp": True,
         "two_positive": True, "isometry_all_p": True, "separating": True},
    )


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
    meta = {"kind": "commutative"}
    if np.all(entries.real >= 0) and np.all(np.abs(entries.imag) == 0):
        meta["positive"] = True
        meta["cp"] = True
    return LinearMap(dom, cod, entries, p, meta)


def depolarizing(algebra: AlgebraDescriptor, lam: float, p: float = 2.0) -> LinearMap:
    """(1 - lam) x + lam tau(x) 1 / tau(1): completely positive, unital,
    trace preserving, contractive at every exponent for 0 <= lam <= 1."""
    if not (0.0 <= lam <= 1.0):
        raise StructuralError("mixing parameter must lie in [0, 1]")
    one = vec(identity(algebra))
    action = (1.0 - lam) * np.eye(algebra.coord_dim) + np.outer(
        one, lam * (coord_weights(algebra) * one) / algebra.trace_of_identity
    )
    return LinearMap(
        algebra, algebra, action, p,
        {"kind": "depolarizing", "positive": True, "cp": True, "lam": lam},
    )


def kraus_map(vs: list[Element], p: float = 2.0, transposed: bool = False) -> LinearMap:
    """x -> sum_i v_i x v_i* (or v_i tx v_i* when transposed), completely
    positive (resp. completely copositive) by construction."""
    if not vs:
        raise StructuralError("need at least one Kraus element")
    action = _conjugation_action(vs)
    meta = {"kind": "kraus", "positive": True}
    if transposed:
        # x -> x^T permutes the coordinates, so it permutes the columns
        action = action[:, _transposed_coords(vs[0].algebra)]
        meta["co_cp"] = True
        meta["kind"] = "kraus_transposed"
    else:
        meta["cp"] = True
    return LinearMap(vs[0].algebra, vs[0].algebra, action, p, meta)


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
        {"kind": "jordan_direct_sum", "parts": tuple(parts), "positive": True,
         "separating": True},
    )


def convex_combination(T1: LinearMap, T2: LinearMap, t: float) -> LinearMap:
    """t T1 + (1 - t) T2, remembering the parts so certification can bound
    the mixture by certifying each part separately."""
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
    scale = max(1.0, B.sup_norm())
    if (ww - J1).sup_norm() > 1e-7 * scale or (J1 - sB).sup_norm() > 1e-7 * scale:
        raise StructuralError("condition (b) fails: w*w, J(1), s(B) disagree")
    images = _unit_images(J)
    comm = _sup_norms([np.matmul(b, S) - np.matmul(S, b) for b, S in zip(B.blocks, images)])
    if np.any(comm > 1e-7 * scale * np.maximum(_sup_norms(images), 1.0)):
        raise StructuralError("condition (c) fails: B does not commute with J range")
    wB = w * B
    T = _map_from_images(
        J.domain,
        N,
        [np.matmul(b, S) for b, S in zip(wB.blocks, images)],
        p,
        {"kind": "yeadon_synthetic", "separating": True},
    )
    T.meta["w"], T.meta["B"], T.meta["J"] = w, B, J
    # a separating map built from a projection w is positive
    if is_positive(w, cfg):
        T.meta["positive"] = True
    return T

