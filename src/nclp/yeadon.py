"""Extraction and analysis of factorizations T(x) = w B J(x).

A bounded map between the L^p spaces of two block algebras is separating
(disjoint pairs go to disjoint pairs) exactly when it factors as a partial
isometry w, a commuting positive weight B, and a Jordan homomorphism J
subject to

    (a)  T(x) = w B J(x) for all x,
    (b)  w* w = J(1) = s(B),
    (c)  B commutes with every element of J's range.

At finite dimension the factorization, when it exists, is recovered
constructively: B = |T(1)|, w from the polar decomposition of T(1), and
J(x) = B^+ w* T(x), after which the three conditions and the Jordan
property are verified on a coordinate basis.  The triple also carries the
splitting J = pi + sigma into a homomorphic and an anti-homomorphic part cut
out by central projections g and f (Stormer, Trans. AMS 120, 1965).  With
sigma = J(.)f, every multiplicativity defect
D_ab = J(e_a e_b) - J(e_a) J(e_b) = sigma(e_b) sigma(e_a) - sigma(e_a) sigma(e_b)
lies in f N f, and the pairs (e_ij, e_ji) of a block M_d with d >= 2 give
D = sigma(e_ii) - sigma(e_jj), which together span the support of sigma's
image of that block.  So f is the left support of the defects, and
g = J(1) - f; summands coming from 1 x 1 blocks obey both laws and go to g.
Every test is relative to the map's own scale, so c T extracts exactly when
T does, and positivity is judged by ``maps.positivity_tests`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .algebra import (
    DEFAULT_CONFIG,
    Element,
    StructuralError,
    ToleranceConfig,
    _nearly_selfadjoint,
    _sup_norms,
    apply_spectral,
    identity,
    polar_support,
    pseudo_inverse,
    zero_element,
)
from .lp import is_positive
from .maps import (
    CERTIFIED,
    FALSIFIED,
    UNDETERMINED,
    LinearMap,
    _map_from_images,
    _transposed_coords,
    _unit_images,
    amplified_map,
    positivity_tests,
    vec,
)
from .sampling import random_disjoint_pair, rng_from


def _unit_products(algebra) -> np.ndarray:
    """Index of e_a e_b in the matrix-unit basis, or -1 when the product is 0."""
    out = np.full((algebra.coord_dim,) * 2, -1)
    for d, s in zip(algebra.dims, algebra.slices):
        e = np.arange(s.start, s.stop).reshape(d, d)  # e[i, j]: index of e_ij
        out[e[:, :, None], e[None, :, :]] = e[:, None, :]  # e_ij e_jl = e_il
    return out


def _product_table(domain, images) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per codomain block, from the images J(e_a) of ``_unit_images``:
    J(e_a e_b) and P[a, b] = J(e_a) J(e_b) for all pairs of domain matrix
    units, as two (D, D, c, c) arrays."""
    units = _unit_products(domain)
    out = []
    for S in images:
        padded = np.concatenate([S, np.zeros((1,) + S.shape[1:], dtype=complex)])
        out.append((padded[units], np.matmul(S[:, None], S[None, :])))
    return out


@dataclass
class JordanReport:
    ok: bool
    defect: float
    scale: float


def verify_jordan(J: LinearMap, cfg: ToleranceConfig = DEFAULT_CONFIG) -> JordanReport:
    """Check J(x^2) = J(x)^2 in polarized form over all basis pairs and
    J(x*) = J(x)* on the basis; by bilinearity the two imply J(x^2) = J(x)^2
    for every x, so no sampled square adds anything."""
    dom = J.domain
    images = _unit_images(J)
    scale = float(_sup_norms(images).max()) ** 2
    upper = np.triu_indices(dom.coord_dim)
    polarized = [(L + L.swapaxes(0, 1) - (P + P.swapaxes(0, 1)))[upper]
                 for L, P in _product_table(dom, images)]
    star = _transposed_coords(dom)
    adjoints = [S[star] - S.conj().swapaxes(1, 2) for S in images]
    defect = max(float(_sup_norms(polarized).max()), float(_sup_norms(adjoints).max()))
    tol = max(1e-7, 100.0 * cfg.algebraic_tol)
    return JordanReport(defect <= tol * scale, float(defect), float(scale))


@dataclass
class CentralDecomposition:
    g: Element
    f: Element
    pi: LinearMap
    sigma: LinearMap


def central_decompose(J: LinearMap, cfg: ToleranceConfig = DEFAULT_CONFIG) -> CentralDecomposition:
    """Split J into its homomorphic and anti-homomorphic parts.

    Returns central projections g + f = J(1) of the algebra generated by the
    range with pi = J(.)g multiplicative and sigma = J(.)f reversing
    products.  f is the left support of the multiplicativity defects
    D_ab = J(e_a e_b) - J(e_a) J(e_b) over all pairs of domain matrix units,
    read off one SVD per codomain block; then g = J(1) - f.  Proof: since
    J(.)g is multiplicative, D_ab = sigma(e_b) sigma(e_a) - sigma(e_a) sigma(e_b)
    lies in f N f, so its left support is at most f.  On a summand of
    sigma's range coming from a domain block M_d with d >= 2, the pair
    (e_ij, e_ji) gives D = sigma(e_ii) - sigma(e_jj), and over all j != i
    these have left support sigma(1_{M_d}).  A summand coming from d = 1 has
    commutative range, obeys both laws and has no defect, so it falls in g:
    a deterministic tie-break.  Pairs from different domain blocks give
    D = 0.  Both laws are then checked on all basis pairs; a failure means
    the input was not a Jordan homomorphism at this tolerance.
    """
    N = J.codomain
    dom = J.domain
    e_unit = J(identity(dom))
    images = _unit_images(J)
    scale = float(_sup_norms(images).max())
    if e_unit.sup_norm() <= cfg.algebraic_tol * scale:
        zero_map = LinearMap(dom, N, np.zeros((N.coord_dim, dom.coord_dim)), J.p)
        z = zero_element(N)
        return CentralDecomposition(z, z, zero_map, zero_map)

    table = _product_table(dom, images)
    tol = max(1e-7, 100.0 * cfg.algebraic_tol) * scale**2

    f_blocks = []
    for L, P in table:
        c = L.shape[-1]
        u, s, _ = np.linalg.svd((L - P).transpose(2, 0, 1, 3).reshape(c, -1),
                               full_matrices=False)
        u = u[:, s > tol]
        f_blocks.append(u @ u.conj().T)
    f = Element(N, f_blocks)
    g = e_unit - f

    hom, anti = [], []
    for (L, P), gb, fb in zip(table, g.blocks, f.blocks):
        hom.append(np.matmul(L, gb) - np.matmul(P, gb))
        anti.append(np.matmul(L, fb) - np.matmul(P.swapaxes(0, 1), fb))
    hom_res = float(_sup_norms(hom).max())
    anti_res = float(_sup_norms(anti).max())
    if hom_res > tol or anti_res > tol:
        raise StructuralError(
            "a central part obeys neither multiplication law "
            f"(hom on g {hom_res:.2e}, anti on f {anti_res:.2e}); "
            "input is not Jordan at tolerance"
        )

    pi = _map_from_images(dom, N, [np.matmul(S, b) for S, b in zip(images, g.blocks)],
                          J.p, {"kind": "jordan_hom_part"})
    sigma = _map_from_images(dom, N, [np.matmul(S, b) for S, b in zip(images, f.blocks)],
                             J.p, {"kind": "jordan_anti_part"})
    return CentralDecomposition(g, f, pi, sigma)


@dataclass
class YeadonTriple:
    """Certified factorization data for a separating map."""

    w: Element
    B: Element
    J: LinearMap
    jordan_certified: bool
    g: Element
    f: Element
    pi: LinearMap
    sigma: LinearMap
    residuals: dict = field(default_factory=dict)


@dataclass
class ExtractionFailure:
    """``reason`` names the first violated condition, ``all_reasons`` all of
    them and ``residual`` is the largest residual.  Given ``finish``, which
    returns (residual, all_reasons), both are computed when first read."""

    reason: str
    residual: float
    all_reasons: list[str] = field(default_factory=list)
    finish: Optional[Callable[[], tuple[float, list[str]]]] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.finish is not None:
            del self.residual, self.all_reasons

    def __getattr__(self, name: str):
        if name not in ("residual", "all_reasons") or self.__dict__.get("finish") is None:
            raise AttributeError(name)
        self.residual, self.all_reasons = self.finish()
        self.finish = None
        return getattr(self, name)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return False


def _round_projection(x: Element, cfg: ToleranceConfig) -> Element:
    """Round eigenvalues of a nearly idempotent self-adjoint to {0, 1}."""
    return apply_spectral(x, lambda v: (v >= 0.5).astype(float), cfg)


def extract_yeadon(
    T: LinearMap, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> Union[YeadonTriple, ExtractionFailure]:
    """Attempt the constructive factorization of T.

    B is |T(1)| and w the polar partial isometry of T(1); the candidate
    Jordan map is J(x) = B^+ w* T(x).  Success requires the reconstruction
    identity (a), the support condition (b) with projections rounded at 1/2,
    the commutation condition (c), and the Jordan property, all on the
    coordinate basis.  Failures are returned as values, never raised, and
    name the first violated condition.  The conditions are checked in that
    order, and a failure returns once its reason is known: after (a), (b)
    or (c) fails, the Jordan check that completes ``all_reasons`` and
    ``residual`` runs only when one of them is read.
    """
    dom, cod = T.domain, T.codomain
    one = identity(dom)
    t1 = T(one)
    action_scale = float(np.abs(T.action).max()) if T.action.size else 0.0

    if t1.sup_norm() <= cfg.algebraic_tol * action_scale:
        if action_scale == 0.0:
            zero_map = LinearMap(dom, cod, np.zeros((cod.coord_dim, dom.coord_dim)), T.p)
            z = zero_element(cod)
            return YeadonTriple(z, z, zero_map, True, z, z, zero_map, zero_map,
                                {"note": "zero map"})
        return ExtractionFailure("zero_weight", t1.sup_norm(), ["zero_weight"])

    w, B, sB = polar_support(t1, cfg)
    B_pinv = pseudo_inverse(B, cfg)
    T_images = _unit_images(T)
    J_images = [np.matmul(bp, np.matmul(u, S))
                for bp, u, S in zip(B_pinv.blocks, w.H.blocks, T_images)]
    J = _map_from_images(dom, cod, J_images, T.p, {"kind": "extracted_jordan"})
    out_scale = float(_sup_norms(T_images).max())
    tol = max(1e-7, 100.0 * cfg.algebraic_tol)

    residuals = {}
    reasons = []

    wB = w * B
    rec = float(_sup_norms([S - np.matmul(b, Jl)
                            for S, b, Jl in zip(T_images, wB.blocks, J_images)]).max())
    residuals["reconstruction"] = rec / out_scale
    if rec > tol * out_scale:
        reasons.append("reconstruction (a)")

    J1 = J(one)
    sup_res = (w.H * w - sB).sup_norm()
    if _nearly_selfadjoint(J1, max(1e-7, 100 * cfg.algebraic_tol)):
        rounded = _round_projection(J1, cfg)
        sup_res = max(sup_res, (rounded - sB).sup_norm(), (J1 - rounded).sup_norm())
    else:
        sup_res = max(sup_res, (J1 - J1.H).sup_norm())
    residuals["support"] = sup_res
    if sup_res > tol * 10:
        reasons.append("support (b)")

    comm = float(_sup_norms([np.matmul(b, Jl) - np.matmul(Jl, b)
                             for b, Jl in zip(B.blocks, J_images)]).max())
    residuals["commutation"] = comm / B.sup_norm()
    if comm > tol * B.sup_norm() * float(_sup_norms(J_images).max()):
        reasons.append("commutation (c)")

    def finish():  # the Jordan check, the last condition
        report = verify_jordan(J, cfg)
        residuals["jordan"] = report.defect
        return max(residuals.values()), reasons + ["jordan"] * (not report.ok)

    if reasons:  # the reason is known: the rest is computed when read
        return ExtractionFailure(reasons[0], None, finish=finish)
    residual, failed = finish()
    if failed:
        return ExtractionFailure("jordan", residual, failed)

    try:
        dec = central_decompose(J, cfg)
    except StructuralError as exc:
        return ExtractionFailure("central", residuals["jordan"], ["central", str(exc)])

    return YeadonTriple(w, B, J, True, dec.g, dec.f, dec.pi, dec.sigma, residuals)


def trace_density(
    triple: YeadonTriple,
    domain,
    p: float,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Density h of phi(x) = tau(B^p J(x)), one value per domain block:
    h_k = tau(B^p J(1_k)) / tau(1_k).

    phi is tracial because B commutes with the range of J, so h is central,
    and |T x|_p^p = tau(h |x|^p) for T = w B J (Yeadon, Math. Proc. Camb.
    Phil. Soc. 90, 1981).  Hence |T|_p = max_k h_k^(1/p), attained at 1_k
    in the argmax block, and T is an isometry at p exactly when h = 1."""
    Bp = apply_spectral(triple.B, lambda v: np.clip(v, 0.0, None) ** p, cfg)
    phi = 0  # tau(B^p J(e_a)) for every domain matrix unit e_a
    for (_, w), b, S in zip(Bp.algebra.blocks, Bp.blocks, _unit_images(triple.J)):
        phi = phi + w * np.trace(np.matmul(b, S), axis1=1, axis2=2).real
    one = vec(identity(domain)).real
    return np.array([phi[s] @ one[s] / (w * d)
                     for s, (d, w) in zip(domain.slices, domain.blocks)])


@dataclass
class SeparatingVerdict:
    status: str
    triple: Optional[YeadonTriple] = None
    witness: Optional[tuple[Element, Element]] = None
    evidence: dict = field(default_factory=dict)


def certify_separating(
    T: LinearMap,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    witness_seeds: int = 64,
) -> SeparatingVerdict:
    """Certify (via successful extraction, which is sound) or falsify (via a
    positive disjoint pair whose images fail to be disjoint) the separating
    property.  The search draws 4 positive pairs with orthogonal supports
    (``random_disjoint_pair``, one seeded stream each) per ``witness_seeds``;
    running out of budget yields an honest undetermined."""
    res = extract_yeadon(T, cfg)
    if isinstance(res, YeadonTriple):
        return SeparatingVerdict(CERTIFIED, triple=res)

    viol_tol = max(1e-6, 1e3 * cfg.algebraic_tol)
    action_scale = max(float(np.abs(T.action).max()), 1e-300)
    for s in range(4 * witness_seeds if T.domain.coord_dim >= 2 else 0):
        a, b = random_disjoint_pair(T.domain, rng_from(cfg.seed, 9300, s), positive=True)
        ta, tb = T(a), T(b)
        na, nb = ta.sup_norm(), tb.sup_norm()
        # images at rounding-dust level carry no usable sign information
        if na <= 1e-12 * action_scale * a.sup_norm() or nb <= 1e-12 * action_scale * b.sup_norm():
            continue
        cross = max((ta.H * tb).sup_norm(), (ta * tb.H).sup_norm())
        if cross > viol_tol * na * nb:
            return SeparatingVerdict(FALSIFIED, witness=(a, b), evidence={
                "violation": cross / (na * nb), "extraction": res.reason})
    return SeparatingVerdict(UNDETERMINED, evidence={"extraction": res.reason,
                                                     "seeds": witness_seeds})


@dataclass
class StructuralReport:
    injective: bool
    positive: bool
    two_separating: bool
    cross_checks: dict = field(default_factory=dict)
    consistent: bool = True


def structural_checks(
    triple: YeadonTriple,
    T: LinearMap,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> StructuralReport:
    """Injectivity, positivity and 2-separation read off the triple, each
    cross-validated against an independent computation on T itself."""
    dm = T.domain.coord_dim

    def _full_column_rank(A: np.ndarray) -> bool:
        s = np.linalg.svd(A, compute_uv=False)
        if len(s) < dm or s[0] == 0:
            return False
        return bool(s[dm - 1] > cfg.rank_cutoff * s[0] * 10)

    injective = _full_column_rank(triple.J.action)
    inj_cross = _full_column_rank(T.action)

    positive = is_positive(triple.w, cfg)
    pos_cross = positivity_tests(T, "positive", cfg).status != FALSIFIED

    two_sep = triple.f.sup_norm() <= 1e-7 * max(1.0, triple.g.sup_norm(), 1.0)
    amp_verdict = certify_separating(amplified_map(T, 2), cfg, witness_seeds=24)
    two_cross = amp_verdict.status == CERTIFIED

    cross = {
        "injective_rank_of_T": inj_cross,
        "positive_sampled": pos_cross,
        "two_separating_amplified": amp_verdict.status,
    }
    consistent = (
        injective == inj_cross
        and positive == pos_cross
        and (two_sep == two_cross or amp_verdict.status == UNDETERMINED)
    )
    return StructuralReport(injective, positive, two_sep, cross, consistent)
