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
central splitting of J into a homomorphic part pi and an anti-homomorphic
part sigma cut out by central projections g and f of the algebra generated
by the range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .algebra import (
    DEFAULT_CONFIG,
    Element,
    StructuralError,
    ToleranceConfig,
    _nearly_selfadjoint,
    _sup_norms,
    apply_spectral,
    hermitian_part,
    identity,
    polar_support,
    pseudo_inverse,
    zero_element,
)
from .lp import _hermitian_spectrum, is_positive
from .maps import (
    LinearMap,
    _block_stacks,
    _map_from_images,
    _transposed_coords,
    _unit_images,
    amplified_map,
    coord_weights,
    unvec,
    vec,
)
from .sampling import random_positive, random_selfadjoint, rng_from

CERTIFIED = "certified"
FALSIFIED = "falsified"
UNDETERMINED = "undetermined"


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


def verify_jordan(
    J: LinearMap, cfg: ToleranceConfig = DEFAULT_CONFIG, spot_checks: int = 3
) -> JordanReport:
    """Check J(x^2) = J(x)^2 (in polarized form over all basis pairs, which
    is equivalent by bilinearity) and J(x*) = J(x)* on the basis, plus a few
    random squares."""
    dom = J.domain
    images = _unit_images(J)
    scale = max(1.0, float(_sup_norms(images).max())) ** 2
    upper = np.triu_indices(dom.coord_dim)
    polarized = [(L + L.swapaxes(0, 1) - (P + P.swapaxes(0, 1)))[upper]
                 for L, P in _product_table(dom, images)]
    star = _transposed_coords(dom)
    adjoints = [S[star] - S.conj().swapaxes(1, 2) for S in images]
    defect = max(float(_sup_norms(polarized).max()), float(_sup_norms(adjoints).max()))
    rng = rng_from(cfg.seed, 9100)
    for _ in range(spot_checks):
        x = random_selfadjoint(dom, rng)
        jx = J(x)
        defect = max(defect, (J(x * x) - jx * jx).sup_norm() / max(1.0, x.sup_norm() ** 2))
    tol = max(1e-7, 100.0 * cfg.algebraic_tol)
    return JordanReport(defect <= tol * scale, float(defect), float(scale))


@dataclass
class CentralDecomposition:
    g: Element
    f: Element
    pi: LinearMap
    sigma: LinearMap
    projections: list[Element] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)


def _span_orthonormal(vectors: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (rows) of the row span of ``vectors``."""
    if vectors.size == 0:
        return vectors
    u, s, vh = np.linalg.svd(vectors, full_matrices=False)
    keep = s > tol * (s[0] if s.size else 1.0)
    return vh[keep]


def _generated_algebra(J: LinearMap) -> np.ndarray:
    """Orthonormal coordinate rows spanning the algebra generated by J's
    range, by closing the linear span of the images under multiplication
    until the dimension stabilizes."""
    gens = np.concatenate([J.action.T, vec(J(identity(J.domain)))[None, :]])
    rows = _span_orthonormal(gens, 1e-12)
    while True:
        prods = [np.matmul(S[:, None], S[None, :]).reshape(len(rows) ** 2, -1)
                 for S in _block_stacks(J.codomain, rows)]
        new_rows = _span_orthonormal(np.concatenate([rows, np.concatenate(prods, axis=1)]), 1e-12)
        if new_rows.shape[0] == rows.shape[0]:
            return new_rows
        rows = new_rows


def _center_basis(N, rows: np.ndarray) -> list[Element]:
    """Basis of the center of the algebra spanned by the coordinate rows:
    the null space of the commutators z d - d z over all basis pairs."""
    m = len(rows)
    comms = []
    for S in _block_stacks(N, rows):
        P = np.matmul(S[:, None], S[None, :])
        comms.append((P - P.swapaxes(0, 1)).reshape(m, m, -1))
    C = np.concatenate(comms, axis=2).reshape(m, -1).T  # columns: span coefficients
    _, s, vh = np.linalg.svd(C, full_matrices=False)  # C is tall: m N x m
    # basis vectors are orthonormal, so genuine commutators are O(1);
    # the threshold must not scale down with an all-noise commutator matrix
    tol = 1e-10 * max(1.0, float(s[0]))
    out = []
    for c in vh.conj()[s <= tol]:
        z = np.zeros(rows.shape[1], dtype=complex)
        for ci, base in zip(c, rows):
            z = z + complex(ci) * base
        out.append(unvec(N, z))
    return out


def central_decompose(
    J: LinearMap, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> CentralDecomposition:
    """Split J into its homomorphic and anti-homomorphic parts.

    Finds the minimal central projections of the algebra generated by the
    range, classifies each as satisfying the multiplicative or the reversed
    multiplication law on basis pairs, and returns g (sum of multiplicative
    blocks), f (sum of reversed blocks), pi = J(.)g and sigma = J(.)f.
    Blocks satisfying both laws have commutative range and are assigned to
    g, a deterministic tie-break.  A block satisfying neither law means the
    input was not a Jordan homomorphism at this tolerance.
    """
    N = J.codomain
    dom = J.domain
    e_unit = J(identity(dom))
    if e_unit.sup_norm() <= cfg.algebraic_tol:
        zero_map = LinearMap(dom, N, np.zeros((N.coord_dim, dom.coord_dim)), J.p)
        z = zero_element(N)
        return CentralDecomposition(z, z, zero_map, zero_map)

    center = _center_basis(N, _generated_algebra(J))
    if not center:
        raise StructuralError("range algebra has empty center at tolerance")

    herm = []
    for z in center:
        herm.append(hermitian_part(z))
        herm.append(hermitian_part(Element(N, [1j * b for b in z.blocks])))

    projections: list[Element] = []
    m = len(center)
    for attempt in range(12):
        rng = rng_from(cfg.seed, 9200, attempt)
        t = zero_element(N)
        for h in herm:
            t = t + float(rng.uniform(0.5, 2.0)) * h
        vals = _hermitian_spectrum(t)
        scale = max(abs(vals[0]), abs(vals[-1]), 1.0)
        clusters: list[float] = []
        for v in vals:
            if not clusters or abs(v - clusters[-1]) > 1e-6 * scale:
                clusters.append(float(v))
        nonzero = [c for c in clusters if abs(c) > 1e-7 * scale]
        if len(nonzero) != m:
            continue
        projections = [
            apply_spectral(
                t, lambda x, c=c: (np.abs(x - c) <= 1e-6 * scale).astype(float), cfg
            )
            for c in nonzero
        ]
        total = zero_element(N)
        for q in projections:
            total = total + q
        if (total - e_unit).sup_norm() <= 1e-6 * max(1.0, e_unit.sup_norm()):
            break
        projections = []
    if not projections:
        raise StructuralError("could not isolate minimal central projections")

    images = _unit_images(J)
    table = _product_table(dom, images)
    scale = max(1.0, float(_sup_norms(images).max())) ** 2
    tol = max(1e-7, 100.0 * cfg.algebraic_tol) * scale

    g = zero_element(N)
    f = zero_element(N)
    labels = []
    for q in projections:
        hom, anti = [], []
        for (L, P), b in zip(table, q.blocks):
            lhs = np.matmul(L, b)
            hom.append(lhs - np.matmul(P, b))
            anti.append(lhs - np.matmul(P.swapaxes(0, 1), b))
        hom_res = float(_sup_norms(hom).max())
        anti_res = float(_sup_norms(anti).max())
        if hom_res > tol and anti_res > tol:
            raise StructuralError(
                "central block obeys neither multiplication law "
                f"(hom {hom_res:.2e}, anti {anti_res:.2e}); "
                "input is not Jordan at tolerance"
            )
        if hom_res <= tol:
            g = g + q
            labels.append("hom")
        else:
            f = f + q
            labels.append("anti")

    pi = _map_from_images(dom, N, [np.matmul(S, b) for S, b in zip(images, g.blocks)],
                          J.p, {"kind": "jordan_hom_part"})
    sigma = _map_from_images(dom, N, [np.matmul(S, b) for S, b in zip(images, f.blocks)],
                             J.p, {"kind": "jordan_anti_part"})
    return CentralDecomposition(g, f, pi, sigma, projections, labels)


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
    reason: str
    residual: float
    all_reasons: list[str] = field(default_factory=list)

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
    name the first violated condition.
    """
    dom, cod = T.domain, T.codomain
    one = identity(dom)
    t1 = T(one)
    action_scale = float(np.abs(T.action).max()) if T.action.size else 0.0

    if t1.sup_norm() <= cfg.algebraic_tol * max(1.0, action_scale):
        if action_scale <= cfg.algebraic_tol:
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
    out_scale = max(1.0, float(_sup_norms(T_images).max()))
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
    residuals["commutation"] = comm / max(1.0, B.sup_norm())
    if comm > tol * max(1.0, B.sup_norm()) * max(1.0, float(_sup_norms(J_images).max())):
        reasons.append("commutation (c)")

    report = verify_jordan(J, cfg)
    residuals["jordan"] = report.defect
    if not report.ok:
        reasons.append("jordan")

    if reasons:
        return ExtractionFailure(reasons[0], max(residuals.values()), reasons)

    try:
        dec = central_decompose(J, cfg)
    except StructuralError as exc:
        return ExtractionFailure("central", report.defect, ["central", str(exc)])

    return YeadonTriple(
        w, B, J, True, dec.g, dec.f, dec.pi, dec.sigma, residuals
    )


def isometry_trace_diagnostic(
    triple: YeadonTriple,
    domain,
    p: float,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> float:
    """Optional diagnostic for isometries: the relative defect of the trace
    matching condition  tau(a) = tau(B^p J(a))  on a basis of the domain.

    The factorization itself never requires this condition; it singles out
    the maps whose factorization implements an isometry at exponent p, so a
    small value here together with a valid triple signals an isometry and a
    large one a proper contraction or expansion."""
    Bp = apply_spectral(triple.B, lambda v: np.clip(v, 0.0, None) ** p, cfg)
    lhs = coord_weights(domain) * vec(identity(domain))  # tau(e_a)
    rhs = 0
    for (_, w), b, S in zip(Bp.algebra.blocks, Bp.blocks, _unit_images(triple.J)):
        rhs = rhs + w * np.trace(np.matmul(b, S), axis1=1, axis2=2)
    defect = lhs - rhs
    worst = float(np.max(np.hypot(defect.real, defect.imag)))  # |z| as Python rounds it
    scale = max(1.0, domain.trace_of_identity)
    return worst / scale


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
    cuts_per_seed: int = 4,
) -> SeparatingVerdict:
    """Certify (via successful extraction, which is sound) or falsify (via a
    positive disjoint pair whose images fail to be disjoint) the separating
    property.  The witness search draws positive pairs with orthogonal
    supports from spectral cuts of seeded random self-adjoints; running out
    of budget yields an honest undetermined."""
    res = extract_yeadon(T, cfg)
    if isinstance(res, YeadonTriple):
        return SeparatingVerdict(CERTIFIED, triple=res)

    viol_tol = max(1e-6, 1e3 * cfg.algebraic_tol)
    action_scale = max(float(np.abs(T.action).max()), 1e-300)
    for s in range(witness_seeds):
        rng = rng_from(cfg.seed, 9300, s)
        h = random_selfadjoint(T.domain, rng)
        vals = _hermitian_spectrum(h)
        if len(vals) < 2:
            continue
        for c in range(cuts_per_seed):
            q = (c + 1) / (cuts_per_seed + 1)
            cut = float(np.quantile(vals, q)) + 1e-12
            p_proj = apply_spectral(h, lambda v: (v >= cut).astype(float), cfg)
            q_proj = identity(T.domain) - p_proj
            if p_proj.sup_norm() < 0.5 or q_proj.sup_norm() < 0.5:
                continue
            a = p_proj * random_positive(T.domain, rng) * p_proj
            b = q_proj * random_positive(T.domain, rng) * q_proj
            if a.sup_norm() < 1e-12 or b.sup_norm() < 1e-12:
                continue
            ta, tb = T(a), T(b)
            na, nb = ta.sup_norm(), tb.sup_norm()
            # images at rounding-dust level carry no usable sign information
            if na <= 1e-12 * action_scale * a.sup_norm() or nb <= 1e-12 * action_scale * b.sup_norm():
                continue
            cross = max((ta.H * tb).sup_norm(), (ta * tb.H).sup_norm())
            if cross > viol_tol * na * nb:
                return SeparatingVerdict(
                    FALSIFIED,
                    witness=(a, b),
                    evidence={"violation": cross / (na * nb),
                              "extraction": res.reason},
                )
    return SeparatingVerdict(
        UNDETERMINED,
        evidence={"extraction": res.reason, "seeds": witness_seeds},
    )


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
    samples: int = 16,
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

    w = triple.w
    positive = _nearly_selfadjoint(w, 1e-7) and is_positive(hermitian_part(w), cfg)
    rng = rng_from(cfg.seed, 9400)
    pos_cross = True
    action_scale = max(float(np.abs(T.action).max()), 1e-300)
    loose = ToleranceConfig(
        algebraic_tol=1e-7, opt_tol=cfg.opt_tol, rank_cutoff=cfg.rank_cutoff,
        restarts=cfg.restarts, seed=cfg.seed,
    )
    for _ in range(samples):
        x = random_positive(T.domain, rng)
        y = T(x)
        if y.sup_norm() <= 1e-12 * action_scale * x.sup_norm():
            continue
        if not is_positive(hermitian_part(y), loose):
            pos_cross = False
            break

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
