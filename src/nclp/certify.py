"""Estimation and theorem-backed certification of the ell^1-extension norm.

For T between L^p spaces, the quantity of interest is the norm of T acting
entrywise on ell^1-valued sequences.  Sampling sequence ratios gives sound
lower bounds; certified upper bounds come from structure, tried in order:

  commutative_regular       both algebras diagonal: the value equals the
                            operator norm of the entrywise modulus matrix;
  p_equals_one              at p = 1 the sequence spaces are plain ell^1
                            direct sums and the value equals the norm of T;
  separating                a map with a (w, B, J) factorization has
                            ell^1 norm exactly equal to its norm;
  two_positive_contraction  a 2-positive contraction has ell^1 norm <= 1;
  positive_4x               a positive map has ell^1 norm <= 4 |T|;
  sampled_only              no structure found: lower bound only.

A certificate whose sampled lower bound beats its certified upper bound
signals an implementation bug (the theorems are unconditional) and is
flagged as an inconsistency alarm rather than silently clipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import (
    DEFAULT_CONFIG,
    DomainError,
    Element,
    StructuralError,
    ToleranceConfig,
    absolute,
    block_matrix,
    block_entries,
    hermitian_part,
    identity,
    positive_sqrt,
    zero_element,
)
from .lp import is_positive, lp_norm
from .maps import (
    CERTIFIED,
    UNDETERMINED,
    LinearMap,
    _boyd_ascent,
    _weighted_action,
    amplified_map,
    op_norm,
    positivity_tests,
)
from .sampling import rng_from, random_disjoint_pair, random_element, random_positive
from .sequences import (
    DISJOINT,
    ElementSequence,
    NormInterval,
    _closed_form,
    _gram_spectra,
    _objective,
    _polar_factors,
    _stacks,
    dinq_disjoint_test,
    l1_norm_bounds,
    phase_lower_bound,
    sequence,
    sum_elements,
)
from .yeadon import (
    YeadonTriple,
    certify_separating,
    extract_yeadon,
    isometry_trace_diagnostic,
)

ROUTE_COMMUTATIVE = "commutative_regular"
ROUTE_P1 = "p_equals_one"
ROUTE_SEPARATING = "separating"
ROUTE_TWO_POSITIVE = "two_positive_contraction"
ROUTE_POSITIVE = "positive_4x"
ROUTE_SAMPLED = "sampled_only"


def _sequence_lower(seq: ElementSequence, p: float, cfg: ToleranceConfig) -> float:
    """Sound lower bound for the sequence norm without running the optimizer:
    the closed form, else the scalar-phase sup."""
    exact = _closed_form(seq, p, cfg)
    return exact[0] if exact is not None else phase_lower_bound(seq, p, cfg)


def _input_upper(seq: ElementSequence, p: float, cfg: ToleranceConfig) -> float:
    """Valid upper bound for the input norm: the closed form, else the
    objective of the polar factorization."""
    exact = _closed_form(seq, p, cfg)
    if exact is not None:
        return exact[0]
    return _objective(seq.algebra, *_polar_factors(seq, cfg), p)


def map_sequence(T: LinearMap, seq: ElementSequence) -> ElementSequence:
    return sequence([T(x) for x in seq])


def l1_ratio_lower(
    T: LinearMap,
    p: float,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    budget: int = 30,
) -> tuple[float, dict]:
    """Best sampled ratio  lower(T seq) / upper(seq),  a sound lower bound
    for the ell^1-extension norm.  Sample classes where the input norm is
    exact (positive sequences, singletons, disjoint pairs at p = 2) carry
    the most information; singleton ratios are sharpened by nonlinear power
    iterations and re-evaluated at the absolute value of the best iterate to
    track the positive-singleton ratio separately."""
    rng = rng_from(cfg.seed, 9600)
    dom = T.domain
    best = 0.0
    singleton_best = 0.0
    positive_singleton_best = 0.0
    n_done = 0
    if budget <= 0:
        return 0.0, {"best": 0.0, "singleton": 0.0, "positive_singleton": 0.0,
                     "samples": 0}

    def consider(seq: ElementSequence) -> Optional[float]:
        nonlocal best, n_done
        up = _input_upper(seq, p, cfg)
        if up <= 1e-12:
            return None
        lo = _sequence_lower(map_sequence(T, seq), p, cfg)
        r = lo / up
        best = max(best, r)
        n_done += 1
        return r

    def singleton(x: Element, positive: bool) -> None:
        nonlocal singleton_best, positive_singleton_best
        r = consider(sequence([x]))
        if r is None:
            return
        singleton_best = max(singleton_best, r)
        if positive:
            positive_singleton_best = max(positive_singleton_best, r)

    per_class = max(3, budget // 5)
    for i in range(per_class):
        n = 2 + (i % 2)
        seq = sequence([random_positive(dom, rng) for _ in range(n)])
        consider(seq)
    for _ in range(per_class):
        singleton(random_element(dom, rng), positive=False)
        singleton(random_positive(dom, rng), positive=True)
    if p == 2 and dom.coord_dim >= 2:
        for i in range(per_class):
            a, b = random_disjoint_pair(dom, rng, positive=(i % 2 == 0))
            consider(sequence([a, b]))
    for _ in range(per_class):
        consider(sequence([random_element(dom, rng), random_element(dom, rng)]))

    # local ascent on singletons
    for start in (
        identity(dom),
        random_element(dom, rng),
        random_positive(dom, rng),
    ):
        ratio, arg = _boyd_ascent(T, p, cfg, 25, start)
        if arg is not None:
            singleton(arg, positive=is_positive(arg, cfg))
            singleton(absolute(arg), positive=True)

    info = {
        "best": best,
        "singleton": singleton_best,
        "positive_singleton": positive_singleton_best,
        "samples": n_done,
    }
    return best, info


def _is_diagonal(algebra) -> bool:
    return all(d == 1 for d in algebra.dims)


def _regular_norm_interval(
    T: LinearMap, p: float, cfg: ToleranceConfig
) -> NormInterval:
    if not (_is_diagonal(T.domain) and _is_diagonal(T.codomain)):
        raise DomainError("regular norm needs diagonal algebras on both sides")
    abs_map = LinearMap(
        T.domain,
        T.codomain,
        np.abs(T.action),
        p,
        {"kind": "entrywise_modulus", "positive": True, "cp": True},
    )
    return op_norm(abs_map, p, cfg, positive_certified=True)


def regular_norm_commutative(
    T: LinearMap, p: Optional[float] = None, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> float:
    """Operator norm (upper endpoint; exact at p = 2) of the entrywise
    modulus of the action matrix, which for diagonal algebras equals the
    ell^1-extension norm of T."""
    p = T.p if p is None else p
    return _regular_norm_interval(T, p, cfg).upper


@dataclass
class L1Certificate:
    value_interval: NormInterval
    route: str
    evidence: dict = field(default_factory=dict)
    alarm: bool = False


def certify_l1_norm(
    T: LinearMap,
    p: Optional[float] = None,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    ratio_budget: int = 25,
    witness_seeds: int = 24,
) -> L1Certificate:
    """Enclose the ell^1-extension norm, trying exact-value routes before
    bound-only routes; the sampled-only route never claims an upper bound."""
    p = T.p if p is None else p
    ratio, rinfo = l1_ratio_lower(T, p, cfg, budget=ratio_budget)
    evidence: dict = {"ratio": rinfo}
    upper = np.inf
    extra_lower = 0.0
    route = ROUTE_SAMPLED

    if _is_diagonal(T.domain) and _is_diagonal(T.codomain):
        reg = _regular_norm_interval(T, p, cfg)
        route, upper, extra_lower = ROUTE_COMMUTATIVE, reg.upper, reg.lower
        evidence["regular_norm"] = (reg.lower, reg.upper)
    elif p == 1:
        nv = op_norm(T, 1, cfg)
        route, upper, extra_lower = ROUTE_P1, nv.upper, nv.lower
        evidence["op_norm"] = (nv.lower, nv.upper)
    else:
        sep = certify_separating(T, cfg, witness_seeds=witness_seeds)
        evidence["separating"] = sep.status
        if sep.status == CERTIFIED:
            nv = op_norm(T, p, cfg)
            route, upper, extra_lower = ROUTE_SEPARATING, nv.upper, nv.lower
            evidence["op_norm"] = (nv.lower, nv.upper)
            evidence["triple_residuals"] = sep.triple.residuals
        else:
            two = positivity_tests(T, "two_positive", cfg)
            evidence["two_positive"] = two.status
            two_route = two.status == CERTIFIED
            if not two_route:
                # the ell^1 norm is blind to reversing the product, so a
                # 2-copositive contraction certifies the same way through
                # composition with the blockwise transposition
                from .maps import compose, transpose_map

                co = positivity_tests(
                    compose(transpose_map(T.codomain, p), T), "two_positive", cfg
                )
                evidence["two_copositive"] = co.status
                if co.status == CERTIFIED:
                    two_route = True
                    evidence["via"] = "two_copositive"
            nv = op_norm(T, p, cfg, positive_certified=True if two_route else None)
            evidence["op_norm"] = (nv.lower, nv.upper)
            if two_route and nv.upper <= 1.0 + cfg.opt_tol:
                route, upper, extra_lower = ROUTE_TWO_POSITIVE, min(nv.upper, 1.0), nv.lower
            elif T.meta.get("convex_parts"):
                t, T1, T2 = T.meta["convex_parts"]
                c1 = certify_l1_norm(T1, p, cfg, ratio_budget=0, witness_seeds=4)
                c2 = certify_l1_norm(T2, p, cfg, ratio_budget=0, witness_seeds=4)
                route = ROUTE_TWO_POSITIVE
                upper = t * c1.value_interval.upper + (1 - t) * c2.value_interval.upper
                extra_lower = nv.lower
                evidence["via"] = "convex_combination"
                evidence["part_routes"] = (c1.route, c2.route)
            else:
                pos = positivity_tests(T, "positive", cfg)
                evidence["positive"] = pos.status
                if pos.status == CERTIFIED:
                    nvp = op_norm(T, p, cfg, positive_certified=True)
                    route, upper, extra_lower = ROUTE_POSITIVE, 4.0 * nvp.upper, nvp.lower
                    evidence["op_norm"] = (nvp.lower, nvp.upper)
                else:
                    route, upper, extra_lower = ROUTE_SAMPLED, np.inf, nv.lower

    lower = max(ratio, extra_lower)
    alarm = bool(np.isfinite(upper) and lower > upper * (1.0 + cfg.opt_tol))
    if alarm:
        evidence["alarm_lower"] = lower
        lower = upper
    certified = np.isfinite(upper) and (upper - lower) <= cfg.opt_tol * max(upper, 1e-300)
    interval = NormInterval(min(lower, upper), float(upper), certified)
    return L1Certificate(interval, route, evidence, alarm)


# ---------------------------------------------------------------------------
# L^2 isometry classification
# ---------------------------------------------------------------------------

YTF = "ytf"
NO_YTF = "no_ytf"
NOT_ISOMETRY = "not_isometry"


@dataclass
class IsometryClassification:
    status: str
    triple: Optional[YeadonTriple] = None
    witness: Optional[tuple[Element, Element]] = None
    alarm: bool = False
    evidence: dict = field(default_factory=dict)


def is_l2_isometry(T: LinearMap, cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """Exact linear-algebra check that T preserves the weighted 2-norm."""
    Aw = _weighted_action(T)
    gram = Aw.conj().T @ Aw
    return bool(
        np.linalg.norm(gram - np.eye(gram.shape[0]), 2) <= 1e-9 * max(1.0, np.linalg.norm(gram, 2))
    )


def classify_l2_isometry(
    T: LinearMap,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    pairs: int = 18,
) -> IsometryClassification:
    """Decide whether an L^2 isometry admits a (w, B, J) factorization.

    Route one extracts the factorization directly; route two sends sampled
    disjoint pairs through T and applies the two-term p = 2 criterion to the
    images.  The two must agree: a certified factorization together with a
    non-disjoint image pair (or a certified-positive isometry that fails
    extraction) raises the inconsistency alarm, because both implications
    are unconditional theorems.
    """
    if not is_l2_isometry(T, cfg):
        return IsometryClassification(NOT_ISOMETRY)

    tri = extract_yeadon(T, cfg)
    extracted = isinstance(tri, YeadonTriple)

    witness = None
    statuses = []
    l12_ratios = []
    for i in range(pairs):
        rng = rng_from(cfg.seed, 9700, i)
        a, b = random_disjoint_pair(T.domain, rng, positive=(i % 3 == 0))
        verdict = dinq_disjoint_test(T(a), T(b), cfg)
        statuses.append(verdict.status)
        # an image pair fails route (ii) if it does not certify disjoint and
        # the algebraic cross-check confirms the cross products are nonzero
        if witness is None and verdict.status != DISJOINT and not verdict.algebraic:
            witness = (a, b)
        denom = float(np.sqrt(lp_norm(a, 2) ** 2 + lp_norm(b, 2) ** 2))
        if denom > 0:
            l12_ratios.append(verdict.interval.upper / denom)

    evidence = {
        "pair_statuses": {s: statuses.count(s) for s in set(statuses)},
        "max_l12_ratio": max(l12_ratios) if l12_ratios else None,
        "extraction": "ok" if extracted else tri.reason,
    }

    alarm = False
    if extracted:
        if witness is not None:
            alarm = True
            evidence["conflict"] = "factorization extracted but an image pair is not disjoint"
        evidence["trace_condition_defect"] = isometry_trace_diagnostic(
            tri, T.domain, 2.0, cfg
        )
        return IsometryClassification(YTF, triple=tri, alarm=alarm, evidence=evidence)

    pos = positivity_tests(T, "positive", cfg)
    if pos.status == CERTIFIED:
        alarm = True
        evidence["conflict"] = "positive isometry failed extraction"
    if witness is not None:
        return IsometryClassification(NO_YTF, witness=witness, alarm=alarm, evidence=evidence)
    return IsometryClassification(UNDETERMINED, alarm=alarm, evidence=evidence)


# ---------------------------------------------------------------------------
# Constructive witnesses
# ---------------------------------------------------------------------------


@dataclass
class PolarizationWitness:
    components: list[ElementSequence]
    reconstruction_residual: float
    component_sum_norms: list[float]
    image_sum_norms: list[float]
    factor_norms: tuple[float, float]


@dataclass
class TwoPositiveSqrtWitness:
    alphas: list[Element]
    betas: list[Element]
    deltas: list[Element]
    identity_residual: float
    factor_bound: float


def _normalized_factorization(
    seq: ElementSequence, p: float, cfg: ToleranceConfig
) -> tuple[list[Element], list[Element], tuple[float, float]]:
    iv = l1_norm_bounds(seq, p, cfg)
    if iv.witness is None:
        raise StructuralError("no factorization witness available")
    a_list, b_list = iv.witness
    _, ra, cb = _gram_spectra(seq.algebra, _stacks(a_list), _stacks(b_list), p)
    margin = 1.0 + 1e-9
    sa = 1.0 / np.sqrt(ra * margin) if ra > 0 else 1.0
    sb = 1.0 / np.sqrt(cb * margin) if cb > 0 else 1.0
    a_n = [sa * a for a in a_list]
    b_n = [sb * b for b in b_list]
    return a_n, b_n, (ra, cb)


def constructive_witnesses(
    T: LinearMap,
    seq: ElementSequence,
    kind: str,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
):
    """Produce the explicit positive decompositions behind the positive-map
    and 2-positive norm bounds, with their defining identities verified.

    'polarization': writes each x_n = a_n b_n (normalized so both factor
    norms are below one) as a signed combination of the four positives
    y_n^k = (a_n* + i^k b_n)* (a_n* + i^k b_n); their sums have p-norm at
    most 4, so a positive T gives |(T x_n)| <= 4 |T|.

    'two_positive_sqrt': forms the positive 2x2 block matrix with corners
    a_n a_n*, a_n b_n, b_n* b_n, pushes it through the amplified map, and
    reads the square root [[alpha, beta], [beta*, delta]]; the three corner
    identities of the square give the ell^1 factorization of (T x_n).
    """
    p = T.p
    if kind == "polarization":
        a_n, b_n, factor_norms = _normalized_factorization(seq, p, cfg)
        components: list[ElementSequence] = []
        sums, image_sums = [], []
        for k in range(4):
            phase = 1j**k
            ys = []
            for a, b in zip(a_n, b_n):
                c = a.H + phase * b
                ys.append(c.H * c)
            comp = sequence(ys)
            components.append(comp)
            sums.append(lp_norm(sum_elements(comp), p))
            image_sums.append(lp_norm(sum_elements(map_sequence(T, comp)), p))
        # the combination reconstructs the normalized products a_n b_n
        recon = 0.0
        for n in range(len(seq.items)):
            rec = zero_element(seq.algebra)
            for k in range(4):
                rec = rec + ((-1j) ** k * 0.25) * components[k].items[n]
            recon = max(recon, (rec - a_n[n] * b_n[n]).sup_norm())
        return PolarizationWitness(components, float(recon), sums, image_sums, factor_norms)

    if kind == "two_positive_sqrt":
        gate = positivity_tests(T, "two_positive", cfg)
        if gate.status != CERTIFIED:
            raise DomainError(
                f"two_positive_sqrt needs a certified 2-positive map (got {gate.status})"
            )
        a_n, b_n, factor_norms = _normalized_factorization(seq, p, cfg)
        amp = amplified_map(T, 2)
        alg = seq.algebra
        zero = zero_element(alg)
        alphas, betas, deltas = [], [], []
        residual = 0.0
        for a, b in zip(a_n, b_n):
            z = block_matrix(alg, [[a * a.H, a * b], [b.H * a.H, b.H * b]])
            img = amp(z)
            root = positive_sqrt(hermitian_part(img), cfg)
            grid = block_entries(alg, 2, root)
            alpha, beta, delta = grid[0][0], grid[0][1], grid[1][1]
            alphas.append(alpha)
            betas.append(beta)
            deltas.append(delta)
            residual = max(
                residual,
                (T(a * a.H) - (alpha * alpha + beta * beta.H)).sup_norm(),
                (T(b.H * b) - (beta.H * beta + delta * delta)).sup_norm(),
                (T(a * b) - (alpha * beta + beta * delta)).sup_norm(),
                (grid[1][0] - beta.H).sup_norm(),
            )
        tol = max(1e-8, 1000 * cfg.algebraic_tol)
        scale = max(1.0, max(x.sup_norm() for x in seq))
        if residual > tol * scale:
            raise StructuralError(
                f"square-root identities failed: residual {residual:.3e}"
            )
        left = zero_element(T.codomain)
        right = zero_element(T.codomain)
        for a, b in zip(a_n, b_n):
            left = left + T(a * a.H)
            right = right + T(b.H * b)
        bound = float(np.sqrt(lp_norm(left, p) * lp_norm(right, p)))
        return TwoPositiveSqrtWitness(alphas, betas, deltas, float(residual), bound)

    raise DomainError(f"unknown witness kind {kind!r}")
