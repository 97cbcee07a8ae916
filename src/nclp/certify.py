"""Estimation and theorem-backed certification of the ell^1-extension norm.

For T between L^p spaces, the quantity of interest is the norm of T acting
entrywise on ell^1-valued sequences.  Sampled sequence ratios are sound
lower bounds, and their singletons hold the one operator-norm search: |T|_p
is a lower bound for every map.  Certified upper bounds come from structure,
read from the action matrix by exact tests and tried in order (a map neither
diagonal nor separating takes one Choi test and ``maps._norm_bounds``, the
operator-norm enclosure that ``op_norm`` reads too):

  commutative_regular       both algebras diagonal: the value is the norm of
                            the entrywise modulus, by Collatz-Wielandt;
  separating                a map with an extracted (w, B, J) factorization,
                            at every p: the value is its norm max_k h_k^(1/p),
                            h the central density of tau(B^p J(.));
  p_equals_one              at p = 1 the sequence spaces are plain ell^1
                            direct sums and the value equals the norm of T;
                            for a positive map both endpoints are
                            |T*(1)|_inf, the lower one attained at a
                            rank-one projection;
  two_positive_contraction  CP or co-CP (Choi): T / |T| is a 2-(co)positive
                            contraction, so the value equals the norm of T,
                            exact at every p: attained at p = 2, else
                            enclosed by a positive-cone ascent and the
                            Lieb-concavity bound (``maps._cp_norm``);
                            a mixture takes its parts' bound;
  positive_4x               a positive map (each Choi component CP or co-CP,
                            or a ``positive`` flag) has ell^1 norm <= 4 |T|;
  sampled_only              no structure found: lower bound only.

Each route also reads a lower endpoint from T; the sampled ratio runs only
where that enclosure stays open.  A lower endpoint above the certified upper
one flags an implementation bug (the theorems are unconditional): an alarm.
One above it by rounding only is clipped, and kept in the evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import (
    DEFAULT_CONFIG,
    DomainError,
    Element,
    NumericError,
    StructuralError,
    ToleranceConfig,
    _absolute,
    block_matrix,
    block_entries,
    hermitian_part,
    positive_sqrt,
    zero_element,
)
from .lp import _norms, _positive, lp_norm
from .maps import (
    CERTIFIED,
    UNDETERMINED,
    LinearMap,
    _block_stacks,
    _norm_bounds,
    _norm_search,
    _weighted_action,
    amplified_map,
    choi_positivity,
    is_completely_positive,
)
from .sampling import _disjoint_stacks, ginibre, rng_from, wishart
from .sequences import (
    DISJOINT,
    ElementSequence,
    NormInterval,
    _dinq_verdicts,
    _gram_norms,
    _grams,
    _solve,
    _stacks,
    l1_norm_bounds,
    sequence,
    sum_elements,
)
from .yeadon import YeadonTriple, extract_yeadon, trace_density

ROUTE_COMMUTATIVE = "commutative_regular"
ROUTE_P1 = "p_equals_one"
ROUTE_SEPARATING = "separating"
ROUTE_TWO_POSITIVE = "two_positive_contraction"
ROUTE_POSITIVE = "positive_4x"
ROUTE_SAMPLED = "sampled_only"


# Steps of the sequence-norm solver per sampled image sequence: every dual
# iterate is a sound lower endpoint, and the first update (the dual of the
# polar factorization) already beats the scalar-phase sup that the sampled
# ratios used to read.  Inputs take the first step's upper endpoint, the
# polar factorization.
RATIO_STEPS = 1


def l1_ratio_lower(
    T: LinearMap,
    p: float,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    budget: int = 30,
) -> tuple[float, dict]:
    """Best sampled ratio  lower(T seq) / upper(seq),  a sound lower bound
    for the ell^1-extension norm.  ``budget`` sizes the random classes
    (positive sequences, singletons, disjoint pairs at p = 2, generic pairs;
    0 draws none).  The singletons also take every row of ``_norm_search``,
    started from a random element and a random positive too, and its
    absolute value (a positive singleton): ``singleton`` is at least
    op_norm's lower endpoint, and the norm at p = 2.  Each length takes one
    sequence-norm solve for the inputs (closed form, else polar step) and
    one for the images (``RATIO_STEPS``).  p outside [1, inf), nan
    included, raises DomainError."""
    if not 1 <= p < np.inf:  # also rejects nan
        raise DomainError(f"the ell^1-extension norm needs a finite p >= 1, got p = {p}")
    rng = rng_from(cfg.seed, 9600)
    dom = T.domain

    def draw(f) -> list[np.ndarray]:  # the blocks of one random element
        return [f(rng, d) for d in dom.dims]

    # (items as block lists, counted as a positive singleton), in the order of the draws
    samples: list[tuple[list[list[np.ndarray]], bool]] = []
    per_class = max(3, budget // 5) if budget > 0 else 0
    for i in range(per_class):
        samples.append(([draw(wishart) for _ in range(2 + i % 2)], False))
    for _ in range(per_class):
        samples.append(([draw(ginibre)], False))
        samples.append(([draw(wishart)], True))
    if p == 2 and dom.coord_dim >= 2 and per_class:
        A, B = _disjoint_stacks(dom, [rng] * per_class, [i % 2 == 0 for i in range(per_class)])
        samples += [([[S[i] for S in A], [S[i] for S in B]], False) for i in range(per_class)]
    for _ in range(per_class):
        samples.append(([draw(ginibre), draw(ginibre)], False))

    starts = [np.concatenate([b.reshape(-1) for b in draw(f)]) for f in (ginibre, wishart)]
    values, rows = _norm_search(T, p, cfg, starts)
    args = _block_stacks(dom, rows[values > 0])
    if len(args[0]):  # each argument, then its absolute value (a positive singleton)
        absolutes = _absolute(args)
        for j, positive in enumerate(_positive(args, cfg).tolist()):
            samples += [([[S[j] for S in args]], positive), ([[S[j] for S in absolutes]], True)]

    best = singleton_best = positive_singleton_best = 0.0
    n_done = 0
    for n in dict.fromkeys(len(items) for items, _ in samples):
        group = [sample for sample in samples if len(sample[0]) == n]
        X = [np.array(blocks).reshape(len(group), n, d, d)
             for d, blocks in zip(dom.dims, zip(*(item for items, _ in group for item in items)))]
        up = _solve(X, dom.weights, p, cfg, 0)[1]
        coords = np.concatenate([S.reshape(len(group) * n, -1) for S in X], axis=1)
        TX = [S.reshape(len(group), n, *S.shape[1:]) for S in _block_stacks(T.codomain, coords @ T.action.T)]
        lo = _solve(TX, T.codomain.weights, p, cfg, RATIO_STEPS)[0]
        for (_, positive), lo_i, up_i in zip(group, lo, up):
            if up_i <= 1e-12:
                continue
            r = lo_i / up_i
            best = max(best, r)
            n_done += 1
            if n == 1:
                singleton_best = max(singleton_best, r)
                if positive:
                    positive_singleton_best = max(positive_singleton_best, r)

    return best, {"best": best, "singleton": singleton_best,
                  "positive_singleton": positive_singleton_best, "samples": n_done}


def _is_diagonal(algebra) -> bool:
    return all(d == 1 for d in algebra.dims)


def _regular_norm_interval(T: LinearMap, p: float, cfg: ToleranceConfig) -> NormInterval:
    """|B|_p for B = W_c^(1/p) |A| W_d^(-1/p), the modulus of the action in
    unweighted coordinates: its largest column sum, singular value or row sum
    at p = 1, 2, inf, else a Collatz-Wielandt bound (Boyd, Linear Algebra
    Appl. 9, 1974; Nussbaum, Mem. AMS 391, 1988).  G(x) = (B^T (Bx)^(p-1))^(p'-1)
    is order-preserving and 1-homogeneous, and a maximiser x* >= 0 has
    G(x*) = |B|^p' x*.  For x > 0, nu = max_i G(x)_i / x_i and c x* <= x,
    c |B|^(k p') x* = G^k(c x*) <= G^k(x) <= nu^k x for all k: |B|_p <= nu^(1/p')."""
    if not (p >= 1 and _is_diagonal(T.domain) and _is_diagonal(T.codomain)):  # p = nan too
        raise DomainError(f"regular norm needs diagonal algebras on both sides and p >= 1, p = {p}")
    wc, wd = (np.asarray(a.weights) ** (1 / p) for a in (T.codomain, T.domain))
    B = (np.abs(T.action) * wc[:, None]) / wd[None, :]
    if p in (1, 2, np.inf) or not B.any():
        value = float(np.linalg.norm(B, p)) if p in (1, 2, np.inf) else 0.0
        return NormInterval(value, value, True)
    scale, q, x, upper = float(B.max()), p / (p - 1.0), np.ones(B.shape[1]), np.inf
    B = B / scale
    lower = scale * float(np.sum(B ** p, axis=0).max()) ** (1 / p)  # the best column |B e_j|_p
    for _ in range(1000):
        m = float((y := B @ x).max())  # powers only of B / max B and of vectors with max 1
        h = B.T @ (y / m) ** (p - 1.0)
        g = (h / h.max()) ** (q - 1.0)  # G(x) = m h.max()^(q-1) g, as (p-1)(q-1) = 1
        lo = scale * m * float(np.sum((y / m) ** p) / np.sum(x ** p)) ** (1 / p)
        up = scale * float(m * np.max(g / x)) ** (1 / q) * float(h.max()) ** (1 / p)
        if not np.isfinite(lo + up):
            raise NumericError(f"regular-norm iteration overflowed: lower {lo}, upper {up}")
        if lo <= lower and up >= upper:
            break
        lower, upper = max(lower, lo), min(upper, up)
        x = np.maximum(g, 1e-12)
    return NormInterval(min(lower, upper), upper, upper - lower <= cfg.opt_tol * upper)


def regular_norm_commutative(
    T: LinearMap, p: Optional[float] = None, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> float:
    """The ell^1-extension norm of T between diagonal algebras: the operator
    norm of its entrywise modulus, exact at every p (``_regular_norm_interval``)."""
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
) -> L1Certificate:
    """Enclose the ell^1-extension norm by the first of three structural
    cases (module docstring): diagonal algebras; an extracted (w, B, J)
    triple, whose value max_k h_k^(1/p) the lower endpoint |T(1_k)|_p / |1_k|_p
    at the argmax block checks; else one Choi test and the operator-norm
    enclosure ``maps._norm_bounds``, kept as evidence["op_norm"] (its lower
    endpoint raised by the ratio's singletons when the ratio runs).  The
    ratio runs only on an open interval; p outside [1, inf) raises
    DomainError."""
    p = T.p if p is None else p
    if not 1 <= p < np.inf:  # also rejects nan
        raise DomainError(f"the ell^1-extension norm needs a finite p >= 1, got p = {p}")
    if _is_diagonal(T.domain) and _is_diagonal(T.codomain):
        reg = _regular_norm_interval(T, p, cfg)
        route, lower, upper = ROUTE_COMMUTATIVE, reg.lower, reg.upper
        evidence: dict = {"regular_norm": (reg.lower, reg.upper)}
    elif isinstance(tri := extract_yeadon(T, cfg), YeadonTriple):
        h = trace_density(tri, T.domain, p, cfg)
        k = int(np.argmax(h))
        unit = Element(T.domain, [np.eye(d) * (j == k) for j, d in enumerate(T.domain.dims)])
        route, upper = ROUTE_SEPARATING, max(float(h[k]), 0.0) ** (1.0 / p)
        lower = lp_norm(T(unit), p) / lp_norm(unit, p)
        evidence = {"separating": CERTIFIED, "density": h.tolist(), "triple_residuals": tri.residuals}
    else:
        evidence = {"separating": tri.reason}
        evidence["choi"] = choi = choi_positivity(T, cfg)
        # |T|_p <= the ell^1 norm; where its enclosure stays open the ratio's singletons hold its search
        lower, norm, bounds = _norm_bounds(T, p, cfg, choi)
        if "lieb" in bounds:
            evidence["lieb"] = bounds["lieb"]
        evidence["op_norm"] = (min(lower, norm), norm)  # op_norm's interval wherever this one is closed
        # at p = 1 the sequence spaces are plain ell^1 sums; a 2-(co)positive
        # T / |T| is an ell^1 contraction, and the ell^1 norm is blind to
        # reversing the product
        if p == 1:
            route, upper = ROUTE_P1, norm
        elif choi["cp"] or choi["co_cp"]:
            route, upper = ROUTE_TWO_POSITIVE, norm
        elif T.meta.get("convex_parts"):
            t, T1, T2 = T.meta["convex_parts"]
            c1 = certify_l1_norm(T1, p, cfg, ratio_budget=0)
            c2 = certify_l1_norm(T2, p, cfg, ratio_budget=0)
            route = ROUTE_TWO_POSITIVE
            upper = t * c1.value_interval.upper + (1 - t) * c2.value_interval.upper
            evidence["via"] = "convex_combination"
            evidence["part_routes"] = (c1.route, c2.route)
        elif bounds["positive"]:
            route, upper = ROUTE_POSITIVE, 4.0 * norm
        else:
            route, upper = ROUTE_SAMPLED, np.inf

    if not upper - lower <= cfg.opt_tol * upper < np.inf:  # open, or upper = inf
        ratio, rinfo = l1_ratio_lower(T, p, cfg, budget=ratio_budget)
        evidence, lower = {"ratio": rinfo, **evidence}, max(lower, ratio)
        if "op_norm" in evidence:  # the singletons hold the search
            evidence["op_norm"] = (max(evidence["op_norm"][0], min(rinfo["singleton"], norm)), norm)
    alarm = bool(np.isfinite(upper) and lower > upper * (1.0 + cfg.opt_tol))
    if alarm:
        evidence["alarm_lower"] = lower
        lower = upper
    elif lower > upper:  # by rounding, below the alarm threshold: printed clipped, recorded here
        evidence["lower_above_upper"] = lower
    certified = bool(np.isfinite(upper) and (upper - lower) <= cfg.opt_tol * max(upper, 1e-300))
    return L1Certificate(NormInterval(min(lower, upper), float(upper), certified), route, evidence, alarm)


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
    images, all pairs drawn as per-block stacks, mapped by one product with
    the action and solved in one stack (none on a one-dimensional domain,
    which has no nonzero disjoint pairs).  The two must agree: a
    certified factorization together with a non-disjoint image pair (or an
    isometry that fails extraction although ``choi_positivity`` proves it
    positive) raises the inconsistency alarm, because both implications are
    unconditional theorems.
    """
    if not is_l2_isometry(T, cfg):
        return IsometryClassification(NOT_ISOMETRY)

    tri = extract_yeadon(T, cfg)
    extracted = isinstance(tri, YeadonTriple)

    dom, cod = T.domain, T.codomain
    m = pairs if dom.coord_dim >= 2 else 0
    witness, statuses, l12_ratios = None, [], []
    if m:  # every pair in one draw, one product with the action and one solve
        rngs = [rng_from(cfg.seed, 9700, i) for i in range(m)]
        A, B = _disjoint_stacks(dom, rngs, [i % 3 == 0 for i in range(m)])
        coords = np.concatenate([np.stack(S, axis=1).reshape(2 * m, -1) for S in zip(A, B)], axis=1)
        TX = [S.reshape(m, 2, *S.shape[1:]) for S in _block_stacks(cod, coords @ T.action.T)]
        norms = zip(_norms(A, dom.weights, 2.0).tolist(), _norms(B, dom.weights, 2.0).tolist())
        for i, (verdict, (na, nb)) in enumerate(zip(_dinq_verdicts(TX, cod.weights, cfg), norms)):
            statuses.append(verdict.status)
            # an image pair fails route (ii) if it does not certify disjoint and
            # the algebraic cross-check confirms the cross products are nonzero
            if witness is None and verdict.status != DISJOINT and not verdict.algebraic:
                witness = tuple(Element(dom, [S[i] for S in X]) for X in (A, B))
            denom = float(np.sqrt(na ** 2 + nb ** 2))
            if denom > 0:
                l12_ratios.append((verdict.interval.upper / denom, verdict.interval.lower / denom))

    evidence = {
        "pair_statuses": {s: statuses.count(s) for s in set(statuses)},
        # only the lower endpoint over the input norm bounds the ell^1 norm
        "max_l12_ratio": max(u for u, _ in l12_ratios) if l12_ratios else None,
        "max_certified_l12_ratio": max(lo for _, lo in l12_ratios) if l12_ratios else None,
        "extraction": "ok" if extracted else tri.reason,
    }

    alarm = False
    if extracted:
        if witness is not None:
            alarm = True
            evidence["conflict"] = "factorization extracted but an image pair is not disjoint"
        h = trace_density(tri, T.domain, 2.0, cfg)
        evidence["trace_condition_defect"] = float(np.max(np.abs(h - 1.0)))
        return IsometryClassification(YTF, triple=tri, alarm=alarm, evidence=evidence)

    if choi_positivity(T, cfg)["positive"]:
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
    with np.errstate(over="ignore"):  # ``_schatten`` sums an overflowing Gram again, scaled
        ra, cb = _gram_norms(*_grams(_stacks(a_list), _stacks(b_list)), seq.algebra.weights, p).tolist()
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
            cs = [a.H + 1j**k * b for a, b in zip(a_n, b_n)]
            comp = sequence([c.H * c for c in cs])
            components.append(comp)
            sums.append(lp_norm(sum_elements(comp), p))
            image_sums.append(lp_norm(sum_elements(sequence([T(x) for x in comp])), p))
        # the combination reconstructs the normalized products a_n b_n
        recon = 0.0
        for n in range(len(seq.items)):
            rec = zero_element(seq.algebra)
            for k in range(4):
                rec = rec + ((-1j) ** k * 0.25) * components[k].items[n]
            recon = max(recon, (rec - a_n[n] * b_n[n]).sup_norm())
        return PolarizationWitness(components, float(recon), sums, image_sums, factor_norms)

    if kind == "two_positive_sqrt":
        if not is_completely_positive(T, cfg)[0]:
            raise DomainError("two_positive_sqrt needs a map that the Choi test proves completely positive")
        a_n, b_n, factor_norms = _normalized_factorization(seq, p, cfg)
        amp = amplified_map(T, 2)
        alg = seq.algebra
        alphas, betas, deltas = [], [], []
        residual = scale = 0.0
        left = right = zero_element(T.codomain)
        for a, b in zip(a_n, b_n):
            img = amp(block_matrix(alg, [[a * a.H, a * b], [b.H * a.H, b.H * b]]))
            grid = block_entries(alg, 2, positive_sqrt(hermitian_part(img), cfg))
            alpha, beta, delta = grid[0][0], grid[0][1], grid[1][1]
            alphas.append(alpha)
            betas.append(beta)
            deltas.append(delta)
            images = (T(a * a.H), T(b.H * b), T(a * b))
            left, right = left + images[0], right + images[1]
            # the identities hold in the normalized factors: their size is that of these images
            scale = max(scale, *(y.sup_norm() for y in images))
            residual = max(
                residual,
                (images[0] - (alpha * alpha + beta * beta.H)).sup_norm(),
                (images[1] - (beta.H * beta + delta * delta)).sup_norm(),
                (images[2] - (alpha * beta + beta * delta)).sup_norm(),
                (grid[1][0] - beta.H).sup_norm(),
            )
        tol = max(1e-8, 1000 * cfg.algebraic_tol)
        if residual > tol * scale:
            raise StructuralError(
                f"square-root identities failed: residual {residual:.3e}"
            )
        bound = float(np.sqrt(lp_norm(left, p) * lp_norm(right, p)))
        return TwoPositiveSqrtWitness(alphas, betas, deltas, float(residual), bound)

    raise DomainError(f"unknown witness kind {kind!r}")
