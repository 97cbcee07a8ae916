"""Norms of finite element sequences: column/row, ell^1-valued, and the
two-term direct-sum norm with its disjointness criterion.

The ell^1-valued norm is an infimum over factorizations x_n = a_n b_n of

    |sum a_n a_n*|_p^(1/2) * |sum b_n* b_n|_p^(1/2).

``l1_norm_bounds`` returns a two-sided enclosure.  The upper endpoint is
the best factorization found by descending over the gauge freedom of the
problem: replacing (a_n, b_n) by (a_n g_n^{-1}, g_n b_n) keeps the
products fixed, and the objective depends on the gauges only through the
positive matrices M_n = g_n* g_n, in which both factor norms are
geodesically convex.  Gradient steps in that cone (with backtracking,
balancing rescales, bounded rank augmentation and seeded restarts from
the polar factorization) therefore converge to the factorization infimum
rather than stalling at the start.  The lower endpoint is the best of the
unimodular-scalar sup  sup_eps |sum eps_n x_n|_p  and  max_n |x_n|_p,
both of which every factorization dominates.  Three input classes
collapse to exact values: positive sequences (norm of the sum), single
elements, and p = 1 (the ell^1 direct sum of the summands' norms).  One
private helper, ``_closed_form``, holds these three, so the enclosure and
the sampled ratios of ``certify`` apply them in the same order.

Factors stay plain arrays, one per item and block.  The descent carries
the Grams Y1 = sum a_n a_n*, Y2 = sum b_n* b_n of its current factors and
their p-norms: a trial step computes them once, and an accepted step hands
them to the gradient, the recorded objective sqrt(|Y1|_p |Y2|_p) and the
final balancing.  One eigendecomposition of each direction D_n per step
serves every backtracking trial exp(+-eta D_n / 2), and its largest
eigenvalue modulus (the operator norm of D_n) is the flat-gradient test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    DEFAULT_CONFIG,
    DomainError,
    Element,
    NumericError,
    StructuralError,
    ToleranceConfig,
    _ranked_svd,
    amplify,
    positive_sqrt,
    zero_element,
)
from .lp import _schatten, disjoint, hs_inner, is_positive, lp_norm
from .sampling import ginibre, rng_from


@dataclass(frozen=True)
class ElementSequence:
    """Ordered finite list of elements of one algebra."""

    items: tuple[Element, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise StructuralError("sequence must contain at least one element")
        alg = self.items[0].algebra
        for n, x in enumerate(self.items):
            if x.algebra != alg:
                raise StructuralError(f"item {n} belongs to a different algebra")
        object.__setattr__(self, "items", tuple(self.items))

    @property
    def algebra(self):
        return self.items[0].algebra

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def sequence(items: Sequence[Element]) -> ElementSequence:
    return ElementSequence(tuple(items))


@dataclass
class NormInterval:
    """Two-sided enclosure of a norm value.

    certified_exact means the enclosure is tight: either a closed-form route
    applied or the optimizer gap closed below opt_tol relative.
    witness, when present, is a factorization (a_n, b_n) achieving upper.
    """

    lower: float
    upper: float
    certified_exact: bool = False
    witness: Optional[tuple[list[Element], list[Element]]] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.certified_exact and not np.isfinite([self.lower, self.upper]).all():
            raise NumericError(f"exact enclosure [{self.lower}, {self.upper}] is not finite")
        if self.lower < 0:
            self.lower = max(self.lower, 0.0)
        scale = max(abs(self.upper), abs(self.lower), 1.0)
        if self.lower > self.upper + 1e-9 * scale:
            raise NumericError(
                f"norm interval inverted: lower={self.lower} > upper={self.upper}"
            )
        self.lower = min(self.lower, self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


# ---------------------------------------------------------------------------
# Column / row norms and embeddings
# ---------------------------------------------------------------------------


def column_row_norm(seq: ElementSequence, p: float, side: str) -> float:
    """|sum b_n* b_n|_{p/2}^(1/2) (column) or |sum a_n a_n*|_{p/2}^(1/2) (row).

    The p/2 entry is a quasi-norm when p < 2; that is fine here because the
    composite expression is the genuine sequence-space norm.
    """
    if p != np.inf and p < 1:
        raise DomainError("column/row norms need p >= 1")
    if side not in ("column", "row"):
        raise DomainError(f"side must be 'column' or 'row', got {side!r}")
    items = [x.blocks for x in seq]
    row, column = _grams(seq.algebra, items, items)
    return _norm(seq.algebra, column if side == "column" else row, p / 2.0) ** 0.5


def column_embed(seq: ElementSequence) -> Element:
    """The sequence as the first block column of M_n(algebra); its p-norm
    reproduces the column formula."""
    n = len(seq)
    alg = seq.algebra
    big = []
    for k, d in enumerate(alg.dims):
        blk = np.zeros((n * d, n * d), dtype=complex)
        for i, x in enumerate(seq):
            blk[i * d : (i + 1) * d, 0:d] = x.blocks[k]
        big.append(blk)
    return Element(amplify(alg, n), big)


def row_embed(seq: ElementSequence) -> Element:
    n = len(seq)
    alg = seq.algebra
    big = []
    for k, d in enumerate(alg.dims):
        blk = np.zeros((n * d, n * d), dtype=complex)
        for j, x in enumerate(seq):
            blk[0:d, j * d : (j + 1) * d] = x.blocks[k]
        big.append(blk)
    return Element(amplify(alg, n), big)


# ---------------------------------------------------------------------------
# Exact routes
# ---------------------------------------------------------------------------


def sum_elements(seq: ElementSequence) -> Element:
    out = zero_element(seq.algebra)
    for x in seq:
        out = out + x
    return out


def l1_norm_positive(
    seq: ElementSequence, p: float, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> float:
    """Exact sequence norm for positive entries: the p-norm of the sum."""
    for n, x in enumerate(seq):
        if not is_positive(x, cfg):
            raise DomainError(f"item {n} is not positive")
    return lp_norm(sum_elements(seq), p)


# ---------------------------------------------------------------------------
# Factorizations: rectangular inner factors per item and block
# ---------------------------------------------------------------------------

Factors = list[list[np.ndarray]]  # [item][block], shapes (d, r) resp. (r, d)


def _polar_factors(
    seq: ElementSequence, cfg: ToleranceConfig
) -> tuple[Factors, Factors]:
    """a_n = u_n |x_n|^(1/2), b_n = |x_n|^(1/2) in compressed rectangular form."""
    A: Factors = []
    B: Factors = []
    for x in seq:
        an, bn = [], []
        for U, s, Vh, keep in _ranked_svd(x.blocks, cfg):
            root = np.sqrt(s[keep])
            an.append(U[:, keep] * root[None, :])
            bn.append(root[:, None] * Vh[keep, :])
        A.append(an)
        B.append(bn)
    return A, B


def _grams(alg, A: Factors, B: Factors) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per block, Y1 = sum_n a_n a_n* and Y2 = sum_n b_n* b_n."""
    Y1 = [np.zeros((d, d), dtype=complex) for d in alg.dims]
    Y2 = [np.zeros((d, d), dtype=complex) for d in alg.dims]
    for an, bn in zip(A, B):
        for k, (a, b) in enumerate(zip(an, bn)):
            Y1[k] += a @ a.conj().T
            Y2[k] += b.conj().T @ b
    return Y1, Y2


def _norm(alg, blocks: list[np.ndarray], p: float) -> float:
    """The (quasi-)norm tau(|y|^p)^(1/p) of the element with these blocks."""
    return _schatten([np.linalg.svd(b, compute_uv=False) for b in blocks], alg.weights, p)


def _gram_norms(alg, A: Factors, B: Factors, p: float):
    """(Y1, Y2, |Y1|_p, |Y2|_p) of a factorization; the objective is
    sqrt(|Y1|_p |Y2|_p)."""
    Y1, Y2 = _grams(alg, A, B)
    return Y1, Y2, _norm(alg, Y1, p), _norm(alg, Y2, p)


def _objective(alg, A: Factors, B: Factors, p: float) -> float:
    _, _, n1, n2 = _gram_norms(alg, A, B, p)
    return float(np.sqrt(n1 * n2))


def _balance(A: Factors, B: Factors, n1: float, n2: float) -> None:
    """Rescale (a_n) <- t a_n, (b_n) <- b_n / t so the two factor norms
    |Y1|_p = n1 and |Y2|_p = n2 agree; the objective is invariant but
    subsequent gauge steps behave better on a balanced pair."""
    if n1 <= 0 or n2 <= 0:
        return
    t = (n2 / n1) ** 0.25
    for an, bn in zip(A, B):
        an[:] = [a * t for a in an]
        bn[:] = [b / t for b in bn]


def _psd_power(y: np.ndarray, t: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (y + y.conj().T))
    vals = np.clip(vals, 0.0, None)
    return (vecs * (vals**t)[None, :]) @ vecs.conj().T


def _gauge_gradients(
    alg, A: Factors, B: Factors, Y1, Y2, n1: float, n2: float, p: float
) -> list[list[np.ndarray]]:
    """Gradient of the log-objective in the gauge directions, from the
    factors' Grams Y1, Y2 and their p-norms n1, n2.

    Replacing (a_n, b_n) by (a_n g_n^{-1}, g_n b_n) leaves the products
    fixed and changes the objective only through M_n = g_n* g_n > 0, in
    which both factor norms are geodesically convex.  With Y1 = sum a M^-1 a*
    and Y2 = sum b* M b, the gradient of log F at M = 1 along a Hermitian
    direction H_n is  <B_n - A_n, H_n>  with

        A_n = w_k a_n* Y1^(p-1) a_n / tau(Y1^p),
        B_n = w_k b_n Y2^(p-1) b_n* / tau(Y2^p),

    so updating a_n <- a_n exp(+eta D/2), b_n <- exp(-eta D/2) b_n with
    D = B_n - A_n is exact-feasibility-preserving steepest descent."""
    v1, v2 = n1**p, n2**p
    pw1 = [_psd_power(y, p - 1.0) for y in Y1]
    pw2 = [_psd_power(y, p - 1.0) for y in Y2]
    grads: list[list[np.ndarray]] = []
    for an, bn in zip(A, B):
        gn = []
        for k, (d, w) in enumerate(alg.blocks):
            a, b = an[k], bn[k]
            Ak = w * (a.conj().T @ pw1[k] @ a) / max(v1, 1e-300)
            Bk = w * (b @ pw2[k] @ b.conj().T) / max(v2, 1e-300)
            gn.append(Bk - Ak)
        grads.append(gn)
    return grads


def _exp_step(vals: np.ndarray, vecs: np.ndarray, t: float) -> np.ndarray:
    """exp(t D) from the eigendecomposition D = vecs diag(vals) vecs*."""
    return (vecs * np.exp(t * vals)[None, :]) @ vecs.conj().T


def _gauge_descent(
    seq: ElementSequence,
    A: Factors,
    B: Factors,
    p: float,
    cfg: ToleranceConfig,
    max_iters: int,
    target: float = 0.0,
) -> list[float]:
    """Backtracking gradient descent over the per-item gauge cone.

    Each accepted step multiplies a_n by exp(eta D_n / 2) on the right and
    b_n by exp(-eta D_n / 2) on the left, so a_n b_n = x_n holds exactly
    throughout and the recorded objective history is strictly monotone.
    Stops early once the objective reaches ``target`` (a known lower bound)
    within the gap tolerance, or when a step stops paying its way."""
    alg = seq.algebra
    Y1, Y2, n1, n2 = _gram_norms(alg, A, B, p)
    obj = float(np.sqrt(n1 * n2))
    history = [obj]
    eta = 0.5
    floor_gap = 0.3 * cfg.opt_tol
    step_gain = 0.02 * cfg.opt_tol
    for _ in range(max_iters):
        if obj <= target * (1.0 + floor_gap):
            break
        grads = _gauge_gradients(alg, A, B, Y1, Y2, n1, n2, p)
        eigs = [[np.linalg.eigh(0.5 * (g + g.conj().T)) for g in gn] for gn in grads]
        gnorm = max(float(np.abs(vals).max(initial=0.0)) for en in eigs for vals, _ in en)
        if gnorm <= 1e-14:
            break
        accepted = False
        while eta > 1e-8:
            newA = [
                [a @ _exp_step(*e, +0.5 * eta) for a, e in zip(an, en)]
                for an, en in zip(A, eigs)
            ]
            newB = [
                [_exp_step(*e, -0.5 * eta) @ b for b, e in zip(bn, en)]
                for bn, en in zip(B, eigs)
            ]
            trial = _gram_norms(alg, newA, newB, p)
            new_obj = float(np.sqrt(trial[2] * trial[3]))
            if new_obj < obj * (1 - 1e-14):
                gain = obj - new_obj
                A[:], B[:] = newA, newB
                Y1, Y2, n1, n2 = trial
                obj = new_obj
                history.append(obj)
                accepted = gain > step_gain * max(obj, 1e-300)
                eta = min(eta * 1.6, 1.0)
                break
            eta *= 0.5
        if not accepted:
            break
    _balance(A, B, n1, n2)
    return history


def _feasibility_repair(
    seq: ElementSequence, A: Factors, B: Factors, cfg: ToleranceConfig
) -> int:
    """Re-anchor items whose product drifted off x_n (rank collapse in a
    pseudo-inverse); returns the number of repaired items."""
    repairs = 0
    for n, x in enumerate(seq):
        scale = max(x.sup_norm(), 1e-300)
        err = max(
            float(np.linalg.norm(A[n][k] @ B[n][k] - x.blocks[k], 2))
            for k in range(len(x.blocks))
        )
        if err > 1e3 * cfg.rank_cutoff * scale:
            fresh_a, fresh_b = _polar_factors(sequence([x]), cfg)
            A[n], B[n] = fresh_a[0], fresh_b[0]
            repairs += 1
    return repairs


def _augment_and_gauge(
    alg, A: Factors, B: Factors, extra: int, rng: np.random.Generator
) -> None:
    """Append ``extra`` zero inner dimensions, then mix with a random
    invertible gauge g per item and block: (a g^{-1}) (g b) = a b exactly."""
    for n in range(len(A)):
        for k, d in enumerate(alg.dims):
            a, b = A[n][k], B[n][k]
            r = a.shape[1]
            add = min(extra, max(d - r, 0))
            if add:
                a = np.concatenate([a, np.zeros((d, add), dtype=complex)], axis=1)
                b = np.concatenate([b, np.zeros((add, d), dtype=complex)], axis=0)
                r += add
            if r == 0:
                A[n][k], B[n][k] = a, b
                continue
            g = np.eye(r, dtype=complex) + 0.35 * ginibre(rng, r)
            while np.linalg.cond(g) > 1e4:
                g = np.eye(r, dtype=complex) + 0.35 * ginibre(rng, r)
            A[n][k] = np.linalg.solve(g.T, a.T).T
            B[n][k] = g @ b
    _, _, n1, n2 = _gram_norms(alg, A, B, 2.0)
    _balance(A, B, n1, n2)


def _factors_to_elements(
    alg, A: Factors, B: Factors
) -> tuple[list[Element], list[Element]]:
    """Zero-pad rectangular inner factors into genuine algebra elements."""
    outs_a, outs_b = [], []
    for an, bn in zip(A, B):
        pa, pb = [], []
        for k, d in enumerate(alg.dims):
            a, b = an[k], bn[k]
            sq_a = np.zeros((d, d), dtype=complex)
            sq_b = np.zeros((d, d), dtype=complex)
            r = min(a.shape[1], d)
            sq_a[:, :r] = a[:, :r]
            sq_b[:r, :] = b[:r, :]
            pa.append(sq_a)
            pb.append(sq_b)
        outs_a.append(Element(alg, pa))
        outs_b.append(Element(alg, pb))
    return outs_a, outs_b


# ---------------------------------------------------------------------------
# Lower bound: unimodular scalar combinations
# ---------------------------------------------------------------------------


def _phase_value(seq: ElementSequence, eps: np.ndarray, p: float) -> float:
    """|sum eps_n x_n|_p."""
    combo = [np.zeros((d, d), dtype=complex) for d in seq.algebra.dims]
    for e, x in zip(eps, seq):
        for k, blk in enumerate(x.blocks):
            combo[k] = combo[k] + complex(e) * blk
    return _norm(seq.algebra, combo, p)


def _phase_sup_quadratic(gram: np.ndarray, starts: list[np.ndarray], sweeps: int = 40) -> float:
    """max over unimodular eps of eps* G eps by coordinate ascent (p = 2)."""
    n = gram.shape[0]
    best = 0.0
    for eps in starts:
        eps = eps.astype(complex)
        for _ in range(sweeps):
            moved = False
            for i in range(n):
                c = gram[i] @ eps - gram[i, i] * eps[i]
                if abs(c) > 1e-300:
                    new = c / abs(c)
                    if abs(new - eps[i]) > 1e-14:
                        eps[i] = new
                        moved = True
            if not moved:
                break
        best = max(best, float(np.real(eps.conj() @ gram @ eps)))
    return max(best, 0.0)


def phase_lower_bound(
    seq: ElementSequence, p: float, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> float:
    """sup over unimodular scalars of |sum eps_n x_n|_p, approximated from
    below (grid of 16 phases per coordinate up to length 4, coordinate
    ascent beyond), combined with max_n |x_n|_p."""
    items = list(seq)
    n = len(items)
    floor = max(lp_norm(x, p) for x in items)
    if n == 1:
        return floor
    if p == 2:
        gram = np.array(
            [[hs_inner(a, b) for b in items] for a in items], dtype=complex
        )
        if n == 2:
            val = gram[0, 0].real + gram[1, 1].real + 2.0 * abs(gram[0, 1])
            return max(float(np.sqrt(max(val, 0.0))), floor)
        rng = rng_from(cfg.seed, 7001)
        starts = [np.ones(n, dtype=complex)] + [
            np.exp(2j * np.pi * rng.random(n)) for _ in range(5)
        ]
        return max(float(np.sqrt(_phase_sup_quadratic(gram, starts))), floor)
    phases = np.exp(2j * np.pi * np.arange(16) / 16.0)
    best = floor
    if n <= 4:
        for combo in itertools.product(phases, repeat=n - 1):
            eps = np.concatenate([[1.0 + 0j], np.array(combo)])
            best = max(best, _phase_value(seq, eps, p))
        return best
    rng = rng_from(cfg.seed, 7002)
    for _ in range(3):
        eps = np.exp(2j * np.pi * rng.random(n))
        for _ in range(3):
            for i in range(n):
                vals = []
                for ph in phases:
                    trial = eps.copy()
                    trial[i] = ph
                    vals.append(_phase_value(seq, trial, p))
                eps[i] = phases[int(np.argmax(vals))]
        best = max(best, _phase_value(seq, eps, p))
    return best


# ---------------------------------------------------------------------------
# The enclosure
# ---------------------------------------------------------------------------


def _closed_form(
    seq: ElementSequence, p: float, cfg: ToleranceConfig
) -> Optional[tuple[float, str]]:
    """(value, route) of the exact routes, tried in order: all-positive
    entries (norm of the sum), a single entry (its norm), and p = 1 (sum of
    the entries' norms; the polar factorization attains it).  None when no
    route applies."""
    items = list(seq)
    if all(is_positive(x, cfg) for x in items):
        return lp_norm(sum_elements(seq), p), "positive"
    if len(items) == 1:
        return lp_norm(items[0], p), "singleton"
    if p == 1:
        return float(sum(lp_norm(x, 1) for x in items)), "p1_direct_sum"
    return None


def l1_norm_bounds(
    seq: ElementSequence,
    p: float,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> NormInterval:
    """Two-sided enclosure of the ell^1-valued sequence norm.

    Exact shortcuts, in this order: all-positive entries (norm of the sum,
    witnessed by the square roots), single entries and p = 1 (sum of the
    entries' norms; the polar factorization attains both).  Otherwise the
    gauge descent (up to 48 steps from each of cfg.restarts starts)
    supplies the upper endpoint and the scalar-phase sup the lower one; the
    optimizer never fails hard, a stuck search simply leaves
    certified_exact False.
    """
    if p == np.inf:
        raise DomainError("sequence norms are defined for finite exponents")
    if p < 1:
        raise DomainError("sequence norms need p >= 1")
    alg = seq.algebra

    exact = _closed_form(seq, p, cfg)
    if exact is not None:
        value, route = exact
        if route == "positive":
            roots = [positive_sqrt(0.5 * (x + x.H), cfg) for x in seq]
            witness = (roots, roots)
        else:
            witness = _factors_to_elements(alg, *_polar_factors(seq, cfg))
        return NormInterval(value, value, True, witness=witness, meta={"route": route})

    lower = phase_lower_bound(seq, p, cfg)

    best_val = np.inf
    best_factors = None
    histories: list[list[float]] = []
    init_upper = None
    repairs = 0
    for restart in range(cfg.restarts):
        A, B = _polar_factors(seq, cfg)
        if restart > 0:
            rng = rng_from(cfg.seed, 7100, restart)
            _augment_and_gauge(alg, A, B, extra=restart, rng=rng)
        history = _gauge_descent(seq, A, B, p, cfg, max_iters=48, target=lower)
        repairs += _feasibility_repair(seq, A, B, cfg)
        if init_upper is None:
            init_upper = history[0]
        histories.append(history)
        final = min(history)
        if final < best_val - 1e-15:
            best_val = final
            best_factors = _factors_to_elements(alg, A, B)
        if best_val <= lower * (1.0 + 0.5 * cfg.opt_tol):
            break  # the enclosure is already as tight as certification needs

    upper = float(best_val)
    lower = min(lower, upper)
    certified = (upper - lower) <= cfg.opt_tol * max(upper, 1e-300)
    return NormInterval(
        lower,
        upper,
        certified,
        witness=best_factors,
        meta={
            "route": "optimizer",
            "init_upper": init_upper,
            "histories": histories,
            "repairs": repairs,
        },
    )


def l12_norm(
    a: Element, b: Element, p: float, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> NormInterval:
    """Norm of (a, b) in the two-term ell^1 direct sum."""
    return l1_norm_bounds(sequence([a, b]), p, cfg)


DISJOINT = "disjoint"
NOT_DISJOINT = "not_disjoint"
UNDETERMINED = "undetermined"


@dataclass
class DinqVerdict:
    status: str
    interval: NormInterval
    threshold: float
    algebraic: bool

    @property
    def consistent(self) -> bool:
        if self.status == DISJOINT:
            return self.algebraic
        if self.status == NOT_DISJOINT:
            return not self.algebraic
        return True


def dinq_disjoint_test(
    a: Element, b: Element, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> DinqVerdict:
    """Two-term criterion at p = 2: (a, b) is a disjoint pair exactly when
    the direct-sum norm does not exceed the Euclidean combination
    sqrt(|a|_2^2 + |b|_2^2).  Verdicts compare the computed enclosure with
    that threshold and are cross-checked against the algebraic test."""
    interval = l12_norm(a, b, 2.0, cfg)
    threshold = float(np.sqrt(lp_norm(a, 2) ** 2 + lp_norm(b, 2) ** 2))
    slack = threshold * (1.0 + cfg.opt_tol)
    if interval.upper <= slack:
        status = DISJOINT
    elif interval.lower > slack:
        status = NOT_DISJOINT
    else:
        status = UNDETERMINED
    return DinqVerdict(status, interval, threshold, disjoint(a, b, cfg))
