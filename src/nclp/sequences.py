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

A factorization is stored per block k as two stacks over the items,
A_k of shape (n, d_k, r_k) and B_k of shape (n, r_k, d_k).  Items of lower
inner rank are padded with zeros to the block's largest rank r_k: a zero
column of a_n paired with a zero row of b_n changes no product and no Gram,
and the gauge directions vanish on it, so every step keeps it zero.  Each
descent step is one batched computation per block: one eigendecomposition
of the stacked directions D_n serves every backtracking trial
exp(+-eta D_n / 2), and its largest eigenvalue modulus is the flat-gradient
test.  Each trial takes one eigendecomposition of the stacked Grams
(Y1, Y2) = (sum a_n a_n*, sum b_n* b_n); the Grams are positive, so the
eigenvalue moduli give both p-norms, and on acceptance the eigenvectors
give the powers Y^(p-1) of the next gradient.
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
    _adjoint,
    _ranked_svd,
    _spectral,
    _sup_norms,
    block_matrix,
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
    items = _stacks(seq)
    _, row, column = _gram_spectra(seq.algebra, items, items, p / 2.0)
    return (column if side == "column" else row) ** 0.5


def column_embed(seq: ElementSequence) -> Element:
    """The sequence as the first block column of M_n(algebra); its p-norm
    reproduces the column formula."""
    zero = zero_element(seq.algebra)
    return block_matrix(seq.algebra, [[x] + [zero] * (len(seq) - 1) for x in seq])


def row_embed(seq: ElementSequence) -> Element:
    zero = zero_element(seq.algebra)
    return block_matrix(seq.algebra, [list(seq)] + [[zero] * len(seq)] * (len(seq) - 1))


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
# Factorizations: per block, the items' inner factors stacked and zero-padded
# ---------------------------------------------------------------------------

Factors = list[np.ndarray]  # per block: (n, d, r) for the a_n, (n, r, d) for the b_n


def _stacks(items: Sequence[Element]) -> list[np.ndarray]:
    """Per block, the items' blocks stacked into one (n, d, d) array."""
    return [np.stack(blocks) for blocks in zip(*(x.blocks for x in items))]


def _polar_factors(
    seq: ElementSequence, cfg: ToleranceConfig
) -> tuple[Factors, Factors]:
    """a_n = u_n |x_n|^(1/2), b_n = |x_n|^(1/2) in compressed rectangular
    form, from one batched ``_ranked_svd`` per block: each item keeps the
    singular values above the cutoff relative to its own largest one; the
    inner rank is padded with zeros to the block's largest rank."""
    A: Factors = []
    B: Factors = []
    for U, s, Vh, keep in _ranked_svd(_stacks(seq), cfg):
        r = int(keep.sum(axis=1).max())
        root = np.sqrt(np.where(keep, s, 0.0))[:, :r]
        A.append(U[:, :, :r] * root[:, None, :])
        B.append(root[:, :, None] * Vh[:, :r, :])
    return A, B


def _padded(A: Factors, B: Factors, widths: Sequence[int]) -> tuple[Factors, Factors]:
    """The stacks with their inner rank zero-padded to ``widths``, per block."""
    return (
        [np.pad(a, ((0, 0), (0, 0), (0, w - a.shape[2]))) for a, w in zip(A, widths)],
        [np.pad(b, ((0, 0), (0, w - b.shape[1]), (0, 0))) for b, w in zip(B, widths)],
    )


def _grams(A: Factors, B: Factors) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per block, Y1 = sum_n a_n a_n* and Y2 = sum_n b_n* b_n."""
    return [(a @ _adjoint(a)).sum(axis=0) for a in A], [(_adjoint(b) @ b).sum(axis=0) for b in B]


def _gram_spectra(alg, A: Factors, B: Factors, p: float):
    """(spectra, |Y1|_p, |Y2|_p): per block the eigendecomposition of the
    stacked pair (Y1, Y2), and both norms from its eigenvalue moduli, which
    are the Grams' singular values.  The objective is sqrt(|Y1|_p |Y2|_p)."""
    spectra = [np.linalg.eigh(np.stack(pair)) for pair in zip(*_grams(A, B))]
    moduli = [np.abs(vals[:, ::-1]) for vals, _ in spectra]
    n1, n2 = (_schatten([m[i] for m in moduli], alg.weights, p) for i in (0, 1))
    return spectra, n1, n2


def _objective(alg, A: Factors, B: Factors, p: float) -> float:
    _, n1, n2 = _gram_spectra(alg, A, B, p)
    return float(np.sqrt(n1 * n2))


def _balance(A: Factors, B: Factors, n1: float, n2: float) -> None:
    """Rescale (a_n) <- t a_n, (b_n) <- b_n / t so the two factor norms
    |Y1|_p = n1 and |Y2|_p = n2 agree; the objective is invariant but
    subsequent gauge steps behave better on a balanced pair."""
    if n1 <= 0 or n2 <= 0:
        return
    t = (n2 / n1) ** 0.25
    A[:] = [a * t for a in A]
    B[:] = [b / t for b in B]


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

    Replacing (a_n, b_n) by (a_n g_n^{-1}, g_n b_n) leaves the products
    fixed and changes the objective only through M_n = g_n* g_n > 0, in
    which both factor norms are geodesically convex.  With Y1 = sum a M^-1 a*
    and Y2 = sum b* M b, the gradient of log F at M = 1 along a Hermitian
    direction H_n is  <D_n, H_n>  with

        D_n = w_k b_n Y2^(p-1) b_n* / tau(Y2^p) - w_k a_n* Y1^(p-1) a_n / tau(Y1^p).

    Each accepted step multiplies a_n by exp(eta D_n / 2) on the right and
    b_n by exp(-eta D_n / 2) on the left, so a_n b_n = x_n holds exactly
    throughout and the recorded objective history is strictly monotone.
    Stops early once the objective reaches ``target`` (a known lower bound)
    within the gap tolerance, or when a step stops paying its way.  Raises
    NumericError when the starting objective is not finite (a factor norm
    overflowed); an accepted step only lowers it, so it stays finite."""
    alg = seq.algebra
    spectra, n1, n2 = _gram_spectra(alg, A, B, p)
    obj = float(np.sqrt(n1 * n2))
    if not np.isfinite(obj):
        raise NumericError("factor norms overflowed: the gauge objective is not finite")
    history = [obj]
    eta = 0.5
    floor_gap = 0.3 * cfg.opt_tol
    step_gain = 0.02 * cfg.opt_tol
    for _ in range(max_iters):
        if obj <= target * (1.0 + floor_gap):
            break
        v1, v2 = max(n1**p, 1e-300), max(n2**p, 1e-300)
        steps = []
        for (_, w), a, b, (vals, vecs) in zip(alg.blocks, A, B, spectra):
            pw = _spectral(vals, vecs, np.clip(vals, 0.0, None) ** (p - 1.0))
            g = w * (b @ pw[1] @ _adjoint(b)) / v2 - w * (_adjoint(a) @ pw[0] @ a) / v1
            steps.append(np.linalg.eigh(0.5 * (g + _adjoint(g))))
        gnorm = max(float(np.abs(vals).max(initial=0.0)) for vals, _ in steps)
        if gnorm <= 1e-14:
            break
        accepted = False
        while eta > 1e-8:
            newA = [a @ _spectral(*e, np.exp(+0.5 * eta * e[0])) for a, e in zip(A, steps)]
            newB = [_spectral(*e, np.exp(-0.5 * eta * e[0])) @ b for b, e in zip(B, steps)]
            trial = _gram_spectra(alg, newA, newB, p)
            new_obj = float(np.sqrt(trial[1] * trial[2]))
            if new_obj < obj * (1 - 1e-14):
                gain = obj - new_obj
                A[:], B[:] = newA, newB
                spectra, n1, n2 = trial
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
    pseudo-inverse); returns the number of repaired items.  Per block, one
    batched SVD gives the residuals' operator norms and the items' scales."""
    n = len(seq)
    stacks = _stacks(seq)
    residuals = [a @ b - x for a, b, x in zip(A, B, stacks)]
    if not all(np.isfinite(r).all() for r in residuals):
        raise NumericError("factor products overflowed")
    top = _sup_norms([np.concatenate(pair) for pair in zip(residuals, stacks)])
    err, scale = top[:n], np.maximum(top[n:], 1e-300)
    bad = np.flatnonzero(err > 1e3 * cfg.rank_cutoff * scale)
    if bad.size:
        fresh = _polar_factors(sequence([seq.items[i] for i in bad]), cfg)
        for a, b, fa, fb in zip(A, B, *_padded(*fresh, [a.shape[2] for a in A])):
            a[bad], b[bad] = fa, fb
    return int(bad.size)


def _augment_and_gauge(
    alg, A: Factors, B: Factors, extra: int, rng: np.random.Generator
) -> None:
    """Append ``extra`` zero inner dimensions, then mix with a random
    invertible gauge g per item and block: (a g^{-1}) (g b) = a b exactly.
    An item's inner rank is its count of nonzero columns, as the polar
    factors leave them; gauges are drawn item by item, then block by block."""
    ranks = [np.count_nonzero(np.any(a, axis=1), axis=1) for a in A]
    widths = [int(np.minimum(r + extra, d).max()) for r, d in zip(ranks, alg.dims)]
    newA, newB = _padded(A, B, widths)
    for n in range(len(A[0])):
        for k, d in enumerate(alg.dims):
            r = min(int(ranks[k][n]) + extra, d)
            if r == 0:
                continue
            g = np.eye(r, dtype=complex) + 0.35 * ginibre(rng, r)
            while np.linalg.cond(g) > 1e4:
                g = np.eye(r, dtype=complex) + 0.35 * ginibre(rng, r)
            a, b = newA[k][n, :, :r], newB[k][n, :r, :]
            newA[k][n, :, :r] = np.linalg.solve(g.T, a.T).T
            newB[k][n, :r, :] = g @ b
    A[:], B[:] = newA, newB
    _, n1, n2 = _gram_spectra(alg, A, B, 2.0)
    _balance(A, B, n1, n2)


def _factors_to_elements(
    alg, A: Factors, B: Factors
) -> tuple[list[Element], list[Element]]:
    """Zero-pad the stacked inner factors into genuine algebra elements."""
    A, B = _padded(A, B, alg.dims)
    return [Element(alg, list(x)) for x in zip(*A)], [Element(alg, list(x)) for x in zip(*B)]


# ---------------------------------------------------------------------------
# Lower bound: unimodular scalar combinations
# ---------------------------------------------------------------------------


def _phase_value(seq: ElementSequence, eps: np.ndarray, p: float) -> float:
    """|sum eps_n x_n|_p."""
    combo = [np.zeros((d, d), dtype=complex) for d in seq.algebra.dims]
    for e, x in zip(eps, seq):
        for k, blk in enumerate(x.blocks):
            combo[k] = combo[k] + complex(e) * blk
    return _schatten([np.linalg.svd(b, compute_uv=False) for b in combo], seq.algebra.weights, p)


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
    A0, B0 = _polar_factors(seq, cfg)
    for restart in range(cfg.restarts):
        A, B = [a.copy() for a in A0], [b.copy() for b in B0]
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
