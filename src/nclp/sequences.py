"""Norms of finite element sequences: column/row, ell^1-valued, and the
two-term direct-sum norm with its disjointness criterion.

The ell^1-valued norm is an infimum over factorizations x_n = a_n b_n of

    |sum a_n a_n*|_p^(1/2) * |sum b_n* b_n|_p^(1/2).

``l1_norm_bounds`` returns a two-sided enclosure from one solver.

*The block split.*  On M = sum_k M_{d_k} with weights w_k, rescaling block
k of every a_n by t_k and of every b_n by 1/t_k and optimizing over t
(Cauchy-Schwarz) shows  |x| = (sum_k w_k N_k^p)^(1/p),  where N_k is the
norm of the k-th blocks on an unweighted M_{d_k}.  Per-block endpoints
combine as l^p sums, which are monotone, so per-block enclosures give an
enclosure of the whole.  A zero block contributes 0 and a 1 x 1 block its
sum of moduli, both at the first step.

*The ascent on one block.*  For |a|_r = |b|_r = 1, r = 2p/(p-1), every
factorization dominates  sum_n |b x_n a|_1  (Cauchy-Schwarz and Hoelder;
Pisier, Asterisque 247; Junge, J. reine angew. Math. 549).  One batched SVD
b x_n a = U_n s_n V_n* per step gives this dual endpoint, sum_n tr s_n, and
a primal factorization alpha_n = b+ U_n s_n^(1/2), beta_n = s_n^(1/2) V_n* a+
whose objective plus sum_n |x_n - alpha_n beta_n|_p (the triangle
inequality and the singleton route, so a pseudo-inverse cutoff never makes
it too low) is the upper endpoint.  With z_n = V_n U_n*, the next step
replaces a by the q-norming dual of sum z_n b x_n, q = 2p/(p+1), or on
alternate steps b by that of sum x_n a z_n; neither lowers the dual.  The
first step's primal is the polar factorization.  The ascent stops once the
gap is below STOP_GAP * opt_tol = opt_tol / 100 relative, or at a step
cap; it is deterministic.

Three input classes collapse to exact values: positive sequences (norm of
the sum), single elements, and p = 1 (the ell^1 direct sum of the
summands' norms).  One private helper, ``_closed_form``, holds these three,
so the enclosure and the sampled ratios of ``certify`` apply them in the
same order; ``certify`` runs the solver with a smaller step cap.
"""

from __future__ import annotations

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
    block_matrix,
    positive_sqrt,
    zero_element,
)
from .lp import _schatten, disjoint, is_positive, lp_norm


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
    if not p >= 1:  # also rejects nan
        raise DomainError(f"column/row norms need p >= 1, got p = {p}")
    if side not in ("column", "row"):
        raise DomainError(f"side must be 'column' or 'row', got {side!r}")
    items = _stacks(seq)
    row, column = _gram_norms(*_grams(items, items), seq.algebra.weights, p / 2.0)
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
# The solver: the block split and one primal-dual ascent per block
# ---------------------------------------------------------------------------

MAX_STEPS = 200  # step cap of the ascent on one block in l1_norm_bounds
# The ascent stops at a relative gap of STOP_GAP * opt_tol, well inside the
# certification gap opt_tol: the gap shrinks linearly, so the extra digits
# cost a few steps, and endpoints that sit at the edge of opt_tol would be
# looser than a descent that happened to stop closer to the norm.
STOP_GAP = 0.01


def _stacks(items: Sequence[Element]) -> list[np.ndarray]:
    """Per block, the items' blocks stacked into one (n, d, d) array."""
    return [np.stack(blocks) for blocks in zip(*(x.blocks for x in items))]


def _grams(A: list[np.ndarray], B: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per block, Y1 = sum_n a_n a_n* and Y2 = sum_n b_n* b_n."""
    return [(a @ _adjoint(a)).sum(axis=0) for a in A], [(_adjoint(b) @ b).sum(axis=0) for b in B]


def _gram_norms(Y1: list[np.ndarray], Y2: list[np.ndarray], weights, p: float) -> tuple[float, float]:
    """(|Y1|_p, |Y2|_p) of per-block Grams from one eigendecomposition per
    block of the stacked pair, whose eigenvalue moduli are their singular
    values.  The objective of a factorization is sqrt(|Y1|_p |Y2|_p)."""
    moduli = [np.abs(np.linalg.eigvalsh(np.stack(pair))[:, ::-1]) for pair in zip(Y1, Y2)]
    return tuple(_schatten(moduli, weights, p).tolist())


def _dual_factor(G: np.ndarray, e: float, r: float, cfg: ToleranceConfig):
    """(y, y+) from one SVD G = W s V*: y = V f W* with f proportional to s^e
    over the singular values above the rank cutoff and |y|_r = 1, and its
    pseudo-inverse.  With e = q - 1 (q conjugate to r) y is the norming
    dual, tr(G y) = |G|_q; for a Gram G and e = (p - 1)/2 it is the dual
    that meets the factorization in Hoelder's equality case."""
    [(W, s, Vh, keep)] = _ranked_svd([G], cfg)
    f = np.where(keep, s / s[0], 0.0) ** e
    f = f / _schatten([f], (1.0,), r)
    inv = np.where(keep, 1.0 / np.where(keep, f, 1.0), 0.0)
    return (_adjoint(Vh) * f) @ _adjoint(W), (W * inv) @ Vh


def _ascent(X: np.ndarray, p: float, cfg: ToleranceConfig, max_steps: int):
    """(lower, upper, factors, history) of the sequence norm on one
    unweighted matrix block, given as the (n, d, d) stack X of the items.

    From a = b = 1/|1|_r, each step takes one batched SVD b x_n a = U s V*.
    Its trace norms give the dual endpoint sum_n tr s_n (|a|_r = |b|_r = 1);
    alpha_n = b+ U s^(1/2), beta_n = s^(1/2) V* a+ give the primal one,
    sqrt(|sum alpha alpha*|_p |sum beta* beta|_p) + sum_n |x_n - alpha_n beta_n|_p,
    with the Schatten norm of each residual bounded by d^max(0, 1/p - 1/2)
    times its Frobenius norm.  The first step's primal is the polar
    factorization, and the first update takes a and b from its Grams,
    a a* ~ Y2^(p-1) and b* b ~ Y1^(p-1), which closes the gap at once when
    the polar factorization is optimal (disjoint pairs).  Later updates
    alternate: with z_n = V U*, a becomes the q-norming dual of
    sum z_n b x_n, or b that of sum x_n a z_n; neither lowers the dual.
    ``factors`` are (alpha, beta, |Y1|_p, |Y2|_p) of the best primal step and
    ``history`` the upper endpoint after each step.  Stops once the gap is
    below STOP_GAP * opt_tol relative, or after ``max_steps`` updates."""
    d = X.shape[1]
    q = 2.0 * p / (p + 1.0)
    r = 2.0 * p / (p - 1.0) if p > 1 else np.inf
    c = float(d) ** ((1.0 - p) / (2.0 * p))
    a = b = c * np.eye(d)
    ap = bp = np.eye(d) / c
    slack = float(d) ** max(0.0, 1.0 / p - 0.5)
    lower, upper, factors, history = 0.0, np.inf, None, []
    for step in range(max_steps + 1):
        U, s, Vh = np.linalg.svd(b @ X @ a)
        lower = max(lower, float(s.sum()))
        root = np.sqrt(s)
        alpha = bp @ (U * root[:, None, :])
        beta = (root[:, :, None] * Vh) @ ap
        Y1, Y2 = _grams([alpha], [beta])
        n1, n2 = _gram_norms(Y1, Y2, (1.0,), p)
        residual = np.linalg.norm(X - alpha @ beta, axis=(1, 2)).sum()
        value = float(np.sqrt(n1 * n2) + slack * residual)
        if not np.isfinite([lower, value]).all():
            raise NumericError(f"sequence norm overflowed: endpoints [{lower}, {value}]")
        if value < upper:
            upper, factors = value, (alpha, beta, n1, n2)
        history.append(upper)
        if upper - lower <= STOP_GAP * cfg.opt_tol * upper or step == max_steps:
            break
        z = _adjoint(U @ Vh)
        if step == 0:
            a, ap = _dual_factor(Y2[0], (p - 1.0) / 2.0, r, cfg)
            b, bp = _dual_factor(Y1[0], (p - 1.0) / 2.0, r, cfg)
        elif step % 2:
            a, ap = _dual_factor((z @ b @ X).sum(axis=0), q - 1.0, r, cfg)
        else:
            b, bp = _dual_factor((X @ a @ z).sum(axis=0), q - 1.0, r, cfg)
    return lower, upper, factors, history


def _solve(seq: ElementSequence, p: float, cfg: ToleranceConfig, max_steps: int):
    """(lower, upper, factors, history) of the whole sequence from the block
    split |x| = (sum_k w_k N_k^p)^(1/p), N_k the value on block k at weight
    one: per-block endpoints combine as l^p sums, and ``history`` is the
    whole upper endpoint after each step."""
    w = seq.algebra.weights
    runs = [_ascent(X, p, cfg, max_steps) for X in _stacks(seq)]
    steps = max(len(h) for *_, h in runs)
    # per block: its two endpoints, then its upper endpoint after each step
    ends = [np.array([lo, up] + h + h[-1:] * (steps - len(h)))[:, None] for lo, up, _, h in runs]
    lower, upper, *history = _schatten(ends, w, p).tolist()
    if not np.isfinite(upper):
        raise NumericError(f"sequence norm overflowed: endpoints [{lower}, {upper}]")
    return lower, upper, [run[2] for run in runs], history


def _witness(alg, factors) -> tuple[list[Element], list[Element]]:
    """The per-block factors as elements, block k of every alpha_n scaled by
    t_k = (|Y2_k|_p / |Y1_k|_p)^(1/4) and of every beta_n by 1/t_k: the
    balance at which the objective of the whole equals the l^p sum of the
    blocks' objectives."""
    A, B = [], []
    for alpha, beta, n1, n2 in factors:
        t = (n2 / n1) ** 0.25 if n1 > 0 and n2 > 0 else 1.0
        A.append(alpha * t)
        B.append(beta / t)
    return [Element(alg, list(x)) for x in zip(*A)], [Element(alg, list(x)) for x in zip(*B)]


def _sequence_bounds(
    seq: ElementSequence, p: float, cfg: ToleranceConfig, max_steps: int
) -> tuple[float, float]:
    """(lower, upper): the closed form, else ``max_steps`` steps of the solver."""
    exact = _closed_form(seq, p, cfg)
    if exact is not None:
        return exact[0], exact[0]
    return _solve(seq, p, cfg, max_steps)[:2]


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
    block split with one primal-dual ascent per block (up to MAX_STEPS
    steps) supplies both endpoints and the witness; an ascent that has not
    closed its gap simply leaves certified_exact False.
    """
    if not 1 <= p < np.inf:  # also rejects nan
        raise DomainError(f"sequence norms need a finite p >= 1, got p = {p}")
    alg = seq.algebra

    exact = _closed_form(seq, p, cfg)
    if exact is not None:
        value, route = exact
        if route == "positive":
            roots = [positive_sqrt(0.5 * (x + x.H), cfg) for x in seq]
            witness = (roots, roots)
        else:
            witness = _witness(alg, _solve(seq, p, cfg, 0)[2])
        return NormInterval(value, value, True, witness=witness, meta={"route": route})

    lower, upper, factors, history = _solve(seq, p, cfg, MAX_STEPS)
    certified = (upper - lower) <= cfg.opt_tol * max(upper, 1e-300)
    return NormInterval(
        lower,
        upper,
        certified,
        witness=_witness(alg, factors),
        meta={"route": "optimizer", "init_upper": history[0], "histories": [history]},
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
