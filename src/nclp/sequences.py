"""Norms of finite element sequences: column/row, ell^1-valued, and the
two-term direct-sum norm with its disjointness criterion.

The ell^1-valued norm is an infimum over factorizations x_n = a_n b_n of

    |sum a_n a_n*|_p^(1/2) * |sum b_n* b_n|_p^(1/2).

``l1_norm_bounds`` returns a two-sided enclosure from one solver,
``_solve``, which takes a stack of equal-length sequences over one algebra
(per block an (m, n, d, d) array) and solves every row at once.

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

*The stack.*  Every block of every row ascends in one stack, zero-padded
into the top-left corner of D x D, D = max_k d_k: a block on M_d starts at
c P_d, c = d^((1-p)/(2p)), P_d the corner projection, so the rank cutoff
keeps its padding at 0 and it takes the steps it would take on M_d alone.
Each step is one batched SVD and one dual SVD for all of them; after step
0 a pair reads its primal endpoint (one Gram ``eigvalsh``) only once its
dual rose by at most SETTLE relative in the step.  A pair leaves the stack
when its own gap closes, so its endpoints, factors and history are bit for
bit those of solving its row alone.

Three input classes collapse to exact values, decided per row from the
batched sup-norm, self-adjointness and spectrum kernels of ``lp``:
positive sequences (norm of the sum), single elements, and p = 1 (the
ell^1 direct sum of the summands' norms).  An enclosure's witness (square
roots, the polar factorization or the ascent's factors) is built only when
read.  ``l1_norm_bounds`` and ``dinq_disjoint_test`` are one-row stacks;
``certify`` solves its sampled ratios with one stack per sequence length
and side (``RATIO_STEPS`` steps for the images) and
``classify_l2_isometry`` its image pairs in one.
"""

from __future__ import annotations

import functools
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
from .lp import _disjoint, _norms, _positive, _schatten, is_positive, lp_norm


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
    witness, when present, is a factorization (a_n, b_n) achieving upper;
    given as a callable, it is built when first read.
    """

    lower: float
    upper: float
    certified_exact: bool = False
    # no class-level default, so that an unbuilt witness reaches __getattr__
    witness: Optional[tuple[list[Element], list[Element]]] = field(default_factory=lambda: None)
    meta: dict = field(default_factory=dict)

    def __getattr__(self, name: str):
        if name != "witness" or "_build" not in self.__dict__:
            raise AttributeError(name)
        self.witness = self.__dict__.pop("_build")()
        return self.witness

    def __post_init__(self) -> None:
        if callable(self.witness):
            self._build = self.__dict__.pop("witness")
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
    row, column = _gram_norms(*_grams(items, items), seq.algebra.weights, p / 2.0).tolist()
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
    return sum(seq, zero_element(seq.algebra))  # 0 + x_1 + ... + x_n


def l1_norm_positive(seq: ElementSequence, p: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Exact sequence norm for positive entries: the p-norm of the sum."""
    for n, x in enumerate(seq):
        if not is_positive(x, cfg):
            raise DomainError(f"item {n} is not positive")
    return lp_norm(sum_elements(seq), p)


# ---------------------------------------------------------------------------
# The solver: closed forms, the block split and one primal-dual ascent per
# block, over a stack of equal-length sequences
# ---------------------------------------------------------------------------

MAX_STEPS = 200  # step cap of the ascent on one block in l1_norm_bounds
# The ascent stops at a relative gap of STOP_GAP * opt_tol, well inside the
# certification gap opt_tol: the gap shrinks linearly, so the extra digits
# cost a few steps, and endpoints that sit at the edge of opt_tol would be
# looser than a descent that happened to stop closer to the norm.
STOP_GAP = 0.01
# After step 0 a row reads its primal endpoint, a third of a step, only once
# its dual rose by at most SETTLE relative in a step: a dual that still
# rises faster leaves a gap far above STOP_GAP * opt_tol at the rates the
# ascent shows, so the primal could seldom stop the row.
SETTLE = 1e-6


def _stacks(items: Sequence[Element]) -> list[np.ndarray]:
    """Per block, the items' blocks stacked into one (n, d, d) array."""
    return [np.stack(blocks) for blocks in zip(*(x.blocks for x in items))]


def _rows(seqs: Sequence[Sequence[Element]]) -> list[np.ndarray]:
    """Per block, the (m, n, d, d) stack of m sequences of n items each."""
    return [np.array(blocks).reshape(len(seqs), -1, *blocks[0].shape)
            for blocks in zip(*(x.blocks for seq in seqs for x in seq))]


def _grams(A: list[np.ndarray], B: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per block, Y1 = sum_n a_n a_n* and Y2 = sum_n b_n* b_n of the (..., n, d, d) stacks."""
    return ([(a @ _adjoint(a)).sum(axis=-3) for a in A],
            [(_adjoint(b) @ b).sum(axis=-3) for b in B])


def _gram_norms(Y1: list[np.ndarray], Y2: list[np.ndarray], weights, p: float) -> np.ndarray:
    """(|Y1|_p, |Y2|_p), stacked first, of per-block Grams from one
    eigendecomposition per block of the stacked pair, whose eigenvalue
    moduli are their singular values.  The objective of a factorization is
    sqrt(|Y1|_p |Y2|_p)."""
    moduli = [np.abs(np.linalg.eigvalsh(np.array(pair))[..., ::-1]) for pair in zip(Y1, Y2)]
    return _schatten(moduli, weights, p)


def _dual_factors(G: np.ndarray, e: float, r: float, cfg: ToleranceConfig):
    """(y, y+) for each matrix of the (..., d, d) stack G, from one batched
    SVD G = W s V*: y = V f W* with f proportional to s^e over the singular
    values above the rank cutoff and |y|_r = 1, and its pseudo-inverse.
    With e = q - 1 (q conjugate to r) y is the norming dual, tr(G y) =
    |G|_q; for a Gram G and e = (p - 1)/2 it is the dual that meets the
    factorization in Hoelder's equality case."""
    [(W, s, Vh, keep)] = _ranked_svd([G], cfg)
    f = np.where(keep, s / s[..., :1], 0.0) ** e
    f = f / _schatten([f], (1.0,), r)[..., None]
    inv = np.where(keep, 1.0 / np.where(keep, f, 1.0), 0.0)
    return (_adjoint(Vh) * f[..., None, :]) @ _adjoint(W), (W * inv[..., None, :]) @ Vh


def _stack_ascent(X: np.ndarray, p: float, cfg: ToleranceConfig, max_steps: int, dims=None):
    """The ascent of the module docstring for each row of the (m, n, d, d)
    stack X, a sequence of n items on an unweighted M_d (on its top-left
    dims[i] x dims[i] corner, with ``dims``): (trace, alpha, beta, norms,
    steps) over the rows.  A row of ``trace`` holds the lower and the upper
    endpoint, then the upper endpoint after each step, repeated after the
    row's last step; (alpha, beta, norms) are the best primal step's
    factors and their (|Y1|_p, |Y2|_p).  A row leaves the stack once its
    gap is below STOP_GAP * opt_tol relative, so the rows that go on take
    the same steps as they would alone."""
    m, n, d = X.shape[:3]
    q = 2.0 * p / (p + 1.0)
    r = 2.0 * p / (p - 1.0) if p > 1 else np.inf
    dims = np.full(m, d) if dims is None else np.asarray(dims)
    c, slack = np.array([(e ** ((1.0 - p) / (2.0 * p)), e ** max(0.0, 1.0 / p - 0.5)) for e in dims.tolist()]).T
    # P_{d_i}: the factors vanish off the corner, so cutting them back to it loses nothing
    corner = np.eye(d) * (np.arange(d) < dims[:, None])[:, None, None, :]
    a = b = c[:, None, None, None] * corner
    ap = bp = corner / c[:, None, None, None]
    rows, lower, upper = np.arange(m), np.zeros(m), np.full(m, np.inf)  # rows still in the stack
    trace = np.empty((m, max_steps + 3))
    out = [np.empty_like(X), np.empty_like(X), np.empty((m, 2)), np.empty(m, int)]
    for step in range(max_steps + 1):
        U, s, Vh = np.linalg.svd(b @ X @ a)
        previous, lower = lower, np.fmax(lower, s.reshape(len(s), -1).sum(-1))
        due = lower - previous <= SETTLE * lower if step else np.full(m, True)
        value = upper
        if due.any():
            root = np.sqrt(s)
            alpha = bp @ (U * root[..., None, :])
            beta = (root[..., None] * Vh) @ ap
            [Y1], [Y2] = _grams([alpha], [beta])
            n1, n2 = norms = _gram_norms([Y1], [Y2], (1.0,), p)
            residual = np.linalg.norm(X - alpha @ beta, axis=(-2, -1)).sum(-1)
            value = np.where(due, np.sqrt(n1 * n2) + slack * residual, upper)
        if not (np.isfinite(lower).all() and np.isfinite(value).all()):
            i = int(np.argmin(np.isfinite(lower) & np.isfinite(value)))
            raise NumericError(f"sequence norm overflowed: endpoints [{float(lower[i])}, {float(value[i])}]")
        better = value < upper
        n_better = np.count_nonzero(better)
        if n_better == len(better):
            upper, best = value, [alpha, beta, norms.T]
        elif n_better:
            upper = np.where(better, value, upper)
            best = [np.where(better.reshape(-1, *[1] * (v.ndim - 1)), v, w)
                    for v, w in zip((alpha, beta, norms.T), best)]
        full = len(rows) == m  # no row has stopped yet: write through slices
        trace[slice(None) if full else rows, 2 + step] = upper
        done = upper - lower <= STOP_GAP * cfg.opt_tol * upper
        n_done = np.count_nonzero(done)
        if step == max_steps or n_done == len(done):
            done, n_done = slice(None), len(done)  # every row left stops here
        if n_done:
            i = done if full else rows[done]
            trace[i, 0], trace[i, 1], trace[i, 3 + step:] = lower[done], upper[done], upper[done, None]
            for o, v in zip(out, best):
                o[i] = v[done]
            out[3][i] = step + 1
            if n_done == len(upper):
                return (trace, *out)
            keep = ~done
            rows, X, lower, upper, slack, U, Vh, a, ap, b, bp = (
                v[keep] for v in (rows, X, lower, upper, slack, U, Vh, a, ap, b, bp))
            best = [v[keep] for v in best]
            if step == 0:
                Y1, Y2 = Y1[keep], Y2[keep]
        z = _adjoint(U @ Vh)
        if step == 0:  # both sides from one batched SVD
            (a, b), (ap, bp) = _dual_factors(np.array((Y2, Y1))[:, :, None], (p - 1.0) / 2.0, r, cfg)
        elif step % 2:
            a, ap = _dual_factors((z @ b @ X).sum(axis=1, keepdims=True), q - 1.0, r, cfg)
        else:
            b, bp = _dual_factors((X @ a @ z).sum(axis=1, keepdims=True), q - 1.0, r, cfg)


def _block_split(X: list[np.ndarray], weights, p: float, cfg: ToleranceConfig, max_steps: int):
    """(lower, upper, factors, histories) per row of the stack X (per block
    an (m, n, d, d) array) from the block split, every block of every row
    zero-padded into the corner of one ``_stack_ascent``: ``factors`` lists
    (alpha, beta, |Y1|_p, |Y2|_p) per block, ``histories`` the whole upper
    endpoint after each step of the row's longest ascent."""
    (m, n), dims = X[0].shape[:2], [S.shape[-1] for S in X]
    D = max(dims)
    stack = np.zeros((len(X) * m, n, D, D), dtype=np.result_type(*X))
    for k, (S, d) in enumerate(zip(X, dims)):
        stack[k * m:(k + 1) * m, :, :d, :d] = S
    trace, alpha, beta, norms, steps = _stack_ascent(stack, p, cfg, max_steps, np.repeat(dims, m))
    steps = steps.reshape(len(X), m).max(axis=0)
    width = 2 + int(steps.max())
    totals = _schatten(list(trace[:, :width].reshape(len(X), m, width, 1)), weights, p)
    if not np.isfinite(totals[:, 1]).all():
        lower, upper = totals[np.argmin(np.isfinite(totals[:, 1])), :2].tolist()
        raise NumericError(f"sequence norm overflowed: endpoints [{lower}, {upper}]")
    factors = [[(alpha[j][:, :d, :d], beta[j][:, :d, :d], *norms[j].tolist())
                for j, d in zip(range(i, len(stack), m), dims)] for i in range(m)]
    histories = [totals[i, 2:2 + steps[i]].tolist() for i in range(m)]
    return totals[:, 0].tolist(), totals[:, 1].tolist(), factors, histories


@np.errstate(over="ignore", invalid="ignore")  # the finiteness checks raise NumericError instead
def _solve(X: list[np.ndarray], weights, p: float, cfg: ToleranceConfig, max_steps: int):
    """(lower, upper, routes, factors, histories) per row of the stack X (per
    block an (m, n, d, d) array: m sequences of n items over one algebra
    with block weights ``weights``): the closed form of the module
    docstring where one applies (no factors, empty history), else
    ``max_steps`` steps of the block split (route "optimizer")."""
    m, n = X[0].shape[:2]
    positive = _positive(X, cfg).all(axis=-1)
    other = "singleton" if n == 1 else "p1_direct_sum" if p == 1 else "optimizer"
    routes = ["positive" if pos else other for pos in positive.tolist()]
    lower = np.full(m, np.nan)
    if positive.any():
        rows = np.flatnonzero(positive)
        # the sum accumulated as 0 + x_1 + ... + x_n, as sum_elements does
        lower[rows] = _norms([sum(S[rows, k] for k in range(n)) for S in X], weights, p)
    rows = np.flatnonzero(~positive)
    if len(rows) and other != "optimizer":
        norms = _norms([S[rows].reshape(-1, *S.shape[2:]) for S in X], weights, p).reshape(len(rows), n)
        lower[rows] = sum(norms[:, k] for k in range(n))
    lower = lower.tolist()
    upper, factors, histories = list(lower), [None] * m, [[] for _ in range(m)]
    if len(rows) and other == "optimizer":
        sub = X if len(rows) == m else [S[rows] for S in X]
        for i, lo, up, f, h in zip(rows.tolist(), *_block_split(sub, weights, p, cfg, max_steps)):
            lower[i], upper[i], factors[i], histories[i] = lo, up, f, h
    return lower, upper, routes, factors, histories


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


# ---------------------------------------------------------------------------
# The enclosure
# ---------------------------------------------------------------------------


def _intervals(X: list[np.ndarray], alg, p: float, cfg: ToleranceConfig) -> list[NormInterval]:
    """``l1_norm_bounds`` of each row of the stack X over ``alg``: one
    ``_solve``; each witness is built by ``_row_witness`` when first read."""
    lower, upper, routes, factors, histories = _solve(X, alg.weights, p, cfg, MAX_STEPS)
    out = []
    for i, (lo, up, route, f, history) in enumerate(zip(lower, upper, routes, factors, histories)):
        build = functools.partial(_row_witness, alg, [S[i] for S in X], p, cfg, route, f)
        if route == "optimizer":
            certified = (up - lo) <= cfg.opt_tol * max(up, 1e-300)
            meta = {"route": route, "init_upper": history[0], "histories": [history]}
            out.append(NormInterval(lo, up, certified, witness=build, meta=meta))
        else:
            out.append(NormInterval(up, up, True, witness=build, meta={"route": route}))
    return out


def _row_witness(alg, row: list[np.ndarray], p: float, cfg: ToleranceConfig, route: str, factors):
    """The witness of one row of ``_intervals`` (per block an (n, d, d)
    array): the square roots of the items of a positive sequence, the
    factors of the ascent, or for the other closed forms the polar
    factorization, the first step of the block split."""
    if route == "positive":
        roots = [positive_sqrt(0.5 * (x + x.H), cfg) for x in (Element(alg, list(b)) for b in zip(*row))]
        return roots, roots
    if route != "optimizer":
        factors = _block_split([S[None] for S in row], alg.weights, p, cfg, 0)[2][0]
    return _witness(alg, factors)


def l1_norm_bounds(seq: ElementSequence, p: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> NormInterval:
    """Two-sided enclosure of the ell^1-valued sequence norm: the closed
    form (witnessed by the square roots of positive entries, else by the
    polar factorization), or up to MAX_STEPS steps of the ascent, whose
    open gap leaves certified_exact False.  A one-row stack of ``_solve``."""
    if not 1 <= p < np.inf:  # also rejects nan
        raise DomainError(f"sequence norms need a finite p >= 1, got p = {p}")
    return _intervals(_rows([seq]), seq.algebra, p, cfg)[0]


def l12_norm(a: Element, b: Element, p: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> NormInterval:
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
        """An undetermined verdict, or one that the algebraic test agrees with."""
        return self.status == UNDETERMINED or self.algebraic == (self.status == DISJOINT)


def _dinq_verdicts(X: list[np.ndarray], weights, cfg: ToleranceConfig) -> list[DinqVerdict]:
    """The verdicts of ``dinq_disjoint_test`` for the pairs of the stack X
    (per block an (m, 2, d, d) array, block weights ``weights``) against
    their direct-sum norms at p = 2: the bare endpoints of one ``_solve``,
    clamped and checked as a NormInterval, exact on a closed form or a gap
    within opt_tol, with no witness built."""
    lower, upper, routes = _solve(X, weights, 2.0, cfg, MAX_STEPS)[:3]
    intervals = [NormInterval(lo, up, route != "optimizer" or up - lo <= cfg.opt_tol * max(up, 1e-300))
                 for lo, up, route in zip(lower, upper, routes)]
    A, B = [S[:, 0] for S in X], [S[:, 1] for S in X]
    norms = zip(_norms(A, weights, 2.0).tolist(), _norms(B, weights, 2.0).tolist())
    out = []
    for interval, (na, nb), algebraic in zip(intervals, norms, _disjoint(A, B, cfg).tolist()):
        threshold = float(np.sqrt(na ** 2 + nb ** 2))
        slack = threshold * (1.0 + cfg.opt_tol)
        status = DISJOINT if interval.upper <= slack else NOT_DISJOINT if interval.lower > slack else UNDETERMINED
        out.append(DinqVerdict(status, interval, threshold, algebraic))
    return out


def dinq_disjoint_test(a: Element, b: Element, cfg: ToleranceConfig = DEFAULT_CONFIG) -> DinqVerdict:
    """Two-term criterion at p = 2: (a, b) is a disjoint pair exactly when
    the direct-sum norm does not exceed the Euclidean combination
    sqrt(|a|_2^2 + |b|_2^2).  Verdicts compare the computed enclosure with
    that threshold and are cross-checked against the algebraic test.  The
    interval carries no witness and an empty meta."""
    return _dinq_verdicts(_rows([sequence([a, b])]), a.algebra.weights, cfg)[0]
