"""Seeded property suite over the whole toolkit.

Each property is anchored to one mathematical statement the library
implements, runs a budgeted number of random instances, and reports
pass/fail/undetermined counts with the worst residual seen.  The overall
verdict passes only with zero failures; undetermined counts are reported,
never hidden.  Budgets scale linearly so the default run stays within a
few minutes on a laptop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .algebra import (
    DEFAULT_CONFIG,
    AlgebraDescriptor,
    DomainError,
    Element,
    ToleranceConfig,
    absolute,
    identity,
    matrix_algebra,
    polar_support,
    spectral_projection,
)
from .lp import conjugate_exponent, disjoint, duality_pair, is_positive, lp_norm
from .maps import (
    CERTIFIED,
    FALSIFIED,
    LinearMap,
    _cp_norm,
    _norm_search,
    _norming_duals,
    _sampled_positivity,
    _transposed_coords,
    adjoint_map,
    amplified_map,
    choi_positivity,
    commutative_matrix,
    depolarizing,
    identity_map,
    kraus_map,
    op_norm,
    positivity_tests,
    rotation_mixing,
    scale_map,
    transpose_map,
    unitary_conjugation,
    unvec,
    vec,
)
from .sampling import (
    ginibre,
    random_algebra,
    random_disjoint_pair,
    random_element,
    random_positive,
    random_selfadjoint,
    random_unitary,
    rng_from,
)
from .sequences import (
    DISJOINT,
    MAX_STEPS,
    UNDETERMINED,
    NormInterval,
    _block_split,
    _gram_norms,
    _grams,
    _rows,
    _stack_ascent,
    _stacks,
    _witness,
    dinq_disjoint_test,
    l1_norm_bounds,
    l1_norm_positive,
    sequence,
    sum_elements,
)
from .yeadon import YeadonTriple, central_decompose, certify_separating, extract_yeadon
from .certify import (ROUTE_COMMUTATIVE, ROUTE_P1, ROUTE_SEPARATING, ROUTE_TWO_POSITIVE,
                      certify_l1_norm, classify_l2_isometry, l1_ratio_lower)
from . import synth


@dataclass
class PropertyRecord:
    property_id: str
    anchor: str
    instances: int
    passed: int
    failed: int
    undetermined: int
    max_residual: float
    wall_ms: float = 0.0


@dataclass
class SuiteReport:
    seed: int
    records: list[PropertyRecord] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(r.failed == 0 for r in self.records)

    def to_dict(self, timings: bool = True) -> dict:
        return {
            "seed": self.seed,
            "overall_pass": self.overall_pass,
            "properties": [
                {
                    "id": r.property_id,
                    "anchor": r.anchor,
                    "instances": r.instances,
                    "passed": r.passed,
                    "failed": r.failed,
                    "undetermined": r.undetermined,
                    "max_residual": r.max_residual,
                    "wall_ms": r.wall_ms if timings else 0.0,
                }
                for r in self.records
            ],
        }


class _Tally:
    def __init__(self) -> None:
        self.instances = 0
        self.passed = 0
        self.failed = 0
        self.undetermined = 0
        self.max_residual = 0.0

    def check(self, ok: bool, residual: float = 0.0) -> None:
        self.instances += 1
        self.max_residual = max(self.max_residual, float(residual))
        if ok:
            self.passed += 1
        else:
            self.failed += 1

    def skip(self) -> None:
        self.instances += 1
        self.undetermined += 1


P_GRID = (1.0, 1.5, 2.0, 3.0)


# ---------------------------------------------------------------------------
# algebra properties
# ---------------------------------------------------------------------------


def _prop_trace_faithful(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 101)
    t = _Tally()
    for _ in range(n):
        alg = random_algebra(rng)
        x = random_element(alg, rng)
        val = complex((x.H * x).trace())
        scale = x.sup_norm() ** 2
        t.check(val.real > 0 and abs(val.imag) <= 1e-12 * max(scale, 1.0), 0.0)
    return t


def _prop_norm_symmetries(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 102)
    t = _Tally()
    for i in range(n):
        alg = random_algebra(rng)
        x = random_element(alg, rng)
        p = P_GRID[i % 4]
        v = lp_norm(x, p)
        res = max(abs(lp_norm(x.H, p) - v), abs(lp_norm(absolute(x), p) - v))
        t.check(res <= 1e-9 * max(v, 1.0), res)
    return t


def _prop_spectral_orthogonal(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 103)
    t = _Tally()
    for _ in range(n):
        alg = random_algebra(rng)
        x = random_selfadjoint(alg, rng)
        cut = float(rng.uniform(-0.5, 0.5))
        p1 = spectral_projection(x, cut, np.inf, cfg)
        p2 = spectral_projection(x, -np.inf, cut - 1e-9, cfg)
        res = (p1 * p2).sup_norm()
        t.check(res <= 1e-9, res)
    return t


def _prop_polar_roundtrip(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 104)
    t = _Tally()
    for _ in range(n):
        alg = random_algebra(rng)
        x = random_element(alg, rng)
        u, m, s = polar_support(x, cfg)
        scale = max(x.sup_norm(), 1e-300)
        res = max(
            (u * m - x).sup_norm() / scale,
            (u.H * u * m - m).sup_norm() / scale,
            (u.H * u - s).sup_norm(),
            (u * u.H * u - u).sup_norm(),
        )
        t.check(res <= 1e-8, res)
    return t


# ---------------------------------------------------------------------------
# lp properties
# ---------------------------------------------------------------------------


def _prop_holder(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 201)
    t = _Tally()
    combos = [(2.0, 2.0, 1.0), (3.0, 1.5, 1.0), (4.0, 4.0, 2.0), (3.0, 3.0, 1.5)]
    for i in range(n):
        alg = random_algebra(rng)
        x, y = random_element(alg, rng), random_element(alg, rng)
        p, q, r = combos[i % len(combos)]
        lhs = lp_norm(x * y, r)
        rhs = lp_norm(x, p) * lp_norm(y, q)
        t.check(lhs <= rhs * (1 + 1e-9), max(0.0, lhs - rhs))
    return t


def _prop_duality(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 202)
    t = _Tally()
    for i in range(n):
        alg = random_algebra(rng)
        a, b = random_element(alg, rng), random_element(alg, rng)
        p = P_GRID[i % 4] if i % 4 else 1.5
        bound = lp_norm(a, p) * lp_norm(b, conjugate_exponent(p))
        val = abs(duality_pair(a, b))
        t.check(val <= bound * (1 + 1e-9), max(0.0, val - bound))
        # p = 2 attainment through the adjoint direction
        n2 = lp_norm(a, 2)
        if n2 > 0:
            attained = abs(duality_pair(a, (1.0 / n2) * a.H))
            t.check(abs(attained - n2) <= 1e-9 * max(n2, 1.0), abs(attained - n2))
    return t


def _prop_disjoint_absolute(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 203)
    t = _Tally()
    for i in range(n):
        alg = random_algebra(rng, max_blocks=2, max_dim=4)
        if alg.coord_dim < 2:
            alg = matrix_algebra(2 + i % 3)
        a, b = random_disjoint_pair(alg, rng)
        ok = (
            disjoint(a, b, cfg)
            and disjoint(absolute(a), absolute(b), cfg)
            and disjoint(absolute(a.H), absolute(b.H), cfg)
        )
        t.check(ok)
        # a perturbed pair should break the equivalent conditions together
        c = b + 0.5 * a
        lhs = disjoint(a, c, cfg)
        rhs = disjoint(absolute(a), absolute(c), cfg) and disjoint(
            absolute(a.H), absolute(c.H), cfg
        )
        t.check(lhs == rhs)
    return t


def _prop_positive_orthogonality(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 204)
    t = _Tally()
    for i in range(n):
        alg = random_algebra(rng, max_blocks=2, max_dim=4)
        if alg.coord_dim < 2:
            alg = matrix_algebra(2 + i % 3)
        if i % 2 == 0:
            a, b = random_disjoint_pair(alg, rng, positive=True)
            pair_trace = abs(duality_pair(a, b))
            scale = lp_norm(a, 2) * lp_norm(b, 2)
            t.check(pair_trace <= 1e-9 * max(scale, 1.0) and disjoint(a, b, cfg), pair_trace)
        else:
            a, b = random_positive(alg, rng), random_positive(alg, rng)
            pair_trace = abs(duality_pair(a, b))
            scale = lp_norm(a, 2) * lp_norm(b, 2)
            if pair_trace > 1e-6 * scale:
                t.check(not disjoint(a, b, cfg))
            else:
                t.skip()
    return t


def _prop_triangle(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 205)
    t = _Tally()
    for i in range(n):
        alg = random_algebra(rng)
        x, y = random_element(alg, rng), random_element(alg, rng)
        p = P_GRID[i % 4]
        lhs = lp_norm(x + y, p)
        rhs = lp_norm(x, p) + lp_norm(y, p)
        c = complex(rng.standard_normal(), rng.standard_normal())
        hom = abs(lp_norm(c * x, p) - abs(c) * lp_norm(x, p))
        t.check(lhs <= rhs * (1 + 1e-9) and hom <= 1e-9 * max(lp_norm(x, p), 1.0),
                max(max(0.0, lhs - rhs), hom))
    return t


# ---------------------------------------------------------------------------
# sequence properties
# ---------------------------------------------------------------------------


def _prop_positive_sum_rule(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 301)
    t = _Tally()
    for i in range(n):
        alg = random_algebra(rng, max_blocks=2, max_dim=4)
        p = P_GRID[i % 4]
        seq = sequence([random_positive(alg, rng) for _ in range(2 + i % 3)])
        iv = l1_norm_bounds(seq, p, cfg)
        target = l1_norm_positive(seq, p, cfg)
        res = max(abs(iv.upper - target), abs(target - iv.lower)) / max(target, 1e-300)
        ok = iv.certified_exact and res <= 1e-6
        if i % 4 == 0:
            # run the ascent past the shortcut: its polar start, both of its
            # endpoints and the objective of its witness must match the
            # closed form, pinning the solver to the rule
            [lower], [upper], [factors], [history] = _block_split(_rows([seq]), alg.weights, p, cfg, MAX_STEPS)
            wa, wb = _witness(alg, factors)
            after = np.sqrt(np.prod(_gram_norms(*_grams(_stacks(wa), _stacks(wb)), alg.weights, p)))
            opt_res = max(
                abs(v - target) for v in (history[0], lower, upper, after)
            ) / max(target, 1e-300)
            res = max(res, opt_res)
            ok = ok and opt_res <= 1e-6
        t.check(ok, res)
    return t


def _prop_optimizer_holder(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 302)
    t = _Tally()
    for i in range(n):
        alg = random_algebra(rng, max_blocks=2, max_dim=3)
        p = (1.5, 2.0, 3.0)[i % 3]
        seq = sequence([random_element(alg, rng) for _ in range(2 + i % 2)])
        iv = l1_norm_bounds(seq, p, cfg)
        if iv.meta.get("route") != "optimizer":
            t.skip()
            continue
        floor = lp_norm(sum_elements(seq), p)
        visited_min = min(min(h) for h in iv.meta["histories"])
        holder_ok = visited_min >= floor - 1e-9 * max(floor, 1.0)
        descent_ok = iv.upper <= iv.meta["init_upper"] * (1 + 1e-12)
        t.check(holder_ok and descent_ok, max(0.0, floor - visited_min))
    return t


def _prop_permutation_homogeneity(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 303)
    t = _Tally()
    for i in range(n):
        alg = random_algebra(rng, max_blocks=2, max_dim=3)
        p = P_GRID[i % 4]
        items = [random_element(alg, rng) for _ in range(3)]
        seq = sequence(items)
        perm = sequence([items[2], items[0], items[1]])
        iv = l1_norm_bounds(seq, p, cfg)
        ivp = l1_norm_bounds(perm, p, cfg)
        scale = max(iv.upper, 1e-300)
        # the norm itself is permutation invariant, so the two enclosures
        # must overlap exactly; the deterministic ascent makes the same
        # steps on both, so the endpoints agree up to rounding
        overlap = iv.lower <= ivp.upper * (1 + 1e-9) and ivp.lower <= iv.upper * (1 + 1e-9)
        perm_res = max(abs(iv.upper - ivp.upper), abs(iv.lower - ivp.lower)) / scale
        c = 0.25 + float(rng.random())
        ivc = l1_norm_bounds(sequence([c * x for x in items]), p, cfg)
        hom_res = max(abs(ivc.upper - c * iv.upper), abs(ivc.lower - c * iv.lower)) / scale
        t.check(overlap and perm_res <= 1e-3 and hom_res <= 1e-7,
                max(perm_res, hom_res))
    return t


def _prop_ascent_duality(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 305)
    t = _Tally()
    for i in range(n):
        alg = random_algebra(rng, max_blocks=2, max_dim=4)
        p = (1.5, 2.0, 3.0)[i % 3]
        items = [random_element(alg, rng) for _ in range(2 + i % 3)]
        if i % 4 == 1:  # rank-one items
            items = [Element(alg, [b[:, :1] @ b[:1, :] for b in x.blocks]) for x in items]
        if i % 4 == 3:  # a zero block in every item
            items = [Element(alg, [b if k else 0 * b for k, b in enumerate(x.blocks)]) for x in items]
        for X in _rows([items]):
            # the endpoints after k steps, for every k up to the stopping step
            runs = [_stack_ascent(X, p, cfg, k)[0][0, :2].tolist()
                    for k in range(int(_stack_ascent(X, p, cfg, MAX_STEPS)[4][0]))]
            lows, ups = [run[0] for run in runs], [run[1] for run in runs]
            excess = max(lo - up for lo, up in zip(lows, ups)) / max(ups[-1], 1e-300)
            t.check(excess <= 1e-12 and lows == sorted(lows) and ups == sorted(ups, reverse=True),
                    max(excess, 0.0))
    return t


def _prop_block_split(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 306)
    t = _Tally()
    for i in range(n):
        p = (1.5, 2.0, 3.0)[i % 3]
        dims = [int(d) for d in rng.integers(1, 4, size=2 + i % 2)]
        if i % 2:
            # unit weights: the same items, block-diagonal in one M_{sum d}
            alg = AlgebraDescriptor(tuple((d, 1.0) for d in dims))
            seq = sequence([random_element(alg, rng) for _ in range(3)])
            big = [np.block([[b if j == k else np.zeros((len(b), len(c))) for k, c in enumerate(x.blocks)]
                             for j, b in enumerate(x.blocks)]) for x in seq]
            want = l1_norm_bounds(sequence([Element(matrix_algebra(sum(dims)), [b]) for b in big]), p, cfg)
        else:
            # 1 x 1 blocks with random weights against the closed form
            alg = AlgebraDescriptor(tuple((1, float(w)) for w in rng.uniform(0.5, 2.0, size=sum(dims))))
            seq = sequence([random_element(alg, rng) for _ in range(3)])
            moduli = np.abs([[b[0, 0] for b in x.blocks] for x in seq]).sum(axis=0)
            value = float(np.sum(np.array(alg.weights) * moduli**p) ** (1 / p))
            want = NormInterval(value, value, True)
        iv = l1_norm_bounds(seq, p, cfg)
        res = abs(iv.upper - want.upper) / max(want.upper, 1e-300)
        overlap = iv.lower <= want.upper * (1 + 1e-9) and want.lower <= iv.upper * (1 + 1e-9)
        t.check(iv.certified_exact and want.certified_exact and overlap and res <= cfg.opt_tol, res)
    return t



def _prop_dinq_agreement(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 304)
    t = _Tally()
    for i in range(n):
        alg = random_algebra(rng, max_blocks=2, max_dim=4)
        if alg.coord_dim < 2:
            alg = matrix_algebra(2 + i % 3)
        make_disjoint = i % 2 == 0
        if make_disjoint:
            a, b = random_disjoint_pair(alg, rng, positive=(i % 4 == 0))
        else:
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            if disjoint(a, b, cfg):
                t.skip()
                continue
        v = dinq_disjoint_test(a, b, cfg)
        if v.status == UNDETERMINED:
            t.skip()
        else:
            t.check(v.consistent and (v.status == DISJOINT) == make_disjoint)
    return t


# ---------------------------------------------------------------------------
# map properties
# ---------------------------------------------------------------------------


def _prop_adjoint_involution(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 401)
    t = _Tally()
    for _ in range(n):
        alg = random_algebra(rng)
        T = LinearMap(alg, alg, ginibre(rng, alg.coord_dim), 2.0)
        x, y = random_element(alg, rng), random_element(alg, rng)
        Ts = adjoint_map(T)
        pair_res = abs(duality_pair(T(x), y) - duality_pair(x, Ts(y)))
        inv_res = float(np.abs(adjoint_map(Ts).action - T.action).max())
        scale = max(float(np.abs(T.action).max()), 1.0)
        t.check(pair_res <= 1e-8 * scale * max(x.sup_norm() * y.sup_norm(), 1.0)
                and inv_res <= 1e-9 * scale, max(pair_res, inv_res))
    return t


def _prop_cp_constructors(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 402)
    t = _Tally()
    for i in range(n):
        alg = matrix_algebra(2 + i % 2)
        kind = i % 3
        if kind == 0:
            T = depolarizing(alg, float(rng.uniform(0, 1)), 2.0)
        elif kind == 1:
            T = unitary_conjugation(random_unitary(alg, rng), 2.0)
        else:
            T = synth.random_cp_contraction(alg, 2.0, rng)
        ok = all(
            positivity_tests(T, level, cfg).status == CERTIFIED
            for level in ("positive", "two_positive", "completely_positive")
        )
        t.check(ok)
    return t


def _prop_amplified_consistency(cfg: ToleranceConfig, n: int) -> _Tally:
    """The transposition and the rotation are falsified with a positive
    input of the 2-amplification whose image leaves the cone; the CP maps
    are certified."""
    rng = rng_from(cfg.seed, 403)
    t = _Tally()
    library = [
        (transpose_map(matrix_algebra(2), 2.0), FALSIFIED),
        (depolarizing(matrix_algebra(2), 0.5, 2.0), CERTIFIED),
        (unitary_conjugation(random_unitary(matrix_algebra(3), rng), 2.0), CERTIFIED),
        (rotation_mixing(0.9, 2.0), FALSIFIED),
    ]
    for i in range(n):
        T, want = library[i % len(library)]
        got, amp = positivity_tests(T, "two_positive", cfg), amplified_map(T, 2)
        witnessed = (got.witness is not None and got.witness.algebra == amp.domain
                     and is_positive(got.witness, cfg) and not is_positive(amp(got.witness), cfg))
        t.check(got.status == want and (want == CERTIFIED or witnessed))
    return t


def _prop_choi_positivity(cfg: ToleranceConfig, n: int) -> _Tally:
    """Block components drawn CP (two Kraus terms), co-CP (the same after the
    transposition) or Ginibre (almost surely neither): Choi certifies
    positivity exactly when no component is Ginibre, CP or co-CP when all
    are built so, and sampled probes never falsify a certified map."""
    rng = rng_from(cfg.seed, 405)
    t = _Tally()
    for _ in range(n):
        dom, cod = (AlgebraDescriptor(((2, 1.0), (int(rng.integers(1, 3)), 0.5))) for _ in range(2))
        kinds = rng.choice(3, size=(2, 2), p=(0.4, 0.4, 0.2))
        A = np.zeros((cod.coord_dim, dom.coord_dim), dtype=complex)
        for (l, k), kind in np.ndenumerate(kinds):
            c, d = cod.dims[l], dom.dims[k]
            vs = rng.standard_normal((2, c, d, 2)) @ np.array([1.0, 1j])
            A_lk = sum(np.kron(v, v.conj()) for v in vs)
            if kind == 2:
                A_lk = rng.standard_normal((c * c, d * d, 2)) @ np.array([1.0, 1j])
            A[cod.slices[l], dom.slices[k]] = A_lk[:, _transposed_coords(matrix_algebra(d))] if kind == 1 else A_lk
        T = LinearMap(dom, cod, A, 2.0)
        got = choi_positivity(T, cfg)
        ok = (got["positive"] == bool((kinds < 2).all()) and got["cp"] >= bool((kinds == 0).all())
              and got["co_cp"] >= bool((kinds == 1).all()))
        t.check(ok and not (got["positive"] and _sampled_positivity(T, cfg).status == FALSIFIED))
    return t


def _prop_boyd_step_monotone(cfg: ToleranceConfig, n: int) -> _Tally:
    """|T x|_p / |x|_p <= |T* z|_{p'} <= |T x'|_p / |x'|_p for z the norming
    dual of T x and x' that of T* z (Hoelder twice): the reason
    ``_boyd_ascent`` may stop a start whose value does not rise."""
    rng = rng_from(cfg.seed, 404)
    t = _Tally()
    for i in range(n):
        alg = random_algebra(rng, max_blocks=2, max_dim=3)
        p = (1.0, 1.5, 3.0)[(i // 3) % 3]
        if i % 3 == 0:
            T = LinearMap(alg, alg, ginibre(rng, alg.coord_dim), p)
        elif i % 3 == 1:
            T = synth.random_cp_contraction(alg, p, rng)
        else:
            T = transpose_map(alg, p)
        x = random_element(alg, rng)
        T_adj = adjoint_map(T, p)
        ny, Z, _ = _norming_duals(alg, vec(T(x))[None, :], p, cfg)
        middle, X, _ = _norming_duals(alg, Z @ T_adj.action.T, T_adj.p, cfg)
        x_next = unvec(alg, X[0])
        first = float(ny[0]) / lp_norm(x, p)
        last = lp_norm(T(x_next), p) / max(lp_norm(x_next, p), 1e-300)
        res = max(0.0, first - middle[0], middle[0] - last) / max(first, 1e-300)
        t.check(res <= 1e-12, res)
    return t


# ---------------------------------------------------------------------------
# factorization properties
# ---------------------------------------------------------------------------


def _prop_yeadon_roundtrip(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 501)
    t = _Tally()
    for i in range(n):
        T, w0, B0, J0 = synth.random_yeadon_map(rng, p=P_GRID[i % 4])
        tri = extract_yeadon(T, cfg)
        if not isinstance(tri, YeadonTriple):
            t.check(False)
            continue
        scale = max(B0.sup_norm(), 1.0)
        res = max(
            (tri.w - w0).sup_norm(),
            (tri.B - B0).sup_norm() / scale,
            float(np.abs(tri.J.action - J0.action).max()),
        )
        t.check(res <= 10 * cfg.algebraic_tol, res)
    return t


def _prop_separating_preserves(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 502)
    t = _Tally()
    maps = [synth.random_yeadon_map(rng, p=2.0)[0] for _ in range(4)]
    maps.append(transpose_map(matrix_algebra(3), 2.0))
    verdicts = {id(T): certify_separating(T, cfg).status for T in maps}
    for i in range(n):
        T = maps[i % len(maps)]
        if verdicts[id(T)] != CERTIFIED:
            t.check(False)
            continue
        if T.domain.coord_dim < 2:  # M_1 has no nonzero disjoint pairs
            t.skip()
            continue
        a, b = random_disjoint_pair(T.domain, rng, positive=(i % 2 == 0))
        ta, tb = T(a), T(b)
        scale = float(np.abs(T.action).max())
        # an input annihilated by the factorization leaves only rounding dust
        if ta.sup_norm() <= 1e-12 * scale * a.sup_norm() or tb.sup_norm() <= 1e-12 * scale * b.sup_norm():
            t.check(True)
            continue
        t.check(disjoint(ta, tb, replace(cfg, algebraic_tol=1e-7)))
    return t


def _prop_separating_stability(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 503)
    t = _Tally()
    for i in range(n):
        if i % 2 == 0:
            T = synth.random_yeadon_map(rng, p=2.0)[0]
        else:
            T = rotation_mixing(float(rng.uniform(0.4, 2.6)), 2.0)
        first = certify_separating(T, cfg).status
        second = certify_separating(T, cfg).status
        t.check(first == second and first != UNDETERMINED)
    return t


def _prop_central_laws(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 504)
    t = _Tally()
    for i in range(n):
        J = synth.random_jordan_map(rng)
        dec = central_decompose(J, cfg)
        one_img = J(identity(J.domain))
        res = max(
            (dec.g * dec.f).sup_norm(),
            (dec.g + dec.f - one_img).sup_norm(),
        )
        # the two parts must obey their multiplication laws
        x, y = random_element(J.domain, rng), random_element(J.domain, rng)
        res = max(res, (dec.pi(x * y) - dec.pi(x) * dec.pi(y)).sup_norm()
                  / max(1.0, x.sup_norm() * y.sup_norm()))
        res = max(res, (dec.sigma(x * y) - dec.sigma(y) * dec.sigma(x)).sup_norm()
                  / max(1.0, x.sup_norm() * y.sup_norm()))
        t.check(res <= 1e-7, res)
    return t


# ---------------------------------------------------------------------------
# certification properties
# ---------------------------------------------------------------------------


def _prop_routes_dominate(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 601)
    t = _Tally()
    battery: list[LinearMap] = []
    alg = matrix_algebra(2)
    battery.append(transpose_map(alg, 2.0))
    battery.append(depolarizing(alg, 0.6, 2.0))
    battery.append(identity_map(alg, 2.0))
    battery.append(synth.random_yeadon_map(rng, p=2.0)[0])
    battery.append(synth.random_cp_contraction(alg, 2.0, rng))
    for i in range(n):
        T = battery[i % len(battery)]
        cert = certify_l1_norm(T, T.p, cfg, ratio_budget=10)
        upper = cert.value_interval.upper
        if not np.isfinite(upper):
            t.skip()
            continue
        # a closed route skips the ratio, so the sampled cross-check runs here
        lower = max(cert.value_interval.lower, l1_ratio_lower(T, T.p, cfg, budget=10)[0])
        t.check(not cert.alarm and lower <= upper * (1 + cfg.opt_tol), max(0.0, lower - upper))
    return t


def _prop_separating_sharpness(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 602)
    t = _Tally()
    for i in range(n):
        p = P_GRID[i % 4]
        T = synth.random_yeadon_map(rng, p=p)[0] if i % 8 < 4 else synth.random_jordan_map(rng, p=p)
        cert = certify_l1_norm(T, p, cfg, ratio_budget=15)
        closed = cert.value_interval.upper
        nv = op_norm(T, p, cfg)
        singleton = l1_ratio_lower(T, p, cfg, budget=15)[1]["positive_singleton"]
        # a map between diagonal algebras takes the commutative route first
        diagonal = max(T.domain.dims + T.codomain.dims) == 1
        route = ROUTE_COMMUTATIVE if diagonal else ROUTE_SEPARATING
        ok = (cert.route == route and bool(cert.value_interval.certified_exact)
              and nv.lower <= closed * (1 + 1e-12) and closed <= nv.upper * (1 + 1e-12)
              and singleton >= 0.95 * closed)
        t.check(ok, max(0.0, nv.lower - closed, closed - nv.upper, 0.95 * closed - singleton))
    return t


def _prop_commutative_regular(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 605)
    t = _Tally()
    for i in range(n):
        p = P_GRID[i % 4]
        m, k = (int(v) for v in rng.integers(1, 6, size=2))
        A = ginibre(rng, max(m, k))[:m, :k] if i % 8 < 4 else rng.random((m, k))
        A = A * (rng.random((m, k)) < 0.7)
        if i % 2:  # block triangular, so reducible
            A[m // 2:, :(k + 1) // 2] = 0.0
        T = commutative_matrix(A, rng.uniform(0.5, 2.0, k).tolist(), rng.uniform(0.5, 2.0, m).tolist(), p)
        cert = certify_l1_norm(T, p, cfg, ratio_budget=0)
        value = cert.value_interval.upper
        ref = op_norm(LinearMap(T.domain, T.codomain, np.abs(T.action), p), p, cfg)
        ok = (cert.route == ROUTE_COMMUTATIVE and bool(cert.value_interval.certified_exact)
              and not cert.alarm and ref.lower * (1 - 1e-12) <= value <= ref.upper * (1 + 1e-12))
        t.check(ok, max(0.0, ref.lower - value, value - ref.upper) / max(value, 1e-300))
    return t


def _prop_two_positive_homogeneity(cfg: ToleranceConfig, n: int) -> _Tally:
    """A CP or co-CP map scaled above norm 1 has ell^1-extension norm |T|_p:
    T / |T| is a 2-(co)positive contraction, and singletons give >=.  The
    interval closes at every p (off p = 1, 2 by the Lieb-concavity bound),
    inside op_norm's enclosure."""
    rng = rng_from(cfg.seed, 606)
    algebras = (matrix_algebra(2), matrix_algebra(3), AlgebraDescriptor(((2, 1.0), (1, 0.5))))
    t = _Tally()
    for i in range(n):
        p, alg = P_GRID[i % 4], algebras[i % 3]
        vs = [Element(alg, [ginibre(rng, d) for d in alg.dims]) for _ in range(1 + i // 8 % 2)]
        T = scale_map(kraus_map(vs, p, transposed=bool(i // 4 % 2)), float(rng.uniform(1.5, 3.0)))
        cert = certify_l1_norm(T, p, cfg, ratio_budget=0)
        iv, nv = cert.value_interval, op_norm(T, p, cfg)
        ok = (cert.route == (ROUTE_P1 if p == 1 else ROUTE_TWO_POSITIVE) and not cert.alarm
              and bool(iv.certified_exact) and nv.lower <= iv.upper * (1 + 1e-12) <= nv.upper * (1 + 2e-12))
        t.check(ok, max(0.0, nv.lower - iv.upper, iv.upper - nv.upper) / nv.upper)
    return t


def _prop_cp_norm_certificate(cfg: ToleranceConfig, n: int) -> _Tally:
    """``maps._cp_norm`` on Kraus and transposed-Kraus maps, each block of
    a term rank one with probability 1/3, on weighted one- and two-block
    algebras at p in {1.2, 1.5, 3, 5}: its upper endpoint is at least every
    Boyd lower endpoint of ``_norm_search``, and on one block the interval
    closes within opt_tol.  An open interval on two blocks is reported as
    undetermined."""
    rng = rng_from(cfg.seed, 608)
    algebras = (matrix_algebra(2), matrix_algebra(3), AlgebraDescriptor(((2, 1.0), (1, 0.5))),
                AlgebraDescriptor(((2, 1.0), (2, 0.3))))
    t = _Tally()
    for i in range(n):
        alg, p, transposed = algebras[i % 4], (1.2, 1.5, 3.0, 5.0)[i // 4 % 4], bool(i // 16 % 2)
        vs = []
        for _ in range(1 + i // 32 % 3):
            blocks = [ginibre(rng, d) for d in alg.dims]
            vs.append(Element(alg, [np.outer(b[:, 0], b[0]) if rng.random() < 1 / 3 else b for b in blocks]))
        T = kraus_map(vs, p, transposed=transposed)
        lower, upper, _ = _cp_norm(T, p, cfg, transposed)
        boyd = float(_norm_search(T, p, cfg)[0].max())
        sound = max(boyd, lower) <= upper * (1 + 1e-12)
        closed = upper - lower <= cfg.opt_tol * upper
        if sound and not closed and len(alg.dims) > 1:
            t.skip()
        else:
            t.check(sound and closed, max(0.0, boyd - upper) / upper)
    return t


SCALES = (1e-12, 1e-6, 1e6, 1e12)


def _prop_scale_equivariance(cfg: ToleranceConfig, n: int) -> _Tally:
    """certify_l1_norm(c T, p) takes the route and alarm of T, with c times
    its endpoints: every test on the way is relative to the map's scale.
    Instance i takes map i % 8, p = P_GRID[i // 8 % 4] and c from SCALES,
    so that 128 instances cover the grid once."""
    rng = rng_from(cfg.seed, 607)
    alg, m2 = AlgebraDescriptor(((2, 1.0), (1, 0.5))), matrix_algebra(2)
    v = Element(alg, [ginibre(rng, d) for d in alg.dims])
    library = [transpose_map(alg), rotation_mixing(0.9), LinearMap(m2, m2, ginibre(rng, 4)),
               kraus_map([v]), kraus_map([v], transposed=True), synth.random_yeadon_map(rng)[0],
               synth.random_cp_contraction(alg, 2.0, rng), synth.random_commutative_map(rng)]
    t = _Tally()
    for i in range(n):
        T, p, c = library[i % 8], P_GRID[i // 8 % 4], SCALES[(i + i // 8 + i // 32) % 4]
        base = certify_l1_norm(T, p, cfg, ratio_budget=0)
        cert = certify_l1_norm(scale_map(T, c), p, cfg, ratio_budget=0)
        moves = [0.0 if a == c * b else abs(a - c * b) / abs(c * b)
                 for a, b in zip((cert.value_interval.lower, cert.value_interval.upper),
                                 (base.value_interval.lower, base.value_interval.upper))]
        t.check(cert.route == base.route and cert.alarm == base.alarm and max(moves) <= 1e-9, max(moves))
    return t


def _prop_isometry_agreement(cfg: ToleranceConfig, n: int) -> _Tally:
    """The main theorem on L^2 isometries, read by both deciders: a
    factorizable one keeps every image pair disjoint and certifies the
    ell^1-extension norm 1 at p = 2 (interval in [1 - 1e-12, 1 + opt_tol]);
    any other has a pair certified not disjoint and a certified lower
    endpoint above 1.  No alarm fires."""
    rng = rng_from(cfg.seed, 603)
    t = _Tally()
    for i in range(n):
        T = synth.random_l2_isometry(rng, i)
        cls = classify_l2_isometry(T, cfg, pairs=8)
        cert = certify_l1_norm(T, 2.0, cfg)
        ev, iv = cls.evidence, cert.value_interval
        if cls.status == "ytf":  # every image pair disjoint: no l12 ratio above 1, and norm 1
            excess = max((ev["max_l12_ratio"] or 0.0) - (1 + cfg.opt_tol) * (1 + 1e-12),
                         (1 - 1e-12) - iv.lower, iv.upper - (1 + cfg.opt_tol))
            ok = excess <= 0
        else:  # a pair certified not disjoint: a certified l12 ratio above 1, and a lower endpoint too
            excess = max(1.0 - (ev["max_certified_l12_ratio"] or 0.0), 1.0 - iv.lower)
            ok = cls.status == "no_ytf" and ev["pair_statuses"].get("not_disjoint", 0) > 0 and excess < 0
        t.check(not cls.alarm and not cert.alarm and ok, max(excess, 0.0))
    return t


def _prop_positive_4x(cfg: ToleranceConfig, n: int) -> _Tally:
    rng = rng_from(cfg.seed, 604)
    t = _Tally()
    for i in range(n):
        T = synth.random_positive_map(matrix_algebra(2 + i % 2), 2.0, rng)
        up = op_norm(T, 2.0, cfg).upper
        ratio, _ = l1_ratio_lower(T, 2.0, cfg, budget=10)
        t.check(ratio <= 4.0 * up * (1 + 1e-6), max(0.0, ratio - 4 * up))
    return t


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteProperty:
    property_id: str
    anchor: str
    budget: int
    fn: Callable[[ToleranceConfig, int], _Tally]


PROPERTIES: tuple[SuiteProperty, ...] = (
    SuiteProperty("trace-faithfulness", "the trace of x* x is strictly positive for nonzero x", 150, _prop_trace_faithful),
    SuiteProperty("norm-star-absolute", "x, x* and |x| share every p-norm", 150, _prop_norm_symmetries),
    SuiteProperty("spectral-orthogonality", "spectral projections of disjoint intervals multiply to zero", 80, _prop_spectral_orthogonal),
    SuiteProperty("polar-roundtrip", "polar factors recompose x and the support partial isometry matches", 1000, _prop_polar_roundtrip),
    SuiteProperty("holder-products", "the product norm is bounded by the conjugate-exponent factor norms", 150, _prop_holder),
    SuiteProperty("duality-pairing", "the trace pairing is bounded by conjugate norms and attained at p = 2", 100, _prop_duality),
    SuiteProperty("disjoint-absolute-values", "pairs are disjoint exactly when their absolute values on both sides are", 100, _prop_disjoint_absolute),
    SuiteProperty("positive-orthogonality", "positive elements with vanishing trace pairing are disjoint", 120, _prop_positive_orthogonality),
    SuiteProperty("norm-triangle-homogeneity", "p-norms are subadditive and absolutely homogeneous", 150, _prop_triangle),
    SuiteProperty("positive-sequence-sum-rule", "positive sequences have ell1 norm equal to the norm of their sum", 120, _prop_positive_sum_rule),
    SuiteProperty("factorization-floor-descent", "every visited factorization dominates the norm of the sum and sweeps never increase it", 48, _prop_optimizer_holder),
    SuiteProperty("sequence-symmetries", "sequence-norm endpoints are permutation invariant and absolutely homogeneous", 32, _prop_permutation_homogeneity),
    SuiteProperty("ascent-duality", "every dual iterate of the sequence-norm ascent stays below every primal one", 24, _prop_ascent_duality),
    SuiteProperty("block-split", "the sequence norm splits over blocks: unit-weight blocks agree with their block-diagonal embedding, and 1 x 1 blocks with their closed form", 30, _prop_block_split),
    SuiteProperty("dinq-two-term-agreement", "the two-term p=2 criterion agrees with the algebraic disjointness test", 500, _prop_dinq_agreement),
    SuiteProperty("adjoint-involution", "the trace adjoint satisfies the pairing identity and is an involution", 60, _prop_adjoint_involution),
    SuiteProperty("cp-constructor-certification", "completely positive constructors certify at all three positivity levels", 24, _prop_cp_constructors),
    SuiteProperty("choi-positivity-sound", "a map whose block components are each completely positive or completely copositive is positive", 12, _prop_choi_positivity),
    SuiteProperty("boyd-step-monotone", "one step of the operator-norm power method never lowers the ratio", 120, _prop_boyd_step_monotone),
    SuiteProperty("amplified-two-positive", "2-positivity is positivity of the 2-amplification: the transposition and the rotation fail it with a witness, CP maps pass", 16, _prop_amplified_consistency),
    SuiteProperty("factorization-roundtrip", "synthetic (w, B, J) maps are recovered by extraction", 40, _prop_yeadon_roundtrip),
    SuiteProperty("separating-preserves-disjointness", "certified separating maps send disjoint pairs to disjoint pairs", 500, _prop_separating_preserves),
    SuiteProperty("separating-verdict-stability", "separating verdicts are reproducible across repeated seeded runs", 16, _prop_separating_stability),
    SuiteProperty("central-decomposition-laws", "the central split is orthogonal, sums to J(1), and obeys both multiplication laws", 40, _prop_central_laws),
    SuiteProperty("certified-upper-dominates-ratios", "sampled sequence ratios never beat a certified upper bound", 60, _prop_routes_dominate),
    SuiteProperty("separating-norm-sharpness", "separating maps certify exactly from their trace density, inside the operator-norm enclosure, and positive singleton ratios reach it", 12, _prop_separating_sharpness),
    SuiteProperty("commutative-regular-exact", "maps between diagonal algebras certify exactly by the Collatz-Wielandt bound, inside the operator-norm enclosure of the entrywise modulus", 24, _prop_commutative_regular),
    SuiteProperty("two-positive-homogeneity", "CP and co-CP maps scaled above norm 1 certify exactly at every p, inside the operator-norm enclosure", 16, _prop_two_positive_homogeneity),
    SuiteProperty("cp-norm-certificate", "the Lieb-concavity bound on the norm of CP and co-CP maps is never below a Boyd lower endpoint, and closes on one block", 48, _prop_cp_norm_certificate),
    SuiteProperty("scale-equivariance", "certificates of c T keep the route and alarm of T and scale both endpoints by c", 32, _prop_scale_equivariance),
    SuiteProperty("isometry-route-agreement", "factorization extraction, disjointness preservation and the certified ell^1-extension norm agree on isometries: factorizable ones keep every sampled ell^1 ratio at 1 and certify the norm 1, the others certify a ratio and a norm above 1", 24, _prop_isometry_agreement),
    SuiteProperty("positive-four-norm-bound", "positive maps keep sampled sequence ratios within four operator norms", 16, _prop_positive_4x),
)


def run_suite(
    cfg: Optional[ToleranceConfig] = None,
    only: Optional[str] = None,
    budget_scale: float = 1.0,
) -> SuiteReport:
    """Run the registered properties with deterministic seeding.

    ``only`` filters property ids by substring, and a filter that matches
    no id raises DomainError; ``budget_scale`` shrinks or grows every
    instance budget.  Anchors are checked for uniqueness so each property
    id names exactly one statement.
    """
    cfg = cfg or DEFAULT_CONFIG
    anchors = [p.anchor for p in PROPERTIES]
    ids = [p.property_id for p in PROPERTIES]
    if len(set(anchors)) != len(anchors) or len(set(ids)) != len(ids):
        raise RuntimeError("property ids/anchors must be unique")
    selected = [prop for prop in PROPERTIES if not only or only in prop.property_id]
    if not selected:
        raise DomainError(f"no suite property id contains {only!r}")
    report = SuiteReport(seed=cfg.seed)
    for prop in selected:
        budget = max(1, int(round(prop.budget * budget_scale)))
        t0 = time.perf_counter()
        tally = prop.fn(cfg, budget)
        wall = (time.perf_counter() - t0) * 1000.0
        report.records.append(
            PropertyRecord(
                prop.property_id,
                prop.anchor,
                tally.instances,
                tally.passed,
                tally.failed,
                tally.undetermined,
                tally.max_residual,
                wall,
            )
        )
    return report
