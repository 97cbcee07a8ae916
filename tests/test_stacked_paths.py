"""The stacked disjoint-pair sampler, classification and sampled ratio
against inline copies of the one-pair, Element-by-Element code they replace."""

from __future__ import annotations

import numpy as np
import pytest

from nclp import synth
from nclp.algebra import DEFAULT_CONFIG, AlgebraDescriptor, Element, absolute, matrix_algebra
from nclp.certify import RATIO_STEPS, classify_l2_isometry, l1_ratio_lower
from nclp.lp import disjoint, is_positive, lp_norm
from nclp.maps import LinearMap, _block_stacks, _norm_search, rotation_mixing, transpose_map, unvec, vec
from nclp.sampling import (
    _disjoint_stacks,
    ginibre,
    haar_unitary,
    random_disjoint_pair,
    random_element,
    random_positive,
    rng_from,
    wishart,
)
from nclp.sequences import DISJOINT, NOT_DISJOINT, UNDETERMINED, _intervals, _rows, _solve, sequence


def _ref_haar_unitary(rng, d):
    q, r = np.linalg.qr(ginibre(rng, d))
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return q * phases[None, :]


def _ref_split_projection(rng, d, single):
    r = int(rng.integers(1, d)) if single else int(rng.integers(0, d + 1))
    u = _ref_haar_unitary(rng, d)
    diag = np.zeros(d)
    diag[:r] = 1.0
    return (u * diag[None, :]) @ u.conj().T


def _ref_random_disjoint_pair(algebra, rng, positive=False):
    """The one-pair sampler: every try builds its Elements and is kept
    once both operator norms exceed 1e-9."""
    single = len(algebra.dims) == 1
    for _ in range(128):
        pa, pb = [], []
        for d in algebra.dims:
            left = _ref_split_projection(rng, d, single)
            right = left if positive else _ref_split_projection(rng, d, single)
            comp_l, comp_r = np.eye(d) - left, np.eye(d) - right
            if positive:
                pa.append(left @ wishart(rng, d) @ left)
                pb.append(comp_l @ wishart(rng, d) @ comp_l)
            else:
                pa.append(left @ ginibre(rng, d) @ right)
                pb.append(comp_l @ ginibre(rng, d) @ comp_r)
        a, b = Element(algebra, pa), Element(algebra, pb)
        if a.sup_norm() > 1e-9 and b.sup_norm() > 1e-9:
            return a, b
    raise RuntimeError("failed to draw a nonzero disjoint pair")


ALGEBRAS = [
    matrix_algebra(3),
    AlgebraDescriptor(((2, 0.7), (1, 1.3))),
    AlgebraDescriptor(((1, 1.0),) * 3),
    AlgebraDescriptor(((2, 1.0), (2, 1.0))),
]


def _same(x: Element, blocks) -> bool:
    """Bit for bit, signed zeros included."""
    return all(u.shape == v.shape and u.tobytes() == np.asarray(v, dtype=complex).tobytes()
               for u, v in zip(x.blocks, blocks))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=repr)
@pytest.mark.parametrize("positive", [False, True])
def test_stacked_sampler_matches_one_pair_sampler_on_fresh_generators(alg, positive):
    m = 12
    A, B = _disjoint_stacks(alg, [rng_from(5, 77, i) for i in range(m)], [positive] * m)
    for i in range(m):
        a, b = _ref_random_disjoint_pair(alg, rng_from(5, 77, i), positive)
        assert _same(a, [S[i] for S in A]) and _same(b, [S[i] for S in B])


@pytest.mark.parametrize("alg", ALGEBRAS, ids=repr)
def test_stacked_sampler_matches_one_pair_sampler_on_one_shared_generator(alg):
    flags = [i % 2 == 0 for i in range(10)]
    rng = rng_from(6, 78)
    A, B = _disjoint_stacks(alg, [rng] * len(flags), flags)
    ref = rng_from(6, 78)
    for i, positive in enumerate(flags):
        a, b = _ref_random_disjoint_pair(alg, ref, positive)
        assert _same(a, [S[i] for S in A]) and _same(b, [S[i] for S in B])
    # the stream continues exactly where the reference's does
    assert rng.random() == ref.random()


@pytest.mark.parametrize("alg", ALGEBRAS, ids=repr)
@pytest.mark.parametrize("positive", [False, True])
def test_random_disjoint_pair_is_the_one_pair_view(alg, positive):
    for seed in range(6):
        a, b = random_disjoint_pair(alg, rng_from(seed), positive)
        ra, rb = _ref_random_disjoint_pair(alg, rng_from(seed), positive)
        assert _same(a, ra.blocks) and _same(b, rb.blocks)


def test_diagonal_algebra_rejects_tries_from_ranks():
    # on M_1 + M_1 + M_1 many tries are rejected: every rank is 0 or 1
    alg = ALGEBRAS[2]
    rng = rng_from(9)
    A, B = _disjoint_stacks(alg, [rng] * 30, [False] * 30)
    assert all(S.shape == (30, 1, 1) for S in A + B)


def test_ginibre_and_wishart_keep_the_stream_of_one_matrix_at_a_time():
    # the real and the imaginary part come from one (2, d, d) draw: the same
    # numbers, and the same generator state, as two (d, d) draws
    for d in (1, 2, 3):
        rng, ref = rng_from(d, 2), rng_from(d, 2)
        got = [ginibre(rng, d), wishart(rng, d)]
        g, h = [(ref.standard_normal((d, d)) + 1j * ref.standard_normal((d, d))) / np.sqrt(2.0) for _ in range(2)]
        assert got[0].tobytes() == g.tobytes() and got[1].tobytes() == (h @ h.conj().T).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_haar_unitary_matches_the_one_matrix_formula():
    for d in (1, 2, 3):
        assert np.array_equal(haar_unitary(rng_from(d, 1), d), _ref_haar_unitary(rng_from(d, 1), d))


# ---------------------------------------------------------------------------
# classify_l2_isometry against the Element path
# ---------------------------------------------------------------------------


def _ref_classify_pairs(T, cfg, pairs):
    """(status counts, witness, max_l12_ratio, max_certified_l12_ratio) of
    the pair route, one Element pair and one image pair at a time."""
    draws = [_ref_random_disjoint_pair(T.domain, rng_from(cfg.seed, 9700, i), positive=(i % 3 == 0))
             for i in range(pairs)]
    images = [(T(a), T(b)) for a, b in draws]
    intervals = _intervals(_rows([sequence(pair) for pair in images]), T.codomain, 2.0, cfg)
    statuses, witness, ratios = [], None, []
    for (a, b), (ta, tb), iv in zip(draws, images, intervals):
        slack = float(np.sqrt(lp_norm(ta, 2) ** 2 + lp_norm(tb, 2) ** 2)) * (1.0 + cfg.opt_tol)
        status = DISJOINT if iv.upper <= slack else NOT_DISJOINT if iv.lower > slack else UNDETERMINED
        statuses.append(status)
        if witness is None and status != DISJOINT and not disjoint(ta, tb, cfg):
            witness = (a, b)
        denom = float(np.sqrt(lp_norm(a, 2) ** 2 + lp_norm(b, 2) ** 2))
        ratios.append((iv.upper / denom, iv.lower / denom))
    counts = {s: statuses.count(s) for s in set(statuses)}
    return counts, witness, max(u for u, _ in ratios), max(lo for _, lo in ratios)


@pytest.mark.parametrize("index", range(10))
def test_classify_matches_the_element_path_on_every_isometry_kind(index):
    T = synth.random_l2_isometry(rng_from(31, index), index)
    cls = classify_l2_isometry(T, DEFAULT_CONFIG, pairs=12)
    counts, witness, top, top_certified = _ref_classify_pairs(T, DEFAULT_CONFIG, 12)
    assert cls.evidence["pair_statuses"] == counts
    assert (cls.witness is None) == (witness is None)
    if witness is not None:
        assert all(_same(x, ref.blocks) for x, ref in zip(cls.witness, witness))
    assert cls.evidence["max_l12_ratio"] == pytest.approx(top, rel=1e-14, abs=0)
    assert cls.evidence["max_certified_l12_ratio"] == pytest.approx(top_certified, rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# l1_ratio_lower against the Element path
# ---------------------------------------------------------------------------


def _ref_l1_ratio_info(T, p, cfg, budget):
    """The ``info`` of ``l1_ratio_lower``, every sample an Element list."""
    rng = rng_from(cfg.seed, 9600)
    dom = T.domain
    samples = []
    per_class = max(3, budget // 5) if budget > 0 else 0
    for i in range(per_class):
        samples.append(([random_positive(dom, rng) for _ in range(2 + i % 2)], False))
    for _ in range(per_class):
        samples.append(([random_element(dom, rng)], False))
        samples.append(([random_positive(dom, rng)], True))
    if p == 2 and dom.coord_dim >= 2:
        for i in range(per_class):
            samples.append((list(_ref_random_disjoint_pair(dom, rng, positive=(i % 2 == 0))), False))
    for _ in range(per_class):
        samples.append(([random_element(dom, rng), random_element(dom, rng)], False))
    starts = [vec(random_element(dom, rng)), vec(random_positive(dom, rng))]
    for value, row in zip(*_norm_search(T, p, cfg, starts)):
        if value > 0:
            arg = unvec(dom, row)
            samples.append(([arg], is_positive(arg, cfg)))
            samples.append(([absolute(arg)], True))
    best = singleton = positive_singleton = 0.0
    n_done = 0
    for n in dict.fromkeys(len(items) for items, _ in samples):
        group = [sample for sample in samples if len(sample[0]) == n]
        X = _rows([items for items, _ in group])
        up = _solve(X, dom.weights, p, cfg, 0)[1]
        coords = np.concatenate([S.reshape(len(group) * n, -1) for S in X], axis=1)
        TX = [S.reshape(len(group), n, *S.shape[1:]) for S in _block_stacks(T.codomain, coords @ T.action.T)]
        lo = _solve(TX, T.codomain.weights, p, cfg, RATIO_STEPS)[0]
        for (_, positive), lo_i, up_i in zip(group, lo, up):
            if up_i <= 1e-12:
                continue
            r = lo_i / up_i
            best, n_done = max(best, r), n_done + 1
            if n == 1:
                singleton = max(singleton, r)
                if positive:
                    positive_singleton = max(positive_singleton, r)
    return {"best": best, "singleton": singleton, "positive_singleton": positive_singleton, "samples": n_done}


def _ratio_maps():
    rng = rng_from(32)
    dom = AlgebraDescriptor(((2, 0.7), (1, 1.3)))
    return [rotation_mixing(0.7), transpose_map(dom), LinearMap(dom, dom, ginibre(rng, dom.coord_dim)),
            synth.random_cp_contraction(matrix_algebra(2), 2.0, rng)]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("budget", [0, 25])
def test_ratio_info_matches_the_element_path(p, budget):
    for T in _ratio_maps():
        assert l1_ratio_lower(T, p, DEFAULT_CONFIG, budget)[1] == _ref_l1_ratio_info(T, p, DEFAULT_CONFIG, budget)
