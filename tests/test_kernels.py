"""The coordinate layout and the block kernels against the copies they replaced.

``AlgebraDescriptor.slices`` is the one coordinate layout, and ``algebra``
holds one block sup-norm, one rank-cutoff SVD, one spectral synthesis and
one self-adjointness test; ``lp`` holds the Hermitian-part spectrum.  The
references below are the per-module helpers these replaced, copied as they
were.  Every comparison is bitwise, on multi-block algebras with unequal
weights.
"""

import numpy as np
import pytest

from nclp import synth
from nclp.algebra import (
    DEFAULT_CONFIG,
    AlgebraDescriptor,
    Element,
    ToleranceConfig,
    _ranked_svd,
    absolute,
    amplify,
    apply_spectral,
    hermitian_part,
    identity,
    zero_element,
)
from nclp.lp import is_positive
from nclp.maps import (
    LinearMap,
    _block_stacks,
    _conjugation_action,
    _jordan_layout,
    amplified_map,
    choi_components,
    coord_weights,
    unvec,
)
from nclp.sampling import (
    ginibre,
    haar_unitary,
    random_element,
    random_positive,
    random_selfadjoint,
    rng_from,
)
from nclp.sequences import _polar_factors, column_embed, row_embed, sequence
from nclp.yeadon import _center_basis, _generated_algebra, _unit_products

ALG = AlgebraDescriptor(((2, 0.5), (3, 1.7), (1, 2.3)))
COD = AlgebraDescriptor(((3, 0.2), (2, 1.4)))
CFG = DEFAULT_CONFIG


def _same(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def _same_element(got: Element, want: Element):
    assert got.algebra == want.algebra
    for g, w in zip(got.blocks, want.blocks):
        _same(g, w)


# ---------------------------------------------------------------------------
# References: the helpers as they were before the shared layout and kernels
# ---------------------------------------------------------------------------


def _ref_unvec(algebra, v):
    blocks, pos = [], 0
    for d in algebra.dims:
        blocks.append(v[pos : pos + d * d].reshape(d, d))
        pos += d * d
    return Element(algebra, blocks)


def _ref_coord_weights(algebra):
    return np.concatenate([np.full(d * d, w) for d, w in algebra.blocks])


def _ref_transposed_coords(algebra):
    out, pos = [], 0
    for d in algebra.dims:
        out.append(pos + np.arange(d * d).reshape(d, d).T.reshape(-1))
        pos += d * d
    return np.concatenate(out)


def _ref_block_stacks(algebra, rows):
    out, pos = [], 0
    for d in algebra.dims:
        out.append(np.ascontiguousarray(rows[:, pos : pos + d * d]).reshape(-1, d, d))
        pos += d * d
    return out


def _ref_choi_components(T):
    comps = []
    for S, c in zip(_ref_block_stacks(T.codomain, T.action.T), T.codomain.dims):
        row, pos = [], 0
        for d in T.domain.dims:
            C = S[pos : pos + d * d].reshape(d, d, c, c).transpose(0, 2, 1, 3)
            row.append(C.reshape(d * c, d * c))
            pos += d * d
        comps.append(row)
    return comps


def _ref_amplified_action(T, n):
    dom, cod = T.domain, T.codomain
    dom_pos = np.cumsum([0] + [d * d for d in dom.dims])
    rows, pos = [], 0
    for c in cod.dims:
        cols = []
        for k, d in enumerate(dom.dims):
            T_lk = T.action[pos : pos + c * c, dom_pos[k] : dom_pos[k + 1]]
            big = np.zeros((n, c, n, c, n, d, n, d), dtype=complex)
            for r in range(n):
                for s in range(n):
                    big[r, :, s, :, r, :, s, :] = T_lk.reshape(c, c, d, d)
            cols.append(big.reshape((n * c) ** 2, (n * d) ** 2))
        rows.append(np.concatenate(cols, axis=1))
        pos += c * c
    return np.concatenate(rows)


def _ref_conjugation_action(vs):
    alg = vs[0].algebra
    out = np.zeros((alg.coord_dim, alg.coord_dim), dtype=complex)
    pos = 0
    for k, d in enumerate(alg.dims):
        blk = slice(pos, pos + d * d)
        out[blk, blk] = sum(np.kron(v.blocks[k], v.blocks[k].conj()) for v in vs)
        pos += d * d
    return out


def _ref_jordan_action(domain, layout, unitaries):
    dims = domain.dims
    starts = np.cumsum([0] + [d * d for d in dims])
    rows = []
    for l, (parts, dead) in enumerate(layout):
        size = sum(dims[k] for k, _ in parts) + dead
        R = np.zeros((size, size, domain.coord_dim))
        pos = 0
        for k, kind in parts:
            d = dims[k]
            r, c = np.indices((d, d))
            R[pos + r, pos + c, starts[k] + (c * d + r if kind == "anti" else r * d + c)] = 1.0
            pos += d
        R = R.reshape(size * size, -1)
        if unitaries is not None:
            u = unitaries[l]
            R = np.kron(u, u.conj()) @ R
        rows.append(R)
    return np.asarray(np.concatenate(rows), dtype=complex)  # as LinearMap stores it


def _ref_unit_products(algebra):
    sizes = [d * d for d in algebra.dims]
    k = np.repeat(np.arange(len(sizes)), sizes)
    d = np.array(algebra.dims)[k]
    start = np.cumsum([0] + sizes)[k]
    i, j = divmod(np.arange(algebra.coord_dim) - start, d)
    nonzero = (k[:, None] == k[None, :]) & (j[:, None] == i[None, :])
    return np.where(nonzero, (start + i * d)[:, None] + j[None, :], -1)


def _ref_sup_norm(x):
    return max(
        float(np.linalg.svd(b, compute_uv=False)[0]) if b.size else 0.0 for b in x.blocks
    )


def _ref_ranked_svd(blocks, cfg):
    svds = [np.linalg.svd(b) for b in blocks]
    cut = cfg.rank_cutoff * max((float(s[0]) if s.size else 0.0) for _, s, _ in svds)
    return [(U, s, Vh, s > cut) for U, s, Vh in svds]


def _ref_polar_factors(seq, cfg):
    svds = [np.linalg.svd(np.stack(blocks)) for blocks in zip(*(x.blocks for x in seq))]
    cut = cfg.rank_cutoff * np.max([s[:, 0] for _, s, _ in svds], axis=0)
    A, B = [], []
    for U, s, Vh in svds:
        keep = s > cut[:, None]
        r = int(keep.sum(axis=1).max())
        root = np.sqrt(np.where(keep, s, 0.0))[:, :r]
        A.append(U[:, :, :r] * root[:, None, :])
        B.append(root[:, :, None] * Vh[:, :r, :])
    return A, B


def _ref_is_selfadjoint(x, cfg):
    scale = max(x.sup_norm(), 1e-300)
    return (x - x.H).sup_norm() <= cfg.algebraic_tol * max(scale, 1.0)


def _ref_apply_spectral(x, f, cfg):
    assert _ref_is_selfadjoint(x, cfg)
    blocks = []
    for blk in hermitian_part(x).blocks:
        vals, vecs = np.linalg.eigh(blk)
        blocks.append((vecs * f(vals)[None, :]) @ vecs.conj().T)
    return Element(x.algebra, blocks)


def _ref_absolute(x, power):
    grams = []
    top = 0.0
    for blk in x.blocks:
        gram = blk.conj().T @ blk
        vals, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
        grams.append((vals, vecs))
        top = max(top, float(vals[-1]) if vals.size else 0.0)
    noise = 64.0 * np.finfo(float).eps * top
    blocks = []
    for vals, vecs in grams:
        vals = np.where(vals > noise, vals, 0.0)
        blocks.append((vecs * (vals ** (power / 2.0))[None, :]) @ vecs.conj().T)
    return Element(x.algebra, blocks)


def _ref_is_positive(x, cfg):
    scale = x.sup_norm()
    if scale == 0.0:
        return True
    if not _ref_is_selfadjoint(x, cfg):
        return False
    lowest = min(float(np.linalg.eigvalsh(b).min()) for b in hermitian_part(x).blocks)
    return lowest >= -cfg.algebraic_tol * scale


def _ref_column_embed(seq):
    n, alg = len(seq), seq.algebra
    big = []
    for k, d in enumerate(alg.dims):
        blk = np.zeros((n * d, n * d), dtype=complex)
        for i, x in enumerate(seq):
            blk[i * d : (i + 1) * d, 0:d] = x.blocks[k]
        big.append(blk)
    return Element(amplify(alg, n), big)


def _ref_row_embed(seq):
    n, alg = len(seq), seq.algebra
    big = []
    for k, d in enumerate(alg.dims):
        blk = np.zeros((n * d, n * d), dtype=complex)
        for j, x in enumerate(seq):
            blk[0:d, j * d : (j + 1) * d] = x.blocks[k]
        big.append(blk)
    return Element(amplify(alg, n), big)


def _ref_center_basis(N, rows):
    m = len(rows)
    comms = []
    for S in _ref_block_stacks(N, rows):
        P = np.matmul(S[:, None], S[None, :])
        comms.append((P - P.swapaxes(0, 1)).reshape(m, m, -1))
    C = np.concatenate(comms, axis=2).reshape(m, -1).T
    _, s, vh = np.linalg.svd(C, full_matrices=True)
    tol = 1e-10 * max(1.0, float(s[0]))
    null_mask = np.concatenate([s <= tol, np.ones(vh.shape[0] - s.size, dtype=bool)])
    out = []
    for c in vh.conj()[null_mask]:
        z = np.zeros(rows.shape[1], dtype=complex)
        for ci, base in zip(c, rows):
            z = z + complex(ci) * base
        out.append(_ref_unvec(N, z))
    return out


# ---------------------------------------------------------------------------
# The layout
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alg", [ALG, COD, AlgebraDescriptor(((1, 1.0),))])
def test_slices_tile_the_coordinates_block_by_block(alg):
    stops = np.cumsum([d * d for d in alg.dims])
    starts = np.concatenate([[0], stops[:-1]])
    assert [(s.start, s.stop, s.step) for s in alg.slices] == [
        (int(a), int(b), None) for a, b in zip(starts, stops)
    ]
    assert alg.coord_dim == int(stops[-1])


@pytest.mark.parametrize("alg", [ALG, COD])
def test_layout_functions_match_the_per_module_copies(alg):
    from nclp.maps import _transposed_coords

    rng = rng_from(31)
    v = ginibre(rng, alg.coord_dim)[0]
    _same_element(unvec(alg, v), _ref_unvec(alg, v))
    _same(coord_weights(alg), _ref_coord_weights(alg))
    _same(_transposed_coords(alg), _ref_transposed_coords(alg))
    rows = ginibre(rng, alg.coord_dim)[:5]
    for got, want in zip(_block_stacks(alg, rows), _ref_block_stacks(alg, rows), strict=True):
        _same(got, want)
    _same(_unit_products(alg), _ref_unit_products(alg))


def test_choi_components_and_amplification_match_the_copies():
    rng = rng_from(32)
    T = LinearMap(ALG, COD, ginibre(rng, max(ALG.coord_dim, COD.coord_dim))[: COD.coord_dim, : ALG.coord_dim])
    for got_row, want_row in zip(choi_components(T), _ref_choi_components(T), strict=True):
        for got, want in zip(got_row, want_row, strict=True):
            _same(got, want)
    for n in (2, 3):
        _same(amplified_map(T, n).action, _ref_amplified_action(T, n))


def test_conjugation_and_jordan_actions_match_the_copies():
    rng = rng_from(33)
    vs = [random_element(ALG, rng) for _ in range(3)]
    _same(_conjugation_action(vs), _ref_conjugation_action(vs))
    layout = [([(1, "anti"), (0, "hom")], 1), ([(2, "hom")], 0), ([(0, "anti"), (2, "anti")], 2)]
    sizes = [6, 1, 5]
    unitaries = [haar_unitary(rng, n) for n in sizes]
    for us in (None, unitaries):
        J = _jordan_layout(ALG, layout, [0.3, 1.1, 2.0], us, 2.0, {})
        _same(J.action, _ref_jordan_action(ALG, layout, us))


# ---------------------------------------------------------------------------
# The kernels
# ---------------------------------------------------------------------------


def test_sup_norm_matches_the_per_block_maximum():
    rng = rng_from(34)
    xs = [random_element(ALG, rng) for _ in range(6)] + [zero_element(ALG), identity(ALG)]
    for x in xs:
        got = x.sup_norm()
        assert type(got) is float and got == _ref_sup_norm(x)


def test_ranked_svd_on_stacks_cuts_each_item_against_itself():
    rng = rng_from(35)
    items = [random_element(ALG, rng) for _ in range(3)]
    # an item of tiny scale and one of low rank: a shared cutoff would drop them
    items.append(1e-14 * random_element(ALG, rng))
    items.append(Element(ALG, [b @ np.diag([1.0] + [0.0] * (b.shape[0] - 1)) for b in items[0].blocks]))
    items.append(zero_element(ALG))
    stacks = [np.stack(blocks) for blocks in zip(*(x.blocks for x in items))]
    stacked = _ranked_svd(stacks, CFG)
    for n, x in enumerate(items):
        single = _ranked_svd(x.blocks, CFG)
        for (U, s, Vh, keep), ref in zip(stacked, _ref_ranked_svd(x.blocks, CFG), strict=True):
            for got, want in zip((U[n], s[n], Vh[n], keep[n]), ref):
                _same(got, want)
        for got, want in zip(single, _ref_ranked_svd(x.blocks, CFG), strict=True):
            for g, w in zip(got, want):
                _same(g, w)


def test_polar_factors_match_their_own_cutoff_copy():
    rng = rng_from(36)
    items = [random_element(ALG, rng), 1e-13 * random_positive(ALG, rng), zero_element(ALG)]
    items.append(Element(ALG, [b[:, :1] @ b[:1, :] for b in items[0].blocks]))
    seq = sequence(items)
    for cfg in (CFG, ToleranceConfig(rank_cutoff=1e-3)):
        A, B = _polar_factors(seq, cfg)
        refA, refB = _ref_polar_factors(seq, cfg)
        for got, want in zip(A + B, refA + refB, strict=True):
            _same(got, want)


def test_spectral_synthesis_matches_the_copies():
    rng = rng_from(37)
    for _ in range(3):
        h = random_selfadjoint(ALG, rng)
        for f in (np.abs, lambda v: (v >= 0.1).astype(float), lambda v: np.clip(v, 0.0, None) ** 1.5):
            _same_element(apply_spectral(h, f, CFG), _ref_apply_spectral(h, f, CFG))
        x = random_element(ALG, rng)
        for power in (1.0, 0.5, 3.0):
            _same_element(absolute(x, power), _ref_absolute(x, power))
    rank_one = Element(ALG, [np.ones((d, d)) for d in ALG.dims])
    _same_element(absolute(rank_one, 0.5), _ref_absolute(rank_one, 0.5))
    _same_element(absolute(zero_element(ALG)), _ref_absolute(zero_element(ALG), 1.0))


def test_absolute_maps_a_lapack_failure_to_numeric_error(monkeypatch):
    from nclp.algebra import NumericError

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericError, match="eigendecomposition failed"):
        absolute(identity(ALG))


def test_is_positive_matches_the_copy():
    rng = rng_from(38)
    p = random_positive(ALG, rng)
    h = random_selfadjoint(ALG, rng)
    e = Element(ALG, [np.diag(np.arange(d, dtype=float) - 1e-10) for d in ALG.dims])
    cases = [p, h, random_element(ALG, rng), zero_element(ALG), identity(ALG), -p,
             p + 1e-12 * random_element(ALG, rng), 1e-200 * p, e, 1e-3 * e]
    for cfg in (CFG, ToleranceConfig(algebraic_tol=1e-3)):
        verdicts = [is_positive(x, cfg) for x in cases]
        assert verdicts == [_ref_is_positive(x, cfg) for x in cases]
        assert all(type(v) is bool for v in verdicts)
    assert is_positive(p) and not is_positive(h) and not is_positive(-p)


def test_column_and_row_embeddings_match_the_copies():
    rng = rng_from(39)
    for n in (1, 2, 4):
        seq = sequence([random_element(ALG, rng) for _ in range(n)])
        _same_element(column_embed(seq), _ref_column_embed(seq))
        _same_element(row_embed(seq), _ref_row_embed(seq))


def test_center_basis_thin_svd_matches_the_full_one():
    rng = rng_from(40)
    maps = [synth.random_jordan_map(rng) for _ in range(4)]
    maps.append(_jordan_layout(ALG, [([(1, "anti"), (0, "hom")], 1), ([(2, "hom")], 0)], [0.3, 1.1], None, 2.0, {}))
    for J in maps:
        rows = _generated_algebra(J)
        got, want = _center_basis(J.codomain, rows), _ref_center_basis(J.codomain, rows)
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            _same_element(g, w)

