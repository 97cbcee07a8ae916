"""Seeded inputs for the benchmark workloads, written as nclp-1 instance files.

Everything here is the benchmark's own numpy code.  It deliberately does not
use nclp's samplers, synthetic-map constructors or serializer, so a change
to the library cannot silently change what the benchmark feeds it.  Each
operation carries the generator's knowledge about its input ("facts"),
computed with independent numpy norms; the output checks in ``checks.py``
compare the library's answers against those facts and never against nclp's
own numbers.

Coordinates follow the documented instance format: an element is one
row-major matrix per block, and a map's action is the matrix whose column c
is the coordinate vector of the image of the c-th matrix unit (blocks in
order, row-major within a block).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

VERSION = "nclp-1"


@dataclass
class Op:
    """One CLI-equivalent operation: ``nclp <command> --in <file> <flags>``."""

    kind: str
    command: str
    flags: list
    doc: dict
    facts: dict = field(default_factory=dict)
    path: str = ""

    def argv(self) -> list:
        return [self.command, "--in", self.path, *self.flags]


# ---------------------------------------------------------------------------
# numpy building blocks
# ---------------------------------------------------------------------------


def ginibre(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2)


def unitary(rng, d):
    q, r = np.linalg.qr(ginibre(rng, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))[None, :]


def psd(rng, d, rank=None):
    g = ginibre(rng, d, d if rank is None else rank)
    return g @ g.conj().T


def schatten(blocks, weights, p):
    """Trace-weighted Schatten p-norm, p finite and >= 1."""
    total = 0.0
    for b, w in zip(blocks, weights):
        s = np.linalg.svd(b, compute_uv=False)
        total += w * float(np.sum(s ** p))
    return total ** (1.0 / p)


def coord_weights(alg):
    return np.concatenate([np.full(d * d, w) for d, w in alg])


def weighted_svd_norm(action, dom, cod):
    """The L^2 -> L^2 norm: top singular value in the trace-weighted inner products."""
    wd = np.sqrt(coord_weights(dom))
    wc = np.sqrt(coord_weights(cod))
    return float(np.linalg.svd(action * wc[:, None] / wd[None, :], compute_uv=False)[0])


def action_from(dom, cod, fn):
    """Coordinate action of the linear map ``fn`` (list of blocks -> list of blocks)."""
    cols = []
    for k, (d, _) in enumerate(dom):
        for i in range(d):
            for j in range(d):
                unit = [np.zeros((dd, dd), dtype=complex) for dd, _ in dom]
                unit[k][i, j] = 1.0
                cols.append(np.concatenate([b.reshape(-1) for b in fn(unit)]))
    return np.array(cols).T.reshape(sum(c * c for c, _ in cod), len(cols))


# ---------------------------------------------------------------------------
# nclp-1 encoding
# ---------------------------------------------------------------------------


def enc_matrix(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def enc_algebra(alg):
    return {"blocks": [{"dim": int(d), "weight": float(w)} for d, w in alg]}


def element_doc(blocks, positive=False):
    entry = {"algebra": "M", "blocks": [enc_matrix(b) for b in blocks]}
    if positive:
        entry["positive"] = True
    return entry


def elements_instance(alg, elements, sequences=None, seed=0, positive=()):
    doc = {
        "version": VERSION,
        "algebras": {"M": enc_algebra(alg)},
        "elements": {n: element_doc(b, n in positive) for n, b in elements.items()},
        "seed": int(seed),
    }
    if sequences:
        doc["sequences"] = {n: {"items": list(items)} for n, items in sequences.items()}
    return doc


def map_instance(dom, cod, action, p, seed):
    algebras = {"M": enc_algebra(dom)}
    cod_ref = "M"
    if list(cod) != list(dom):
        algebras["N"] = enc_algebra(cod)
        cod_ref = "N"
    return {
        "version": VERSION,
        "algebras": algebras,
        "maps": {"T": {"domain": "M", "codomain": cod_ref, "p": float(p),
                       "action": enc_matrix(action)}},
        "seed": int(seed),
    }


def _seed_for(rng):
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# dinq: two-element instances for the p = 2 two-term criterion
# ---------------------------------------------------------------------------

DINQ_OPS = 320


# Block dimensions cycle through every algebra of one or two blocks of
# dimension <= 4 (M_1 alone is left out: it holds no disjoint pair), so the
# mix of cheap and costly ops is the same for every seed; weights are random.
DINQ_DIMS = [(d,) for d in (2, 3, 4)] + [(a, b) for a in range(1, 5) for b in range(a, 5)]


def _random_weights(rng, dims):
    return [(d, float(rng.uniform(0.5, 2.0))) for d in dims]


def _disjoint_pair(rng, alg, positive):
    """a*b = ab* = 0: a and b live on complementary subspaces, on the left in
    the basis U and on the right in the basis V (V = U for positive pairs)."""
    while True:
        cuts = [int(rng.integers(0, d + 1)) for d, _ in alg]
        if sum(cuts) >= 1 and sum(d - r for (d, _), r in zip(alg, cuts)) >= 1:
            break
    a, b = [], []
    for (d, _), r in zip(alg, cuts):
        U = unitary(rng, d)
        V = U if positive else unitary(rng, d)
        ma = np.zeros((d, d), dtype=complex)
        mb = np.zeros((d, d), dtype=complex)
        if r:
            ma[:r, :r] = psd(rng, r) if positive else ginibre(rng, r)
        if d - r:
            mb[r:, r:] = psd(rng, d - r) if positive else ginibre(rng, d - r)
        a.append(U @ ma @ V.conj().T)
        b.append(U @ mb @ V.conj().T)
    return a, b


def dinq_ops(seed):
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i in range(DINQ_OPS):
        # half the pairs are disjoint by construction and half are generic;
        # half of each are positive
        built_disjoint = i % 4 < 2
        positive = i % 2 == 1
        alg = _random_weights(rng, DINQ_DIMS[(i // 4) % len(DINQ_DIMS)])
        weights = [w for _, w in alg]
        if built_disjoint:
            a, b = _disjoint_pair(rng, alg, positive)
        else:
            draw = psd if positive else ginibre
            a = [draw(rng, d) for d, _ in alg]
            b = [draw(rng, d) for d, _ in alg]
        kind = ("disjoint" if built_disjoint else "generic") + ("_positive" if positive else "")
        threshold = math.sqrt(schatten(a, weights, 2) ** 2 + schatten(b, weights, 2) ** 2)
        doc = elements_instance(alg, {"a": a, "b": b}, seed=_seed_for(rng),
                                positive={"a", "b"} if positive else ())
        ops.append(Op(kind, "dinq", [], doc,
                      {"disjoint": built_disjoint, "threshold": threshold}))
    return ops


# ---------------------------------------------------------------------------
# seqnorm: ell^1-valued sequence norm enclosures
# ---------------------------------------------------------------------------

SEQ_ALGEBRAS = (
    ("M3", [(3, 1.0)]),
    ("M2+M3", [(2, 1.0), (3, 0.7)]),
    ("M1+M1+M2+M2", [(1, 1.0), (1, 0.5), (2, 1.0), (2, 2.0)]),
)
SEQ_PS = (1.5, 2.0, 3.0)
SEQ_NS = (2, 3, 4, 5)
# instances per (algebra, p, n) cell; more distinct inputs make the medians
# less dependent on the seed
SEQ_REPEATS = 2


def _seq_op(rng, alg_name, alg, p, n, kind):
    weights = [w for _, w in alg]
    if kind == "positive":
        items = [[psd(rng, d) for d, _ in alg] for _ in range(n)]
    else:
        items = [[ginibre(rng, d) for d, _ in alg] for _ in range(n)]
    norms = [schatten(x, weights, p) for x in items]
    facts = {"sum_norms": float(sum(norms)), "max_norm": float(max(norms)), "exact": None}
    if kind == "positive":
        total = [sum(x[k] for x in items) for k in range(len(alg))]
        facts["exact"] = schatten(total, weights, p)
    elif kind in ("singleton", "p1"):
        facts["exact"] = float(sum(norms))
    names = [f"x{i}" for i in range(n)]
    doc = elements_instance(alg, dict(zip(names, items)), {"seq": names},
                            seed=_seed_for(rng),
                            positive=set(names) if kind == "positive" else ())
    return Op(f"{kind}:{alg_name}:n{n}:p{p:g}", "seqnorm", ["--p", repr(p)],
              doc, facts)


def seqnorm_ops(seed):
    rng = np.random.default_rng([seed, 2])
    ops = []
    for a, (alg_name, alg) in enumerate(SEQ_ALGEBRAS):
        for p in SEQ_PS:
            for n in SEQ_NS:
                for _ in range(SEQ_REPEATS):
                    ops.append(_seq_op(rng, alg_name, alg, p, n, "generic"))
        # one op in five takes an exact route
        for r in range(SEQ_REPEATS):
            ops.append(_seq_op(rng, alg_name, alg, SEQ_PS[(a + r) % 3], 3, "positive"))
            ops.append(_seq_op(rng, alg_name, alg, SEQ_PS[(a + r + 1) % 3], 1, "singleton"))
            ops.append(_seq_op(rng, alg_name, alg, 1.0, 3, "p1"))
    return ops


# ---------------------------------------------------------------------------
# maps: certify and classify-l2
# ---------------------------------------------------------------------------


def _blockdiag_apply(vs, x, transpose=False):
    src = [b.T for b in x] if transpose else x
    return [sum(v[k] @ src[k] @ v[k].conj().T for v in vs) for k in range(len(x))]


def _kraus(rng, alg, count, scale, transpose=False):
    """x -> c * sum_i v_i x v_i* (optionally of x transposed), normalised so
    that max(|T(1)|_inf, |T*(1)|_inf) = scale.  With block-diagonal Kraus
    elements the trace adjoint is y -> c * sum_i v_i* y v_i at any weights."""
    vs = [[ginibre(rng, d) for d, _ in alg] for _ in range(count)]
    t1 = [sum(v[k] @ v[k].conj().T for v in vs) for k in range(len(alg))]
    ts1 = [sum(v[k].conj().T @ v[k] for v in vs) for k in range(len(alg))]
    top = max(float(np.linalg.eigvalsh(m).max()) for m in t1 + ts1)
    c = scale / top
    return action_from(alg, alg, lambda x: [c * b for b in _blockdiag_apply(vs, x, transpose)])


def _depolarizing(rng, alg):
    lam = float(rng.uniform(0.2, 0.9))
    tau1 = sum(d * w for d, w in alg)

    def fn(x):
        tr = sum(w * np.trace(b) for b, (_, w) in zip(x, alg))
        return [(1 - lam) * b + lam * tr / tau1 * np.eye(d) for b, (d, _) in zip(x, alg)]

    return action_from(alg, alg, fn)


def _jordan_parts(rng, dom, parts):
    """T(x) = w B J(x) with J(x) = (+)_i U_i phi_i(x_{k_i}) U_i*, phi_i the
    identity or the transpose, B scalar on each codomain block and w unitary
    on each codomain block."""
    cod = [(dom[k][0], float(rng.uniform(0.5, 2.0))) for k, _ in parts]
    us = [unitary(rng, dom[k][0]) for k, _ in parts]
    ws = [unitary(rng, dom[k][0]) for k, _ in parts]
    betas = [float(rng.uniform(0.4, 1.6)) for _ in parts]

    def fn(x):
        out = []
        for (k, kind), u, w, beta in zip(parts, us, ws, betas):
            blk = x[k].T if kind == "anti" else x[k]
            out.append(beta * w @ u @ blk @ u.conj().T)
        return out

    return cod, action_from(dom, cod, fn)


def _transpose(alg):
    return action_from(alg, alg, lambda x: [b.T for b in x])


def _rotation(theta):
    A = np.eye(4, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    A[0, 0], A[0, 1], A[1, 0], A[1, 1] = c, -s, s, c
    return A


def _isometric_embedding(rng, d, twisted):
    """M_d(w0) -> M_d(w1) + M_d(w2), x -> (b1 x, b2 x or b2 x^T) with
    b1^2 w1 + b2^2 w2 = w0, so the map preserves the weighted 2-norm."""
    w0, w1, w2 = (float(rng.uniform(0.5, 2.0)) for _ in range(3))
    t = float(rng.uniform(0.2, 0.8))
    b1, b2 = math.sqrt(w0 * t / w1), math.sqrt(w0 * (1 - t) / w2)
    dom, cod = [(d, w0)], [(d, w1), (d, w2)]
    A = action_from(dom, cod, lambda x: [b1 * x[0], b2 * (x[0].T if twisted else x[0])])
    return dom, cod, A


# (family, p) for every certify op; the three exponents are cycled so each
# route is exercised at p = 1.5, 2 and 3, and p = 1 gets its own ops
CERTIFY_PLAN = (
    [("commutative", p) for p in SEQ_PS]
    + [("separating", p) for p in SEQ_PS]
    + [("transpose", p) for p in SEQ_PS]
    + [("cp_contraction", p) for p in SEQ_PS]
    + [("depolarizing", p) for p in SEQ_PS]
    + [("transpose_cp", p) for p in SEQ_PS]
    + [("cp_scaled", p) for p in SEQ_PS]
    + [("rotation", p) for p in SEQ_PS]
    + [("generic", p) for p in SEQ_PS]
    + [("separating", 1.0), ("cp_contraction", 1.0), ("generic", 1.0)]
)
# instances of each plan entry; more distinct inputs make the medians less
# dependent on the seed
MAPS_REPEATS = 2
CLASSIFY_PLAN = (
    "unitary_conjugation", "unitary_conjugation", "one_sided_unitary", "one_sided_unitary",
    "embedding", "embedding", "twisted_embedding", "twisted_embedding",
    "rotation", "rotation",
)


def _certify_op(rng, family, p):
    facts = {"family": family, "p": p}
    if family == "commutative":
        n = 3
        dom = [(1, float(rng.uniform(0.5, 2.0))) for _ in range(n)]
        cod = [(1, float(rng.uniform(0.5, 2.0))) for _ in range(n)]
        A = rng.standard_normal((n, n)) + 1j * (rng.random((n, n)) < 0.3) * rng.standard_normal((n, n))
        facts["modulus_norm2"] = weighted_svd_norm(np.abs(A), dom, cod)
    elif family == "separating":
        dom = [(2, float(rng.uniform(0.5, 2.0))), (1, float(rng.uniform(0.5, 2.0)))]
        cod, A = _jordan_parts(rng, dom, [(0, "hom"), (0, "anti"), (1, "hom")])
    elif family == "transpose":
        dom = cod = [(2, float(rng.uniform(0.5, 2.0))), (3, float(rng.uniform(0.5, 2.0)))]
        A = _transpose(dom)
    elif family in ("cp_contraction", "transpose_cp", "cp_scaled"):
        dom = cod = [(2, 1.0), (2, float(rng.uniform(0.5, 2.0)))]
        scale = float(rng.uniform(1.5, 3.0)) if family == "cp_scaled" else float(rng.uniform(0.5, 1.0))
        A = _kraus(rng, dom, 2, scale, transpose=family == "transpose_cp")
    elif family == "depolarizing":
        dom = cod = [(3, float(rng.uniform(0.5, 2.0)))]
        A = _depolarizing(rng, dom)
    elif family == "rotation":
        dom = cod = [(2, 1.0)]
        A = _rotation(float(rng.uniform(0.3, 1.2)))
    elif family == "generic":
        dom = cod = [(2, 1.0)]
        A = ginibre(rng, 4)
    else:
        raise ValueError(family)
    facts["norm2"] = weighted_svd_norm(A, dom, cod)
    doc = map_instance(dom, cod, A, p, _seed_for(rng))
    return Op(f"certify:{family}:p{p:g}", "certify", ["--p", repr(p)], doc, facts)


def _classify_op(rng, family):
    if family == "unitary_conjugation":
        alg = [(2, float(rng.uniform(0.5, 2.0))), (1, float(rng.uniform(0.5, 2.0)))]
        us = [unitary(rng, d) for d, _ in alg]
        dom = cod = alg
        A = action_from(alg, alg, lambda x: [u @ b @ u.conj().T for u, b in zip(us, x)])
    elif family == "one_sided_unitary":
        alg = [(2, float(rng.uniform(0.5, 2.0)))]
        u = unitary(rng, 2)
        dom = cod = alg
        A = action_from(alg, alg, lambda x: [u @ x[0]])
    elif family in ("embedding", "twisted_embedding"):
        dom, cod, A = _isometric_embedding(rng, 2, family == "twisted_embedding")
    elif family == "rotation":
        dom = cod = [(2, 1.0)]
        A = _rotation(float(rng.uniform(0.3, 1.2)))
    else:
        raise ValueError(family)
    doc = map_instance(dom, cod, A, 2.0, _seed_for(rng))
    return Op(f"classify-l2:{family}", "classify-l2", [], doc,
              {"family": family, "factorizable": family != "rotation"})


def maps_ops(seed):
    rng = np.random.default_rng([seed, 3])
    ops = [_certify_op(rng, family, p) for family, p in MAPS_REPEATS * CERTIFY_PLAN]
    ops += [_classify_op(rng, family) for family in MAPS_REPEATS * CLASSIFY_PLAN]
    return ops


GENERATORS = {"dinq": dinq_ops, "seqnorm": seqnorm_ops, "maps": maps_ops}


def build(workload, seed, directory):
    """Generate the workload's operations from ``seed`` and write their
    instance files into ``directory``; returns (ops, inputs digest)."""
    ops = GENERATORS[workload](seed)
    # one fixed interleaving for every seed, so that neither a burst of
    # machine noise nor a partial last pass falls on a single family of ops
    ops = [ops[i] for i in np.random.default_rng(0).permutation(len(ops))]
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        op.path = os.path.join(directory, f"op{i:03d}.json")
        text = json.dumps(op.doc, sort_keys=True)
        with open(op.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        digest.update(json.dumps([op.command, op.flags, op.kind]).encode())
        digest.update(text.encode())
    return ops, digest.hexdigest()[:16]
