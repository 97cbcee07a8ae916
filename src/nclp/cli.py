"""Command-line surface: JSON in, JSON out, verdicts as exit codes.

Exit codes: 0 computed / affirmative, 1 falsified or negative verdict,
2 undetermined, 3 input error.  Output on stdout is a single JSON document
(canonical key order), so identical argv + seed reproduce byte-identical
results.  Instance files come from stdin or --in; generator commands write
instance files to stdout, which makes shell pipelines like

    nclp example transpose --p 2 | nclp certify

work directly.  The environment variable NCLP_SEED overrides the default
seed; an explicit --seed flag wins over both.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    AlgebraError,
    DEFAULT_CONFIG,
    ToleranceConfig,
    matrix_algebra,
)
from .certify import (
    certify_l1_norm,
    classify_l2_isometry,
    NO_YTF,
    NOT_ISOMETRY,
    YTF,
)
from .instances import InstanceFile, ParseError, make_instance, parse_instance, serialize_instance, canonical_json
from .lp import disjoint, lp_norm
from .maps import (
    LinearMap,
    depolarizing,
    identity_map,
    rotation_mixing,
    transpose_map,
    unitary_conjugation,
)
from .sampling import (
    ginibre,
    random_disjoint_pair,
    random_element,
    random_positive,
    random_unitary,
    rng_from,
)
from .sequences import DISJOINT, NOT_DISJOINT, dinq_disjoint_test, l1_norm_bounds
from .suite import run_suite
from .yeadon import CERTIFIED, FALSIFIED, YeadonTriple, certify_separating, extract_yeadon
from . import synth

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT = 3


class CliError(Exception):
    pass


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, complex):
        return [value.real, value.imag]
    return str(value)


def _emit(doc: dict | InstanceFile, args) -> None:
    """Write a result document (a dict) or an instance file to --out or stdout."""
    text = serialize_instance(doc) if isinstance(doc, InstanceFile) else canonical_json(_jsonable(doc))
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _seed(text: str) -> int:
    """A seed from --seed or NCLP_SEED: an integer in [0, 2**32), the range
    that ``rng_from`` honours."""
    try:
        seed = int(text)
        if 0 <= seed < 2**32:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**32), got {text!r}")


def _env_seed() -> Optional[int]:
    env = os.environ.get("NCLP_SEED")
    if env is None:
        return None
    try:
        return _seed(env)
    except argparse.ArgumentTypeError as exc:
        raise CliError(f"NCLP_SEED: {exc}") from exc


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = _env_seed()
    return env if env is not None else 0


def _config(args, inst: Optional[InstanceFile] = None) -> ToleranceConfig:
    """Seed precedence: --seed flag, then the instance's own seed, then the
    NCLP_SEED environment default, then 0."""
    cfg = DEFAULT_CONFIG
    if inst is not None and inst.tolerances is not None:
        cfg = inst.tolerances
    seed = _env_seed() or 0
    if inst is not None and inst.seed is not None:
        seed = inst.seed
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    cfg = replace(cfg, seed=seed)
    if args.tol is not None:
        cfg = replace(cfg, algebraic_tol=args.tol, opt_tol=max(args.tol, 1e-12))
    if getattr(args, "restarts", None) is not None:
        cfg = replace(cfg, restarts=args.restarts)
    return cfg


def _read_instance(args) -> InstanceFile:
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    if not text.strip():
        raise CliError("no instance on stdin (use --in or pipe a JSON instance)")
    return parse_instance(text)


def _pick(kind: str, table: dict, requested: Optional[str]):
    if requested is not None:
        if requested not in table:
            raise CliError(f"no {kind} named {requested!r} in the instance")
        return requested, table[requested]
    if len(table) == 1:
        name = next(iter(table))
        return name, table[name]
    if not table:
        raise CliError(f"instance contains no {kind}")
    raise CliError(
        f"instance contains several {kind}s ({sorted(table)}); pick one with the flag"
    )


def _pick_pair(inst: InstanceFile, args):
    names = sorted(inst.elements)
    a_name = args.a or ("a" if "a" in inst.elements else None)
    b_name = args.b or ("b" if "b" in inst.elements else None)
    if a_name is None or b_name is None:
        if len(names) == 2:
            a_name, b_name = names
        else:
            raise CliError("specify --a and --b element names")
    for n in (a_name, b_name):
        if n not in inst.elements:
            raise CliError(f"no element named {n!r} in the instance")
    return inst.elements[a_name], inst.elements[b_name]


def _interval_doc(iv) -> dict:
    return {
        "lower": iv.lower,
        "upper": iv.upper,
        "certified_exact": iv.certified_exact,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_norm(args) -> int:
    inst = _read_instance(args)
    _, el = _pick("element", inst.elements, args.el)
    value = lp_norm(el, args.p)
    _emit({"value": value, "p": args.p}, args)
    return EXIT_OK


def _cmd_seqnorm(args) -> int:
    inst = _read_instance(args)
    cfg = _config(args, inst)
    name, seq = _pick("sequence", inst.sequences, args.seq)
    iv = l1_norm_bounds(seq, args.p, cfg)
    _emit(
        {
            "sequence": name,
            "p": args.p,
            "interval": _interval_doc(iv),
            "value": iv.upper,
        },
        args,
    )
    return EXIT_OK


def _cmd_disjoint(args) -> int:
    inst = _read_instance(args)
    cfg = _config(args, inst)
    a, b = _pick_pair(inst, args)
    verdict = disjoint(a, b, cfg)
    _emit({"verdict": "disjoint" if verdict else "not_disjoint"}, args)
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _cmd_dinq(args) -> int:
    inst = _read_instance(args)
    cfg = _config(args, inst)
    a, b = _pick_pair(inst, args)
    v = dinq_disjoint_test(a, b, cfg)
    _emit(
        {
            "verdict": v.status,
            "interval": _interval_doc(v.interval),
            "threshold": v.threshold,
            "evidence": {"algebraic": v.algebraic, "consistent": v.consistent},
        },
        args,
    )
    if v.status == DISJOINT:
        return EXIT_OK
    if v.status == NOT_DISJOINT:
        return EXIT_NEGATIVE
    return EXIT_UNDETERMINED


def _triple_doc(tri: YeadonTriple) -> dict:
    return {
        "residuals": tri.residuals,
        "w_sup": tri.w.sup_norm(),
        "B_sup": tri.B.sup_norm(),
        "hom_part_trace": complex(tri.g.trace()).real,
        "anti_part_trace": complex(tri.f.trace()).real,
        "jordan_certified": tri.jordan_certified,
    }


def _cmd_yeadon(args) -> int:
    inst = _read_instance(args)
    cfg = _config(args, inst)
    name, T = _pick("map", inst.maps, args.map)
    res = extract_yeadon(T, cfg)
    if isinstance(res, YeadonTriple):
        _emit({"verdict": "factorized", "map": name, "evidence": _triple_doc(res)}, args)
        return EXIT_OK
    _emit(
        {"verdict": "no_factorization", "map": name,
         "evidence": {"reason": res.reason, "all_reasons": res.all_reasons,
                      "residual": res.residual}},
        args,
    )
    return EXIT_NEGATIVE


def _cmd_separating(args) -> int:
    inst = _read_instance(args)
    cfg = _config(args, inst)
    name, T = _pick("map", inst.maps, args.map)
    v = certify_separating(T, cfg, witness_seeds=args.budget or 64)
    doc = {"verdict": v.status, "map": name, "evidence": _jsonable(v.evidence)}
    if v.status == CERTIFIED:
        doc["evidence"] = _triple_doc(v.triple)
        _emit(doc, args)
        return EXIT_OK
    if v.status == FALSIFIED:
        a, b = v.witness
        doc["witness"] = {"a_sup": a.sup_norm(), "b_sup": b.sup_norm()}
        _emit(doc, args)
        return EXIT_NEGATIVE
    _emit(doc, args)
    return EXIT_UNDETERMINED


def _cmd_certify(args) -> int:
    inst = _read_instance(args)
    cfg = _config(args, inst)
    name, T = _pick("map", inst.maps, args.map)
    p = args.p if args.p is not None else T.p
    cert = certify_l1_norm(T, p, cfg, ratio_budget=args.budget or 25)
    _emit(
        {
            "map": name,
            "p": p,
            "route": cert.route,
            "interval": _interval_doc(cert.value_interval),
            "alarm": cert.alarm,
            "evidence": _jsonable(cert.evidence),
        },
        args,
    )
    if cert.alarm:
        print("inconsistency alarm: sampled lower bound beats certified upper",
              file=sys.stderr)
    return EXIT_OK


def _cmd_classify_l2(args) -> int:
    inst = _read_instance(args)
    cfg = _config(args, inst)
    name, T = _pick("map", inst.maps, args.map)
    cls = classify_l2_isometry(T, cfg, pairs=args.budget or 18)
    doc = {"verdict": cls.status, "map": name, "alarm": cls.alarm,
           "evidence": _jsonable(cls.evidence)}
    if cls.status == YTF:
        doc["evidence"]["triple"] = _jsonable(_triple_doc(cls.triple))
        _emit(doc, args)
        return EXIT_OK
    if cls.status in (NO_YTF, NOT_ISOMETRY):
        if cls.witness is not None:
            a, b = cls.witness
            doc["witness"] = {"a_sup": a.sup_norm(), "b_sup": b.sup_norm()}
        _emit(doc, args)
        return EXIT_NEGATIVE
    _emit(doc, args)
    return EXIT_UNDETERMINED


def _parse_algebra(args) -> AlgebraDescriptor:
    dims = [int(d) for d in (args.dims or "2").split(",")]
    if args.weights:
        weights = [float(w) for w in args.weights.split(",")]
        if len(weights) != len(dims):
            raise CliError("--weights must match --dims in length")
    else:
        weights = [1.0] * len(dims)
    return AlgebraDescriptor(tuple(zip(dims, weights)))


def _map_instance(T: LinearMap, seed: int) -> InstanceFile:
    """An instance file holding T as "T", on "M" (and "N" when T changes algebra)."""
    algebras = {"M": T.domain}
    if T.codomain != T.domain:
        algebras["N"] = T.codomain
    return make_instance(algebras, maps={"T": T}, seed=seed)


def _cmd_gen(args) -> int:
    seed = _default_seed(args)
    rng = rng_from(seed, 12000)
    alg = _parse_algebra(args)
    kind = args.kind
    p = args.p if args.p is not None else 2.0
    if kind in ("positive-seq", "seq"):
        n = args.n or 3
        items = {}
        names = []
        for i in range(n):
            el = random_positive(alg, rng) if kind == "positive-seq" else random_element(alg, rng)
            items[f"x{i}"] = el
            names.append(f"x{i}")
        inst = make_instance({"M": alg}, items, {"seq": names},
                             positive=set(names) if kind == "positive-seq" else None,
                             seed=seed)
    elif kind in ("disjoint-pair", "positive-disjoint-pair", "nondisjoint-pair"):
        if kind == "nondisjoint-pair":
            a, b = random_element(alg, rng), random_element(alg, rng)
        else:
            a, b = random_disjoint_pair(alg, rng, positive=kind.startswith("positive"))
        inst = make_instance({"M": alg}, {"a": a, "b": b}, seed=seed)
    elif kind == "element":
        inst = make_instance({"M": alg}, {"x": random_element(alg, rng)}, seed=seed)
    elif kind == "positive-element":
        inst = make_instance({"M": alg}, {"x": random_positive(alg, rng)},
                             positive={"x"}, seed=seed)
    elif kind == "map":
        inst = _map_instance(LinearMap(alg, alg, ginibre(rng, alg.coord_dim), p), seed)
    elif kind == "separating-map":
        inst = _map_instance(synth.random_yeadon_map(rng, p=p)[0], seed)
    elif kind == "cp-map":
        inst = _map_instance(synth.random_cp_contraction(alg, p, rng), seed)
    elif kind == "positive-map":
        inst = _map_instance(synth.random_positive_map(alg, p, rng), seed)
    elif kind == "isometry":
        inst = _map_instance(synth.random_l2_isometry(rng, int(rng.integers(0, 5))), seed)
    elif kind == "commutative-map":
        n = args.n or 3
        inst = _map_instance(synth.random_commutative_map(rng, n, n, p), seed)
    else:
        raise CliError(f"unknown generator kind {args.kind!r}")
    _emit(inst, args)
    return EXIT_OK


def _cmd_example(args) -> int:
    seed = _default_seed(args)
    rng = rng_from(seed, 13000)
    kind = args.kind
    p = args.p if args.p is not None else 2.0
    dim = args.dim or 2
    if kind == "transpose":
        T = transpose_map(matrix_algebra(dim), p)
    elif kind == "identity":
        T = identity_map(matrix_algebra(dim), p)
    elif kind == "rotation":
        T = rotation_mixing(args.theta if args.theta is not None else np.pi / 4, p)
    elif kind == "depolarizing":
        T = depolarizing(matrix_algebra(dim), args.lam if args.lam is not None else 0.5, p)
    elif kind == "unitary":
        T = unitary_conjugation(random_unitary(matrix_algebra(dim), rng), p)
    elif kind == "yeadon":
        T, _, _, _ = synth.random_yeadon_map(rng, p=p)
    else:
        raise CliError(f"unknown example kind {args.kind!r}")
    _emit(_map_instance(T, seed), args)
    return EXIT_OK


def _cmd_suite(args) -> int:
    seed = _default_seed(args)
    cfg = replace(DEFAULT_CONFIG, seed=seed)
    if args.restarts is not None:
        cfg = replace(cfg, restarts=args.restarts)
    scale = args.budget / 100.0 if args.budget is not None else 1.0
    report = run_suite(cfg, only=args.only, budget_scale=scale)
    _emit(report.to_dict(timings=args.timings), args)
    return EXIT_OK if report.overall_pass else EXIT_NEGATIVE


# every argument a subcommand may take; each subcommand takes only those it reads
_FLAGS = {
    "--p": dict(type=float, help="exponent (default: 2 or the map's own)"),
    "--tol": dict(type=float, help="override tolerance"),
    "--seed": dict(type=_seed, help="seed (default: NCLP_SEED or 0)"),
    "--restarts": dict(type=int, help="optimizer restarts"),
    "--budget": dict(type=int, help="sampling budget"),
    "--el": dict(type=str),
    "--seq": dict(type=str),
    "--a": dict(type=str),
    "--b": dict(type=str),
    "--map": dict(type=str),
    "--kind": dict(type=str, required=True),
    "kind": dict(type=str),
    "--n": dict(type=int),
    "--dims": dict(type=str, help="comma-separated block dims"),
    "--weights": dict(type=str, help="comma-separated block weights"),
    "--theta": dict(type=float),
    "--lam": dict(type=float),
    "--dim": dict(type=int),
    "--only": dict(type=str, help="filter property ids by substring"),
    "--timings": dict(action="store_true", default=False, help="include wall times (breaks byte reproducibility)"),
}

# name: (help, handler, flags, reads an instance)
_COMMANDS = {
    "norm": ("p-norm of an element", _cmd_norm, "--p --el", True),
    "seqnorm": ("ell1-valued sequence norm enclosure", _cmd_seqnorm,
                "--p --tol --seed --restarts --seq", True),
    "disjoint": ("algebraic disjointness of two elements", _cmd_disjoint, "--tol --a --b", True),
    "dinq": ("two-term p=2 disjointness criterion", _cmd_dinq,
             "--tol --seed --restarts --a --b", True),
    "yeadon": ("extract the (w, B, J) factorization of a map", _cmd_yeadon,
               "--tol --seed --map", True),
    "separating": ("certify or falsify the separating property", _cmd_separating,
                   "--tol --seed --budget --map", True),
    "certify": ("certify the ell1-extension norm", _cmd_certify,
                "--p --tol --seed --budget --map", True),
    "classify-l2": ("classify an L2 isometry by factorizability", _cmd_classify_l2,
                    "--tol --seed --restarts --budget --map", True),
    "gen": ("generate a random instance file", _cmd_gen,
            "--p --seed --kind --n --dims --weights", False),
    "example": ("emit a named example map as an instance file", _cmd_example,
                "kind --p --seed --theta --lam --dim", False),
    "suite": ("run the property suite", _cmd_suite,
              "--seed --restarts --budget --only --timings", False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclp",
        description="norms, factorizations and certificates on trace-weighted matrix-block L^p spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, flags, needs_input) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            sp.add_argument(flag, **{"default": None, **_FLAGS[flag]})
        sp.add_argument("--out", type=str, default=None, help="write result to a file instead of stdout")
        if needs_input:
            sp.add_argument("--in", dest="infile", type=str, default=None, help="instance file (default: stdin)")
        sp.set_defaults(fn=fn)
        if name in ("norm", "seqnorm"):
            sp.set_defaults(p=2.0)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process for ``run_command``, built on first use."""
    return build_parser()


def run_command(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (CliError, ParseError, AlgebraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
