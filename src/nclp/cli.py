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
    CERTIFIED,
    FALSIFIED,
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
from .sequences import DISJOINT, NOT_DISJOINT, UNDETERMINED, dinq_disjoint_test, l1_norm_bounds
from .yeadon import YeadonTriple, certify_separating, extract_yeadon

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT = 3

FACTORIZED = "factorized"
NO_FACTORIZATION = "no_factorization"

# the exit code of every verdict a command prints; a document without a
# verdict exits 0, except the suite report, which exits 1 unless it passed
_VERDICT_EXIT = {
    DISJOINT: EXIT_OK, CERTIFIED: EXIT_OK, FACTORIZED: EXIT_OK, YTF: EXIT_OK,
    NOT_DISJOINT: EXIT_NEGATIVE, FALSIFIED: EXIT_NEGATIVE, NO_FACTORIZATION: EXIT_NEGATIVE,
    NO_YTF: EXIT_NEGATIVE, NOT_ISOMETRY: EXIT_NEGATIVE,
    UNDETERMINED: EXIT_UNDETERMINED,
}


class CliError(Exception):
    pass


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, str) or value is None:
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


def _exit_code(doc: dict | InstanceFile) -> int:
    if isinstance(doc, InstanceFile):
        return EXIT_OK
    if "overall_pass" in doc:
        return EXIT_OK if doc["overall_pass"] else EXIT_NEGATIVE
    return _VERDICT_EXIT[doc["verdict"]] if "verdict" in doc else EXIT_OK


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


def _count(text: str) -> int:
    """A --budget, --n or --dim value: an integer of at least 1."""
    try:
        count = int(text)
        if count >= 1:
            return count
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


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
    """Seed precedence, for the commands that take --seed: the flag, then the
    instance's own seed, then the NCLP_SEED environment default, then 0.
    The other commands read no seed source."""
    cfg = DEFAULT_CONFIG
    if inst is not None and inst.tolerances is not None:
        cfg = inst.tolerances
    if hasattr(args, "seed"):
        seed = _default_seed(args)
        if args.seed is None and inst is not None and inst.seed is not None:
            seed = inst.seed
        cfg = replace(cfg, seed=seed)
    if getattr(args, "tol", None) is not None:
        cfg = replace(cfg, algebraic_tol=args.tol, opt_tol=max(args.tol, 1e-12))
    return cfg


def _read_instance(args) -> InstanceFile:
    if args.infile:
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
    a_name, b_name = (flag if flag is not None else (own if own in inst.elements else None)
                      for flag, own in ((args.a, "a"), (args.b, "b")))
    if a_name is None or b_name is None:
        if len(inst.elements) == 2:
            a_name, b_name = sorted(inst.elements)
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


def _triple_doc(tri: YeadonTriple) -> dict:
    return {
        "residuals": tri.residuals,
        "w_sup": tri.w.sup_norm(),
        "B_sup": tri.B.sup_norm(),
        "hom_part_trace": complex(tri.g.trace()).real,
        "anti_part_trace": complex(tri.f.trace()).real,
        "jordan_certified": tri.jordan_certified,
    }


def _witness_doc(witness) -> dict:
    a, b = witness
    return {"a_sup": a.sup_norm(), "b_sup": b.sup_norm()}


# ---------------------------------------------------------------------------
# commands: each maps (args, instance or None, config) to the document it
# prints; run_command emits it and reads the exit code off its verdict
# ---------------------------------------------------------------------------


def _cmd_norm(args, inst, cfg) -> dict:
    _, el = _pick("element", inst.elements, args.el)
    return {"value": lp_norm(el, args.p), "p": args.p}


def _cmd_seqnorm(args, inst, cfg) -> dict:
    name, seq = _pick("sequence", inst.sequences, args.seq)
    iv = l1_norm_bounds(seq, args.p, cfg)
    return {"sequence": name, "p": args.p, "interval": _interval_doc(iv), "value": iv.upper}


def _cmd_disjoint(args, inst, cfg) -> dict:
    a, b = _pick_pair(inst, args)
    return {"verdict": DISJOINT if disjoint(a, b, cfg) else NOT_DISJOINT}


def _cmd_dinq(args, inst, cfg) -> dict:
    a, b = _pick_pair(inst, args)
    v = dinq_disjoint_test(a, b, cfg)
    return {
        "verdict": v.status,
        "interval": _interval_doc(v.interval),
        "threshold": v.threshold,
        "evidence": {"algebraic": v.algebraic, "consistent": v.consistent},
    }


def _cmd_yeadon(args, inst, cfg) -> dict:
    name, T = _pick("map", inst.maps, args.map)
    res = extract_yeadon(T, cfg)
    if isinstance(res, YeadonTriple):
        return {"verdict": FACTORIZED, "map": name, "evidence": _triple_doc(res)}
    return {"verdict": NO_FACTORIZATION, "map": name,
            "evidence": {"reason": res.reason, "all_reasons": res.all_reasons,
                         "residual": res.residual}}


def _cmd_separating(args, inst, cfg) -> dict:
    name, T = _pick("map", inst.maps, args.map)
    v = certify_separating(T, cfg, witness_seeds=args.budget)
    doc = {"verdict": v.status, "map": name,
           "evidence": v.evidence if v.triple is None else _triple_doc(v.triple)}
    if v.witness is not None:
        doc["witness"] = _witness_doc(v.witness)
    return doc


def _cmd_certify(args, inst, cfg) -> dict:
    name, T = _pick("map", inst.maps, args.map)
    p = args.p if args.p is not None else T.p
    cert = certify_l1_norm(T, p, cfg, ratio_budget=args.budget)
    if cert.alarm:
        print("inconsistency alarm: a lower bound computed from the map beats the certified upper",
              file=sys.stderr)
    return {
        "map": name,
        "p": p,
        "route": cert.route,
        "interval": _interval_doc(cert.value_interval),
        "alarm": cert.alarm,
        "evidence": cert.evidence,
    }


def _cmd_classify_l2(args, inst, cfg) -> dict:
    name, T = _pick("map", inst.maps, args.map)
    cls = classify_l2_isometry(T, cfg, pairs=args.budget)
    doc = {"verdict": cls.status, "map": name, "alarm": cls.alarm, "evidence": cls.evidence}
    if cls.triple is not None:
        doc["evidence"] = {**cls.evidence, "triple": _triple_doc(cls.triple)}
    if cls.witness is not None:
        doc["witness"] = _witness_doc(cls.witness)
    return doc


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


def _builder(table: dict, label: str, args):
    """The builder of --kind in ``table``, once --p is known to be an
    exponent that an instance file can hold."""
    if args.kind not in table:
        raise CliError(f"unknown {label} kind {args.kind!r}")
    if not args.p >= 1:  # also rejects nan
        raise CliError(f"--p must be >= 1, got p = {args.p}")
    return table[args.kind]


def _gen_seq(draw, positive: bool = False):
    def build(alg, rng, args) -> dict:
        names = [f"x{i}" for i in range(args.n)]
        return {"elements": {name: draw(alg, rng) for name in names},
                "sequences": {"seq": names}, "positive": set(names) if positive else None}
    return build


def _synth():
    """``nclp.synth``, imported on first use: only the kinds below that draw a
    structured map need it, so the other commands do not pay for its import."""
    from . import synth

    return synth


def _gen_pair(draw):
    return lambda alg, rng, args: {"elements": dict(zip("ab", draw(alg, rng)))}


# kind: (algebra from --dims/--weights, rng, args) -> a map, or the elements,
# sequences and positive declarations of an instance on that algebra
_GEN_KINDS = {
    "positive-seq": _gen_seq(random_positive, positive=True),
    "seq": _gen_seq(random_element),
    "disjoint-pair": _gen_pair(random_disjoint_pair),
    "positive-disjoint-pair": _gen_pair(functools.partial(random_disjoint_pair, positive=True)),
    "nondisjoint-pair": _gen_pair(lambda alg, rng: (random_element(alg, rng), random_element(alg, rng))),
    "element": lambda alg, rng, args: {"elements": {"x": random_element(alg, rng)}},
    "positive-element": lambda alg, rng, args: {"elements": {"x": random_positive(alg, rng)},
                                                "positive": {"x"}},
    "map": lambda alg, rng, args: LinearMap(alg, alg, ginibre(rng, alg.coord_dim), args.p),
    "separating-map": lambda alg, rng, args: _synth().random_yeadon_map(rng, p=args.p)[0],
    "cp-map": lambda alg, rng, args: _synth().random_cp_contraction(alg, args.p, rng),
    "positive-map": lambda alg, rng, args: _synth().random_positive_map(alg, args.p, rng),
    "isometry": lambda alg, rng, args: replace(_synth().random_l2_isometry(rng, int(rng.integers(0, 5))),
                                               p=args.p),
    "commutative-map": lambda alg, rng, args: _synth().random_commutative_map(rng, args.n, args.n, args.p),
}


# kinds that draw their own algebras, and refuse --dims and --weights
_FIXED_ALGEBRAS = ("separating-map", "isometry", "commutative-map")


def _cmd_gen(args, inst, cfg) -> InstanceFile:
    rng = rng_from(cfg.seed, 12000)
    for flag in ("dims", "weights"):
        if args.kind in _FIXED_ALGEBRAS and getattr(args, flag) is not None:
            raise CliError(f"--kind {args.kind} draws its own algebras and takes no --{flag}")
    alg = _parse_algebra(args)
    made = _builder(_GEN_KINDS, "generator", args)(alg, rng, args)
    if isinstance(made, LinearMap):
        return _map_instance(made, cfg.seed)
    return make_instance({"M": alg}, **made, seed=cfg.seed)


# kind: (rng, args) -> the example map
_EXAMPLE_KINDS = {
    "transpose": lambda rng, args: transpose_map(matrix_algebra(args.dim), args.p),
    "identity": lambda rng, args: identity_map(matrix_algebra(args.dim), args.p),
    "rotation": lambda rng, args: rotation_mixing(args.theta, args.p),
    "depolarizing": lambda rng, args: depolarizing(matrix_algebra(args.dim), args.lam, args.p),
    "unitary": lambda rng, args: unitary_conjugation(random_unitary(matrix_algebra(args.dim), rng), args.p),
    "yeadon": lambda rng, args: _synth().random_yeadon_map(rng, p=args.p)[0],
}


def _cmd_example(args, inst, cfg) -> InstanceFile:
    rng = rng_from(cfg.seed, 13000)
    return _map_instance(_builder(_EXAMPLE_KINDS, "example", args)(rng, args), cfg.seed)


def _cmd_suite(args, inst, cfg) -> dict:
    from .suite import run_suite

    report = run_suite(cfg, only=args.only, budget_scale=args.budget / 100.0)
    return report.to_dict(timings=args.timings)


# every argument a subcommand may take; each subcommand takes only those it reads
_FLAGS = {
    "--p": dict(type=float, help="exponent (default: 2 or the map's own)"),
    "--tol": dict(type=float, help="override tolerance"),
    "--seed": dict(type=_seed, help="seed (default: NCLP_SEED or 0)"),
    "--budget": dict(type=_count, help="sampling budget"),
    "--el": dict(type=str),
    "--seq": dict(type=str),
    "--a": dict(type=str),
    "--b": dict(type=str),
    "--map": dict(type=str),
    "--kind": dict(type=str, required=True),
    "kind": dict(type=str),
    "--n": dict(type=_count),
    "--dims": dict(type=str, help="comma-separated block dims (default: 2)"),
    "--weights": dict(type=str, help="comma-separated block weights"),
    "--theta": dict(type=float),
    "--lam": dict(type=float),
    "--dim": dict(type=_count),
    "--only": dict(type=str, help="filter property ids by substring"),
    "--timings": dict(action="store_true", default=False, help="include wall times (breaks byte reproducibility)"),
}

# name: (help, handler, flags with their defaults, reads an instance); a flag
# without "=default" defaults to None (certify's --p: the map's own exponent)
_COMMANDS = {
    "norm": ("p-norm of an element", _cmd_norm, "--p=2 --el", True),
    "seqnorm": ("ell1-valued sequence norm enclosure", _cmd_seqnorm,
                "--p=2 --tol --seq", True),
    "disjoint": ("algebraic disjointness of two elements", _cmd_disjoint, "--tol --a --b", True),
    "dinq": ("two-term p=2 disjointness criterion", _cmd_dinq,
             "--tol --a --b", True),
    "yeadon": ("extract the (w, B, J) factorization of a map", _cmd_yeadon,
               "--tol --seed --map", True),
    "separating": ("certify or falsify the separating property", _cmd_separating,
                   "--tol --seed --budget=64 --map", True),
    "certify": ("certify the ell1-extension norm", _cmd_certify,
                "--p --tol --seed --budget=25 --map", True),
    "classify-l2": ("classify an L2 isometry by factorizability", _cmd_classify_l2,
                    "--tol --seed --budget=18 --map", True),
    "gen": ("generate a random instance file", _cmd_gen,
            "--p=2 --seed --kind --n=3 --dims --weights", False),
    "example": ("emit a named example map as an instance file", _cmd_example,
                f"kind --p=2 --seed --theta={np.pi / 4} --lam=0.5 --dim=2", False),
    "suite": ("run the property suite", _cmd_suite,
              "--seed --budget=100 --only --timings", False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclp",
        description="norms, factorizations and certificates on trace-weighted matrix-block L^p spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags, needs_input) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for token in flags.split():
            flag, _, default = token.partition("=")
            spec = {"default": None, **_FLAGS[flag]}
            if default:
                spec["default"] = spec["type"](default)
            sp.add_argument(flag, **spec)
        sp.add_argument("--out", type=str, default=None, help="write result to a file instead of stdout")
        if needs_input:
            sp.add_argument("--in", dest="infile", type=str, default=None, help="instance file (default: stdin)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process for ``run_command``, built on first use."""
    return build_parser()


def run_command(argv: list[str]) -> int:
    """Parse argv, read the instance of a command that takes one, run the
    command, print its document and return the exit code of its verdict."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    _, fn, _, needs_input = _COMMANDS[args.command]
    try:
        inst = _read_instance(args) if needs_input else None
        doc = fn(args, inst, _config(args, inst))
        _emit(doc, args)
    except (CliError, ParseError, AlgebraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return _exit_code(doc)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
