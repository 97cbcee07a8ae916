"""JSON instance files: algebras, named elements, sequences, and maps.

Complex numbers are stored as [re, im] pairs (locale-proof and bit-exact),
matrices row-major, one matrix per block.  Serialization is canonical:
sorted keys, fixed indentation, shortest-roundtrip floats, so serialized
instances are diff-stable and parse/serialize round-trips byte-identically
on canonical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    StructuralError,
    ToleranceConfig,
    is_selfadjoint,
)
from .lp import is_positive
from .maps import LinearMap
from .sequences import ElementSequence, sequence

VERSION = "nclp-1"


class ParseError(ValueError):
    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class InstanceFile:
    algebras: dict[str, AlgebraDescriptor] = field(default_factory=dict)
    elements: dict[str, Element] = field(default_factory=dict)
    sequences: dict[str, ElementSequence] = field(default_factory=dict)
    maps: dict[str, LinearMap] = field(default_factory=dict)
    element_refs: dict[str, str] = field(default_factory=dict)
    sequence_refs: dict[str, list[str]] = field(default_factory=dict)
    map_refs: dict[str, tuple[str, str]] = field(default_factory=dict)
    declared_positive: set = field(default_factory=set)
    tolerances: Optional[ToleranceConfig] = None
    seed: Optional[int] = None
    version: str = VERSION


def _algebra_name(inst: InstanceFile, algebra: AlgebraDescriptor, ctx: str) -> str:
    for name, a in inst.algebras.items():
        if a == algebra:
            return name
    raise StructuralError(f"{ctx}: algebra is not one of the named algebras")


def make_instance(
    algebras: dict[str, AlgebraDescriptor],
    elements: Optional[dict[str, Element]] = None,
    sequences: Optional[dict[str, list[str]]] = None,
    maps: Optional[dict[str, LinearMap]] = None,
    positive: Optional[set] = None,
    tolerances: Optional[ToleranceConfig] = None,
    seed: Optional[int] = None,
) -> InstanceFile:
    """Assemble an instance, resolving object -> name references."""
    inst = InstanceFile(algebras=dict(algebras), tolerances=tolerances, seed=seed)
    for name, el in (elements or {}).items():
        inst.elements[name] = el
        inst.element_refs[name] = _algebra_name(inst, el.algebra, f"element {name}")
    for name, item_names in (sequences or {}).items():
        missing = [i for i in item_names if i not in inst.elements]
        if missing:
            raise StructuralError(f"sequence {name}: unknown elements {missing}")
        inst.sequences[name] = sequence([inst.elements[i] for i in item_names])
        inst.sequence_refs[name] = list(item_names)
    for name, T in (maps or {}).items():
        inst.maps[name] = T
        inst.map_refs[name] = (
            _algebra_name(inst, T.domain, f"map {name} domain"),
            _algebra_name(inst, T.codomain, f"map {name} codomain"),
        )
    inst.declared_positive = set(positive or set())
    return inst


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _encode_matrix(arr: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def _encode_p(p: float):
    return "inf" if p == math.inf else float(p)


def instance_to_dict(inst: InstanceFile) -> dict:
    doc: dict[str, Any] = {"version": inst.version}
    doc["algebras"] = {
        name: {"blocks": [{"dim": d, "weight": w} for d, w in a.blocks]}
        for name, a in inst.algebras.items()
    }
    if inst.elements:
        doc["elements"] = {}
        for name, el in inst.elements.items():
            entry = {
                "algebra": inst.element_refs[name],
                "blocks": [_encode_matrix(b) for b in el.blocks],
            }
            if name in inst.declared_positive:
                entry["positive"] = True
            doc["elements"][name] = entry
    if inst.sequences:
        doc["sequences"] = {
            name: {"items": list(items)} for name, items in inst.sequence_refs.items()
        }
    if inst.maps:
        doc["maps"] = {}
        for name, T in inst.maps.items():
            dom, cod = inst.map_refs[name]
            doc["maps"][name] = {
                "domain": dom,
                "codomain": cod,
                "p": _encode_p(T.p),
                "action": _encode_matrix(T.action),
            }
    if inst.tolerances is not None:
        t = inst.tolerances
        doc["tolerances"] = {
            "algebraic_tol": t.algebraic_tol,
            "opt_tol": t.opt_tol,
            "rank_cutoff": t.rank_cutoff,
            "restarts": t.restarts,
        }
    if inst.seed is not None:
        doc["seed"] = int(inst.seed)
    return doc


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"


def serialize_instance(inst: InstanceFile) -> str:
    return canonical_json(instance_to_dict(inst))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _expect(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise ParseError(message, path)


def _decode_matrix(obj, d_rows: int, d_cols: int, path: str) -> np.ndarray:
    _expect(isinstance(obj, list) and len(obj) == d_rows,
            f"expected {d_rows} rows", path)
    out = np.zeros((d_rows, d_cols), dtype=complex)
    for i, row in enumerate(obj):
        _expect(isinstance(row, list) and len(row) == d_cols,
                f"expected {d_cols} columns", f"{path}[{i}]")
        for j, z in enumerate(row):
            _expect(
                isinstance(z, list) and len(z) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in z),
                "expected [re, im] number pair", f"{path}[{i}][{j}]",
            )
            _expect(all(math.isfinite(v) for v in z),
                    "entry must be finite", f"{path}[{i}][{j}]")
            out[i, j] = complex(z[0], z[1])
    return out


def _decode_p(obj, path: str) -> float:
    if obj == "inf":
        return math.inf
    _expect(isinstance(obj, (int, float)) and not isinstance(obj, bool),
            "exponent must be a number or 'inf'", path)
    _expect(obj >= 1, "exponent must be >= 1", path)
    return float(obj)


def parse_instance(text: str) -> InstanceFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}", "$") from exc
    _expect(isinstance(doc, dict), "top level must be an object", "$")
    version = doc.get("version")
    _expect(version == VERSION, f"unrecognized version {version!r}", "$.version")

    inst = InstanceFile(version=version)

    algebras = doc.get("algebras", {})
    _expect(isinstance(algebras, dict), "algebras must be an object", "$.algebras")
    for name, spec in algebras.items():
        path = f"$.algebras.{name}"
        _expect(isinstance(spec, dict) and isinstance(spec.get("blocks"), list),
                "algebra needs a blocks array", path)
        blocks = []
        for k, blk in enumerate(spec["blocks"]):
            bpath = f"{path}.blocks[{k}]"
            _expect(isinstance(blk, dict), "block must be an object", bpath)
            dim, weight = blk.get("dim"), blk.get("weight")
            _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
                    "dim must be a positive integer", bpath)
            _expect(
                isinstance(weight, (int, float)) and not isinstance(weight, bool)
                and 0 < weight < math.inf,
                "weight must be finite and > 0", bpath,
            )
            blocks.append((dim, float(weight)))
        inst.algebras[name] = AlgebraDescriptor(tuple(blocks))

    for name, spec in doc.get("elements", {}).items():
        path = f"$.elements.{name}"
        ref = spec.get("algebra") if isinstance(spec, dict) else None
        _expect(ref in inst.algebras, f"unknown algebra {ref!r}", f"{path}.algebra")
        alg = inst.algebras[ref]
        raw = spec.get("blocks")
        _expect(isinstance(raw, list) and len(raw) == len(alg.blocks),
                f"expected {len(alg.blocks)} blocks", f"{path}.blocks")
        mats = []
        for k, (d, _) in enumerate(alg.blocks):
            mats.append(_decode_matrix(raw[k], d, d, f"{path}.blocks[{k}]"))
        el = Element(alg, mats)
        if spec.get("positive"):
            if not is_positive(el):
                reason = "has negative spectrum" if is_selfadjoint(el) else "not Hermitian"
                raise ParseError(f"declared positive but {reason}", path)
            inst.declared_positive.add(name)
        inst.elements[name] = el
        inst.element_refs[name] = ref

    for name, spec in doc.get("sequences", {}).items():
        path = f"$.sequences.{name}"
        items = spec.get("items") if isinstance(spec, dict) else None
        _expect(isinstance(items, list) and len(items) >= 1,
                "sequence needs a nonempty items array", path)
        for i, ref in enumerate(items):
            _expect(ref in inst.elements, f"unknown element {ref!r}", f"{path}.items[{i}]")
        algs = {inst.element_refs[r] for r in items}
        _expect(len(algs) == 1, "sequence items must share one algebra", path)
        inst.sequences[name] = sequence([inst.elements[r] for r in items])
        inst.sequence_refs[name] = list(items)

    for name, spec in doc.get("maps", {}).items():
        path = f"$.maps.{name}"
        _expect(isinstance(spec, dict), "map must be an object", path)
        dom_ref, cod_ref = spec.get("domain"), spec.get("codomain")
        _expect(dom_ref in inst.algebras, f"unknown algebra {dom_ref!r}", f"{path}.domain")
        _expect(cod_ref in inst.algebras, f"unknown algebra {cod_ref!r}", f"{path}.codomain")
        dom, cod = inst.algebras[dom_ref], inst.algebras[cod_ref]
        p = _decode_p(spec.get("p", 2.0), f"{path}.p")
        action = _decode_matrix(
            spec.get("action"), cod.coord_dim, dom.coord_dim, f"{path}.action"
        )
        inst.maps[name] = LinearMap(dom, cod, action, p)
        inst.map_refs[name] = (dom_ref, cod_ref)

    seed = doc.get("seed")
    if seed is not None:
        _expect(isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2**32,
                "seed must be an integer in [0, 2**32)", "$.seed")
        inst.seed = seed

    tol = doc.get("tolerances")
    if tol is not None:
        _expect(isinstance(tol, dict), "tolerances must be an object", "$.tolerances")
        values = {}
        for name, default in (("algebraic_tol", 1e-9), ("opt_tol", 1e-7), ("rank_cutoff", 1e-10)):
            v = tol.get(name, default)
            _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
                    f"{name} must be a number", f"$.tolerances.{name}")
            values[name] = float(v)
        restarts = tol.get("restarts", 3)
        _expect(isinstance(restarts, int) and not isinstance(restarts, bool) and restarts >= 1,
                "restarts must be an integer >= 1", "$.tolerances.restarts")
        try:
            inst.tolerances = ToleranceConfig(**values, restarts=restarts, seed=seed or 0)
        except StructuralError as exc:
            raise ParseError(str(exc), "$.tolerances") from exc
    return inst


def load_instance(path: str) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(inst: InstanceFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))
