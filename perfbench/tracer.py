"""Out-of-process-boundary tracing: wraps nclp's functions from the outside.

The tracer replaces each target function by a wrapper wherever an nclp
module binds it (its defining module and every module that imported the
name), patches the ``Element`` and ``LinearMap`` methods on their classes,
and wraps the ``numpy.linalg`` entry points that nclp calls as
``np.linalg.<name>``.  While a recorder is active each wrapped call records
a span (name, start, end, parent span, op id) in flat arrays; inactive
wrappers only forward.  ``restore`` puts every original back.

Targets that a later version of nclp no longer has, and return values it
no longer shapes as expected, are listed in ``missing``; their metrics then
read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute path, span name)
FUNCTIONS = [
    ("cli", "run_command", "cli.run_command"),
    ("instances", "parse_instance", "instances.parse_instance"),
    ("algebra", "Element.sup_norm", "algebra.Element.sup_norm"),
    ("algebra", "polar_support", "algebra.polar_support"),
    ("algebra", "apply_spectral", "algebra.apply_spectral"),
    ("lp", "lp_norm", "lp.lp_norm"),
    ("sequences", "l1_norm_bounds", "sequences.l1_norm_bounds"),
    ("sequences", "phase_lower_bound", "sequences.phase_lower_bound"),
    ("sequences", "dinq_disjoint_test", "sequences.dinq_disjoint_test"),
    ("sequences", "_gauge_descent", "sequences.gauge_descent"),
    ("maps", "LinearMap.__call__", "maps.LinearMap.apply"),
    ("maps", "op_norm", "maps.op_norm"),
    ("maps", "positivity_tests", "maps.positivity_tests"),
    ("maps", "is_completely_positive", "maps.is_completely_positive"),
    ("maps", "choi_components", "maps.choi_components"),
    ("maps", "amplified_map", "maps.amplified_map"),
    ("maps", "adjoint_map", "maps.adjoint_map"),
    ("yeadon", "extract_yeadon", "yeadon.extract_yeadon"),
    ("yeadon", "verify_jordan", "yeadon.verify_jordan"),
    ("yeadon", "central_decompose", "yeadon.central_decompose"),
    ("yeadon", "certify_separating", "yeadon.certify_separating"),
    ("certify", "certify_l1_norm", "certify.certify_l1_norm"),
    ("certify", "l1_ratio_lower", "certify.l1_ratio_lower"),
    ("certify", "classify_l2_isometry", "certify.classify_l2_isometry"),
]

# numpy.linalg entry point -> span name (eigvalsh counts as eigh)
LINALG = {
    "svd": "linalg.svd",
    "eigh": "linalg.eigh",
    "eigvalsh": "linalg.eigh",
    "pinv": "linalg.pinv",
    "norm": "linalg.norm",
    "solve": "linalg.solve",
    "qr": "linalg.qr",
    "cond": "linalg.cond",
}

ROUTES = ("commutative_regular", "p_equals_one", "separating",
          "two_positive_contraction", "positive_4x", "sampled_only")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self._stack: list = []
        self._child: list = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing: list = []
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name, nid, fn, args, kwargs, on_return):
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self._stack.append(idx)
        self._child.append(0.0)
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            child = self._child.pop()
            dur = t1 - self.start[idx]
            self.end[idx] = t1
            if self._child:
                self._child[-1] += dur
            self.self_s[name] += dur - child
            self.total_s[name] += dur
            self.calls[name] += 1
        if on_return is not None:
            try:
                on_return(self, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                note = f"{name} return value"
                if note not in self.missing:
                    self.missing.append(note)
        return result

    def wrap(self, name, fn, on_return=None):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._span(name, nid, fn, args, kwargs, on_return)

        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch nclp (already imported) and numpy.linalg."""
        mods = {k.partition(".")[2]: m for k, m in sys.modules.items()
                if (k == "nclp" or k.startswith("nclp.")) and m is not None}
        for modname, path, name in FUNCTIONS:
            mod = mods.get(modname)
            head, _, attr = path.rpartition(".")
            owner = getattr(mod, head, None) if head else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = self.wrap(name, fn, RETURN_HOOKS.get(name))
            if head:
                self._set(owner, attr, wrapped)
                continue
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, key, wrapped)
        element = getattr(mods.get("algebra"), "Element", None)
        if element is not None:
            init = element.__init__

            def counted_init(obj, *args, **kwargs):
                if self.active:
                    self.counts["algebra.Element.constructed"] += 1
                init(obj, *args, **kwargs)

            self._set(element, "__init__", counted_init)
        for attr, name in LINALG.items():
            self._set(np.linalg, attr, self.wrap(name, getattr(np.linalg, attr)))

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_of, dtype=np.int32),
        )

    def layer_metrics(self, n_ops):
        """Per-op layer metrics (name -> (value, unit))."""
        per = 1.0 / max(n_ops, 1)
        calls, self_ms = self.calls, lambda n: 1e3 * self.self_s[n] * per
        out = {}

        def put(name, value, unit):
            out[name] = (float(value), unit)

        put("cli.run_command.self_ms", self_ms("cli.run_command"), "ms/op")
        put("instances.parse_instance.ms", 1e3 * self.total_s["instances.parse_instance"] * per, "ms/op")
        put("algebra.Element.constructed", self.counts["algebra.Element.constructed"] * per, "count/op")
        for n in ("algebra.Element.sup_norm", "algebra.polar_support", "algebra.apply_spectral",
                  "lp.lp_norm", "sequences.l1_norm_bounds", "sequences.phase_lower_bound",
                  "maps.op_norm", "maps.positivity_tests", "maps.is_completely_positive",
                  "maps.choi_components", "maps.amplified_map", "maps.adjoint_map",
                  "yeadon.extract_yeadon", "yeadon.verify_jordan", "yeadon.central_decompose",
                  "yeadon.certify_separating", "certify.l1_ratio_lower"):
            put(f"{n}.calls", calls[n] * per, "count/op")
            put(f"{n}.self_ms", self_ms(n), "ms/op")
        for n in ("svd", "eigh", "pinv", "norm", "solve"):
            put(f"linalg.{n}.calls", calls[f"linalg.{n}"] * per, "count/op")
        put("linalg.self_ms", sum(self_ms(n) for n in set(LINALG.values())), "ms/op")
        put("sequences.dinq_disjoint_test.self_ms", self_ms("sequences.dinq_disjoint_test"), "ms/op")
        iters = self.counts["sequences.descent_iters"]
        put("sequences.descent_iters", iters * per, "count/op")
        put("sequences.restarts", self.counts["sequences.restarts"] * per, "count/op")
        put("sequences.repairs", self.counts["sequences.repairs"] * per, "count/op")
        put("sequences.ms_per_descent_iter",
            1e3 * self.total_s["sequences.gauge_descent"] / iters if iters else 0.0, "ms")
        put("sequences.certified_ratio",
            _ratio(self.counts["sequences.certified"], calls["sequences.l1_norm_bounds"]), "ratio")
        put("maps.LinearMap.apply.calls", calls["maps.LinearMap.apply"] * per, "count/op")
        put("yeadon.extraction_ratio",
            _ratio(self.counts["yeadon.extracted"], calls["yeadon.extract_yeadon"]), "ratio")
        put("certify.certify_l1_norm.self_ms", self_ms("certify.certify_l1_norm"), "ms/op")
        put("certify.ratio_samples", self.counts["certify.ratio_samples"] * per, "count/op")
        put("certify.classify_l2_isometry.self_ms", self_ms("certify.classify_l2_isometry"), "ms/op")
        for route in ROUTES:
            put(f"certify.route.{route}", self.counts[f"certify.route.{route}"], "count")
        put("certify.exact_ratio",
            _ratio(self.counts["certify.exact"], calls["certify.certify_l1_norm"]), "ratio")
        return out


def _ratio(num, den):
    return num / den if den else 0.0


# Counts read from public return values.


def _on_l1_norm_bounds(tracer, iv):
    meta = getattr(iv, "meta", None) or {}
    histories = meta.get("histories") or []
    tracer.counts["sequences.restarts"] += len(histories)
    tracer.counts["sequences.descent_iters"] += sum(max(len(h) - 1, 0) for h in histories)
    tracer.counts["sequences.repairs"] += int(meta.get("repairs") or 0)
    tracer.counts["sequences.certified"] += bool(getattr(iv, "certified_exact", False))


def _on_extract_yeadon(tracer, result):
    tracer.counts["yeadon.extracted"] += type(result).__name__ == "YeadonTriple"


def _on_l1_ratio_lower(tracer, result):
    tracer.counts["certify.ratio_samples"] += int(result[1].get("samples", 0))


def _on_certify_l1_norm(tracer, cert):
    tracer.counts[f"certify.route.{cert.route}"] += 1
    tracer.counts["certify.exact"] += bool(cert.value_interval.certified_exact)


RETURN_HOOKS = {
    "sequences.l1_norm_bounds": _on_l1_norm_bounds,
    "yeadon.extract_yeadon": _on_extract_yeadon,
    "certify.l1_ratio_lower": _on_l1_ratio_lower,
    "certify.certify_l1_norm": _on_certify_l1_norm,
}
