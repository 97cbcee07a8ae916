"""Output checks for benchmark operations.

Every check compares nclp's answer with what the generator knows about the
input (``Op.facts``), computed by the benchmark's own numpy code.  None of
them trusts a number nclp printed except the one under test.  An operation
that fails any check counts toward ``failed``.
"""

from __future__ import annotations

import math

# Round-off slack for comparing an endpoint with an independently computed
# value; the enclosures are sound, so anything beyond this is a real breach.
REL = 1e-9

DECIDED_VERDICTS = {
    "dinq": ("disjoint", "not_disjoint"),
    "classify-l2": ("ytf", "no_ytf"),
}


def _le(a, b):
    return a <= b + REL * max(1.0, abs(a), abs(b) if math.isfinite(b) else 0.0)


def interval(doc):
    """(lower, upper) of the answer's interval; a JSON null upper is +inf."""
    iv = doc.get("interval") or {}
    lower = iv.get("lower")
    upper = iv.get("upper")
    return lower, math.inf if upper is None else upper


def decided(op, doc) -> bool:
    """The answer is definite: a decided verdict or a certified-exact interval."""
    if op.command in DECIDED_VERDICTS:
        return doc.get("verdict") in DECIDED_VERDICTS[op.command]
    return bool((doc.get("interval") or {}).get("certified_exact"))


def rel_gap(doc):
    """(upper - lower) / upper, or None without a finite positive upper endpoint."""
    if "interval" not in doc:
        return None
    lower, upper = interval(doc)
    if lower is None or not math.isfinite(upper) or upper <= 0:
        return None
    return (upper - lower) / upper


def _enclosed(problems, lower, upper, value, what):
    if not (_le(lower, value) and _le(value, upper)):
        problems.append(f"[{lower}, {upper}] does not enclose {what} {value}")


def check(op, code, doc) -> list:
    """Problems with one answer; an empty list means it passed."""
    if code not in (0, 1, 2):
        return [f"exit code {code}"]
    if not isinstance(doc, dict):
        return ["no JSON answer on stdout"]
    problems = []
    # the CLI prints a numpy-bool alarm as the string "False" or "True"
    if doc.get("alarm") in (True, "True"):
        problems.append("inconsistency alarm")
    facts = op.facts
    if op.command == "classify-l2":
        verdict = doc.get("verdict")
        if facts["factorizable"] and verdict == "no_ytf":
            problems.append(f"factorizable {facts['family']} classified no_ytf")
        if not facts["factorizable"] and verdict == "ytf":
            problems.append(f"non-factorizable {facts['family']} classified ytf")
        return problems

    lower, upper = interval(doc)
    if lower is None:
        return problems + ["no interval"]
    if not _le(lower, upper):
        problems.append(f"inverted interval [{lower}, {upper}]")

    if op.command == "dinq":
        verdict = doc.get("verdict")
        if facts["disjoint"]:
            if verdict == "not_disjoint":
                problems.append("disjoint pair reported not_disjoint")
            if not _le(lower, facts["threshold"]):
                problems.append(f"lower {lower} exceeds the threshold {facts['threshold']}")
        elif verdict == "disjoint":
            problems.append("generic pair reported disjoint")
    elif op.command == "seqnorm":
        if facts["exact"] is not None:
            _enclosed(problems, lower, upper, facts["exact"], "the closed-form value")
        else:
            if not _le(lower, facts["sum_norms"]):
                problems.append(f"lower {lower} exceeds sum |x_n|_p {facts['sum_norms']}")
            if not _le(facts["max_norm"], upper):
                problems.append(f"upper {upper} below max |x_n|_p {facts['max_norm']}")
    elif op.command == "certify":
        family, p = facts["family"], facts["p"]
        if family == "transpose":
            _enclosed(problems, lower, upper, 1.0, "the transposition norm")
        if p == 2 and family in ("separating", "transpose"):
            _enclosed(problems, lower, upper, facts["norm2"], "the weighted-SVD norm")
        if p == 2 and family == "commutative":
            _enclosed(problems, lower, upper, facts["modulus_norm2"],
                      "the weighted-SVD norm of the entrywise modulus")
        if p == 2 and not _le(facts["norm2"], upper):
            problems.append(f"upper {upper} below |T|_2 {facts['norm2']}")
        # completely positive (or, through the transposition, completely
        # copositive) contractions have ell^1-extension norm at most 1
        if family in ("cp_contraction", "depolarizing", "transpose_cp") and not _le(lower, 1.0):
            problems.append(f"lower {lower} exceeds 1 for a contraction")
    return problems
