"""Output checks for benchmark tasks.

Every task is one ``qgrass`` CLI call.  ``check`` looks at its exit code
and JSON stdout and returns a list of problems, empty when the output is
right.  Expected values come from closed forms computed here (group
orders, stabilizer orders, subspace counts) or from how the task inputs
were built, never from the library under test.
"""

import json
from math import prod


def gaussian_binomial(m, k, q):
    """Number of k-dimensional subspaces of GF(q)^m."""
    if not 0 <= k <= m:
        return 0
    num = prod(q ** (m - i) - 1 for i in range(k))
    den = prod(q ** (i + 1) - 1 for i in range(k))
    return num // den


def gl_order(q, m):
    return prod(q**m - q**i for i in range(m))


def flag_stabilizer_order(q, m, dims):
    """Order of the subgroup of GL(m, q) fixing a partial flag.

    dims are the member dimensions strictly between 0 and m.  The group
    acts transitively on flags of one type, so the stabilizer order is
    the group order over the number of such flags, a product of
    Gaussian binomials.
    """
    flags = 1
    below = 0
    for d in sorted(dims):
        flags *= gaussian_binomial(m - below, d - below, q)
        below = d
    return gl_order(q, m) // flags


def nonredundant(alpha):
    aset = set(alpha)
    return tuple(a for a in alpha if a + 1 not in aset)


def _parse(stdout):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def check(task, rc, stdout):
    """Problems with one task's result; an empty list means it passed."""
    doc = _parse(stdout)
    if doc is None:
        return [f"exit {rc}, stdout is not a JSON object"]
    return _CHECKERS[task.kind](task.expect, rc, doc)


def items(task, stdout):
    """Work units a passing task completed, for the throughput metric."""
    if task.kind == "verify":
        return json.loads(stdout)["cases_tested"]
    if task.kind == "census":
        return json.loads(stdout)["tested"]
    return 1


def _want(problems, label, got, expected):
    if got != expected:
        problems.append(f"{label}: got {got!r}, expected {expected!r}")


def _check_verify(exp, rc, doc):
    problems = []
    mutant = exp["mutant"] is not None
    _want(problems, "exit code", rc, 1 if mutant else 0)
    _want(problems, "verdict", doc.get("verdict"), "fail" if mutant else "pass")
    _want(problems, "theorem_id", doc.get("theorem_id"), exp["campaign"])
    _want(problems, "cases_tested", doc.get("cases_tested"), exp["cases"])
    if bool(doc.get("failures")) != mutant:
        problems.append(f"failures listed: {bool(doc.get('failures'))}, mutant: {mutant}")
    return problems


def _check_census(exp, rc, doc):
    problems = []
    _want(problems, "exit code", rc, 0)
    _want(problems, "verdict", doc.get("verdict"), "pass")
    _want(problems, "mismatches", doc.get("mismatches"), [])
    _want(problems, "group_size", doc.get("group_size"), exp["group_size"])
    _want(problems, "tested", doc.get("tested"), exp["group_size"])
    _want(problems, "oracle_checked", doc.get("oracle_checked"), exp["group_size"])
    _want(problems, "oracle_count", doc.get("oracle_count"), doc.get("fast_count"))
    if exp.get("stabilizers") is not None:
        _want(problems, "fast_count", doc.get("fast_count"), exp["stabilizers"])
    return problems


def _check_points(exp, rc, doc):
    problems = []
    _want(problems, "exit code", rc, 0)
    _want(problems, "count", doc.get("count"), exp["count"])
    return problems


def _check_eq(exp, rc, doc):
    problems = []
    _want(problems, "exit code", rc, 0)
    fast = doc.get("fast")
    if exp.get("equal") is not None:
        _want(problems, "fast", fast, exp["equal"])
    if exp.get("oracle"):
        _want(problems, "agree", doc.get("agree"), True)
        _want(problems, "oracle", doc.get("oracle"), fast)
    if exp.get("witness") and fast is False:
        w = doc.get("witness")
        if not isinstance(w, dict):
            problems.append("unequal varieties but no witness")
        else:
            if w.get("in_first") == w.get("in_second"):
                problems.append("witness does not lie on exactly one variety")
            point = w.get("point")
            if not (
                isinstance(point, list)
                and len(point) == exp["l"]
                and all(len(row) == exp["m"] for row in point)
            ):
                problems.append(f"witness has the wrong shape: {point!r}")
    return problems


def _check_image(exp, rc, doc):
    problems = []
    _want(problems, "exit code", rc, 0)
    _want(problems, "alpha", doc.get("alpha"), exp["alpha"])
    flag = doc.get("flag") or {}
    _want(problems, "image flag", flag.get("subspaces"), exp["subspaces"])
    return problems


def _check_aut(exp, rc, doc):
    problems = []
    _want(problems, "exit code", rc, 0)
    if exp.get("stabilizes") is not None:
        _want(problems, "fast", doc.get("fast"), exp["stabilizes"])
    if exp["mode"] == "both":
        _want(problems, "agree", doc.get("agree"), True)
        _want(problems, "oracle", doc.get("oracle"), doc.get("fast"))
    return problems


_CHECKERS = {
    "verify": _check_verify,
    "census": _check_census,
    "points": _check_points,
    "eq": _check_eq,
    "image": _check_image,
    "aut-check": _check_aut,
}
