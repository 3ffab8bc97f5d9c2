"""Output checks that need no recorded expectation.

Everything here is recomputed by the benchmark from the graph it generated,
never taken from the program: counts, degrees, and the validity of every
witness set, including the max-cut witness that the program itself does not
re-validate.  Digests cover the rest, against expectations recorded in
``expected/``.
"""

import hashlib
import json
from fractions import Fraction

WITNESS_KEYS = ("alpha", "alpha_ir", "alpha_reg", "gamma_ir", "gamma_reg", "beta")


def digest(obj) -> str:
    """Short sha256 of the canonical JSON text of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def labeled_graph_count(n_max: int) -> int:
    """Labeled graphs of order 0..n_max, the sweep's graphs_checked."""
    return sum(1 << (n * (n - 1) // 2) for n in range(n_max + 1))


def sweep_facts(text: str) -> tuple:
    """(facts, problems) for one verify output.

    facts holds what expectations are compared against: the counts, the
    per-theorem table and a digest of the payload without its wall time.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return {}, [f"output is not JSON: {exc}"]
    payload.pop("wall_time_ms", None)
    facts = {
        "graphs_checked": payload.get("graphs_checked"),
        "violations": len(payload.get("violations", ())),
        "per_theorem": payload.get("per_theorem"),
        "sha256": digest(payload),
    }
    problems = []
    if (payload.get("schema"), payload.get("kind")) != (1, "sweep"):
        problems.append("payload is not a schema-1 sweep")
    n_max = payload.get("n_max")
    if not isinstance(n_max, int) or facts["graphs_checked"] != labeled_graph_count(n_max):
        problems.append(f"graphs_checked {facts['graphs_checked']} for n_max {n_max}")
    table = facts["per_theorem"] or {}
    fails = sum(cell.get("fail", 0) for cell in table.values())
    if (fails == 0) != (facts["violations"] == 0):
        problems.append(f"{fails} failed checks but {facts['violations']} violations")
    return facts, problems


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _independent(rows, mask) -> bool:
    return all(not rows[v] & mask for v in _bits(mask))


def _dominating_counts(rows, n, mask):
    """|N(v) & D| for each vertex outside D, or None if one is undominated."""
    counts = [(rows[v] & mask).bit_count() for v in _bits(((1 << n) - 1) ^ mask)]
    return None if 0 in counts else counts


def witness_problems(rows: list, report: dict) -> list:
    """Every way the parameters and witnesses of one report contradict rows."""
    n = len(rows)
    degs = [r.bit_count() for r in rows]
    m = sum(degs) // 2
    problems = []
    expected_head = {
        "n": n,
        "m": m,
        "delta": min(degs),
        "Delta": max(degs),
        "span": len(set(degs)),
    }
    for key, want in expected_head.items():
        if report.get(key) != want:
            problems.append(f"{key}={report.get(key)}, expected {want}")
    avg = Fraction(2 * m, n)
    if report.get("avg_degree") != [avg.numerator, avg.denominator]:
        problems.append(f"avg_degree={report.get('avg_degree')}")
    witnesses = report.get("witnesses") or {}
    if sorted(witnesses) != sorted(WITNESS_KEYS):
        return problems + [f"witness keys {sorted(witnesses)}"]
    masks = {}
    for key in WITNESS_KEYS:
        members = witnesses[key]
        if not all(isinstance(v, int) and 0 <= v < n for v in members):
            return problems + [f"{key} witness {members} is not a vertex set"]
        masks[key] = sum(1 << v for v in set(members))
        if key != "beta" and len(set(members)) != report.get(key):
            problems.append(f"{key}={report.get(key)} but witness has {len(members)}")
    for key in ("alpha", "alpha_ir", "alpha_reg"):
        if not _independent(rows, masks[key]):
            problems.append(f"{key} witness is not independent")
    ir_degs = [degs[v] for v in _bits(masks["alpha_ir"])]
    if len(set(ir_degs)) != len(ir_degs):
        problems.append("alpha_ir witness degrees repeat")
    if len(set(degs[v] for v in _bits(masks["alpha_reg"]))) > 1:
        problems.append("alpha_reg witness degrees differ")
    counts = _dominating_counts(rows, n, masks["gamma_ir"])
    if counts is None or len(set(counts)) != len(counts):
        problems.append("gamma_ir witness is not irregular dominating")
    counts = _dominating_counts(rows, n, masks["gamma_reg"])
    if counts is None or len(set(counts)) > 1:
        problems.append("gamma_reg witness is not regular dominating")
    side, other = masks["beta"], ((1 << n) - 1) ^ masks["beta"]
    cut = sum((rows[v] & other).bit_count() for v in _bits(side))
    if cut != report.get("beta") or cut > m:
        problems.append(f"beta={report.get('beta')} but its witness cuts {cut}")
    return problems


def compute_facts(text: str, line: str, rows: list) -> tuple:
    """(report, problems) for the output of one single-graph compute call."""
    lines = text.splitlines()
    if len(lines) != 1:
        return None, [f"{len(lines)} output lines, expected 1"]
    try:
        report = json.loads(lines[0])
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    problems = []
    head = (report.get("schema"), report.get("kind"), report.get("graph"))
    if head != (1, "parameters", line):
        problems.append(f"header {head}")
    return report, problems + witness_problems(rows, report)
