"""Exhaustive verification sweep over all labeled graphs of small order.

Every published inequality and characterization handled by this package is
re-derived here as an executable check over exact solver output.  A sweep
covers every labeled graph up to a given order (all 2^C(n,2) edge masks,
nothing sampled) and reports any violation together with the instantiated
inequality, so a failure can be re-checked by hand from the graph6 string
alone.

Every check is invariant under relabeling, so the sweep evaluates one
representative per isomorphism class and counts its verdicts n!/|Aut| times,
once for each labeled member.  A class with a failing check is expanded back
into its labeled members, each reported under its own graph6 string with the
class's verdicts: every witness string is built from isomorphism invariants
(parameter values, degree classes, family tags), so a member's verdicts equal
its representative's.  The tests hold the class sweep to a labeled sweep that
checks every edge mask, verdicts included.

The closed-form bounds come from irregraph.bounds, which states each
published inequality once, in exact integers.  Only T4.1 keeps its own
formula, because CheckConfig can falsify it (below).

Checks take a CheckConfig so a deliberately falsified bound can be injected;
the sweep must then report violations, which demonstrates it can detect a
wrong theorem rather than rubber-stamping everything.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial
from typing import Iterator, Optional, Sequence, TextIO

from irregraph import bounds
from irregraph.constructions import evaluate as evaluate_construction
from irregraph.graph import (
    Graph,
    classify_degrees,
    complement,
    from_edge_mask,
    from_edges,
    graph6_from_edge_mask,
    isomorphism_classes,
    labeled_copies,
    pair_count,
    write_graph6,
)
from irregraph.params import alpha, alpha_ir, alpha_reg, gamma_ir, max_cut
from irregraph.recognizers import (
    Family,
    classify_gamma_extremal,
    classify_outerplanar_alpha1,
    classify_planar_alpha1,
    is_outerplanar,
    is_planar,
    satisfies_lemma31,
)

THEOREM_IDS = (
    "T2.1", "E1", "T2.2",
    "T2.3i", "T2.3ii", "T2.3iii", "T2.3b", "C2.4",
    "L3.1", "T3.2i", "T3.2ii", "T3.3", "C3.6",
    "T4.1", "T4.2", "C4.3", "T4.4i", "T4.4ii", "T4.5i", "T4.5ii",
    "T5.1i", "T5.1ii", "T5.1iii", "T5.1iv",
    "T6.1i", "T6.1ii", "T6.2i", "T6.2ii",
)

ENUMERATION_LIMIT = 8


@dataclass(frozen=True)
class CheckConfig:
    """Tunable constants inside the checks.

    t41_divisor replaces the 2 in the ceil(n/2) domination lower bound.  The
    default is the published value; setting 1 claims gamma_ir >= n, which is
    false for almost every graph and must make the sweep light up.
    """

    t41_divisor: int = 2

    def __post_init__(self) -> None:
        if self.t41_divisor < 1:
            raise ValueError("divisor must be >= 1")

    def t41_bound(self, n: int, Delta: int) -> int:
        return max(-(-n // self.t41_divisor), n - Delta)


DEFAULT_CONFIG = CheckConfig()


@dataclass(frozen=True)
class Verdict:
    theorem_id: str
    status: str  # pass | fail | not_applicable
    witness: Optional[str] = None

    def to_json(self) -> dict:
        out = {"theorem": self.theorem_id, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class TheoremReport:
    graph: str  # graph6 text
    verdicts: tuple[Verdict, ...]

    def __post_init__(self) -> None:
        ids = [v.theorem_id for v in self.verdicts]
        if ids != list(THEOREM_IDS):
            raise ValueError("verdicts must cover every theorem id exactly once")
        for v in self.verdicts:
            if v.status == "fail" and v.witness is None:
                raise ValueError("a failing verdict must carry a witness")

    @property
    def failures(self) -> tuple[Verdict, ...]:
        return tuple(v for v in self.verdicts if v.status == "fail")

    def to_json(self) -> dict:
        return {"graph": self.graph, "verdicts": [v.to_json() for v in self.verdicts]}


@dataclass(frozen=True)
class SweepSummary:
    n_max: int
    graphs_checked: int
    per_theorem: dict
    violations: tuple[TheoremReport, ...]
    wall_time_ms: int

    def __post_init__(self) -> None:
        fails = sum(c["fail"] for c in self.per_theorem.values())
        if (fails == 0) != (len(self.violations) == 0):
            raise ValueError("violation list inconsistent with fail counts")

    def to_json(self) -> dict:
        return self._payload([r.to_json() for r in self.violations])

    def _payload(self, violations) -> dict:
        return {
            "schema": 1,
            "kind": "sweep",
            "n_max": self.n_max,
            "graphs_checked": self.graphs_checked,
            "per_theorem": self.per_theorem,
            "violations": violations,
            "wall_time_ms": self.wall_time_ms,
        }

    def write_json(self, out: TextIO) -> None:
        """Write json.dumps(self.to_json(), indent=2) and a newline to out.

        The text is written piece by piece, one violation at a time.  The
        members of a violating class share one verdicts tuple, so the text
        around the graph is built once per tuple and reused; only the graph6
        string differs between members.
        """
        head, tail = _dumps_around(self._payload(_HOLE))
        out.write(head)
        if self.violations:
            around: dict[int, tuple[str, str]] = {}  # id of a verdicts tuple
            sep = "[\n"
            for report in self.violations:
                key = id(report.verdicts)  # self keeps every tuple alive
                if key not in around:
                    # an item of the top-level list sits two levels deep
                    around[key] = _dumps_around(
                        replace(report, graph=_HOLE).to_json(), "    "
                    )
                before, after = around[key]
                out.write(f"{sep}{before}{json.dumps(report.graph)}{after}")
                sep = ",\n"
            out.write("\n  ]")
        else:
            out.write("[]")
        out.write(f"{tail}\n")


# A value no payload holds: json.dumps writes it as "\u0000".
_HOLE = "\x00"


def _dumps_around(payload: dict, indent: str = "") -> tuple[str, str]:
    """json.dumps(payload, indent=2) before and after its one _HOLE value,
    with every line prefixed by indent."""
    text = indent + json.dumps(payload, indent=2).replace("\n", "\n" + indent)
    before, after = text.split(json.dumps(_HOLE))
    return before, after


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All labeled graphs of order n, once each, in edge-mask order."""
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"enumeration supports 0 <= n <= {ENUMERATION_LIMIT}")
    for mask in range(1 << pair_count(n)):
        yield from_edge_mask(n, mask)


# -- checks: one graph, one readable report -------------------------------


class _Ctx:
    """Everything the checks need about one graph, computed once."""

    __slots__ = (
        "g", "n", "m", "dc", "alpha", "alpha_ir", "alpha_reg",
        "gamma_ir", "beta", "alpha_ir_c", "gamma_ir_c", "inp",
    )

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.n
        self.m = g.m
        self.dc = classify_degrees(g)
        self.alpha = alpha(g).value
        self.alpha_ir = alpha_ir(g).value
        self.alpha_reg = alpha_reg(g).value
        self.gamma_ir = gamma_ir(g).value
        self.beta = max_cut(g).value
        gc = complement(g)
        self.alpha_ir_c = alpha_ir(gc).value
        self.gamma_ir_c = gamma_ir(gc).value
        self.inp = bounds.BoundInputs(
            n=self.n,
            m=self.m,
            delta=self.dc.delta,
            Delta=self.dc.Delta,
            beta=self.beta,
            span=self.dc.span,
            avg_degree=Fraction(2 * self.m, self.n),
        )


def _verdict(tid: str, ok: bool, witness: str) -> Verdict:
    if ok:
        return Verdict(tid, "pass")
    return Verdict(tid, "fail", witness)


def _na(tid: str) -> Verdict:
    return Verdict(tid, "not_applicable")


def _check_t21(c: _Ctx, cfg: CheckConfig) -> Verdict:
    ub = bounds.ub_alpha_ir_thm21(c.inp)
    return _verdict(
        "T2.1", 1 <= c.alpha_ir <= ub,
        f"alpha_ir={c.alpha_ir} outside [1, {ub}]",
    )


def _check_e1(c: _Ctx, cfg: CheckConfig) -> Verdict:
    ub = bounds.ub_alpha_ir_eq1(c.inp)
    return _verdict(
        "E1", c.alpha_ir <= ub,
        f"alpha_ir={c.alpha_ir} > {ub} (delta={c.dc.delta}, m={c.m})",
    )


def _check_t22(c: _Ctx, cfg: CheckConfig) -> Verdict:
    ub = bounds.ub_alpha_ir_thm22(c.inp)
    return _verdict(
        "T2.2", c.alpha_ir <= ub,
        f"alpha_ir={c.alpha_ir} > {ub} (delta={c.dc.delta}, beta={c.beta})",
    )


def _check_t23i(c: _Ctx, cfg: CheckConfig) -> Verdict:
    s = c.alpha_ir + c.alpha_reg
    return _verdict(
        "T2.3i", 2 <= s <= c.n + 1,
        f"alpha_ir+alpha_reg={s} outside [2, {c.n + 1}]",
    )


def _check_t23ii(c: _Ctx, cfg: CheckConfig) -> Verdict:
    p = c.alpha_ir * c.alpha_reg
    return _verdict(
        "T2.3ii", c.alpha <= p <= c.alpha**2,
        f"alpha_ir*alpha_reg={p} outside [alpha={c.alpha}, alpha^2={c.alpha ** 2}]",
    )


def _check_t23iii(c: _Ctx, cfg: CheckConfig) -> Verdict:
    if c.n < 4:
        return _na("T2.3iii")
    p = c.alpha_ir * c.alpha_reg
    cap = bounds.product_cap(c.n)
    return _verdict(
        "T2.3iii", 1 <= p <= cap,
        f"alpha_ir*alpha_reg={p} outside [1, {cap}]",
    )


def _check_t23b(c: _Ctx, cfg: CheckConfig) -> Verdict:
    attained = c.alpha_ir + c.alpha_reg == c.n + 1
    empty = c.m == 0
    return _verdict(
        "T2.3b", attained == empty,
        f"sum={c.alpha_ir + c.alpha_reg} attains n+1: {attained}, empty: {empty}",
    )


def _check_c24(c: _Ctx, cfg: CheckConfig) -> Verdict:
    if c.n < 4:
        return _na("C2.4")
    p = c.alpha_ir * c.alpha_reg
    cap = min(c.alpha**2, bounds.product_cap(c.n))
    return _verdict("C2.4", p <= cap, f"alpha_ir*alpha_reg={p} > {cap}")


def _check_l31(c: _Ctx, cfg: CheckConfig) -> Verdict:
    holds = satisfies_lemma31(c.g)
    one = c.alpha_ir == 1
    return _verdict(
        "L3.1", holds == one,
        f"degree-class structure holds: {holds}, alpha_ir=1: {one}",
    )


def _check_t32i(c: _Ctx, cfg: CheckConfig) -> Verdict:
    if c.alpha_ir != 1:
        return _na("T3.2i")
    for k, nk in c.dc.sizes.items():
        if nk < c.n - k:
            return Verdict(
                "T3.2i", "fail",
                f"degree class k={k} has n_k={nk} < n-k={c.n - k}",
            )
    return Verdict("T3.2i", "pass")


def _check_t32ii(c: _Ctx, cfg: CheckConfig) -> Verdict:
    if c.alpha_ir != 1:
        return _na("T3.2ii")
    ub = bounds.ub_span_thm32(c.dc.delta)
    return _verdict(
        "T3.2ii", c.dc.span <= ub,
        f"span={c.dc.span} > {ub} (delta={c.dc.delta})",
    )


def _check_t33(c: _Ctx, cfg: CheckConfig) -> Verdict:
    lhs = c.alpha_ir == 1 and is_planar(c.g)
    tag = classify_planar_alpha1(c.g)
    return _verdict(
        "T3.3", lhs == (tag is not None),
        f"planar with alpha_ir=1: {lhs}, family: {tag.family.value if tag else None}",
    )


def _check_c36(c: _Ctx, cfg: CheckConfig) -> Verdict:
    lhs = c.alpha_ir == 1 and is_outerplanar(c.g)
    tag = classify_outerplanar_alpha1(c.g)
    return _verdict(
        "C3.6", lhs == (tag is not None),
        f"outerplanar with alpha_ir=1: {lhs}, family: {tag.family.value if tag else None}",
    )


def _check_t41(c: _Ctx, cfg: CheckConfig) -> Verdict:
    bound = cfg.t41_bound(c.n, c.dc.Delta)
    return _verdict(
        "T4.1", c.gamma_ir >= bound,
        f"gamma_ir={c.gamma_ir} < max(ceil({c.n}/{cfg.t41_divisor}), "
        f"n-Delta={c.n - c.dc.Delta}) = {bound}",
    )


def _check_t42(c: _Ctx, cfg: CheckConfig) -> Verdict:
    lb = bounds.lb_gamma_ir_thm42(c.n, c.beta)
    return _verdict(
        "T4.2", c.gamma_ir >= lb,
        f"gamma_ir={c.gamma_ir} < {lb} (n={c.n}, beta={c.beta})",
    )


def _check_c43(c: _Ctx, cfg: CheckConfig) -> Verdict:
    # equality in gamma_ir >= n - sqrt(2m) holds exactly for empty graphs
    lb = bounds.lb_gamma_ir_cor43(c.n, c.inp.avg_degree)
    gap = c.n - c.gamma_ir
    eq = gap * gap == 2 * c.m
    empty = c.m == 0
    return _verdict(
        "C4.3", c.gamma_ir >= lb and eq == empty,
        f"gamma_ir={c.gamma_ir} vs {lb}; equality: {eq}, empty: {empty}",
    )


def _check_t44i(c: _Ctx, cfg: CheckConfig) -> Verdict:
    return _verdict(
        "T4.4i", (c.gamma_ir == c.n) == (c.m == 0),
        f"gamma_ir={c.gamma_ir}, n={c.n}, m={c.m}",
    )


def _check_t44ii(c: _Ctx, cfg: CheckConfig) -> Verdict:
    tag = classify_gamma_extremal(c.g)
    rhs = tag is not None and tag.family in (
        Family.ISOLATED_PLUS_STAR,
        Family.ISOLATED_PLUS_REGULAR,
    )
    return _verdict(
        "T4.4ii", (c.gamma_ir == c.n - 1) == rhs,
        f"gamma_ir={c.gamma_ir} vs n-1={c.n - 1}, "
        f"family: {tag.family.value if tag else None}",
    )


def _check_t45i(c: _Ctx, cfg: CheckConfig) -> Verdict:
    ub = bounds.ub_gamma_ir_thm45i(c.n, c.dc.span, c.dc.delta)
    if ub is None:
        return _na("T4.5i")
    k = c.n - ub
    return _verdict(
        "T4.5i", c.gamma_ir <= ub,
        f"span={c.dc.span} >= R({k},{k})={bounds.DEFAULT_RAMSEY[k]} and "
        f"delta={c.dc.delta} >= {k}, yet gamma_ir={c.gamma_ir} > n-{k}={ub}",
    )


def _check_t45ii(c: _Ctx, cfg: CheckConfig) -> Verdict:
    ub = bounds.ub_gamma_ir_thm45ii(c.n, c.dc.span, c.dc.delta)
    if ub is None:
        return _na("T4.5ii")
    return _verdict(
        "T4.5ii", c.gamma_ir <= ub,
        f"span={c.dc.span} >= 5 and delta={c.dc.delta} >= 3, "
        f"yet gamma_ir={c.gamma_ir} > n-3={ub}",
    )


def _check_t51i(c: _Ctx, cfg: CheckConfig) -> Verdict:
    cap = c.n + 1 if c.dc.delta == 0 else c.n
    s = c.alpha_ir + c.gamma_ir
    return _verdict(
        "T5.1i", s <= cap,
        f"alpha_ir+gamma_ir={s} > {cap} (delta={c.dc.delta})",
    )


def _check_t51ii(c: _Ctx, cfg: CheckConfig) -> Verdict:
    cap = bounds.product_cap(c.n + 1 if c.dc.delta == 0 else c.n)
    p = c.alpha_ir * c.gamma_ir
    return _verdict(
        "T5.1ii", p <= cap,
        f"alpha_ir*gamma_ir={p} > {cap} (delta={c.dc.delta})",
    )


def _check_t51iii(c: _Ctx, cfg: CheckConfig) -> Verdict:
    s = c.alpha_ir + c.gamma_ir_c
    return _verdict(
        "T5.1iii", s <= c.n + 1,
        f"alpha_ir+gamma_ir(comp)={s} > n+1={c.n + 1}",
    )


def _check_t51iv(c: _Ctx, cfg: CheckConfig) -> Verdict:
    cap = bounds.product_cap(c.n + 1)
    p = c.alpha_ir * c.gamma_ir_c
    return _verdict("T5.1iv", p <= cap, f"alpha_ir*gamma_ir(comp)={p} > {cap}")


def _check_t61i(c: _Ctx, cfg: CheckConfig) -> Verdict:
    if c.n < 2:
        return _na("T6.1i")
    s = c.alpha_ir + c.alpha_ir_c
    return _verdict(
        "T6.1i", 2 <= s <= c.n,
        f"alpha_ir+alpha_ir(comp)={s} outside [2, {c.n}]",
    )


def _check_t61ii(c: _Ctx, cfg: CheckConfig) -> Verdict:
    if c.n < 2:
        return _na("T6.1ii")
    p = c.alpha_ir * c.alpha_ir_c
    cap = bounds.product_cap(c.n)
    return _verdict(
        "T6.1ii", 1 <= p <= cap,
        f"alpha_ir*alpha_ir(comp)={p} outside [1, {cap}]",
    )


def _check_t62i(c: _Ctx, cfg: CheckConfig) -> Verdict:
    if c.n < 2:
        return _na("T6.2i")
    s = c.gamma_ir + c.gamma_ir_c
    low, high = 2 * ((c.n + 1) // 2), 2 * c.n - 1
    extremal = c.m == 0 or c.m == pair_count(c.n)
    ok = low <= s <= high and (s == high) == extremal
    return _verdict(
        "T6.2i", ok,
        f"gamma_ir+gamma_ir(comp)={s} vs [{low}, {high}], "
        f"attains top: {s == high}, empty-or-complete: {extremal}",
    )


def _check_t62ii(c: _Ctx, cfg: CheckConfig) -> Verdict:
    if c.n < 2:
        return _na("T6.2ii")
    p = c.gamma_ir * c.gamma_ir_c
    low, high = ((c.n + 1) // 2) ** 2, c.n * (c.n - 1)
    extremal = c.m == 0 or c.m == pair_count(c.n)
    ok = low <= p <= high and (p == high) == extremal
    return _verdict(
        "T6.2ii", ok,
        f"gamma_ir*gamma_ir(comp)={p} vs [{low}, {high}], "
        f"attains top: {p == high}, empty-or-complete: {extremal}",
    )


_CHECKS = (
    _check_t21, _check_e1, _check_t22,
    _check_t23i, _check_t23ii, _check_t23iii, _check_t23b, _check_c24,
    _check_l31, _check_t32i, _check_t32ii, _check_t33, _check_c36,
    _check_t41, _check_t42, _check_c43, _check_t44i, _check_t44ii,
    _check_t45i, _check_t45ii,
    _check_t51i, _check_t51ii, _check_t51iii, _check_t51iv,
    _check_t61i, _check_t61ii, _check_t62i, _check_t62ii,
)


def theorem_report(g: Graph, cfg: CheckConfig = DEFAULT_CONFIG) -> TheoremReport:
    """Evaluate every check on one graph."""
    if g.n < 1:
        raise ValueError("checks need at least one vertex")
    ctx = _Ctx(g)
    return TheoremReport(write_graph6(g), tuple(f(ctx, cfg) for f in _CHECKS))


# -- sweep driver -----------------------------------------------------------------


def _blank_counts() -> dict:
    return {tid: {"pass": 0, "fail": 0, "not_applicable": 0} for tid in THEOREM_IDS}


def _merge_counts(into: dict, part: dict) -> None:
    for tid, cell in part.items():
        for key, val in cell.items():
            into[tid][key] += val


def _sweep_order(n: int, cfg: CheckConfig):
    """Per-theorem counts and the violating (edge mask, verdicts) pairs of
    order n, in ascending mask order.

    One report per isomorphism class, weighted by its n!/|Aut| members; each
    member of a violating class carries its class's verdicts.
    """
    counts = _blank_counts()
    violating: list[tuple[int, tuple[Verdict, ...]]] = []
    for g, aut in isomorphism_classes(n):
        weight = factorial(n) // aut
        report = theorem_report(g, cfg)
        for v in report.verdicts:
            counts[v.theorem_id][v.status] += weight
        if report.failures:
            violating.extend((mask, report.verdicts) for mask in labeled_copies(g))
    violating.sort(key=lambda pair: pair[0])
    return counts, violating


def _sweep_order_scalar(n: int, cfg: CheckConfig):
    """Labeled reference for _sweep_order: one report per edge mask."""
    counts = _blank_counts()
    violating = []
    for mask in range(1 << pair_count(n)):
        report = theorem_report(from_edge_mask(n, mask), cfg)
        for v in report.verdicts:
            counts[v.theorem_id][v.status] += 1
        if report.failures:
            violating.append((mask, report.verdicts))
    return counts, violating


def verify_range(n_max: int, cfg: CheckConfig = DEFAULT_CONFIG) -> SweepSummary:
    """Check every theorem on every labeled graph of order 1..n_max.

    The order-0 graph is counted but carries no checks.  The result is
    deterministic.  Order 8 (268,435,456 labeled graphs, 12,346 classes)
    takes about half a minute on one core, mostly generating the classes.
    """
    if not 0 <= n_max <= ENUMERATION_LIMIT:
        raise ValueError(f"sweep budget is 0 <= n_max <= {ENUMERATION_LIMIT}")
    start = time.monotonic()
    counts = _blank_counts()
    graphs_checked = 1  # the single order-0 graph
    violations: list[TheoremReport] = []
    for n in range(1, n_max + 1):
        graphs_checked += 1 << pair_count(n)
        part_counts, violating = _sweep_order(n, cfg)
        _merge_counts(counts, part_counts)
        # verdicts are isomorphism-invariant, so each labeled member of a
        # violating class is reported with its class's verdicts tuple
        violations.extend(
            TheoremReport(graph6_from_edge_mask(n, mask), verdicts)
            for mask, verdicts in violating
        )
    violations.sort(key=lambda r: r.graph)
    wall = int((time.monotonic() - start) * 1000)
    return SweepSummary(n_max, graphs_checked, counts, tuple(violations), wall)


# -- sharpness suite ----------------------------------------------------------------


SHARPNESS_GRIDS: dict[str, tuple[dict, ...]] = {
    "clique_union": tuple(
        {"r": r, "t": t} for r in range(1, 5) for t in range(1, 5)
    ),
    "staircase_gamma": tuple({"n": n} for n in range(2, 15)),
    "alpha_sharp_bipartite": tuple(
        {"r": r, "t": t}
        for r in range(1, 4)
        for t in range(1, 7)
        if t * (t - 1) >= 2 * r * (r - 1)
    ),
    "alpha_sharp_clique": tuple(
        {"r": r, "t": t} for r in range(1, 6) for t in range(1, r + 1)
    ),
    "modstar": tuple(
        {"r": r, "t": t}
        for r in range(1, 4)
        for t in range(1, 7)
        if t * (t - 1) >= 2 * r * (r - 1)
    ),
    "product_extremal": tuple({"n": n} for n in range(4, 13)),
    "sum_extremal": tuple(
        {"n": n, "k": k} for n in range(2, 9) for k in range(2, n + 2)
    ),
    "ng_alpha": tuple({"n": n} for n in range(2, 13)),
    "ng_gamma": tuple({"n": n} for n in range(3, 13)),
    "relation_extremal": tuple(
        {"n": n, "case": case}
        for n in range(2, 13)
        for case in ("delta_pos", "delta_zero", "complement")
    ),
}


@dataclass(frozen=True)
class SharpnessSummary:
    families_run: tuple[str, ...]
    builds: int
    failures: tuple[dict, ...]
    wall_time_ms: int

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": "sharpness",
            "families_run": list(self.families_run),
            "builds": self.builds,
            "failures": list(self.failures),
            "wall_time_ms": self.wall_time_ms,
        }


def _corrupted_variant(report):
    """Drop one edge from the built graph; the claims must then fail."""
    edges = list(report.graph.edges())
    return from_edges(report.graph.n, edges[1:])


def sharpness_suite(
    families: Optional[Sequence[str]] = None,
    corrupt: bool = False,
) -> SharpnessSummary:
    """Re-verify every attained-with-equality claim across the whole grid.

    corrupt=True additionally re-checks the order-4 path construction with
    one edge removed, a negative control proving failures are detectable.
    """
    chosen = tuple(families) if families is not None else tuple(SHARPNESS_GRIDS)
    unknown = [f for f in chosen if f not in SHARPNESS_GRIDS]
    if unknown:
        raise ValueError(f"unknown families: {unknown}")
    start = time.monotonic()
    builds = 0
    failures: list[dict] = []
    for family in chosen:
        for params in SHARPNESS_GRIDS[family]:
            report = evaluate_construction(family, params)
            builds += 1
            if not report.ok:
                failures.append(_failure_entry(report))
    if corrupt:
        intact = evaluate_construction("ng_gamma", {"n": 4})
        bad = evaluate_construction(
            "ng_gamma", {"n": 4}, graph=_corrupted_variant(intact)
        )
        builds += 1
        if not bad.ok:
            failures.append(_failure_entry(bad))
    wall = int((time.monotonic() - start) * 1000)
    return SharpnessSummary(chosen, builds, tuple(failures), wall)


def _failure_entry(report) -> dict:
    return {
        "family": report.family,
        "params": report.params,
        "graph": write_graph6(report.graph),
        "failed_claims": [
            {"label": cl.label, "expected": cl.expected, "actual": cl.actual}
            for cl in report.failures
        ],
    }
