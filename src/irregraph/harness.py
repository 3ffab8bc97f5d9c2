"""Exhaustive verification sweep over all labeled graphs of small order.

Each of the 28 published facts the package checks is one row of a table,
evaluated over exact solver output by one evaluator.  An inequality row
names an integer value and its integer bounds, taken from irregraph.bounds
or, in T3.2i and the sum and product rows, written inline, a bound being
None where the fact's hypothesis fails; a characterization row names the
two sides of an "if and only if"; a few rows carry both.  Each row has a
witness template that the evaluator fills in only when the row fails, with
the instantiated inequality, so a failure can be re-checked by hand from the
graph6 string alone.  A failing verdict is the only one the evaluator
builds: each row's "pass" and "not_applicable" verdicts are built once, at
import, and every graph shares them.  A sweep covers every labeled graph up
to a given order (all 2^C(n,2) edge masks, nothing sampled).

Every check is invariant under relabeling, so verify_range checks one
member per isomorphism class and counts its verdicts n!/|Aut| times, once
for each labeled member.  Complementing maps the classes of an order onto
themselves and keeps |Aut|, and the Nordhaus-Gaddum rows read alpha_ir and
gamma_ir of the complement anyway.  So at each order the sweep visits only
the classes with 2m <= C(n,2), and checks each with 2m < C(n,2) together
with its complement: each side's complement values are the other side's
own, which makes 10 solves for the pair instead of 14.  A class with
2m = C(n,2) is checked alone; its complement's class is in the visited half
too.  Every order comes from one class walk capped at C(n_max,2)/2 edges
(graph._class_walk), so no order is held whole; a Graph is built only for
the classes checked.  Each checked side adds its weight n!/|Aut| to its
record (n, m, its verdict statuses), of which there are few.

The sweep runs as k shards of that walk (_sweep_shard), one per usable CPU
up to _MAX_WORKERS, from order _PARALLEL_FROM on and where the process can
fork safely; otherwise k = 1 and the one shard is the whole walk.  A shard
deals the entries of each order below n_max round-robin and keeps the
children of its own entries of order n_max - 1.  Shard 0 runs in the caller
and the others in forked children, each returning a plain tally: the
weight of each record and the violating sides, with their verdicts as
strings, which a child sends back through a pipe (irregraph.workers); an
exception in a child is raised again in the caller, with the same type and
arguments.  The merge (_merged) adds the tallies up, record by record, and
reads the per-row counts and the per-(n, m) weights off the sum: for every
order n and edge count m, the weights of the graphs checked with m edges
must add up to C(C(n,2), m), which checks the walk, the pairing and the
sharding on every run.

After the merge, in the caller, a class with a failing check is expanded
back into its labeled members (the complemented edge masks for a complement
side), each reported under its own graph6 string with the class's verdicts:
every witness string is built from isomorphism invariants (parameter
values, degree classes, family tags), so a member's verdicts equal its
representative's.  The members are the orbit
of the representative's edge mask, walked one coset of each S_k in S_(k+1)
at a time (graph.labeled_copies), so a class costs about n!/|Aut| swaps
rather than n! relabelings.  The orbit is walked once per class, for both
sides, and each violating side's members are encoded to graph6 in one call
(graph.graph6_from_edge_masks).  All members share one verdicts tuple, which
TheoremReport checks once per violating side instead of once per member.
The tests hold the class sweep to a labeled sweep that checks every edge
mask, verdicts included, and the evaluator to a reference that builds every
verdict anew from the rows.

verify_range and theorem_report take t41_divisor, the 2 in the published
ceil(n/2) domination lower bound (T4.1).  Setting it to 1 claims
gamma_ir >= n, which is false for almost every graph; the sweep must then
report violations, which demonstrates it can detect a wrong theorem rather
than rubber-stamping everything.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, replace
from math import comb, factorial
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, TextIO, Union

from irregraph import bounds
from irregraph.constructions import FAMILIES, evaluate as evaluate_construction
from irregraph.graph import (
    Graph,
    _class_walk,
    classify_degrees,
    complement,
    from_edges,
    graph6_from_edge_masks,
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

ENUMERATION_LIMIT = 8


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
        _check_verdicts(self.verdicts)

    @classmethod
    def _sharing(
        cls, verdicts: tuple[Verdict, ...], graphs: Iterable[str]
    ) -> list["TheoremReport"]:
        """One report per graph, all holding verdicts, which is checked
        once here instead of once per report."""
        _check_verdicts(verdicts)
        reports = []
        for graph in graphs:
            report = object.__new__(cls)
            # what the frozen dataclass's __init__ does, less __post_init__
            object.__setattr__(report, "graph", graph)
            object.__setattr__(report, "verdicts", verdicts)
            reports.append(report)
        return reports

    @property
    def failures(self) -> tuple[Verdict, ...]:
        return tuple(v for v in self.verdicts if v.status == "fail")

    def to_json(self) -> dict:
        return {"graph": self.graph, "verdicts": [v.to_json() for v in self.verdicts]}


def _check_verdicts(verdicts: tuple[Verdict, ...]) -> None:
    if [v.theorem_id for v in verdicts] != list(THEOREM_IDS):
        raise ValueError("verdicts must cover every theorem id exactly once")
    for v in verdicts:
        if v.status == "fail" and v.witness is None:
            raise ValueError("a failing verdict must carry a witness")


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
        text around the graph is built once per distinct verdicts value and
        reused; only the graph6 string differs between the reports that
        share it.  Hashing a verdicts tuple costs more than building a
        report's line, so the members of a violating class, which share one
        tuple object, find its text by id after the first lookup by value.
        """
        head, tail = _dumps_around(self._payload(_HOLE))
        out.write(head)
        if self.violations:
            by_value: dict[tuple[Verdict, ...], tuple[str, str]] = {}
            by_id: dict[int, tuple[str, str]] = {}  # self keeps every tuple alive
            sep = "[\n"
            for report in self.violations:
                around = by_id.get(id(report.verdicts))
                if around is None:
                    around = by_value.get(report.verdicts)
                    if around is None:
                        # an item of the top-level list sits two levels deep
                        around = by_value[report.verdicts] = _dumps_around(
                            replace(report, graph=_HOLE).to_json(), "    "
                        )
                    by_id[id(report.verdicts)] = around
                before, after = around
                out.write(f"{sep}{before}{_quoted_graph6(report.graph)}{after}")
                sep = ",\n"
            out.write("\n  ]")
        else:
            out.write("[]")
        out.write(f"{tail}\n")


def _quoted_graph6(text: str) -> str:
    """json.dumps(text) for a graph6 string: its bytes are 63..126, and of
    those JSON escapes only the backslash."""
    return '"' + text.replace("\\", "\\\\") + '"'


# A value no payload holds: json.dumps writes it as "\u0000".
_HOLE = "\x00"


def _dumps_around(payload: dict, indent: str = "") -> tuple[str, str]:
    """json.dumps(payload, indent=2) before and after its one _HOLE value,
    with every line prefixed by indent."""
    text = indent + json.dumps(payload, indent=2).replace("\n", "\n" + indent)
    before, after = text.split(json.dumps(_HOLE))
    return before, after


# -- checks: one table row per published fact -----------------------------


class _Solved(NamedTuple):
    """The solver values the rows read of one graph."""

    alpha: int
    alpha_ir: int
    alpha_reg: int
    gamma_ir: int
    beta: int


def _solve(g: Graph) -> _Solved:
    return _Solved(
        alpha(g).value, alpha_ir(g).value, alpha_reg(g).value,
        gamma_ir(g).value, max_cut(g).value,
    )


class _Ctx:
    """Everything the rows need about one graph: its solver values and the
    alpha_ir and gamma_ir of its complement, solved by the caller."""

    __slots__ = (
        "g", "t41_divisor", "n", "m", "dc", "alpha", "alpha_ir", "alpha_reg",
        "gamma_ir", "beta", "alpha_ir_c", "gamma_ir_c",
    )

    def __init__(
        self, g: Graph, t41_divisor: int, own: _Solved,
        alpha_ir_c: int, gamma_ir_c: int,
    ):
        self.g = g
        self.t41_divisor = t41_divisor
        self.n = g.n
        self.dc = classify_degrees(g)
        self.m = sum(self.dc.degrees) // 2
        self.alpha, self.alpha_ir, self.alpha_reg, self.gamma_ir, self.beta = own
        self.alpha_ir_c = alpha_ir_c
        self.gamma_ir_c = gamma_ir_c


class _Row(NamedTuple):
    """One published fact, checked on one graph c.

    The row holds when lo(c) <= value(c) <= hi(c), a missing end being open,
    and, if it has an iff, when the two sides iff(c, value, hi) returns are
    equal.  It is not applicable exactly when a bound is None where the
    fact's hypothesis fails, as irregraph.bounds signals it; the bounds are
    read first, so such a row computes nothing else.

    witness is a str.format template over the fields c, v (the value), lo,
    hi, lhs and rhs (the sides of the iff), or a callable taking them as
    keywords; it is filled in only when the row fails.  Every callable looks
    up the solvers, recognizers and bounds it uses by name when it runs, so
    a replacement installed in this module or in irregraph.bounds is the
    one called.
    """

    tid: str
    witness: Union[str, Callable[..., str]]
    value: Optional[Callable[[_Ctx], object]] = None
    lo: Optional[Callable[[_Ctx], Optional[int]]] = None
    hi: Optional[Callable[[_Ctx], Optional[int]]] = None
    iff: Optional[Callable[[_Ctx, object, Optional[int]], tuple]] = None


def _family(tag) -> Optional[str]:
    return tag.family.value if tag else None


def _extreme_edges(c: _Ctx) -> bool:
    return c.m == 0 or c.m == pair_count(c.n)


def _thin_class(c: _Ctx, **_) -> str:
    k, nk = next((k, nk) for k, nk in c.dc.sizes.items() if nk < c.n - k)
    return f"degree class k={k} has n_k={nk} < n-k={c.n - k}"


def _t45i_witness(c: _Ctx, v: int, hi: int, **_) -> str:
    k = c.n - hi
    return (
        f"span={c.dc.span} >= R({k},{k})={bounds.DEFAULT_RAMSEY[k]} and "
        f"delta={c.dc.delta} >= {k}, yet gamma_ir={v} > n-{k}={hi}"
    )


# the families with gamma_ir = n - 1 (T4.4ii)
_N_MINUS_1_FAMILIES = (
    Family.ISOLATED_PLUS_STAR.value,
    Family.ISOLATED_PLUS_REGULAR.value,
)

_ROWS = (
    _Row(
        "T2.1", "alpha_ir={v} outside [1, {hi}]",
        value=lambda c: c.alpha_ir,
        lo=lambda c: 1,
        hi=lambda c: bounds.ub_alpha_ir_thm21(c.n, c.m, c.dc.delta, c.dc.Delta),
    ),
    _Row(
        "E1", "alpha_ir={v} > {hi} (delta={c.dc.delta}, m={c.m})",
        value=lambda c: c.alpha_ir,
        hi=lambda c: bounds.ub_alpha_ir_eq1(c.m, c.dc.delta),
    ),
    _Row(
        "T2.2", "alpha_ir={v} > {hi} (delta={c.dc.delta}, beta={c.beta})",
        value=lambda c: c.alpha_ir,
        hi=lambda c: bounds.ub_alpha_ir_thm22(c.beta, c.dc.delta),
    ),
    _Row(
        "T2.3i", "alpha_ir+alpha_reg={v} outside [2, {hi}]",
        value=lambda c: c.alpha_ir + c.alpha_reg,
        lo=lambda c: 2,
        hi=lambda c: c.n + 1,
    ),
    _Row(
        "T2.3ii", "alpha_ir*alpha_reg={v} outside [alpha={lo}, alpha^2={hi}]",
        value=lambda c: c.alpha_ir * c.alpha_reg,
        lo=lambda c: c.alpha,
        hi=lambda c: c.alpha**2,
    ),
    _Row(
        "T2.3iii", "alpha_ir*alpha_reg={v} outside [1, {hi}]",
        value=lambda c: c.alpha_ir * c.alpha_reg,
        lo=lambda c: 1,
        hi=lambda c: bounds.product_cap(c.n) if c.n >= 4 else None,
    ),
    _Row(
        "T2.3b", "sum={v} attains n+1: {lhs}, empty: {rhs}",
        value=lambda c: c.alpha_ir + c.alpha_reg,
        iff=lambda c, v, hi: (v == c.n + 1, c.m == 0),
    ),
    _Row(
        "C2.4", "alpha_ir*alpha_reg={v} > {hi}",
        value=lambda c: c.alpha_ir * c.alpha_reg,
        hi=lambda c: min(c.alpha**2, bounds.product_cap(c.n)) if c.n >= 4 else None,
    ),
    _Row(
        "L3.1", "degree-class structure holds: {lhs}, alpha_ir=1: {rhs}",
        iff=lambda c, v, hi: (satisfies_lemma31(c.g), c.alpha_ir == 1),
    ),
    _Row(
        # n_k >= n - k for every degree class k
        "T3.2i", _thin_class,
        value=lambda c: min(k + nk for k, nk in c.dc.sizes.items()),
        lo=lambda c: c.n if c.alpha_ir == 1 else None,
    ),
    _Row(
        "T3.2ii", "span={v} > {hi} (delta={c.dc.delta})",
        value=lambda c: c.dc.span,
        hi=lambda c: bounds.ub_span_thm32(c.dc.delta) if c.alpha_ir == 1 else None,
    ),
    _Row(
        "T3.3", "planar with alpha_ir=1: {lhs}, family: {v}",
        value=lambda c: _family(classify_planar_alpha1(c.g)),
        iff=lambda c, v, hi: (
            c.alpha_ir == 1 and is_planar(c.g), v is not None
        ),
    ),
    _Row(
        "C3.6", "outerplanar with alpha_ir=1: {lhs}, family: {v}",
        value=lambda c: _family(classify_outerplanar_alpha1(c.g)),
        iff=lambda c, v, hi: (
            c.alpha_ir == 1 and is_outerplanar(c.g), v is not None
        ),
    ),
    _Row(
        "T4.1",
        lambda c, v, lo, **_: (
            f"gamma_ir={v} < max(ceil({c.n}/{c.t41_divisor}), "
            f"n-Delta={c.n - c.dc.Delta}) = {lo}"
        ),
        value=lambda c: c.gamma_ir,
        lo=lambda c: bounds.lb_gamma_ir_thm41(c.n, c.dc.Delta, c.t41_divisor),
    ),
    _Row(
        "T4.2", "gamma_ir={v} < {lo} (n={c.n}, beta={c.beta})",
        value=lambda c: c.gamma_ir,
        lo=lambda c: bounds.lb_gamma_ir_thm42(c.n, c.beta),
    ),
    _Row(
        # equality in gamma_ir >= n - sqrt(2m) holds exactly for empty graphs
        "C4.3", "gamma_ir={v} vs {lo}; equality: {lhs}, empty: {rhs}",
        value=lambda c: c.gamma_ir,
        lo=lambda c: bounds.lb_gamma_ir_cor43(c.n, c.m),
        iff=lambda c, v, hi: ((c.n - v) ** 2 == 2 * c.m, c.m == 0),
    ),
    _Row(
        "T4.4i", "gamma_ir={v}, n={c.n}, m={c.m}",
        value=lambda c: c.gamma_ir,
        iff=lambda c, v, hi: (v == c.n, c.m == 0),
    ),
    _Row(
        "T4.4ii",
        lambda c, v, **_: f"gamma_ir={c.gamma_ir} vs n-1={c.n - 1}, family: {v}",
        value=lambda c: _family(classify_gamma_extremal(c.g)),
        iff=lambda c, v, hi: (c.gamma_ir == c.n - 1, v in _N_MINUS_1_FAMILIES),
    ),
    _Row(
        "T4.5i", _t45i_witness,
        value=lambda c: c.gamma_ir,
        hi=lambda c: bounds.ub_gamma_ir_thm45i(c.n, c.dc.span, c.dc.delta),
    ),
    _Row(
        "T4.5ii",
        "span={c.dc.span} >= 5 and delta={c.dc.delta} >= 3, "
        "yet gamma_ir={v} > n-3={hi}",
        value=lambda c: c.gamma_ir,
        hi=lambda c: bounds.ub_gamma_ir_thm45ii(c.n, c.dc.span, c.dc.delta),
    ),
    _Row(
        "T5.1i", "alpha_ir+gamma_ir={v} > {hi} (delta={c.dc.delta})",
        value=lambda c: c.alpha_ir + c.gamma_ir,
        hi=lambda c: c.n + 1 if c.dc.delta == 0 else c.n,
    ),
    _Row(
        "T5.1ii", "alpha_ir*gamma_ir={v} > {hi} (delta={c.dc.delta})",
        value=lambda c: c.alpha_ir * c.gamma_ir,
        hi=lambda c: bounds.product_cap(c.n + 1 if c.dc.delta == 0 else c.n),
    ),
    _Row(
        "T5.1iii", "alpha_ir+gamma_ir(comp)={v} > n+1={hi}",
        value=lambda c: c.alpha_ir + c.gamma_ir_c,
        hi=lambda c: c.n + 1,
    ),
    _Row(
        "T5.1iv", "alpha_ir*gamma_ir(comp)={v} > {hi}",
        value=lambda c: c.alpha_ir * c.gamma_ir_c,
        hi=lambda c: bounds.product_cap(c.n + 1),
    ),
    _Row(
        "T6.1i", "alpha_ir+alpha_ir(comp)={v} outside [2, {hi}]",
        value=lambda c: c.alpha_ir + c.alpha_ir_c,
        lo=lambda c: 2,
        hi=lambda c: c.n if c.n >= 2 else None,
    ),
    _Row(
        "T6.1ii", "alpha_ir*alpha_ir(comp)={v} outside [1, {hi}]",
        value=lambda c: c.alpha_ir * c.alpha_ir_c,
        lo=lambda c: 1,
        hi=lambda c: bounds.product_cap(c.n) if c.n >= 2 else None,
    ),
    _Row(
        # the top is attained exactly by the empty and the complete graph
        "T6.2i",
        "gamma_ir+gamma_ir(comp)={v} vs [{lo}, {hi}], "
        "attains top: {lhs}, empty-or-complete: {rhs}",
        value=lambda c: c.gamma_ir + c.gamma_ir_c,
        lo=lambda c: 2 * ((c.n + 1) // 2),
        hi=lambda c: 2 * c.n - 1 if c.n >= 2 else None,
        iff=lambda c, v, hi: (v == hi, _extreme_edges(c)),
    ),
    _Row(
        "T6.2ii",
        "gamma_ir*gamma_ir(comp)={v} vs [{lo}, {hi}], "
        "attains top: {lhs}, empty-or-complete: {rhs}",
        value=lambda c: c.gamma_ir * c.gamma_ir_c,
        lo=lambda c: ((c.n + 1) // 2) ** 2,
        hi=lambda c: c.n * (c.n - 1) if c.n >= 2 else None,
        iff=lambda c, v, hi: (v == hi, _extreme_edges(c)),
    ),
)

THEOREM_IDS = tuple(row.tid for row in _ROWS)


def _plain(row: _Row) -> tuple:
    """row as the plain tuple _evaluate unpacks: tid, value, lo, hi, iff,
    the witness as one callable taking keywords, and the row's "pass" and
    "not_applicable" verdicts, built once here and shared by every graph."""
    w = row.witness
    return (
        row.tid, row.value, row.lo, row.hi, row.iff,
        w.format if isinstance(w, str) else w,
        Verdict(row.tid, "pass"), Verdict(row.tid, "not_applicable"),
    )


_TABLE = tuple(_plain(row) for row in _ROWS)
# the shared verdicts by (theorem id, status)
_SHARED = {(v.theorem_id, v.status): v for row in _TABLE for v in row[6:]}


def _evaluate(row: tuple, c: _Ctx) -> Verdict:
    """The verdict of one _TABLE row on one graph.  Only a failing verdict is
    built here, with its witness; the others are the row's shared ones."""
    tid, value, lo_of, hi_of, iff, witness, passed, not_applicable = row
    lo = lo_of(c) if lo_of else None
    hi = hi_of(c) if hi_of else None
    if (lo_of and lo is None) or (hi_of and hi is None):
        return not_applicable
    v = value(c) if value else None
    lhs, rhs = iff(c, v, hi) if iff else (None, None)
    if lhs == rhs and (lo is None or lo <= v) and (hi is None or v <= hi):
        return passed
    return Verdict(tid, "fail", witness(c=c, v=v, lo=lo, hi=hi, lhs=lhs, rhs=rhs))


def _row_verdicts(c: _Ctx) -> tuple[Verdict, ...]:
    return tuple([_evaluate(row, c) for row in _TABLE])


def _verdicts(g: Graph, t41_divisor: int) -> tuple[Verdict, ...]:
    """The verdict of every row on one graph, in THEOREM_IDS order."""
    gc = complement(g)
    return _row_verdicts(
        _Ctx(g, t41_divisor, _solve(g), alpha_ir(gc).value, gamma_ir(gc).value)
    )


def _pair_verdicts(g: Graph, t41_divisor: int) -> tuple[tuple[Verdict, ...], ...]:
    """_verdicts of g and of its complement, from 10 solves instead of 14:
    each side's complement values are the other side's own."""
    gc = complement(g)
    own, own_c = _solve(g), _solve(gc)
    return (
        _row_verdicts(_Ctx(g, t41_divisor, own, own_c.alpha_ir, own_c.gamma_ir)),
        _row_verdicts(_Ctx(gc, t41_divisor, own_c, own.alpha_ir, own.gamma_ir)),
    )


def theorem_report(g: Graph, t41_divisor: int = 2) -> TheoremReport:
    """Evaluate every row of the table on one graph."""
    if g.n < 1:
        raise ValueError("checks need at least one vertex")
    return TheoremReport(write_graph6(g), _verdicts(g, t41_divisor))


# -- sweep driver -----------------------------------------------------------------


def _blank_counts() -> dict:
    return {tid: {"pass": 0, "fail": 0, "not_applicable": 0} for tid in THEOREM_IDS}


# verify_range forks worker shards from this order on.  `verify --n-max N`
# in a fresh process, one shard against two, medians of 12 alternating runs
# on a 2-vCPU Xeon, process wall time (the payload's wall_time_ms in
# brackets): 124 vs 134 ms (30 vs 38) at N = 6, 516 vs 531 ms (94 vs 106)
# with --t41-divisor 1, whose time goes to expanding violations in the
# caller, and 262 vs 289 ms (167 vs 190) at 7, where two shards no longer
# pay since the subset tables made the solves cheaper.
_PARALLEL_FROM = 7
# The most shards verify_range runs at once: two, the only count measured
# end to end, on a 2-vCPU Xeon.  Two shards against one: verify_range(8) in
# process 1.78-2.02 -> 1.07-1.59 s, five alternating fresh-process runs
# each; verify_range(9) 92 -> 61 s before the subset tables.  Run side by
# side, shards slow each other: per-class costs measured one at a time
# predicted 1.8 times, not 1.5.  More shards wait for a host with more CPUs
# to measure them.
_MAX_WORKERS = 2


def _workers(n_max: int) -> int:
    """How many shards verify_range splits an n_max sweep into: from
    _PARALLEL_FROM on, one per usable CPU where the process can fork safely
    (irregraph.workers), else 1."""
    if n_max < _PARALLEL_FROM:
        return 1
    from irregraph.workers import usable_workers

    return usable_workers(_MAX_WORKERS)


def _sweep_shard(n_max: int, t41_divisor: int, shard: tuple[int, int]) -> tuple:
    """The tally of one shard of the sweep (graph._class_walk's shard), in
    plain ints, tuples and strings: the labeled weight of the checked sides
    by record (n, m, their statuses in THEOREM_IDS order), and each failing
    side as (n, rows, flip, verdicts), verdicts as (theorem id, status, witness).
    """
    weights = {}
    failed_sides = []
    for rows, lab in _class_walk(n_max, pair_count(n_max) // 2, shard):
        n = len(rows)
        m = sum(map(int.bit_count, rows)) // 2
        pairs = pair_count(n)
        if n == 0 or 2 * m > pairs:  # no checks, or checked as a complement side
            continue
        g = Graph(n, rows)
        weight = factorial(n) // lab.aut
        if 2 * m == pairs:  # the class of the complement is in this half too
            sides = [(m, 0, _verdicts(g, t41_divisor))]
        else:  # the complement's members are g's masks with every pair flipped
            mine, theirs = _pair_verdicts(g, t41_divisor)
            sides = [(m, 0, mine), (pairs - m, (1 << pairs) - 1, theirs)]
        for edges, flip, verdicts in sides:
            statuses = tuple([v.status for v in verdicts])
            record = (n, edges, statuses)
            weights[record] = weights.get(record, 0) + weight
            if "fail" in statuses:
                plain = tuple((v.theorem_id, v.status, v.witness) for v in verdicts)
                failed_sides.append((n, tuple(rows), flip, plain))
    return weights, failed_sides


def _sweep_shards(n_max: int, t41_divisor: int, k: int) -> list[tuple]:
    """The tallies of the k shards of the sweep, shard 0 from this process
    and the others from forked children (irregraph.workers)."""
    from irregraph.workers import forked_map

    return forked_map(lambda i: _sweep_shard(n_max, t41_divisor, (i, k)), k)


def _merged(n_max: int, tallies: list[tuple]) -> tuple[dict, list[TheoremReport]]:
    """The per-row counts and the violation reports of the whole sweep, read
    off the sum of its shards' weights.  AssertionError if the weights of
    some order and edge count m do not add up to C(C(n,2), m)."""
    weights = Counter()
    failed_sides = []
    for shard_weights, shard_failed in tallies:
        weights.update(shard_weights)
        failed_sides += shard_failed
    counts = _blank_counts()
    cells = [counts[tid] for tid in THEOREM_IDS]  # the order of every statuses
    by_m = Counter()
    for (n, m, statuses), weight in weights.items():
        by_m[n, m] += weight
        for cell, status in zip(cells, statuses):
            cell[status] += weight
    for n in range(1, n_max + 1):
        for m in range(pair_count(n) + 1):
            if by_m[n, m] != comb(pair_count(n), m):
                raise AssertionError(
                    f"order {n}, m={m}: class weights add up to {by_m[n, m]}, "
                    f"not {comb(pair_count(n), m)}"
                )
    violations: list[TheoremReport] = []
    orbit_of = members = None  # the orbit is walked once for both sides
    for n, rows, flip, plain in failed_sides:
        if rows != orbit_of:
            orbit_of, members = rows, labeled_copies(Graph(n, rows))
        graphs = graph6_from_edge_masks(n, [mask ^ flip for mask in members])
        verdicts = tuple(_SHARED.get(v[:2]) or Verdict(*v) for v in plain)
        violations.extend(TheoremReport._sharing(verdicts, graphs))
    violations.sort(key=lambda r: r.graph)
    return counts, violations


def verify_range(n_max: int, t41_divisor: int = 2) -> SweepSummary:
    """Check every theorem on every labeled graph of order 1..n_max.

    Violations are sorted by graph6.  AssertionError means the class weights
    of some order and edge count m do not add up to C(C(n,2), m).  The
    order-0 graph is counted but carries no checks.  The result is
    deterministic, and the same for any number of shards.
    """
    if not 0 <= n_max <= ENUMERATION_LIMIT:
        raise ValueError(f"sweep budget is 0 <= n_max <= {ENUMERATION_LIMIT}")
    if t41_divisor < 1:
        raise ValueError("divisor must be >= 1")
    start = time.monotonic()
    tallies = _sweep_shards(n_max, t41_divisor, _workers(n_max))
    counts, violations = _merged(n_max, tallies)
    graphs_checked = sum(1 << pair_count(n) for n in range(n_max + 1))
    wall = int((time.monotonic() - start) * 1000)
    return SweepSummary(n_max, graphs_checked, counts, tuple(violations), wall)


# -- sharpness suite ----------------------------------------------------------------


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

    families names FAMILIES rows, each at most once; None runs them all.
    corrupt=True additionally re-checks the order-4 path construction with
    one edge removed, a negative control proving failures are detectable.
    """
    chosen = tuple(families) if families is not None else tuple(FAMILIES)
    unknown = [f for f in chosen if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown families: {unknown}")
    repeated = sorted({f for f in chosen if chosen.count(f) > 1})
    if repeated:
        raise ValueError(f"repeated families: {repeated}")
    start = time.monotonic()
    builds = 0
    failures: list[dict] = []
    for family in chosen:
        for params in FAMILIES[family].grid:
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
