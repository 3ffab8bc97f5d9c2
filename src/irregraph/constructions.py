"""Parameterized extremal constructions with machine-checked claims.

Every builder here realizes a family of graphs that attains one of the
published bounds with equality.  A builder never trusts the closed-form
argument: it constructs the graph, runs the exact solvers on it, and raises
ConstructionError if any claimed value is off.  The claim evaluation is also
exposed separately (evaluate / FAMILIES) so a verification sweep can collect
failures in bulk, or re-check a deliberately corrupted graph, without dying
on the first assertion.

Edge assignment conventions: when a construction says a vertex receives some
number of neighbors on the other side without naming them, the default is the
prefix rule (lowest indices).  The three constructions whose minimum-degree
claims force balanced assignment (build_alpha_sharp_bipartite,
build_alpha_sharp_clique, build_modstar) use a rolling round-robin pointer
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from irregraph.bounds import BoundInputs, product_cap, ub_alpha_ir_thm22
from irregraph.graph import (
    Graph,
    VertexSet,
    classify_degrees,
    complement,
    complete_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    path_graph,
)
from irregraph.params import (
    alpha_ir,
    alpha_reg,
    gamma_ir,
    is_irregular_independent,
    is_regular_independent,
)


class ConstructionError(ValueError):
    """A built graph failed one of its claimed parameter values."""


@dataclass(frozen=True)
class Claim:
    """A claimed integer value and the measured one.  A radical bound is
    measured as its exact value, or None when that value is not an integer."""

    label: str
    expected: int
    actual: Optional[int]

    @property
    def ok(self) -> bool:
        return self.actual == self.expected

    def __str__(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        return f"{self.label}: expected {self.expected}, got {self.actual} [{mark}]"


@dataclass(frozen=True)
class ConstructionReport:
    family: str
    params: dict
    graph: Graph
    claims: tuple[Claim, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.claims)

    @property
    def failures(self) -> tuple[Claim, ...]:
        return tuple(c for c in self.claims if not c.ok)


def _finish(family: str, params: dict, graph: Graph, claims) -> Graph:
    report = ConstructionReport(family, params, graph, tuple(claims))
    if not report.ok:
        lines = "; ".join(str(c) for c in report.failures)
        raise ConstructionError(f"{family}{params}: {lines}")
    return graph


# -- profiles and schedules ---------------------------------------------------


_PROFILE_MODES = ("asc", "asc0", "desc")


@dataclass(frozen=True)
class StaircaseProfile:
    """Degree prescription for the v-side of a bipartite staircase.

    v_i receives degree_of(i) u-neighbors: i (asc), i-1 (asc0), or k-i+1
    (desc), for i in 1..t against k u-vertices.
    """

    k: int
    t: int
    mode: str = "asc"

    def __post_init__(self) -> None:
        if self.k < 1 or self.t < 1:
            raise ValueError("staircase needs k >= 1 and t >= 1")
        if self.mode not in _PROFILE_MODES:
            raise ValueError(f"mode must be one of {_PROFILE_MODES}")
        degs = [self.degree_of(i) for i in (1, self.t)]
        if min(degs) < 0 or max(degs) > self.k:
            raise ValueError("profile degree leaves [0, k]")

    def degree_of(self, i: int) -> int:
        if not 1 <= i <= self.t:
            raise ValueError("index outside [1, t]")
        if self.mode == "asc":
            return i
        if self.mode == "asc0":
            return i - 1
        return self.k - i + 1


@dataclass(frozen=True)
class ModStarSchedule:
    """Interval schedule handing v_i the w-indices s_{i-1}+1 .. s_i, reduced
    by the to-k modulus that maps multiples of k to k instead of 0."""

    r: int
    t: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.t < 1:
            raise ValueError("schedule needs r >= 1 and t >= 1")
        if self.t * (self.t - 1) < 2 * self.r * (self.r - 1):
            raise ValueError("schedule requires t(t-1) >= 2r(r-1)")

    @property
    def k(self) -> int:
        return self.r + self.t - 1

    def s(self, i: int) -> int:
        # s_i = sum_{j=0}^{i-1} (r + j)
        return i * self.r + i * (i - 1) // 2


def _mod_star(j: int, k: int) -> int:
    """1-based modulus: multiples of k map to k, never to 0."""
    m = j % k
    return k if m == 0 else m


# -- the bipartite staircase -----------------------------------------------------


def build_staircase(profile: StaircaseProfile, assignment: str = "prefix") -> Graph:
    """Bipartite graph: k u-vertices (indices 0..k-1), then t v-vertices,
    v_i wired to degree_of(i) u's by prefix or by a rolling round-robin."""
    if assignment not in ("prefix", "round_robin"):
        raise ValueError("assignment must be 'prefix' or 'round_robin'")
    k, t = profile.k, profile.t
    edges = []
    pointer = 0
    for i in range(1, t + 1):
        d = profile.degree_of(i)
        v = k + i - 1
        if assignment == "prefix":
            targets = range(d)
        else:
            targets = [(pointer + j) % k for j in range(d)]
            pointer = (pointer + d) % k
        edges.extend((u, v) for u in targets)
    g = from_edges(k + t, edges)
    claims = [
        Claim("u_side_internal_edges", 0, sum(1 for u, v in g.edges() if u < k and v < k)),
        Claim("v_side_internal_edges", 0, sum(1 for u, v in g.edges() if u >= k and v >= k)),
    ]
    claims += [
        Claim(f"v{i}_degree", profile.degree_of(i), g.degree(k + i - 1))
        for i in range(1, t + 1)
    ]
    return _finish("staircase", {"k": k, "t": t, "mode": profile.mode}, g, claims)


# -- constructions with parameter claims --------------------------------------------


def _raw_clique_union(r: int, t: int) -> Graph:
    g = empty_graph(0)
    for size in range(r, r + t):
        g = disjoint_union(g, complete_graph(size))
    return g


def _claims_clique_union(g: Graph, r: int, t: int) -> list[Claim]:
    dc = classify_degrees(g)
    return [
        Claim("alpha_ir", t, alpha_ir(g).value),
        Claim("degree_spread_plus_one", t, dc.Delta - dc.delta + 1),
    ]


def build_clique_union(r: int, t: int) -> Graph:
    """Disjoint cliques of sizes r, r+1, ..., r+t-1; alpha_ir comes out t."""
    if r < 1 or t < 1:
        raise ValueError("need r >= 1 and t >= 1")
    g = _raw_clique_union(r, t)
    return _finish("clique_union", {"r": r, "t": t}, g, _claims_clique_union(g, r, t))


def _raw_alpha_sharp_bipartite(r: int, t: int) -> Graph:
    k = r + t - 1
    edges = []
    pointer = 0
    for i in range(1, t + 1):
        d = r + i - 1
        v = k + i - 1
        edges.extend(((pointer + j) % k, v) for j in range(d))
        pointer = (pointer + d) % k
    return from_edges(k + t, edges)


def _claims_alpha_sharp_bipartite(g: Graph, r: int, t: int) -> list[Claim]:
    dc = classify_degrees(g)
    n = g.n
    return [
        Claim("delta", r, dc.delta),
        Claim("alpha_ir", t, alpha_ir(g).value),
        Claim("half_bound", t, (n - dc.delta + 1) // 2),
    ]


def build_alpha_sharp_bipartite(r: int, t: int) -> Graph:
    """Bipartite graph attaining the floor((n - delta + 1)/2) ceiling.

    k = r+t-1 w-vertices; v_i receives r+i-1 w-neighbors round-robin.  The
    balance precondition t(t-1) >= 2r(r-1) is what makes delta equal r.
    """
    if r < 1 or t < 1:
        raise ValueError("need r >= 1 and t >= 1")
    if t * (t - 1) < 2 * r * (r - 1):
        raise ValueError("requires t(t-1) >= 2r(r-1), otherwise delta < r")
    g = _raw_alpha_sharp_bipartite(r, t)
    return _finish(
        "alpha_sharp_bipartite",
        {"r": r, "t": t},
        g,
        _claims_alpha_sharp_bipartite(g, r, t),
    )


def _raw_alpha_sharp_clique(r: int, t: int) -> Graph:
    edges = [(u, v) for v in range(r) for u in range(v)]
    pointer = 0
    for i in range(1, t + 1):
        d = r - t + i
        v = r + i - 1
        edges.extend(((pointer + j) % r, v) for j in range(d))
        pointer = (pointer + d) % r
    return from_edges(r + t, edges)


def _claims_alpha_sharp_clique(g: Graph, r: int, t: int) -> list[Claim]:
    n, m = g.n, g.m
    radicand = 2 * n * n - 2 * n - 4 * m + 1
    # the Thm 2.1 radical (1 + sqrt(radicand))/2 is exactly t when
    # radicand = (2t - 1)^2
    root = math.isqrt(radicand)
    radical = (1 + root) // 2 if root * root == radicand else None
    return [
        Claim("alpha_ir", t, alpha_ir(g).value),
        Claim("radical_bound", t, radical),
    ]


def build_alpha_sharp_clique(r: int, t: int) -> Graph:
    """K_r plus t outside vertices wired so the quadratic-radical ceiling on
    alpha_ir collapses to the integer t and is attained."""
    if not 1 <= t <= r:
        raise ValueError("need r >= t >= 1")
    g = _raw_alpha_sharp_clique(r, t)
    return _finish(
        "alpha_sharp_clique",
        {"r": r, "t": t},
        g,
        _claims_alpha_sharp_clique(g, r, t),
    )


def _raw_modstar(sched: ModStarSchedule) -> Graph:
    k, t = sched.k, sched.t
    edges = []
    for i in range(1, t + 1):
        v = k + i - 1
        for j in range(sched.s(i - 1) + 1, sched.s(i) + 1):
            edges.append((_mod_star(j, k) - 1, v))
    return from_edges(k + t, edges)


def _claims_modstar(g: Graph, sched: ModStarSchedule) -> list[Claim]:
    r, t = sched.r, sched.t
    inp = BoundInputs.from_graph(g)
    # the Thm 2.2 bound is exactly ub when ub(ub + 2delta - 1) = 2beta
    ub = ub_alpha_ir_thm22(inp)
    radical = ub if ub * (ub + 2 * inp.delta - 1) == 2 * inp.beta else None
    return [
        Claim("delta", r, inp.delta),
        Claim("m", t * (2 * r + t - 1) // 2, g.m),
        Claim("beta_equals_m", g.m, inp.beta),
        Claim("alpha_ir", t, alpha_ir(g).value),
        Claim("cut_radical_bound", t, radical),
    ]


def build_modstar(sched: ModStarSchedule) -> Graph:
    """Interval-schedule bipartite graph attaining the maximum-cut radical
    bound on alpha_ir exactly."""
    g = _raw_modstar(sched)
    return _finish(
        "modstar",
        {"r": sched.r, "t": sched.t},
        g,
        _claims_modstar(g, sched),
    )


def _product_extremal_parts(n: int) -> tuple[int, list[tuple[int, int, int]], int]:
    """Shared plan for the four residues: X size, pair assignments, full list.

    Returns (x_size, pairs, full_vertex) where pairs holds (j, partner, take)
    with v_j receiving the first `take` Y-vertices and the partner the rest,
    and full_vertex is the X-index wired to all of Y (or -1).
    """
    if n % 4 == 0:
        x = n // 2
        pairs = [(j, x - j + 1, j - 1) for j in range(1, n // 4 + 1)]
        return x, pairs, -1
    if n % 4 == 1:
        x = (n - 1) // 2
        pairs = [(j, x - j + 1, j) for j in range(1, (n - 1) // 4 + 1)]
        return x, pairs, -1
    if n % 4 == 2:
        x = n // 2
        pairs = [(j, x - j, j) for j in range(1, (x - 1) // 2 + 1)]
        return x, pairs, x
    x = (n + 1) // 2
    pairs = [(j, x - j + 1, j - 1) for j in range(1, (n + 1) // 4 + 1)]
    return x, pairs, -1


def _raw_product_extremal(n: int) -> tuple[Graph, VertexSet, VertexSet]:
    x_size, pairs, full_vertex = _product_extremal_parts(n)
    y_size = n - x_size
    edges = []
    for j, partner, take in pairs:
        for y in range(take):
            edges.append((j - 1, x_size + y))
        for y in range(take, y_size):
            edges.append((partner - 1, x_size + y))
    if full_vertex > 0:
        for y in range(y_size):
            edges.append((full_vertex - 1, x_size + y))
    g = from_edges(n, edges)
    x_set = VertexSet(n, (1 << x_size) - 1)
    y_set = VertexSet(n, ((1 << n) - 1) ^ x_set.mask)
    return g, x_set, y_set


def _claims_product_extremal(
    g: Graph, x_set: VertexSet, y_set: VertexSet, n: int
) -> list[Claim]:
    return [
        Claim("x_irregular_independent", 1, int(is_irregular_independent(g, x_set))),
        Claim("y_regular_independent", 1, int(is_regular_independent(g, y_set))),
        Claim(
            "alpha_ir_times_alpha_reg",
            product_cap(n),
            alpha_ir(g).value * alpha_reg(g).value,
        ),
    ]


def build_product_extremal(n: int) -> Graph:
    """Split [n] into an irregular independent X and a regular independent Y
    so that alpha_ir times alpha_reg reaches floor(n/2) ceil(n/2)."""
    if n < 4:
        raise ValueError("needs n >= 4")
    g, x_set, y_set = _raw_product_extremal(n)
    return _finish(
        "product_extremal",
        {"n": n},
        g,
        _claims_product_extremal(g, x_set, y_set, n),
    )


def _raw_sum_extremal(n: int, k: int) -> Graph:
    return disjoint_union(empty_graph(k - 2), complete_graph(n - k + 2))


def _claims_sum_extremal(g: Graph, n: int, k: int) -> list[Claim]:
    return [
        Claim(
            "alpha_ir_plus_alpha_reg",
            k,
            alpha_ir(g).value + alpha_reg(g).value,
        )
    ]


def build_sum_extremal(n: int, k: int) -> Graph:
    """E_{k-2} with a clique on the other n-k+2 vertices; the two independence
    numbers sum to exactly k, for any 2 <= k <= n+1."""
    if not 2 <= k <= n + 1:
        raise ValueError("needs 2 <= k <= n+1")
    g = _raw_sum_extremal(n, k)
    return _finish("sum_extremal", {"n": n, "k": k}, g, _claims_sum_extremal(g, n, k))


def _raw_ng_alpha(n: int) -> Graph:
    k = (n + 1) // 2
    l = n // 2
    edges = [(k + a, k + b) for b in range(l) for a in range(b)]
    for i in range(1, k + 1):
        edges.extend((i - 1, k + j) for j in range(i - 1))
    return from_edges(n, edges)


def _claims_ng_alpha(g: Graph, n: int) -> list[Claim]:
    a, ac = alpha_ir(g).value, alpha_ir(complement(g)).value
    return [
        Claim("alpha_ir_sum_with_complement", n, a + ac),
        Claim("alpha_ir_product_with_complement", product_cap(n), a * ac),
    ]


def build_ng_alpha(n: int) -> Graph:
    """Clique of floor(n/2) v's plus ceil(n/2) u's on a prefix staircase; the
    irregular independence numbers of the graph and its complement add to n."""
    if n < 2:
        raise ValueError("needs n >= 2")
    g = _raw_ng_alpha(n)
    return _finish("ng_alpha", {"n": n}, g, _claims_ng_alpha(g, n))


def _raw_ng_gamma(n: int) -> Graph:
    if n % 2 == 1:
        k = (n - 1) // 2
        # u_1..u_k then v_1..v_{k+1}; u_i adjacent to v_1..v_i
        edges = [
            (i - 1, k + j - 1) for i in range(1, k + 1) for j in range(1, i + 1)
        ]
        return from_edges(n, edges)
    if n == 4:
        return path_graph(4)
    if n == 6:
        return from_edges(6, [(0, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
    k = n // 2
    # u_i (i != 2) adjacent to v_1..v_i; u_2 to v_2, v_3; v_2 and v_3 to v_4..v_k
    edges = []
    for i in range(1, k + 1):
        if i == 2:
            continue
        edges.extend((i - 1, k + j - 1) for j in range(1, i + 1))
    edges += [(1, k + 1), (1, k + 2)]
    for j in range(4, k + 1):
        edges += [(k + 1, k + j - 1), (k + 2, k + j - 1)]
    return from_edges(n, edges)


def _claims_ng_gamma(g: Graph, n: int) -> list[Claim]:
    gi, gic = gamma_ir(g).value, gamma_ir(complement(g)).value
    half_up = (n + 1) // 2
    return [
        Claim("gamma_ir_sum_with_complement", 2 * half_up, gi + gic),
        Claim("gamma_ir_product_with_complement", half_up * half_up, gi * gic),
    ]


def build_ng_gamma(n: int) -> Graph:
    """Graph whose irregular domination number equals ceil(n/2) in both the
    graph and its complement, so the sum and product floors are attained.

    Odd orders use the prefix staircase; n = 4 is the path, n = 6 a bespoke
    six-edge graph, and even n >= 8 a staircase with one column rewired.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    g = _raw_ng_gamma(n)
    return _finish("ng_gamma", {"n": n}, g, _claims_ng_gamma(g, n))


_RELATION_CASES = ("delta_pos", "delta_zero", "complement")


def _raw_relation_extremal(n: int, case: str) -> Graph:
    if n < 2:
        raise ValueError("needs n >= 2")
    if case == "delta_pos":
        k = (n + 1) // 2
        profile = StaircaseProfile(k=k, t=n - k, mode="desc")
    elif case == "delta_zero":
        k = n // 2  # ceil((n-1)/2)
        profile = StaircaseProfile(k=k, t=n - k, mode="asc0")
    elif n % 2 == 1:
        k = n // 2
        profile = StaircaseProfile(k=k, t=n - k, mode="desc")
    else:
        # even complement case: ascending staircase on k = n/2 plus a star
        # inside the u-side, making u_1 universal in G and so isolated in
        # the complement; that isolated vertex is what forces the extra +1
        k = n // 2
        edges = [(u, k + i - 1) for i in range(1, k + 1) for u in range(i)]
        edges += [(0, u) for u in range(1, k)]
        return from_edges(n, edges)
    return build_staircase(profile, "prefix")


def _claims_relation_extremal(g: Graph, n: int, case: str) -> list[Claim]:
    if case not in _RELATION_CASES:
        raise ValueError(f"case must be one of {_RELATION_CASES}")
    a = alpha_ir(g).value
    if case == "delta_pos":
        gi = gamma_ir(g).value
        return [
            Claim("alpha_ir_plus_gamma_ir", n, a + gi),
            Claim("alpha_ir_times_gamma_ir", product_cap(n), a * gi),
        ]
    if case == "delta_zero":
        gi = gamma_ir(g).value
        return [
            Claim("alpha_ir_plus_gamma_ir", n + 1, a + gi),
            Claim("alpha_ir_times_gamma_ir", product_cap(n + 1), a * gi),
        ]
    gic = gamma_ir(complement(g)).value
    return [
        Claim("alpha_ir_plus_complement_gamma_ir", n + 1, a + gic),
        Claim("alpha_ir_times_complement_gamma_ir", product_cap(n + 1), a * gic),
    ]


def build_relation_extremal(n: int, case: str) -> Graph:
    """Staircase attaining the sum/product ceilings tying alpha_ir to
    gamma_ir: with minimum degree positive (delta_pos), with an isolated
    vertex (delta_zero), or against the complement (complement)."""
    g = _raw_relation_extremal(n, case)
    return _finish(
        "relation_extremal",
        {"n": n, "case": case},
        g,
        _claims_relation_extremal(g, n, case),
    )


# -- registry for sweeps, corruption probes, and the command line ------------------


def _eval_clique_union(params, graph=None):
    r, t = params["r"], params["t"]
    g = graph if graph is not None else _raw_clique_union(r, t)
    return g, _claims_clique_union(g, r, t)


def _eval_staircase_gamma(params, graph=None):
    n = params["n"]
    k = (n + 1) // 2
    if graph is None:
        graph = build_staircase(StaircaseProfile(k=k, t=n - k, mode="asc"), "prefix")
    return graph, [Claim("gamma_ir", k, gamma_ir(graph).value)]


def _eval_alpha_sharp_bipartite(params, graph=None):
    r, t = params["r"], params["t"]
    g = graph if graph is not None else _raw_alpha_sharp_bipartite(r, t)
    return g, _claims_alpha_sharp_bipartite(g, r, t)


def _eval_alpha_sharp_clique(params, graph=None):
    r, t = params["r"], params["t"]
    g = graph if graph is not None else _raw_alpha_sharp_clique(r, t)
    return g, _claims_alpha_sharp_clique(g, r, t)


def _eval_modstar(params, graph=None):
    sched = ModStarSchedule(params["r"], params["t"])
    g = graph if graph is not None else _raw_modstar(sched)
    return g, _claims_modstar(g, sched)


def _eval_product_extremal(params, graph=None):
    n = params["n"]
    g, x_set, y_set = _raw_product_extremal(n)
    if graph is not None:
        g = graph
    return g, _claims_product_extremal(g, x_set, y_set, n)


def _eval_sum_extremal(params, graph=None):
    n, k = params["n"], params["k"]
    g = graph if graph is not None else _raw_sum_extremal(n, k)
    return g, _claims_sum_extremal(g, n, k)


def _eval_ng_alpha(params, graph=None):
    n = params["n"]
    g = graph if graph is not None else _raw_ng_alpha(n)
    return g, _claims_ng_alpha(g, n)


def _eval_ng_gamma(params, graph=None):
    n = params["n"]
    g = graph if graph is not None else _raw_ng_gamma(n)
    return g, _claims_ng_gamma(g, n)


def _eval_relation_extremal(params, graph=None):
    n, case = params["n"], params["case"]
    g = graph if graph is not None else _raw_relation_extremal(n, case)
    return g, _claims_relation_extremal(g, n, case)


FAMILIES: dict[str, Callable] = {
    "clique_union": _eval_clique_union,
    "staircase_gamma": _eval_staircase_gamma,
    "alpha_sharp_bipartite": _eval_alpha_sharp_bipartite,
    "alpha_sharp_clique": _eval_alpha_sharp_clique,
    "modstar": _eval_modstar,
    "product_extremal": _eval_product_extremal,
    "sum_extremal": _eval_sum_extremal,
    "ng_alpha": _eval_ng_alpha,
    "ng_gamma": _eval_ng_gamma,
    "relation_extremal": _eval_relation_extremal,
}


def evaluate(family: str, params: dict, graph: Optional[Graph] = None) -> ConstructionReport:
    """Build (or adopt) a graph for the family and measure every claim."""
    if family not in FAMILIES:
        raise ValueError(f"unknown construction family '{family}'")
    g, claims = FAMILIES[family](params, graph)
    return ConstructionReport(family, dict(params), g, tuple(claims))


def metadata_comment(report: ConstructionReport) -> str:
    """One '#' comment line: family, parameters, and the verified claims."""
    params = ",".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    claims = "; ".join(
        f"{c.label}={c.expected}" if c.ok else f"{c.label}: FAILED"
        for c in report.claims
    )
    return f"# {report.family}({params}) {claims}"
