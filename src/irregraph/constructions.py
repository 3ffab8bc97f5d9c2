"""Parameterized extremal constructions with machine-checked claims.

Every family here realizes graphs that attain one of the published bounds
with equality.  Nothing trusts the closed-form argument: the graph is built,
the exact solvers run on it, and each claimed value is compared with the
measured one.

Each family is one row of FAMILIES: its parameter names and types, its
builder, its claims and its sharpness grid.  The builder raises ValueError
outside the family's parameter domain, and is the only place that domain is
stated.  evaluate is the one path through a row, and the command line and
the sharpness suite both call it.  It reports a failed claim rather than
raising, so a sweep can collect failures in bulk or re-check a deliberately
corrupted graph.

Edge assignment conventions: when a construction says a vertex receives some
number of neighbors on the other side without naming them, it takes the
lowest indices (the prefix rule), which _prefix wires for staircase_gamma,
ng_alpha, odd ng_gamma and every relation_extremal case.  The families whose
minimum-degree claims force a balanced assignment (alpha_sharp_bipartite and
modstar, which share one builder, and alpha_sharp_clique) hand out neighbors
through _round_robin instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from irregraph.bounds import exact_root, product_cap
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
    max_cut,
)


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


# -- the prefix and round-robin wirings ------------------------------------------


def _balanced(r: int, t: int) -> bool:
    """t(t-1) >= 2r(r-1): without it some w-vertex gets fewer than r
    neighbors, so delta < r."""
    return t * (t - 1) >= 2 * r * (r - 1)


def _prefix(first: int, degrees: Iterable[int], block: int) -> list[tuple[int, int]]:
    """Edges joining vertex first+i to the degrees[i] vertices block,
    block+1, ... (the prefix rule)."""
    return [(first + i, block + j) for i, d in enumerate(degrees) for j in range(d)]


def _round_robin(k: int, degrees: Sequence[int]) -> list[tuple[int, int]]:
    """Edges giving v_i (vertex k+i-1) the next degrees[i-1] of the k
    u-vertices 0..k-1, cyclically."""
    edges = []
    pointer = 0
    for v, d in enumerate(degrees, k):
        edges.extend(((pointer + j) % k, v) for j in range(d))
        # after v_{i-1} the pointer sits at s_{i-1} mod k, s_i being the sum
        # of the first i degrees: this is the paper's interval schedule
        pointer = (pointer + d) % k
    return edges


# -- builders and claims, one pair per family -------------------------------------


def _clique_union(r: int, t: int) -> Graph:
    """Disjoint cliques of sizes r, r+1, ..., r+t-1; alpha_ir comes out t."""
    if r < 1 or t < 1:
        raise ValueError("needs r >= 1 and t >= 1")
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


def _staircase_gamma(n: int) -> Graph:
    if n < 2:
        raise ValueError("needs n >= 2")
    # k = ceil(n/2) u-vertices, then v_i (i = 1..n-k) wired to u_1..u_i
    k = (n + 1) // 2
    return from_edges(n, _prefix(k, range(1, n - k + 1), 0))


def _claims_staircase_gamma(g: Graph, n: int) -> list[Claim]:
    return [Claim("gamma_ir", (n + 1) // 2, gamma_ir(g).value)]


def _modstar(r: int, t: int) -> Graph:
    """Interval-schedule bipartite graph attaining both the maximum-cut
    radical bound on alpha_ir (modstar) and the floor((n - delta + 1)/2)
    ceiling (alpha_sharp_bipartite) exactly.

    v_i (i = 1..t) takes the r+i-1 w-indices s_{i-1}+1 .. s_i, reduced
    mod k = r+t-1, where s_i = sum_{j<i} (r+j).
    """
    if r < 1 or t < 1:
        raise ValueError("needs r >= 1 and t >= 1")
    if not _balanced(r, t):
        raise ValueError("needs t(t-1) >= 2r(r-1), otherwise delta < r")
    k = r + t - 1
    return from_edges(k + t, _round_robin(k, range(r, k + 1)))


def _claims_alpha_sharp_bipartite(g: Graph, r: int, t: int) -> list[Claim]:
    dc = classify_degrees(g)
    n = g.n
    return [
        Claim("delta", r, dc.delta),
        Claim("alpha_ir", t, alpha_ir(g).value),
        Claim("half_bound", t, (n - dc.delta + 1) // 2),
    ]


def _alpha_sharp_clique(r: int, t: int) -> Graph:
    """K_r plus t outside vertices wired so the quadratic-radical ceiling on
    alpha_ir collapses to the integer t and is attained."""
    if not 1 <= t <= r:
        raise ValueError("needs r >= t >= 1")
    edges = [(u, v) for v in range(r) for u in range(v)]
    edges += _round_robin(r, range(r - t + 1, r + 1))
    return from_edges(r + t, edges)


def _claims_alpha_sharp_clique(g: Graph, r: int, t: int) -> list[Claim]:
    # the Thm 2.1 radical: a(a - 1) <= C(n,2) - m, the number of non-edges
    non_edges = g.n * (g.n - 1) // 2 - g.m
    return [
        Claim("alpha_ir", t, alpha_ir(g).value),
        Claim("radical_bound", t, exact_root(-1, non_edges)),
    ]


def _claims_modstar(g: Graph, r: int, t: int) -> list[Claim]:
    delta, beta = classify_degrees(g).delta, max_cut(g).value
    # the Thm 2.2 bound: a(a + 2 delta - 1) <= 2 beta
    radical = exact_root(2 * delta - 1, 2 * beta)
    return [
        Claim("delta", r, delta),
        Claim("m", t * (2 * r + t - 1) // 2, g.m),
        Claim("beta_equals_m", g.m, beta),
        Claim("alpha_ir", t, alpha_ir(g).value),
        Claim("cut_radical_bound", t, radical),
    ]


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


def _product_extremal(n: int) -> Graph:
    """Split [n] into an irregular independent X and a regular independent Y
    so that alpha_ir times alpha_reg reaches floor(n/2) ceil(n/2)."""
    if n < 4:
        raise ValueError("needs n >= 4")
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
    return from_edges(n, edges)


def _claims_product_extremal(g: Graph, n: int) -> list[Claim]:
    x_set = VertexSet(n, (1 << _product_extremal_parts(n)[0]) - 1)
    y_set = VertexSet(n, ((1 << n) - 1) ^ x_set.mask)
    return [
        Claim("x_irregular_independent", 1, int(is_irregular_independent(g, x_set))),
        Claim("y_regular_independent", 1, int(is_regular_independent(g, y_set))),
        Claim(
            "alpha_ir_times_alpha_reg",
            product_cap(n),
            alpha_ir(g).value * alpha_reg(g).value,
        ),
    ]


def _sum_extremal(n: int, k: int) -> Graph:
    """E_{k-2} with a clique on the other n-k+2 vertices; the two independence
    numbers sum to exactly k."""
    if not 2 <= k <= n + 1:
        raise ValueError("needs 2 <= k <= n+1")
    return disjoint_union(empty_graph(k - 2), complete_graph(n - k + 2))


def _claims_sum_extremal(g: Graph, n: int, k: int) -> list[Claim]:
    return [
        Claim(
            "alpha_ir_plus_alpha_reg",
            k,
            alpha_ir(g).value + alpha_reg(g).value,
        )
    ]


def _ng_alpha(n: int) -> Graph:
    """Clique of floor(n/2) v's plus ceil(n/2) u's on a prefix staircase; the
    irregular independence numbers of the graph and its complement add to n."""
    if n < 2:
        raise ValueError("needs n >= 2")
    k = (n + 1) // 2
    l = n // 2
    # a clique on the l v-vertices; u_i (i = 1..k) wired to v_1..v_{i-1}
    edges = [(k + a, k + b) for b in range(l) for a in range(b)]
    return from_edges(n, edges + _prefix(0, range(k), k))


def _claims_ng_alpha(g: Graph, n: int) -> list[Claim]:
    a, ac = alpha_ir(g).value, alpha_ir(complement(g)).value
    return [
        Claim("alpha_ir_sum_with_complement", n, a + ac),
        Claim("alpha_ir_product_with_complement", product_cap(n), a * ac),
    ]


def _ng_gamma(n: int) -> Graph:
    """Graph whose irregular domination number equals ceil(n/2) in both the
    graph and its complement, so the sum and product floors are attained."""
    if n < 3:
        raise ValueError("needs n >= 3")
    if n % 2 == 1:
        k = (n - 1) // 2
        # u_1..u_k then v_1..v_{k+1}; u_i adjacent to v_1..v_i
        return from_edges(n, _prefix(0, range(1, k + 1), k))
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


_RELATION_CASES = ("delta_pos", "delta_zero", "complement")


def _relation_extremal(n: int, case: str) -> Graph:
    """Staircase attaining the sum/product ceilings tying alpha_ir to
    gamma_ir: with minimum degree positive (delta_pos), with an isolated
    vertex (delta_zero), or against the complement (complement)."""
    if n < 2:
        raise ValueError("needs n >= 2")
    if case not in _RELATION_CASES:
        raise ValueError(f"case must be one of {_RELATION_CASES}")
    # k u-vertices, then v_i (i = 1..n-k) wired to a prefix of the u's
    star = []
    if case == "delta_pos":
        k = (n + 1) // 2
        degrees = range(k, 2 * k - n, -1)  # v_i takes k-i+1
    elif case == "delta_zero":
        k = n // 2  # ceil((n-1)/2)
        degrees = range(n - k)  # v_i takes i-1
    elif n % 2 == 1:
        k = n // 2
        degrees = range(k, 2 * k - n, -1)
    else:
        # even complement case: ascending staircase on k = n/2 plus a star
        # inside the u-side, making u_1 universal in G and so isolated in
        # the complement; that isolated vertex is what forces the extra +1
        k = n // 2
        degrees = range(1, k + 1)
        star = [(0, u) for u in range(1, k)]
    return from_edges(n, _prefix(k, degrees, 0) + star)


def _claims_relation_extremal(g: Graph, n: int, case: str) -> list[Claim]:
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


# -- the table and its one evaluator ------------------------------------------------


class _Family(NamedTuple):
    """One construction family.

    params maps each parameter name to its type, which the command line
    parses it with.  build(**params) returns the member graph and raises
    ValueError outside the family's domain.  claims(g, **params) measures
    every claim on g.  grid lists the parameter sets the sharpness suite
    rebuilds.
    """

    params: dict[str, type]
    build: Callable[..., Graph]
    claims: Callable[..., list[Claim]]
    grid: tuple[dict, ...]


_BALANCED_GRID = tuple(
    {"r": r, "t": t} for r in range(1, 4) for t in range(1, 7) if _balanced(r, t)
)

# the order is the sharpness suite's families_run order
FAMILIES: dict[str, _Family] = {
    "clique_union": _Family(
        {"r": int, "t": int}, _clique_union, _claims_clique_union,
        tuple({"r": r, "t": t} for r in range(1, 5) for t in range(1, 5)),
    ),
    "staircase_gamma": _Family(
        {"n": int}, _staircase_gamma, _claims_staircase_gamma,
        tuple({"n": n} for n in range(2, 15)),
    ),
    "alpha_sharp_bipartite": _Family(
        {"r": int, "t": int}, _modstar, _claims_alpha_sharp_bipartite,
        _BALANCED_GRID,
    ),
    "alpha_sharp_clique": _Family(
        {"r": int, "t": int}, _alpha_sharp_clique, _claims_alpha_sharp_clique,
        tuple({"r": r, "t": t} for r in range(1, 6) for t in range(1, r + 1)),
    ),
    "modstar": _Family(
        {"r": int, "t": int}, _modstar, _claims_modstar, _BALANCED_GRID
    ),
    "product_extremal": _Family(
        {"n": int}, _product_extremal, _claims_product_extremal,
        tuple({"n": n} for n in range(4, 13)),
    ),
    "sum_extremal": _Family(
        {"n": int, "k": int}, _sum_extremal, _claims_sum_extremal,
        tuple({"n": n, "k": k} for n in range(2, 9) for k in range(2, n + 2)),
    ),
    "ng_alpha": _Family(
        {"n": int}, _ng_alpha, _claims_ng_alpha, tuple({"n": n} for n in range(2, 13))
    ),
    "ng_gamma": _Family(
        {"n": int}, _ng_gamma, _claims_ng_gamma, tuple({"n": n} for n in range(3, 13))
    ),
    "relation_extremal": _Family(
        {"n": int, "case": str}, _relation_extremal, _claims_relation_extremal,
        tuple({"n": n, "case": c} for n in range(2, 13) for c in _RELATION_CASES),
    ),
}


def evaluate(family: str, params: dict, graph: Optional[Graph] = None) -> ConstructionReport:
    """Build the family member for params and measure every claim on it.

    The build always runs, so params are checked against the family's
    domain even when a graph is given; the claims are then measured on that
    graph instead, which is how a corrupted variant is re-checked.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown construction family '{family}'")
    row = FAMILIES[family]
    problems = [f"unknown parameter '{p}'" for p in params if p not in row.params]
    problems += [f"missing parameter '{p}'" for p in row.params if p not in params]
    if problems:
        raise ValueError(f"{'; '.join(problems)} (takes {', '.join(row.params)})")
    g = row.build(**params)
    if graph is not None:
        g = graph
    return ConstructionReport(family, dict(params), g, tuple(row.claims(g, **params)))


def metadata_comment(report: ConstructionReport) -> str:
    """One '#' comment line: family, parameters, and the verified claims."""
    params = ",".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    claims = "; ".join(
        f"{c.label}={c.expected}" if c.ok else f"{c.label}: FAILED"
        for c in report.claims
    )
    return f"# {report.family}({params}) {claims}"
