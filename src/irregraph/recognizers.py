"""Membership tests for the characterized graph classes.

Three kinds of recognition live here.  First, exact planarity and
outerplanarity at any order: the path-addition test of Demoucron, Malgrange
and Pertuiset (1964) embeds one path at a time, each through the fragment
that fits the fewest faces, and fails exactly when some fragment fits none;
a graph is outerplanar iff joining one universal vertex to it leaves it
planar.  Second, the degree-structure condition equivalent to alpha_ir = 1
(Lemma 3.1): vertices of distinct degrees are pairwise adjacent, tested as
one mask test per vertex against its degree class.  Third, structural
classifiers mapping a graph to the family it belongs to in the
characterizations of planar alpha_ir = 1 graphs, outerplanar alpha_ir = 1
graphs, and graphs with gamma_ir in {n, n-1}.  The degree classes come from
graph.classify_degrees, built once per graph; it refuses the graph with no
vertices, and so does every recognizer that reads it.

The classifiers match by exact degree class sizes and local structure, never
by isomorphism search or a Lemma 3.1 gate, and each matcher is exact: it fires
only on graphs isomorphic to its family member.  Families overlap (C_4 is
both a cycle and K_{2,2}), so classifiers report the first match in a fixed
precedence order; callers comparing against parameter values should test
None versus not-None rather than specific tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from irregraph.graph import (
    DegreeClassification,
    Graph,
    _bits,
    _touch,
    classify_degrees,
    complete_graph,
    join,
)

# -- planarity by path addition ------------------------------------------------


def _component(rows, mask: int, seed: int) -> int:
    """The vertices of mask reachable from the seed bits inside mask."""
    reach = frontier = seed
    while frontier:
        frontier = _touch(rows, frontier) & mask & ~reach
        reach |= frontier
    return reach


def _path(rows, comp: int, att: int) -> list[int]:
    """A path through comp from one attachment to another, by layered search."""
    a = next(_bits(att))
    others = att & ~(1 << a)
    targets = _touch(rows, others)
    layers, seen = [rows[a] & comp], 0
    while not layers[-1] & targets:
        seen |= layers[-1]
        layers.append(_touch(rows, layers[-1]) & comp & ~seen)
    x = next(_bits(layers.pop() & targets))
    path = [next(_bits(rows[x] & others)), x]
    while layers:
        path.append(next(_bits(layers.pop() & rows[path[-1]])))
    return path + [a]


def is_planar(g: Graph) -> bool:
    """Exact planarity by Demoucron-Malgrange-Pertuiset path addition.

    Density prescreen first (planar graphs on n >= 3 vertices have at most
    3n - 6 edges), then each piece on the worklist grows a plane embedding
    from an edge at its highest-degree vertex.  A fragment attached at one
    vertex (a cut vertex) or at none goes on the worklist as a piece of its own.
    """
    n, rows = g.n, g.rows
    if n <= 4:
        return True
    if g.m > 3 * n - 6:
        return False
    work = [(1 << n) - 1]
    while work:
        piece = work.pop()
        u = max(_bits(piece), key=lambda x: (rows[x] & piece).bit_count())
        if not rows[u] & piece:
            continue
        v = next(_bits(rows[u] & piece))
        placed = 1 << u | 1 << v
        plane = [0] * n
        plane[u], plane[v] = 1 << v, 1 << u
        faces = [(placed, [u, v])]  # (vertex mask, boundary walk)
        while True:
            # fragments as (attachments, body): each unembedded edge between
            # embedded vertices, then each component of the unembedded ones
            fragments = [
                (1 << a | 1 << b, 0)
                for a in _bits(placed)
                for b in _bits(rows[a] & placed & ~plane[a])
                if a < b
            ]
            free = piece & ~placed
            while free:
                comp = _component(rows, free, free & -free)
                free &= ~comp
                att = _touch(rows, comp) & placed
                if att & (att - 1):
                    fragments.append((att, comp))
                else:
                    work.append(comp | att)
                    piece &= ~comp
            if not fragments:
                break
            # the fragment that fits the fewest faces; fitting none is fatal
            att, comp = min(
                fragments, key=lambda f: sum(not f[0] & ~mask for mask, _ in faces)
            )
            homes = [i for i, (mask, _) in enumerate(faces) if not att & ~mask]
            if not homes:
                return False
            path = _path(rows, comp, att) if comp else list(_bits(att))
            # the path cuts its face in two
            cycle = faces.pop(homes[0])[1]
            i = cycle.index(path[0])
            cycle = cycle[i:] + cycle[:i]
            j = cycle.index(path[-1])
            for half in cycle[: j + 1] + path[-2:0:-1], cycle[j:] + path[:-1]:
                faces.append((sum(1 << x for x in half), half))
            for x, y in zip(path, path[1:]):
                plane[x] |= 1 << y
                plane[y] |= 1 << x
                placed |= 1 << x
    return True


def is_outerplanar(g: Graph) -> bool:
    """True iff adding one universal vertex keeps the graph planar."""
    return is_planar(join(complete_graph(1), g))


# -- the alpha_ir = 1 degree structure ----------------------------------------


def satisfies_lemma31(g: Graph) -> bool:
    """Degree structure equivalent to alpha_ir = 1.

    Condition (i): any two vertices of distinct degrees are adjacent, so
    every independent set lies in one degree class, hence alpha_ir <= 1.
    Condition (ii), that the class of degree k, of size n_k, induces a
    (k + n_k - n)-regular subgraph, follows from (i): a vertex of degree k
    is adjacent to all n - n_k vertices outside its class.  Only (i) is
    tested, as one mask test per vertex: its neighbours and its own degree
    class together cover every vertex.
    """
    dc = classify_degrees(g)
    full = (1 << g.n) - 1
    return all(row | dc.masks[d] == full for row, d in zip(g.rows, dc.degrees))


# -- family classifiers ---------------------------------------------------------


class Family(Enum):
    REGULAR_PLANAR = "RegularPlanar"
    STAR = "Star"
    COMPLETE_BIPARTITE = "CompleteBipartite"
    K2_PLUS_EMPTY = "K2PlusEmpty"
    K2_PLUS_MATCHING = "K2PlusMatching"
    E2_PLUS_MATCHING = "E2PlusMatching"
    E2_PLUS_CYCLE = "E2PlusCycle"
    WINDMILL = "Windmill"
    K1_PLUS_CYCLE_UNION = "K1PlusCycleUnion"
    CYCLE_UNION = "CycleUnion"
    EMPTY = "Empty"
    PERFECT_MATCHING = "PerfectMatching"
    K2_PLUS_E2 = "K2PlusE2"
    ISOLATED_PLUS_STAR = "IsolatedPlusStar"
    ISOLATED_PLUS_REGULAR = "IsolatedPlusRegular"


@dataclass(frozen=True)
class FamilyTag:
    family: Family
    params: dict = field(default_factory=dict)


def _class_pair_nonadjacent(g: Graph, dc: DegreeClassification, d: int) -> bool:
    """The class of degree d, a pair wherever this is called, has no edge."""
    pair = dc.masks[d]
    return not _touch(g.rows, pair) & pair


def classify_planar_alpha1(g: Graph) -> Optional[FamilyTag]:
    """The planar alpha_ir = 1 family containing g, or None.

    Matches, in precedence order: regular planar graphs, the star K_{1,n-1},
    K_{2,n-2}, K_2 + E_{n-2}, K_2 + perfect matching, E_2 + perfect matching,
    E_2 + C_{n-2}, the triangle windmill, and K_1 + (disjoint cycles).  Each
    matcher is exact on the degree class sizes and every family member has
    alpha_ir = 1 (a regular graph always does), so no Lemma 3.1 test is
    needed; planarity itself is only ever tested in the regular branch,
    every other matcher being exact for a family whose members are all
    planar.
    """
    n, dc = g.n, classify_degrees(g)
    sizes = dc.sizes
    if dc.span == 1:
        if is_planar(g):
            return FamilyTag(Family.REGULAR_PLANAR, {"n": n, "r": dc.delta})
        return None
    if sizes == {1: n - 1, n - 1: 1}:
        return FamilyTag(Family.STAR, {"n": n})
    if (
        n >= 5
        and sizes == {2: n - 2, n - 2: 2}
        and _class_pair_nonadjacent(g, dc, n - 2)
    ):
        return FamilyTag(Family.COMPLETE_BIPARTITE, {"n": n})
    if n >= 4 and sizes == {2: n - 2, n - 1: 2}:
        return FamilyTag(Family.K2_PLUS_EMPTY, {"n": n})
    if n >= 6 and n % 2 == 0 and sizes == {3: n - 2, n - 1: 2}:
        return FamilyTag(Family.K2_PLUS_MATCHING, {"n": n})
    if (
        n >= 6
        and n % 2 == 0
        and sizes == {3: n - 2, n - 2: 2}
        and _class_pair_nonadjacent(g, dc, n - 2)
    ):
        return FamilyTag(Family.E2_PLUS_MATCHING, {"n": n})
    if (
        n >= 5
        and sizes == {4: n - 2, n - 2: 2}
        and _class_pair_nonadjacent(g, dc, n - 2)
    ):
        # the degree-4 part must induce one cycle, not a cycle union
        cyc = dc.masks[4]
        inner_ok = all((g.rows[v] & cyc).bit_count() == 2 for v in _bits(cyc))
        if inner_ok and _component(g.rows, cyc, cyc & -cyc) == cyc:
            return FamilyTag(Family.E2_PLUS_CYCLE, {"n": n})
    if n >= 5 and n % 2 == 1 and sizes == {2: n - 1, n - 1: 1}:
        return FamilyTag(Family.WINDMILL, {"n": n, "r": (n - 1) // 2})
    if n >= 5 and sizes == {3: n - 1, n - 1: 1}:
        return FamilyTag(Family.K1_PLUS_CYCLE_UNION, {"n": n})
    return None


def classify_outerplanar_alpha1(g: Graph) -> Optional[FamilyTag]:
    """The outerplanar alpha_ir = 1 family containing g, or None.

    Precedence order: disjoint cycle unions (K_{2,2} among them), the empty
    graph, the perfect matching, the star, K_2 + E_2, and the triangle
    windmill.  Every matcher is structural and exact for a family whose
    members are all outerplanar with alpha_ir = 1, so neither an
    outerplanarity nor a Lemma 3.1 test is needed.
    """
    n, sizes = g.n, classify_degrees(g).sizes
    if sizes == {2: n}:
        return FamilyTag(Family.CYCLE_UNION, {"n": n})
    if sizes == {0: n}:
        return FamilyTag(Family.EMPTY, {"n": n})
    if sizes == {1: n}:
        return FamilyTag(Family.PERFECT_MATCHING, {"n": n})
    if sizes == {1: n - 1, n - 1: 1}:
        return FamilyTag(Family.STAR, {"n": n})
    if n == 4 and sizes == {2: 2, 3: 2}:
        return FamilyTag(Family.K2_PLUS_E2, {})
    if n >= 5 and n % 2 == 1 and sizes == {2: n - 1, n - 1: 1}:
        return FamilyTag(Family.WINDMILL, {"n": n, "r": (n - 1) // 2})
    return None


def classify_gamma_extremal(g: Graph) -> Optional[FamilyTag]:
    """Family tag predicting gamma_ir = n (Empty) or n - 1, else None.

    gamma_ir = n - 1 holds exactly for t isolated vertices plus either a star
    K_{1,r} or an r-regular graph with r >= 1; both shapes are read off the
    degree classes.
    """
    n, dc = g.n, classify_degrees(g)
    r = dc.Delta
    if r == 0:
        return FamilyTag(Family.EMPTY, {"n": n})
    t = dc.sizes.get(0, 0)
    # a star: one hub of degree r touching every other live vertex
    if n - t == r + 1 and g.m == r:
        return FamilyTag(Family.ISOLATED_PLUS_STAR, {"t": t, "r": r})
    if dc.sizes.keys() <= {0, r}:
        return FamilyTag(Family.ISOLATED_PLUS_REGULAR, {"t": t, "r": r})
    return None
