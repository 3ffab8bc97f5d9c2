"""Reference implementations that only the tests use.

Each is a slower, independent way to reach what the package computes:
every labeled graph by edge mask instead of one graph per isomorphism class,
a sweep that checks every labeled graph instead of weighting class
representatives by n!/|Aut|, isomorphism classes from a dict of canonical
keys over every one-vertex extension instead of canonical augmentation, and
an isomorphism test by backtracking instead of canonical keys.
checked_member builds a construction family member and asserts that every
claim measured on it holds.
"""

from functools import lru_cache
from typing import Iterator

from irregraph.constructions import evaluate
from irregraph.graph import Graph, canonical_form, from_edge_mask, pair_count
from irregraph.harness import ENUMERATION_LIMIT, _blank_counts, theorem_report


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All labeled graphs of order n, once each, in edge-mask order."""
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"enumeration supports 0 <= n <= {ENUMERATION_LIMIT}")
    for mask in range(1 << pair_count(n)):
        yield from_edge_mask(n, mask)


def sweep_order_labeled(n: int, t41_divisor: int):
    """Labeled reference for harness._sweep_order: one report per edge mask."""
    counts = _blank_counts()
    violating = []
    for g in enumerate_labeled_graphs(n):
        report = theorem_report(g, t41_divisor)
        for v in report.verdicts:
            counts[v.theorem_id][v.status] += 1
        if report.failures:
            violating.append((g.edge_mask, report.verdicts))
    return counts, violating


@lru_cache(maxsize=None)
def classes_by_key_dict(n: int) -> tuple[tuple[int, int], ...]:
    """(canonical key, |Aut|) of every isomorphism class of order n, by key.

    Every order-n graph minus its last vertex lies in some order-(n-1)
    class, so adding vertex n-1 to each class representative with each of
    its 2^(n-1) neighbourhoods reaches every class, and a dict keyed by the
    canonical key keeps one entry per class.  This labels every extension,
    about 12 times as many graphs as there are classes.
    """
    if n == 0:
        return ((0, 1),)
    autos: dict[int, int] = {}
    top = 1 << (n - 1)
    for key, _ in classes_by_key_dict(n - 1):
        parent = from_edge_mask(n - 1, key)
        for hood in range(top):
            rows = [
                row | top if hood >> v & 1 else row
                for v, row in enumerate(parent.rows)
            ]
            rows.append(hood)
            autos.setdefault(*canonical_form(Graph(n, rows)))
    return tuple(sorted(autos.items()))


def _invariant(g: Graph) -> tuple:
    degs = g.degrees()
    neighbor_profiles = tuple(
        sorted(tuple(sorted(degs[u] for u in g.neighbors(v))) for v in range(g.n))
    )
    return (g.n, g.m, tuple(sorted(degs)), neighbor_profiles)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test; intended for n up to about 12.

    A cheap invariant (order, size, degree sequence, sorted multiset of
    neighbor degrees per vertex) prescreens most non-isomorphic pairs, then a
    backtracking search maps vertices of g onto degree-compatible vertices of
    h, checking adjacency against all previously mapped vertices.
    """
    if _invariant(g) != _invariant(h):
        return False
    n = g.n
    degs_g, degs_h = g.degrees(), h.degrees()
    # Mapping vertices in order of rarest degree first shrinks the branching.
    freq: dict[int, int] = {}
    for d in degs_g:
        freq[d] = freq.get(d, 0) + 1
    order = sorted(range(n), key=lambda v: (freq[degs_g[v]], degs_g[v], v))
    image = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or degs_h[w] != degs_g[v]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if g.has_edge(v, u) != h.has_edge(w, image[u]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    return extend(0)


def checked_member(family: str, **params) -> Graph:
    """The graph evaluate builds for family and params, after asserting that
    every claim measured on it holds."""
    report = evaluate(family, params)
    assert report.ok, report.failures
    return report.graph
