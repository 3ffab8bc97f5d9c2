"""Reference implementations that only the tests use.

Each is a slower, independent way to reach what the package computes:
every labeled graph by edge mask instead of one graph per isomorphism class,
a sweep that checks every labeled graph instead of weighting class
representatives by n!/|Aut|, isomorphism classes from a dict of canonical
keys over every one-vertex extension instead of canonical augmentation, the
number of classes with each edge count by Polya counting instead of
generating them, the labeled members of a class by trying all n!
relabelings instead of walking its orbit, an isomorphism test by
backtracking instead of canonical keys, and the row verdicts of one graph
built anew for every row from the harness's _Row fields instead of shared.
frozen_classes reads the class list that the frozen digests hash.
checked_member builds a construction family member and asserts that every
claim measured on it holds.
"""

from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd, lcm
from pathlib import Path
from typing import Iterator

from irregraph.constructions import evaluate
from irregraph.graph import (
    Graph,
    canonical_form,
    from_edge_mask,
    pair_count,
    pair_index,
    parse_graph6,
)
from irregraph.harness import (
    ENUMERATION_LIMIT,
    _ROWS,
    Verdict,
    _blank_counts,
    theorem_report,
)


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All labeled graphs of order n, once each, in edge-mask order."""
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"enumeration supports 0 <= n <= {ENUMERATION_LIMIT}")
    for mask in range(1 << pair_count(n)):
        yield from_edge_mask(n, mask)


def sweep_order_labeled(n: int, t41_divisor: int):
    """Labeled reference for one order of harness.verify_range: per-theorem
    counts and the (edge mask, verdicts) pairs of the violating graphs, one
    report per edge mask."""
    counts = _blank_counts()
    violating = []
    for g in enumerate_labeled_graphs(n):
        report = theorem_report(g, t41_divisor)
        for v in report.verdicts:
            counts[v.theorem_id][v.status] += 1
        if report.failures:
            violating.append((g.edge_mask, report.verdicts))
    return counts, violating


def reference_row_verdicts(c) -> tuple[Verdict, ...]:
    """The verdict of every row of harness._ROWS on the context c, each one a
    new Verdict read from the _Row's fields, in THEOREM_IDS order.

    A row is not applicable when a bound it has reads None, both bounds
    being read first; otherwise it passes when lo <= value <= hi, a missing
    end being open, and the two sides of its iff, if it has one, are equal.
    A failing verdict carries the row's witness filled in with c, v, lo, hi,
    lhs and rhs.
    """
    verdicts = []
    for row in _ROWS:
        lo = row.lo(c) if row.lo else None
        hi = row.hi(c) if row.hi else None
        if (row.lo and lo is None) or (row.hi and hi is None):
            verdicts.append(Verdict(row.tid, "not_applicable"))
            continue
        v = row.value(c) if row.value else None
        ok = (lo is None or lo <= v) and (hi is None or v <= hi)
        lhs = rhs = None
        if row.iff:
            lhs, rhs = row.iff(c, v, hi)
            ok = ok and lhs == rhs
        if ok:
            verdicts.append(Verdict(row.tid, "pass"))
            continue
        fields = {"c": c, "v": v, "lo": lo, "hi": hi, "lhs": lhs, "rhs": rhs}
        w = row.witness
        text = w.format(**fields) if isinstance(w, str) else w(**fields)
        verdicts.append(Verdict(row.tid, "fail", text))
    return tuple(verdicts)


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


CLASSES_FILE = Path(__file__).parent / "data" / "classes_1_8.g6"


@lru_cache(maxsize=None)
def frozen_classes() -> tuple[tuple[Graph, ...], ...]:
    """Entry n holds one graph per isomorphism class of order n, for n <= 8
    (none for n = 0), read from data/classes_1_8.g6.

    The file lists the classes one graph6 line each, by ascending order, in
    a fixed sequence.  The digest tests hash these graphs, so their values do
    not depend on which member of a class the labeller picks.
    """
    by_order: list[list[Graph]] = [[] for _ in range(9)]
    for line in CLASSES_FILE.read_text(encoding="ascii").split("\n"):
        if line:
            g = parse_graph6(line)
            by_order[g.n].append(g)
    return tuple(tuple(graphs) for graphs in by_order)


def labeled_copies_by_relabelling(g: Graph) -> set[int]:
    """Edge masks of the distinct relabelings of g, from all n! of them."""
    edges = list(g.edges())
    return {
        sum(1 << pair_index(p[u], p[v]) for u, v in edges)
        for p in permutations(range(g.n))
    }


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most largest, parts descending."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def polya_graph_counts(n: int) -> list[int]:
    """Entry m is the number of isomorphism classes of order n with m edges.

    Polya counting (Harary and Palmer, Graphical Enumeration, 1973, ch. 4):
    the count is the average over the permutations of the n vertices of the
    number of edge sets the induced permutation of pairs fixes, and an edge
    set is fixed exactly when it is a union of cycles of pairs.  Two distinct
    vertex cycles of lengths a and b permute the a*b pairs across them in
    gcd(a, b) cycles of length lcm(a, b); the C(a,2) pairs inside a cycle of
    length a form (a-1)/2 cycles of length a when a is odd, and (a-2)/2 of
    length a plus one of length a/2 when a is even.  Each cycle of pairs of
    length L contributes a factor 1 + x^L.
    All permutations of one cycle type give the same product, so the sum runs
    over the partitions of n, each weighted by its number of permutations.
    """
    pairs = pair_count(n)
    total = [0] * (pairs + 1)
    for parts in _partitions(n, n):
        perms = factorial(n)
        for a, count in Counter(parts).items():
            perms //= a**count * factorial(count)
        lengths = []
        for i, a in enumerate(parts):
            lengths += [a] * ((a - 1) // 2)
            if a % 2 == 0:
                lengths.append(a // 2)
            for b in parts[i + 1:]:
                lengths += [lcm(a, b)] * gcd(a, b)
        poly = [1] + [0] * pairs
        for length in lengths:
            for m in range(pairs, length - 1, -1):
                poly[m] += poly[m - length]
        for m, fixed in enumerate(poly):
            total[m] += perms * fixed
    assert all(t % factorial(n) == 0 for t in total)
    return [t // factorial(n) for t in total]


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
