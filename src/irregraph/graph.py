"""Immutable simple graphs with bitmask adjacency.

A graph on n vertices is stored as a tuple of n integers; bit u of row v is 1
exactly when {u, v} is an edge.  Vertices are the integers 0..n-1.  All
operations return new graphs; nothing here mutates shared state.

The module also provides the degree classification used throughout (degree
classes N_i, their sizes, the span), canonical keys with automorphism counts,
one representative per isomorphism class of small order, and a bit-exact
graph6 codec restricted to the short form (1 <= n <= 62).

Edge-mask convention: the C(n,2) vertex pairs are numbered in column-major
upper-triangle order, pair (u, v) with u < v at position v*(v-1)/2 + u.  This
matches the bit order of the graph6 format, so the integer produced by
``Graph.edge_mask`` packs exactly the bits that graph6 serializes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations, product
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


def pair_index(u: int, v: int) -> int:
    """Position of pair {u, v} in column-major upper-triangle order."""
    if u == v:
        raise ValueError("self-pair has no index")
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices of an n-vertex graph, stored as a bitmask."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("mask has bits outside [0, n)")

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for n={n}")
            mask |= 1 << v
        return cls(n, mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.mask >> v & 1)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.size


class Graph:
    """Simple undirected graph; immutable after construction."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(rows) != n:
            raise ValueError("row count does not match n")
        for v, row in enumerate(rows):
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if row < 0 or row >> n:
                raise ValueError(f"row {v} has bits outside [0, n)")
        for v in range(n):
            for u in range(v):
                if (rows[u] >> v & 1) != (rows[v] >> u & 1):
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            row = self.rows[v] & ((1 << v) - 1)
            while row:
                u = (row & -row).bit_length() - 1
                yield (u, v)
                row &= row - 1

    @property
    def edge_mask(self) -> int:
        """All edges packed into one integer in pair-index order."""
        mask = 0
        for u, v in self.edges():
            mask |= 1 << pair_index(u, v)
        return mask

    def neighbors(self, v: int) -> tuple[int, ...]:
        row = self.rows[v]
        return tuple(u for u in range(self.n) if row >> u & 1)


# -- constructors ---------------------------------------------------------


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph with exactly the given edges; duplicate pairs collapse."""
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def from_edge_mask(n: int, mask: int) -> Graph:
    """Inverse of Graph.edge_mask: unpack a pair-indexed edge integer."""
    if mask < 0 or mask >> pair_count(n):
        raise ValueError("edge mask out of range")
    rows = [0] * n
    p = 0
    for v in range(n):
        for u in range(v):
            if mask >> p & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            p += 1
    return Graph(n, rows)


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """K_{1,n-1} with the center at vertex 0."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    return from_edges(n, [(0, v) for v in range(1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def matching_graph(k: int) -> Graph:
    """k disjoint edges on 2k vertices."""
    return from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, [full ^ row ^ (1 << v) for v, row in enumerate(g.rows)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.rows) + [row << g.n for row in h.rows]
    return Graph(g.n + h.n, rows)


def disjoint_union_all(graphs: Iterable[Graph]) -> Graph:
    out = empty_graph(0)
    for g in graphs:
        out = disjoint_union(out, g)
    return out


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    g_all = (1 << g.n) - 1
    h_all = ((1 << h.n) - 1) << g.n
    rows = [row | h_all for row in g.rows]
    rows += [(row << g.n) | g_all for row in h.rows]
    return Graph(g.n + h.n, rows)


def windmill(k: int, r: int) -> Graph:
    """Wd(k, r): one hub joined to r disjoint copies of K_{k-1}."""
    if k < 2 or r < 2:
        raise ValueError("windmills require k >= 2 and r >= 2")
    blades = disjoint_union_all(complete_graph(k - 1) for _ in range(r))
    return join(complete_graph(1), blades)


# -- degree classification ------------------------------------------------


@dataclass(frozen=True)
class DegreeClassification:
    """Degree analytics: classes N_i, their sizes, and the span."""

    degrees: tuple[int, ...]
    distinct: tuple[int, ...]
    classes: dict[int, VertexSet]
    sizes: dict[int, int]
    span: int
    delta: int
    Delta: int


def _degree_masks(degs: Sequence[int]) -> dict[int, int]:
    """Each degree that occurs, mapped to the mask of its vertices."""
    classes: dict[int, int] = {}
    for v, d in enumerate(degs):
        classes[d] = classes.get(d, 0) | (1 << v)
    return classes


def classify_degrees(g: Graph) -> DegreeClassification:
    """Group vertices by degree.  Undefined (raises) for n = 0."""
    if g.n == 0:
        raise ValueError("degree classification needs at least one vertex")
    degs = g.degrees()
    classes = _degree_masks(degs)
    distinct = tuple(sorted(classes))
    return DegreeClassification(
        degrees=degs,
        distinct=distinct,
        classes={d: VertexSet(g.n, classes[d]) for d in distinct},
        sizes={d: classes[d].bit_count() for d in distinct},
        span=len(distinct),
        delta=distinct[0],
        Delta=distinct[-1],
    )


# -- canonical form and isomorphism classes -------------------------------


def _refined_cells(rows: Sequence[int]) -> list[list[int]]:
    """Cells of the stable colour-refinement partition, in canonical order.

    Colours start as degrees.  Each round recolours every vertex by its own
    colour and the sorted colours of its neighbors, ranked in sorted order,
    until no cell splits.  Nothing depends on the labels, so isomorphic graphs
    get corresponding cells in the same order.  Each round only splits cells
    and keeps their order, so the last cell lies inside the set of vertices
    with the largest (degree, sorted neighbour degrees).
    """
    n = len(rows)
    colour = [row.bit_count() for row in rows]
    while True:
        signature = [
            (colour[v], tuple(sorted(colour[u] for u in range(n) if row >> u & 1)))
            for v, row in enumerate(rows)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(signature)))}
        stable = len(rank) == len(set(colour))
        colour = [rank[s] for s in signature]
        if stable:
            break
    cells: list[list[int]] = [[] for _ in rank]
    for v in range(n):
        cells[colour[v]].append(v)
    return cells


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(1 << pair_index(i, j) if i != j else 0 for j in range(n))
        for i in range(n)
    )


def _cell_orderings(rows: Sequence[int], cell: list[int]) -> tuple[list, list]:
    """Orderings of one cell up to swaps of twins, and the cell's twin classes.

    u and v are twins when N(u) - {v} = N(v) - {u}.  Swapping them is an
    automorphism, so it never changes an edge code.  Twinship is an
    equivalence, and only the orderings that keep each twin class in
    ascending order are listed.
    """
    classes: list[list[int]] = []
    for v in cell:
        for twins in classes:
            u = twins[0]
            if rows[u] & ~(1 << v) == rows[v] & ~(1 << u):
                twins.append(v)
                break
        else:
            classes.append([v])
    if len(classes) == len(cell):  # no twins: the same list, built faster
        return list(permutations(cell)), classes
    return _interleavings(classes), classes


def _interleavings(classes: list[list[int]]) -> list[tuple[int, ...]]:
    """Every ordering of the union of classes that keeps each class in order."""
    if len(classes) == 1:
        return [tuple(classes[0])]
    out = []
    for i, (head, *tail) in enumerate(classes):
        rest = classes[:i] + [tail] * bool(tail) + classes[i + 1:]
        out.extend((head,) + order for order in _interleavings(rest))
    return out


class _Labelling(NamedTuple):
    """The best orderings of a graph's vertices and what they give.

    best lists every ordering, up to swaps of twins, whose edge code is the
    key; each is a tuple of vertices by position.  twins holds the twin
    classes with more than one member.
    """

    key: int
    aut: int
    best: list[tuple[int, ...]]
    twins: list[list[int]]


def _labelling(rows: Sequence[int], cells: list[list[int]]) -> _Labelling:
    n = len(rows)
    edges = [(u, v) for v in range(n) for u in range(v) if rows[v] >> u & 1]
    bits = _pair_bits(n)
    key, tied = -1, []
    position = [0] * n
    per_cell = [_cell_orderings(rows, cell) for cell in cells]
    for parts in product(*(orderings for orderings, _ in per_cell)):
        for i, v in enumerate(chain.from_iterable(parts)):
            position[v] = i
        code = 0
        for u, v in edges:
            code |= bits[position[u]][position[v]]
        if code > key:
            key, tied = code, [parts]
        elif code == key:
            tied.append(parts)
    twins = [t for _, classes in per_cell for t in classes if len(t) > 1]
    aut = len(tied)
    for t in twins:
        aut *= factorial(len(t))
    return _Labelling(key, aut, [tuple(chain.from_iterable(p)) for p in tied], twins)


def canonical_form(g: Graph) -> tuple[int, int]:
    """(key, |Aut(g)|); isomorphic graphs, and only they, share the key.

    The key is the largest edge mask over all vertex orderings that list the
    stable colour-refinement cells in order.  Those orderings are permuted
    among themselves by every automorphism, and two of them give the same
    mask exactly when they differ by one, so |Aut| is the number of orderings
    that reach the key.  Twins (vertices with the same neighbours apart from
    each other) are interchangeable, so the orderings are listed up to swaps
    of twins and counted with that multiplicity.  The cost is at most the
    product of the cell factorials (n! for a single cell); intended for n up
    to about 8.
    """
    lab = _labelling(g.rows, _refined_cells(g.rows))
    return lab.key, lab.aut


def _automorphisms(lab: _Labelling) -> list[list[int]]:
    """Generators of Aut(g), each as the list of vertex images.

    For two best orderings o and p, the map o[i] -> p[i] is an automorphism.
    The maps from the first best ordering to each other one, with the
    transpositions of adjacent members of each twin class, generate the
    whole group.
    """
    first = lab.best[0]
    gens = []
    for other in lab.best[1:]:
        image = [0] * len(first)
        for a, b in zip(first, other):
            image[a] = b
        gens.append(image)
    for twins in lab.twins:
        for a, b in zip(twins, twins[1:]):
            image = list(range(len(first)))
            image[a], image[b] = b, a
            gens.append(image)
    return gens


def _hood_orbits(n: int, gens: list[list[int]]) -> list[int]:
    """The smallest vertex mask of each orbit of the group gens generate on
    the 2^n subsets of n vertices, ascending."""
    top = 1 << n
    tables = []
    for image in gens:
        table = [0] * top
        for mask in range(1, top):
            low = mask & -mask
            table[mask] = table[mask ^ low] | 1 << image[low.bit_length() - 1]
        tables.append(table)
    seen = bytearray(top)
    smallest = []
    for mask in range(top):
        if seen[mask]:
            continue
        smallest.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            m = stack.pop()
            for table in tables:
                image = table[m]
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)
    return smallest


def _accepted_labelling(rows: list[int]) -> Optional[_Labelling]:
    """The labelling of rows if their last vertex is the canonical one to
    delete, else None.

    The canonical vertex is the one at the last position of the best
    orderings; it lies in the last refinement cell, so among the vertices
    with the largest (degree, sorted neighbour degrees), which is checked
    first.  The last vertex qualifies when it is in that vertex's orbit: the
    vertices at the last position over all best orderings, closed under
    swaps of twins.  The listed orderings keep each twin class ascending,
    so the last position always holds the largest member of its class; the
    last vertex is the largest of its own, so it is in the closure exactly
    when some listed best ordering ends with it.
    """
    n = len(rows)
    last = n - 1
    degs = [row.bit_count() for row in rows]
    d = degs[last]
    if max(degs) > d:
        return None
    mine = sorted(degs[u] for u in range(last) if rows[last] >> u & 1)
    for v in range(last):
        if degs[v] == d and sorted(
            degs[u] for u in range(n) if rows[v] >> u & 1
        ) > mine:
            return None
    cells = _refined_cells(rows)
    if last not in cells[-1]:
        return None
    lab = _labelling(rows, cells)
    return lab if any(order[-1] == last for order in lab.best) else None


@lru_cache(maxsize=None)
def isomorphism_classes(n: int) -> tuple[tuple[Graph, int], ...]:
    """One graph per isomorphism class of order n, with |Aut|, by ascending key.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998): every order-n graph minus a vertex lies in an
    order-(n-1) class, so adding vertex n-1 to each class representative
    reaches every class.  Neighbourhoods in one orbit of the representative's
    automorphism group give the same child, so only the smallest of each
    orbit is tried.  A child is kept only when vertex n-1 is in the orbit of
    its canonical vertex to delete (_accepted_labelling), which holds for
    exactly one parent class and one neighbourhood orbit, so every class is
    produced once, with no table of keys.  The representative is the graph
    whose edge mask is the key; the class of g has n!/|Aut(g)| labeled
    members.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    if n == 0:
        return ((empty_graph(0), 1),)
    found = []
    new = 1 << (n - 1)
    for parent, _ in isomorphism_classes(n - 1):
        rows = parent.rows
        gens = _automorphisms(_labelling(rows, _refined_cells(rows)))
        for hood in _hood_orbits(n - 1, gens):
            child = [row | new if hood >> v & 1 else row for v, row in enumerate(rows)]
            child.append(hood)
            lab = _accepted_labelling(child)
            if lab is not None:
                found.append((lab.key, lab.aut))
    found.sort()
    return tuple((from_edge_mask(n, key), aut) for key, aut in found)


def labeled_copies(g: Graph) -> list[int]:
    """Edge masks of the distinct relabelings of g, ascending."""
    edges = list(g.edges())
    bits = _pair_bits(g.n)
    return sorted({
        sum(bits[p[u]][p[v]] for u, v in edges) for p in permutations(range(g.n))
    })


# -- graph6 codec ---------------------------------------------------------


class Graph6Error(ValueError):
    """Malformed graph6 input."""


# graph6 writes the first pair of each 6-pair group as the group's most
# significant bit, where the edge mask holds it as the least significant one.
# Entry x is the body byte of the group whose mask bits are x: 63 plus x with
# its 6 bits reversed.
_GRAPH6_BYTES = tuple(
    chr(63 + int(format(x, "06b")[::-1], 2)) for x in range(64)
)


def graph6_from_edge_mask(n: int, mask: int) -> str:
    """graph6 short form of the graph that from_edge_mask(n, mask) builds.

    Defined for 1 <= n <= 62; the mask must lie in [0, 2^C(n,2)).
    """
    if not 1 <= n <= 62:
        raise Graph6Error("short-form graph6 covers 1 <= n <= 62")
    nbits = pair_count(n)
    if mask < 0 or mask >> nbits:
        raise ValueError("edge mask out of range")
    return chr(n + 63) + "".join(
        [_GRAPH6_BYTES[mask >> start & 63] for start in range(0, nbits, 6)]
    )


def write_graph6(g: Graph) -> str:
    """Encode in graph6 short form; defined for 1 <= n <= 62."""
    return graph6_from_edge_mask(g.n, g.edge_mask)


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one short-form graph6 value; bit-exact inverse of write_graph6."""
    if isinstance(text, bytes):
        # latin-1 maps every byte to the code point of its value, so a
        # non-ASCII byte meets the range checks below
        text = text.decode("latin-1")
    text = text.strip(" \t\n\r\v\f")  # ASCII whitespace only
    if not text:
        raise Graph6Error("empty graph6 value")
    head = ord(text[0])
    if head == 126:
        raise Graph6Error("long-form graph6 (n > 62) is not supported")
    if not 63 <= head <= 125:
        raise Graph6Error(f"bad header byte {head}")
    n = head - 63
    nbits = pair_count(n)
    ngroups = (nbits + 5) // 6
    body = text[1:]
    if len(body) != ngroups:
        raise Graph6Error(
            f"expected {ngroups} body bytes for n={n}, got {len(body)}"
        )
    mask = 0
    for i, ch in enumerate(body):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(f"bad body byte {code}")
        group = code - 63
        for k in range(6):
            p = 6 * i + k
            bit = group >> (5 - k) & 1
            if p < nbits:
                mask |= bit << p
            elif bit:
                raise Graph6Error("nonzero padding bits")
    return from_edge_mask(n, mask)
