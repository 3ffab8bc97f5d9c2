"""Immutable simple graphs with bitmask adjacency.

A graph on n vertices is stored as a tuple of n integers; bit u of row v is 1
exactly when {u, v} is an edge.  Vertices are the integers 0..n-1.  All
operations return new graphs; nothing here mutates shared state.

The module also provides the walk over the set bits of a vertex mask
(_bits, lowest vertex first, and _touch, the union of the rows it visits),
the degree classification used throughout (degree classes N_i, their sizes,
the span, built once per graph), canonical keys with automorphism counts
by individualisation-refinement, one walk over the isomorphism classes of
small order, and a bit-exact graph6 codec restricted to the short form
(1 <= n <= 62).

Edge-mask convention: the C(n,2) vertex pairs are numbered in column-major
upper-triangle order, pair (u, v) with u < v at position v*(v-1)/2 + u.  This
matches the bit order of the graph6 format, so the integer produced by
``Graph.edge_mask`` packs exactly the bits that graph6 serializes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


def _bits(mask: int) -> Iterator[int]:
    """The vertices of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _touch(rows, mask: int) -> int:
    """Every vertex adjacent to some vertex of mask."""
    out = 0
    for v in _bits(mask):
        out |= rows[v]
    return out


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
        return tuple(_bits(self.mask))

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.size


class Graph:
    """Simple undirected graph; immutable after construction."""

    # _degree_classes is derived from rows and filled by classify_degrees
    __slots__ = ("n", "rows", "_degree_classes")

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
        object.__setattr__(self, "_degree_classes", None)

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
        for v, row in enumerate(self.rows):
            for u in _bits(row & ((1 << v) - 1)):
                yield (u, v)

    @property
    def edge_mask(self) -> int:
        """All edges packed into one integer in pair-index order."""
        mask = 0
        for u, v in self.edges():
            mask |= 1 << pair_index(u, v)
        return mask

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.rows[v]))


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


@dataclass(frozen=True, slots=True)
class DegreeClassification:
    """Degree analytics: the degree of each vertex, the classes N_i as vertex
    masks by ascending degree i, their sizes n_i, and the span."""

    degrees: tuple[int, ...]
    masks: dict[int, int]
    sizes: dict[int, int]
    span: int
    delta: int
    Delta: int


def classify_degrees(g: Graph) -> DegreeClassification:
    """Group vertices by degree.  Raises ValueError for n = 0.

    The one place the package groups vertices by degree.  The first call on
    a Graph keeps the result in it, and later calls return that object.
    """
    if g._degree_classes is None:
        if g.n == 0:
            raise ValueError("needs at least one vertex")
        degs = g.degrees()
        masks = dict.fromkeys(sorted(set(degs)), 0)
        for v, d in enumerate(degs):
            masks[d] |= 1 << v
        sizes = {d: mask.bit_count() for d, mask in masks.items()}
        dc = DegreeClassification(degs, masks, sizes, len(masks), min(degs), max(degs))
        object.__setattr__(g, "_degree_classes", dc)
    return g._degree_classes


# -- canonical form and isomorphism classes -------------------------------


def _refined(
    rows: Sequence[int], colour: Sequence[int], top: int = -1
) -> Optional[list[int]]:
    """The stable colour refinement of colour, as ranks from 0.

    Each round recolours every vertex by its own colour and its number of
    neighbours in each class, ranked in sorted order, until no class
    splits.  Nothing depends on the labels, so isomorphic graphs with
    corresponding colourings get corresponding classes.  A round only
    splits classes and keeps their order, so a vertex that leaves the
    highest class never returns to it: with top given, the result is None
    as soon as vertex top is outside the highest class.
    """
    while True:
        if top >= 0 and colour[top] != max(colour):
            return None
        masks = [0] * (max(colour, default=0) + 1)
        for v, c in enumerate(colour):
            masks[c] |= 1 << v
        signature = [
            (c, *[(row & mask).bit_count() for mask in masks])
            for c, row in zip(colour, rows)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(signature)))}
        stable = len(rank) == len(set(colour))
        colour = [rank[s] for s in signature]
        if stable:
            return colour


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(1 << pair_index(i, j) if i != j else 0 for j in range(n))
        for i in range(n)
    )


class _Labelling(NamedTuple):
    """What the search of _labelling finds.

    key is the largest leaf code, aut the total weight of the leaves that
    reach it, and best their orderings, each a tuple of vertices by
    position.  twins holds the twin classes with more than one member.
    """

    key: int
    aut: int
    best: list[tuple[int, ...]]
    twins: list[list[int]]


def _labelling(rows: Sequence[int], colour: list[int]) -> _Labelling:
    """Individualisation-refinement (McKay and Piperno, "Practical graph
    isomorphism II", J. Symbolic Comput. 60, 2014) from a stable colouring.

    u and v are twins when N(u) - {v} = N(v) - {u}; swapping them is an
    automorphism that keeps every colouring below, so one twin stands for
    all of its class.  A node whose every colour class is one twin class is
    a leaf: its ordering lists the classes by colour, members ascending, and
    its code is the edge mask of the graph relabelled by it.  Reordering
    twins keeps the code, so the leaf weighs the product of the class-size
    factorials.  Any other node takes its lowest class with two or more twin
    classes and, for each twin class T there, gives min(T) a colour just
    above that class, refines, and descends with its weight times |T|.
    """
    n = len(rows)
    twin = list(range(n))  # the smallest twin of each vertex
    heads: dict[int, list[int]] = {}  # twins share every stable colour
    for v, c in enumerate(colour):
        for u in heads.setdefault(c, []):
            if rows[u] & ~(1 << v) == rows[v] & ~(1 << u):
                twin[v] = u
                break
        else:
            heads[c].append(v)
    edges = [(u, v) for v in range(n) for u in range(v) if rows[v] >> u & 1]
    bits = _pair_bits(n)
    key, aut, best = -1, 0, []
    stack = [(colour, 1)]
    while stack:
        colour, weight = stack.pop()
        classes: list[dict[int, list[int]]] = [{} for _ in range(n)]
        for v, c in enumerate(colour):
            classes[c].setdefault(twin[v], []).append(v)
        split = next((cell for cell in classes if len(cell) > 1), None)
        if split is not None:
            base = [2 * c for c in colour]
            for members in split.values():
                child = base.copy()
                child[members[0]] += 1
                stack.append((_refined(rows, child), weight * len(members)))
            continue
        order = tuple(sorted(range(n), key=colour.__getitem__))
        position = sorted(range(n), key=order.__getitem__)  # inverse of order
        code = 0
        for u, v in edges:
            code |= bits[position[u]][position[v]]
        for cell in classes:
            for members in cell.values():
                weight *= factorial(len(members))
        if code > key:
            key, aut, best = code, weight, [order]
        elif code == key:
            aut += weight
            best.append(order)
    twins = [[v for v in range(n) if twin[v] == u] for u in dict.fromkeys(twin)]
    return _Labelling(key, aut, best, [t for t in twins if len(t) > 1])


def canonical_form(g: Graph) -> tuple[int, int]:
    """(key, |Aut(g)|); isomorphic graphs, and only they, share the key.

    The key is the largest leaf code of _labelling, run from the refinement
    of the degrees.  The search depends on no label, so isomorphic graphs
    reach the same leaf codes, and a code is the edge mask of a relabelling,
    so it fixes the graph up to isomorphism.  With its weight, a leaf stands
    for the orderings that swapping twins gives from it and from the twins
    the search skipped.  Aut(g) permutes those orderings freely, and two of
    them give the same code exactly when they differ by an automorphism, so
    |Aut| is the weight of the leaves that reach the key.
    """
    lab = _labelling(g.rows, _refined(g.rows, g.degrees()))
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
    orderings.  It lies in the highest class of the refinement, so
    refinement stops as soon as the last vertex leaves that class.  The last
    vertex qualifies when it is in that vertex's orbit, which is every
    vertex at the last position of a best ordering together with its twins.
    """
    last = len(rows) - 1
    colour = _refined(rows, [row.bit_count() for row in rows], last)
    if colour is None:
        return None
    lab = _labelling(rows, colour)
    mates = next((t for t in lab.twins if last in t), [last])
    return lab if any(order[-1] in mates for order in lab.best) else None


def _class_walk(
    n_max: int, cap: int, shard: tuple[int, int] = (0, 1)
) -> Iterator[tuple[list[int], _Labelling]]:
    """Every isomorphism class of order <= n_max with at most cap edges, once
    each, depth first, as one member's rows and the labelling that accepted
    them; or, for shard (i, k), the i-th of k disjoint parts of that walk.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998): adding vertex n to one member of each order-n
    class reaches every class of order n+1.  Neighbourhoods in one orbit of
    the member's automorphism group, which its own labelling holds, give the
    same child, so only the smallest of each orbit is tried.  A child is kept
    only when its new vertex is in the orbit of its canonical vertex to
    delete (_accepted_labelling), which holds for exactly one parent class and
    one neighbourhood orbit, so every class comes out once, with no table of
    keys.  A child has all its parent's edges, so cutting at cap on the way
    down loses no class with at most cap edges.

    A shard deals the entries of each order below n_max in walk order, the
    j-th to shard j mod k, and an entry of order n_max goes with its parent:
    shard i descends only from the order-(n_max - 1) entries dealt to it (the
    split of geng's res/mod).  Every shard still walks the lower orders
    whole, to reach its parents, but yields only its own entries, so the k
    shards partition the walk.
    """
    i, k = shard
    dealt = [0] * (n_max + 1)  # entries of each order below n_max met so far
    stack = [([], _labelling([], []), 0)]
    while stack:
        rows, lab, m = stack.pop()
        n = len(rows)
        if n < n_max or n == 0:
            mine = dealt[n] % k == i
            dealt[n] += 1
        else:  # the walk reaches order n_max only from this shard's parents
            mine = True
        if mine:
            yield rows, lab
        if n == n_max or (n == n_max - 1 and not mine):
            continue
        new = 1 << n
        for hood in _hood_orbits(n, _automorphisms(lab)):
            m_child = m + hood.bit_count()
            if m_child > cap:
                continue
            child = [row | new if hood >> v & 1 else row for v, row in enumerate(rows)]
            child.append(hood)
            accepted = _accepted_labelling(child)
            if accepted is not None:
                stack.append((child, accepted, m_child))


@lru_cache(maxsize=None)
def isomorphism_classes(n: int) -> tuple[tuple[Graph, int], ...]:
    """One graph per isomorphism class of order n, with |Aut|, by ascending key.

    The classes are the order-n entries of _class_walk.  The representative
    is the graph whose edge mask is the key; its class has n!/|Aut| members.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    walk = _class_walk(n, pair_count(n))
    found = sorted((lab.key, lab.aut) for rows, lab in walk if len(rows) == n)
    return tuple((from_edge_mask(n, key), aut) for key, aut in found)


@lru_cache(maxsize=None)
def _adjacent_swaps(n: int) -> tuple[tuple[int, int, int], ...]:
    """For each i < n-1, the masks that move an edge mask's bits when
    vertices i and i+1 swap: (low, next, keep).

    Pairs {k, i} with k < i sit i positions below pairs {k, i+1}, and pairs
    {i, k} with k > i+1 one position below pairs {i+1, k}; low marks the
    first group, next the second, and keep every pair that stays put.
    """
    full = (1 << pair_count(n)) - 1
    swaps = []
    for i in range(n - 1):
        low = sum(1 << pair_index(k, i) for k in range(i))
        nxt = sum(1 << pair_index(i, k) for k in range(i + 2, n))
        swaps.append((low, nxt, full & ~(low | low << i | nxt | nxt << 1)))
    return tuple(swaps)


def labeled_copies(g: Graph) -> set[int]:
    """Edge masks of the distinct relabelings of g: its orbit under S_n.

    The orbit is walked up the chain S_1 < S_2 < ... < S_n, where S_k
    permutes vertices 0..k-1.  Once O holds the orbit under S_k, the
    permutations c_j = s_j s_{j+1} ... s_{k-1} (s_i swaps vertices i and
    i+1) send vertex k to j, one per coset of S_k in S_{k+1}, so the union
    of c_j(O) over j <= k is the orbit under S_{k+1}.  c_j(O) is s_j applied
    to c_{j+1}(O), and one s_i on an edge mask exchanges two pairs of bit
    groups (_adjacent_swaps).  The work is about one swap per member,
    n!/|Aut(g)| of them, instead of n! relabelings.
    """
    swaps = _adjacent_swaps(g.n)
    orbit = {g.edge_mask}
    for k in range(1, g.n):
        coset = orbit
        for i in range(k - 1, -1, -1):
            low, nxt, keep = swaps[i]
            coset = {
                x & keep | (x & low) << i | x >> i & low | (x & nxt) << 1 | x >> 1 & nxt
                for x in coset
            }
            orbit |= coset
    return orbit


# -- graph6 codec ---------------------------------------------------------


class Graph6Error(ValueError):
    """Malformed graph6 input."""


# graph6 writes the first pair of each 6-pair group as the group's most
# significant bit, where the edge mask holds it as the least significant one.
# Entry x is the body byte of the group whose mask bits are x: 63 plus x with
# its 6 bits reversed.  _GRAPH6_GROUPS maps each body byte back to its x.
_GRAPH6_BYTES = tuple(
    chr(63 + int(format(x, "06b")[::-1], 2)) for x in range(64)
)
_GRAPH6_GROUPS = {byte: x for x, byte in enumerate(_GRAPH6_BYTES)}


def graph6_from_edge_masks(n: int, masks: Iterable[int]) -> list[str]:
    """graph6 short forms of the graphs that from_edge_mask(n, mask) builds,
    one per mask, with n checked and the header built once.

    Defined for 1 <= n <= 62; each mask must lie in [0, 2^C(n,2)).
    """
    if not 1 <= n <= 62:
        raise Graph6Error("short-form graph6 covers 1 <= n <= 62")
    nbits = pair_count(n)
    head, starts = chr(n + 63), range(0, nbits, 6)
    out = []
    for mask in masks:
        if mask < 0 or mask >> nbits:
            raise ValueError("edge mask out of range")
        out.append(head + "".join([_GRAPH6_BYTES[mask >> s & 63] for s in starts]))
    return out


def graph6_from_edge_mask(n: int, mask: int) -> str:
    """graph6 short form of the graph that from_edge_mask(n, mask) builds."""
    return graph6_from_edge_masks(n, [mask])[0]


def write_graph6(g: Graph) -> str:
    """Encode in graph6 short form; defined for 1 <= n <= 62."""
    return graph6_from_edge_mask(g.n, g.edge_mask)


# the only blanks parse_graph6 strips; a Unicode space fails the parse
ASCII_WHITESPACE = " \t\n\r\v\f"

# errors="surrogateescape" reads an undecodable byte b as U+DC00 + b
_ESCAPED_BYTES = {0xDC00 + b: b for b in range(0x80, 0x100)}


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one short-form graph6 value; bit-exact inverse of write_graph6."""
    if isinstance(text, bytes):
        # latin-1 maps every byte to the code point of its value, so a
        # non-ASCII byte meets the range checks below, as does an escaped one
        text = text.decode("latin-1")
    text = text.translate(_ESCAPED_BYTES).strip(ASCII_WHITESPACE)
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
        group = _GRAPH6_GROUPS.get(ch)
        if group is None:
            raise Graph6Error(f"bad body byte {ord(ch)}")
        mask |= group << 6 * i
    if mask >> nbits:  # the bits past the last pair pad the last byte
        raise Graph6Error("nonzero padding bits")
    return from_edge_mask(n, mask)
