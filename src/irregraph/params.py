"""Exact graph parameters with optimal witnesses.

Six quantities are computed exactly: the independence number alpha, the
irregular independence number alpha_ir (independent sets whose member degrees
are pairwise distinct), the regular independence number alpha_reg (independent
sets whose members share one degree), the irregular domination number gamma_ir
(dominating sets D such that the counts |N(v) cap D| are pairwise distinct
over v outside D), its regular counterpart gamma_reg (all counts equal), and
the maximum cut beta.

Every solver returns an Extremum: the optimal value together with a witness
set attaining it.  Among optimal sets the witness is always the one with the
numerically smallest vertex bitmask.  Two masks compare at the highest vertex
in which they differ, so this is not the lexicographically smallest sorted
member tuple: on the 4-cycle with edges 01, 02, 13, 23 the maximum
independent sets are {1, 2} (mask 6) and {0, 3} (mask 9), and the witness is
{1, 2}.  The naive_* oracles realize the same tie-break by scanning all 2^n
subsets and taking the smallest (size, mask) key, with the size negated for a
maximum; the optimized solvers match them bit for bit, which the test suite
checks exhaustively up to order 5 and on random graphs up to order 15.

Everything here enumerates subsets, so the intended range is small n.  Up
to order LATTICE_MAX = 9 alpha, alpha_ir, alpha_reg, gamma_ir and gamma_reg
read the subset tables of their order (_lattice, built on first use),
bitsets with a bit and ints with a byte lane per subset: an AND over the
vertices keeps the independent sets, one pass over one-hot count lanes the
valid dominating sets.  The best size comes first, then its lowest subset.
Above LATTICE_MAX, alpha, alpha_ir and alpha_reg share one branch-and-bound
maximum independent set search that yields the smallest-mask witness
directly; alpha_ir runs it with every degree class joined into a clique,
alpha_reg inside each degree class.  The solvers whose cost is a hard 2^n
(gamma_ir, gamma_reg, max_cut) refuse n > SIZE_GUARD = 26.  max_cut takes
one path at every order: each side splits into a low part over the first
min(n - 1, LATTICE_MAX) vertices and a high part over the rest.  One int,
summed from the count lanes of the subset tables, packs the cuts of all low
parts into byte lanes, and the high parts are walked in Gray-code order, so
each high part costs one big-integer step and a scan of the lanes in C, not
one Python step per side; up to order 9 there is no high part to walk.
Above LATTICE_MAX one packed pass answers gamma_ir and gamma_reg together,
and a cache of one graph serves the second solver: each set splits into a
low part over the first twelve vertices and a high part over the rest.
One int holds a bit per low part, and a few big-integer operations per
vertex mark the low parts at which two outside vertices have the same
count and those at which two have different counts, for every size at
once.  The high parts are the leaves of a depth-first walk that folds
each vertex once per setting of the high vertices it reads; they come in
ascending order, so only a smaller size replaces an answer.  A dense
graph counts non-neighbours, of which each vertex has fewer: outside D
the two counts add up to |D|, so they are distinct, or all equal,
together.  gamma_ir reads no bound on its answer at any order, so the
Thm 4.1 check tests an independently found minimum.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, NamedTuple

from irregraph.graph import Graph, VertexSet, _touch, classify_degrees

SIZE_GUARD = 26


class Extremum(NamedTuple):
    value: int
    witness: VertexSet


def _check_subset(g: Graph, s: VertexSet) -> None:
    if s.n != g.n:
        raise ValueError("vertex set is sized for a different graph")


# -- predicates -------------------------------------------------------------


def _independent_mask(rows, mask: int) -> bool:
    rest = mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        if rows[v] & mask:
            return False
        rest &= rest - 1
    return True


def _degrees_fit(degs, mask: int, distinct: bool) -> bool:
    """Whether the degrees over mask are pairwise distinct (distinct=True)
    or all equal (False)."""
    # bit d of barred rules degree d out for the next member: distinct
    # degrees bar each degree once seen, equal degrees every one but the first
    barred = 0
    rest = mask
    while rest:
        bit = 1 << degs[(rest & -rest).bit_length() - 1]
        if barred & bit:
            return False
        barred = barred | bit if distinct else ~bit
        rest &= rest - 1
    return True


def _domination_counts_ok(
    rows, n: int, mask: int, distinct: bool
) -> bool:
    """Domination plus the count condition on vertices outside the set.

    distinct=True asks for pairwise distinct counts |N(v) cap D|, False for
    all counts equal.  Either way a zero count fails (undominated vertex).
    """
    outside = ((1 << n) - 1) ^ mask
    seen = 0
    first = -1
    rest = outside
    while rest:
        v = (rest & -rest).bit_length() - 1
        c = (rows[v] & mask).bit_count()
        if c == 0:
            return False
        if distinct:
            bit = 1 << c
            if seen & bit:
                return False
            seen |= bit
        else:
            if first < 0:
                first = c
            elif c != first:
                return False
        rest &= rest - 1
    return True


def is_independent(g: Graph, a: VertexSet) -> bool:
    _check_subset(g, a)
    return _independent_mask(g.rows, a.mask)


def _fitting_independent(g: Graph, a: VertexSet, distinct: bool) -> bool:
    """Independent with degrees that _degrees_fit; the empty set, the only
    subset of the empty graph, always is."""
    _check_subset(g, a)
    return not a.mask or _independent_mask(g.rows, a.mask) and _degrees_fit(
        classify_degrees(g).degrees, a.mask, distinct
    )


def is_irregular_independent(g: Graph, a: VertexSet) -> bool:
    """Independent with pairwise distinct degrees in g."""
    return _fitting_independent(g, a, distinct=True)


def is_regular_independent(g: Graph, a: VertexSet) -> bool:
    """Independent with all member degrees equal."""
    return _fitting_independent(g, a, distinct=False)


def is_dominating(g: Graph, d: VertexSet) -> bool:
    """D and its neighbours cover every vertex."""
    _check_subset(g, d)
    return d.mask | _touch(g.rows, d.mask) == (1 << g.n) - 1


def is_irregular_dominating(g: Graph, d: VertexSet) -> bool:
    """Dominating with pairwise distinct counts |N(v) cap D| outside D."""
    _check_subset(g, d)
    return _domination_counts_ok(g.rows, g.n, d.mask, distinct=True)


def is_regular_dominating(g: Graph, d: VertexSet) -> bool:
    """Dominating with all counts |N(v) cap D| equal outside D."""
    _check_subset(g, d)
    return _domination_counts_ok(g.rows, g.n, d.mask, distinct=False)


# -- naive oracles ------------------------------------------------------------

# Each oracle scans every subset mask and takes the smallest (size, mask)
# key, its size negated for a maximum, so the witness is the smallest mask of
# the optimal size.  They exist as the ground truth the optimized solvers are
# validated against and stay dumb on purpose; do not optimize them.


def _naive(g: Graph, valid: Callable[[int], bool], largest: bool) -> Extremum:
    sign = -1 if largest else 1
    size, mask = min(
        ((sign * mask.bit_count(), mask) for mask in range(1 << g.n) if valid(mask)),
        default=(None, 0),
    )
    if size is None:
        raise ValueError("no valid set exists")
    return Extremum(sign * size, VertexSet(g.n, mask))


def naive_alpha(g: Graph) -> Extremum:
    rows = g.rows
    return _naive(g, lambda mask: _independent_mask(rows, mask), largest=True)


def naive_alpha_ir(g: Graph) -> Extremum:
    rows, degs = g.rows, g.degrees()
    return _naive(
        g,
        lambda mask: _independent_mask(rows, mask) and _degrees_fit(degs, mask, True),
        largest=True,
    )


def naive_alpha_reg(g: Graph) -> Extremum:
    rows, degs = g.rows, g.degrees()
    return _naive(
        g,
        lambda mask: _independent_mask(rows, mask) and _degrees_fit(degs, mask, False),
        largest=True,
    )


def naive_gamma_ir(g: Graph) -> Extremum:
    rows, n = g.rows, g.n
    return _naive(
        g, lambda mask: _domination_counts_ok(rows, n, mask, distinct=True),
        largest=False,
    )


def naive_gamma_reg(g: Graph) -> Extremum:
    rows, n = g.rows, g.n
    return _naive(
        g, lambda mask: _domination_counts_ok(rows, n, mask, distinct=False),
        largest=False,
    )


def _cut(rows, n: int, side: int) -> int:
    """The number of edges between side and the other vertices."""
    out = ((1 << n) - 1) ^ side
    cut = 0
    rest = side
    while rest:
        v = (rest & -rest).bit_length() - 1
        cut += (rows[v] & out).bit_count()
        rest &= rest - 1
    return cut


def naive_max_cut(g: Graph) -> Extremum:
    rows, n = g.rows, g.n
    cut, side = min((-_cut(rows, n, side), side) for side in range(1 << n))
    return Extremum(-cut, VertexSet(n, side))


# -- optimized solvers ---------------------------------------------------------


def _guard(g: Graph, enumerator: str = "") -> None:
    """Refuse the order-0 graph, and n > SIZE_GUARD for a named enumerator."""
    if g.n < 1:
        raise ValueError("parameters need at least one vertex")
    if enumerator and g.n > SIZE_GUARD:
        raise ValueError(
            f"{enumerator} enumerates 2^n subsets; n={g.n} exceeds the size guard "
            f"({SIZE_GUARD})"
        )


# The largest order solved from the subset tables of _lattice, and the most
# low vertices of max_cut's walk.  Mean us per call, tables -> general path
# (branch and bound, packed pass), nine G(n, p) draws per n (p = 0.2, 0.5,
# 0.8), medians of seven alternating rounds, two runs on a 2-vCPU Xeon.
# n = 9: alpha 6-7 -> 18-19, alpha_ir 8-10 -> 18-20, alpha_reg 4-7 -> 11-17,
# gamma_ir 11-18 -> 74-140, gamma_reg 9-14 -> 90-157.  n = 10: 6-8 -> 19-22,
# 10-12 -> 20-24, 5-9 -> 13-21, 18-24 -> 104-144, 13-14 -> 117-127.  The
# tables still win at 10, but take 2.4 MB there (0.64 MB at 9), and a count
# can reach 9, past the 0-7 that a one-hot byte holds.
LATTICE_MAX = 9
# bytes.translate tables: _ONE_HOT[c] is 1 << c as a byte (0 from c = 8);
# _CLEAR gives the digit 1 for a zero byte, _SHARED for one above 1.
_ONE_HOT = bytes(1 << c & 255 for c in range(256))
_CLEAR = b"1" + b"0" * 255
_SHARED = b"00" + b"1" * 254


_Lattice = namedtuple("_Lattice", "sizes disjoint counts hot outside_lanes")


@functools.lru_cache(maxsize=None)
def _lattice(n: int) -> _Lattice:
    """The subset tables of order n, built on first use.  A subset S of
    [0, n) is bit S of a bitset, or byte lane S of a lane int.

    sizes[j]: the S with |S| = j.  disjoint[r]: the S disjoint from r, so
    disjoint[1 << v] is the S without v.  counts[r] and hot[r]: lane S holds
    |r cap S|, as a count and as _ONE_HOT[count].  outside_lanes[v]: 255 in
    the lanes of the S without v.  disjoint[r] and counts[r] come from r
    less its lowest vertex v.  The tables are tuples so that no caller can
    change a cached one.
    """
    subsets = range(1 << n)
    width = len(subsets)
    member = [int.from_bytes(bytes(s >> v & 1 for s in subsets), "little")
              for v in range(n)]
    outside = [_lane_digits(lanes, n, _CLEAR) for lanes in member]
    disjoint, counts = [(1 << width) - 1], [0]
    for r in subsets[1:]:
        v = (r & -r).bit_length() - 1
        disjoint.append(disjoint[r & r - 1] & outside[v])
        counts.append(counts[r & r - 1] + member[v])
    sizes = [_lane_digits(counts[-1], n, b"0" * j + b"1" + b"0" * (255 - j))
             for j in range(n + 1)]
    hot = [int.from_bytes(c.to_bytes(width, "little").translate(_ONE_HOT), "little")
           for c in counts]
    every_lane = (1 << 8 * width) - 1
    return _Lattice(
        tuple(sizes), tuple(disjoint), tuple(counts), tuple(hot),
        tuple(every_lane ^ 255 * lanes for lanes in member),
    )


def _lane_digits(lanes: int, n: int, table: bytes) -> int:
    """The bitset of the S whose byte lane table maps to the digit 1."""
    return int(lanes.to_bytes(1 << n, "little").translate(table)[::-1], 2)


def _best(found: int, sizes, order) -> tuple[int, int]:
    """The first size in order with a subset in found, and its smallest
    mask; found must hold a subset of some size in order."""
    for j in order:
        hit = found & sizes[j]
        if hit:
            return j, (hit & -hit).bit_length() - 1
    raise AssertionError("no subset of the sizes asked for; solver bug")


def _max_independent(rows, cand: int) -> tuple[int, int]:
    """Size and mask of the smallest-mask maximum independent set in cand.

    Vertex-ordered branch and bound (Carraghan and Pardalos, 1990, for
    independent sets): branch on the highest candidate, leaving it out
    first, so the leaves come in ascending mask order.  A branch is cut
    when even taking every remaining candidate cannot beat the incumbent,
    and the incumbent only changes on strict improvement, so the first
    set of the final size reached is the smallest-mask one.
    """
    best = best_mask = 0

    def grow(cand: int, chosen: int, count: int) -> None:
        nonlocal best, best_mask
        if count + cand.bit_count() <= best:
            return
        if not cand:
            best, best_mask = count, chosen
            return
        top = 1 << (cand.bit_length() - 1)
        grow(cand ^ top, chosen, count)
        grow(cand & ~(rows[top.bit_length() - 1] | top), chosen | top, count + 1)

    grow(cand, 0, 0)
    return best, best_mask


def _largest_independent(rows, classes) -> tuple[int, int]:
    """Size and mask of the smallest-mask largest independent set of rows
    that lies inside one of the vertex masks in classes.

    Up to LATTICE_MAX, one AND per vertex over the subset tables keeps the
    independent subsets; above, _max_independent searches each class.
    """
    n = len(rows)
    if n > LATTICE_MAX:
        return max((_max_independent(rows, c) for c in classes),
                   key=lambda found: (found[0], -found[1]))
    lat = _lattice(n)
    found = 0
    for c in classes:
        found |= lat.disjoint[c ^ (1 << n) - 1]
    for v, row in enumerate(rows):
        found &= lat.disjoint[1 << v] | lat.disjoint[row]
    return _best(found, lat.sizes, range(n, -1, -1))


def alpha(g: Graph) -> Extremum:
    """Independence number with the smallest-mask maximum independent set."""
    _guard(g)
    size, mask = _largest_independent(g.rows, [(1 << g.n) - 1])
    return Extremum(size, VertexSet(g.n, mask))


def alpha_ir(g: Graph) -> Extremum:
    """Irregular independence number.

    An irregular independent set takes at most one vertex per degree class,
    so it is an independent set of g once each degree class is made a
    clique: the one search runs on rows[v] | class of deg v, less v itself,
    the class masks coming from classify_degrees.
    """
    _guard(g)
    dc = classify_degrees(g)
    rows = [row | dc.masks[d] ^ 1 << v
            for v, (row, d) in enumerate(zip(g.rows, dc.degrees))]
    size, mask = _largest_independent(rows, [(1 << g.n) - 1])
    return Extremum(size, VertexSet(g.n, mask))


def alpha_reg(g: Graph) -> Extremum:
    """Regular independence number.

    A regular independent set lies inside one degree class, so the search
    keeps the independent sets inside some class; the largest wins, and on
    a tie the smaller mask.
    """
    _guard(g)
    size, mask = _largest_independent(g.rows, classify_degrees(g).masks.values())
    return Extremum(size, VertexSet(g.n, mask))


# The most low vertices in the packed domination pass: 2^12 bits a bitset.
# gamma_ir plus gamma_reg (one pass) over the 102 compute-benchmark graphs,
# median of 10 rounds in rotating order, three runs on a 2-vCPU AMD EPYC:
# 26.3-26.9 ms at 11, 22.9-23.3 at 12, 24.5-24.9 at 13.  Paired with 12,
# 11 was faster in 0 of the 10 rounds of every run, 13 in 1 of each.
_DOMINATION_LOW = 12


def _low_levels(row: int, v: int, t: int) -> list[int]:
    """Entry c: the bitset of the low parts L over 0..t-1, one bit per L,
    with v not in L and |row cap L| = c.

    Each vertex i < t doubles the bitset: the new upper half is the old
    one, one level up if row holds i, and empty at i = v.
    """
    levels = [1]
    for i in range(t):
        shift = 1 << i
        if i == v:
            continue
        if row >> i & 1:
            levels.append(0)
            for c in range(len(levels) - 1, 0, -1):
                levels[c] |= levels[c - 1] << shift
        else:
            levels = [level | level << shift for level in levels]
    return levels


@functools.lru_cache(maxsize=_DOMINATION_LOW + 1)  # one entry per width t
def _low_sizes(t: int) -> tuple[tuple, tuple]:
    """pop[j] and upto[j]: the L over 0..t-1 with |L| = j, and |L| <= j."""
    pop = _low_levels((1 << t) - 1, -1, t)
    return tuple(pop), tuple(itertools.accumulate(pop))


@functools.lru_cache(maxsize=1)
def _packed_dominating(rows: tuple[int, ...], t: int) -> tuple[tuple, tuple]:
    """(size, mask) of the smallest-mask irregular dominating set, then of
    the smallest-mask regular one, by one exact walk over the high parts.
    The cache keeps the last graph, so gamma_ir and gamma_reg share one walk.

    A set splits into a low part L over the vertices below t and a high
    part H over the rest.  One int has a bit per L.  A dense graph
    (2m > C(n, 2)) counts non-neighbours instead of neighbours: for v
    outside D the two counts add up to |D|, so they are pairwise distinct,
    or all equal, together, and a vertex has fewer non-neighbours to count.
    Per vertex v, _low_levels of its counted row gives the bits at which v
    is outside L with c counted vertices in it, and free_v the bits at
    which v is outside L with no neighbour in it.  For each H, a vertex v
    outside H has a_v counted vertices in H, and its levels, shifted up by
    a_v, are ORed into a holder per count.  A bit held twice by one holder
    clashes, a bit in two holders is shared, and free_v of each v with no
    neighbour in H is dead (v undominated).  H | L is irregular dominating
    exactly when L is neither clash nor dead, and regular dominating when
    it is neither shared nor dead.

    The H are the leaves of a depth-first walk that sets the high vertices
    from n - 1 down, out before in, so they come in ascending order.  v's
    holder fold reads v and its counted high vertices, its dead fold v and
    its high neighbours; each runs once, at the depth that sets the last of
    them, for every leaf below, and a subtree whose |H| cannot beat both
    incumbents is skipped.  Per answer, the smallest j with a valid L of
    size j, and its lowest bit, replace the incumbent only when |H| + j is
    smaller: the smallest size, and for it the smallest mask.
    """
    n = len(rows)
    m = n - t
    dense = sum(map(int.bit_count, rows)) > n * (n - 1) // 2
    pop, upto = _low_sizes(t)
    folds, deaths = defaultdict(list), defaultdict(list)
    root, dead = 1 << m, 0  # folds[1 << i] wait for high vertex t + i; root: none read
    for v, row in enumerate(rows):
        bit = 1 << v
        counted = (1 << n) - 1 ^ row ^ bit if dense else row
        levels = _low_levels(counted, v, t)
        # dense: the L whose every member is a counted non-neighbour
        free = sum(map(int.__and__, levels, pop)) if dense else levels[0]
        hold, die = (counted | bit) >> t | root, (row | bit) >> t | root
        folds[hold & -hold].append((bit, counted, levels))
        if die == root:  # a low v with no high neighbour is dead at every H
            dead |= free
        else:
            deaths[die & -die].append((row | bit, free))
    best, masks = [n + 1, n + 1], [0, 0]

    def walk(step: int, high: int, holders: list, clash: int, dead: int):
        for bit, counted, levels in folds[step]:
            if not high & bit:
                for c, where in enumerate(levels, (counted & high).bit_count()):
                    before = holders[c]
                    clash |= before & where
                    holders[c] = before | where
        for reads, free in deaths[step]:
            if not reads & high:
                dead |= free
        size = high.bit_count()
        if step > 1:
            walk(step >> 1, high, holders[:], clash, dead)
            if size + 1 < max(best):
                walk(step >> 1, high | step >> 1 << t, holders, clash, dead)
            return
        seen = shared = 0
        for holder in filter(None, holders):
            shared |= seen & holder
            seen |= holder
        for k, bad in enumerate((clash | dead, shared | dead)):
            room = min(t, best[k] - size - 1)
            valid = upto[room] & ~bad if room >= 0 else 0
            if valid:
                for j in range(room + 1):
                    found = valid & pop[j]
                    if found:
                        best[k] = size + j
                        masks[k] = high | (found & -found).bit_length() - 1
                        break

    walk(root, 0, [0] * n, 0, dead)
    return tuple(zip(best, masks))


def _lattice_dominating(rows, n: int, distinct: bool) -> tuple[int, int]:
    """Size and mask of the smallest-mask dominating set with the count
    condition of _min_dominating, from the subset tables of order n.

    Lane S of hot[rows[v]], kept where v is outside S, is the one-hot count
    |N(v) cap S|.  Distinct counts: a bit that a second vertex sets again
    clashes, and bit 0 (hot[0] in every lane) is an undominated vertex.
    Equal counts: the AND over v of hot[rows[v]], all ones where v is in S,
    keeps a bit above bit 0 only where every vertex outside S has that
    count.  A count of 8 has no bit: only S = V - v with v adjacent to all
    of S at n = 9 has one, where no other vertex can clash and {v} alone is
    regular dominating.
    """
    lat = _lattice(n)
    if distinct:
        seen = clash = 0
        for row, out in zip(rows, lat.outside_lanes):
            where = lat.hot[row] & out
            clash |= seen & where
            seen |= where
        valid = _lane_digits(clash | seen & lat.hot[0], n, _CLEAR)
    else:
        common = (1 << (8 << n)) - 1
        for row, out in zip(rows, lat.outside_lanes):
            common &= lat.hot[row] | ~out
        valid = _lane_digits(common, n, _SHARED)
    return _best(valid, lat.sizes, range(n + 1))


def _min_dominating(g: Graph, distinct: bool) -> Extremum:
    """The smallest-mask dominating set of the smallest size.

    distinct=True asks for pairwise distinct counts |N(v) cap D| over v
    outside D, False for all counts equal.  Up to LATTICE_MAX the subset
    tables settle every size at once (_lattice_dominating), above it the
    packed pass, which finds both answers (_packed_dominating); either
    answer is checked once here.
    """
    rows, n = g.rows, g.n
    if n <= LATTICE_MAX:
        size, mask = _lattice_dominating(rows, n, distinct)
    else:
        size, mask = _packed_dominating(rows, min(n, _DOMINATION_LOW))[not distinct]
    if not _domination_counts_ok(rows, n, mask, distinct):
        raise AssertionError("domination search returned an invalid set")
    return Extremum(size, VertexSet(n, mask))


def gamma_ir(g: Graph) -> Extremum:
    """Irregular domination number: every size is settled at once, so no
    bound on the answer is read."""
    _guard(g, "gamma_ir")
    return _min_dominating(g, distinct=True)


def gamma_reg(g: Graph) -> Extremum:
    """Regular (fair) domination number."""
    _guard(g, "gamma_reg")
    return _min_dominating(g, distinct=False)


# _BELOW[v] holds the byte values below v, for bytes.translate to delete.
_BELOW = [bytes(range(v)) for v in range(256)]


def max_cut(g: Graph) -> Extremum:
    """Maximum cut over the 2^(n-1) sides that avoid the last vertex.

    Each bipartition has exactly one side without vertex n-1, and it is the
    numerically smaller of the pair, so these sides hold every cut value
    and the smallest-mask witness.  A side splits into a low part j over the
    vertices below t = min(n - 1, LATTICE_MAX) and a high part H over
    t..n-2.  One int holds 2^t byte lanes, lane j counting the cut edges
    that touch a low vertex for the side j | H, and a scalar counts the cut
    edges among the other vertices.  At H empty, lane j is the sum of
    |N(v) cap j| over the low v outside j and over every vertex h from t
    on, each read from counts of the subset tables of order t.  H
    then runs through the 2^(n-1-t) high parts in Gray-code order: step i
    moves h = t + ctz(i), which changes every lane by one precomputed int,
    +-(|N(h) cap L| - 2|N(h) cap j|) with L the low vertices, and the
    scalar by +-(deg h - 2c) with c = |N(h) cap H| and deg h counted
    outside L.  Per high part, bytes.translate drops the lanes that cannot
    beat the incumbent; if any is left, max() and bytes.index() find the
    best lane, the smallest j among its ties.  A high part replaces the
    incumbent when its cut is larger, or equal with a smaller mask, so the
    witness is the smallest-mask side among the optima.  A lane never
    exceeds C(t, 2) + t(n - t), 189 at t = 9 and n = SIZE_GUARD, so one
    byte holds it exactly.
    """
    _guard(g, "max_cut")
    rows, n = g.rows, g.n
    t = min(n - 1, LATTICE_MAX)
    width, low = 1 << t, (1 << t) - 1
    lat = _lattice(t)
    counts = lat.counts
    lanes = sum(counts[row & low] for row in rows[t:]) + sum(
        counts[row & low] & out for row, out in zip(rows, lat.outside_lanes))
    ones = ((1 << 8 * width) - 1) // 255
    high = [
        (1 << h, rows[h], (rows[h] >> t).bit_count(),
         (rows[h] & low).bit_count() * ones - 2 * counts[rows[h] & low])
        for h in range(t, n - 1)
    ]
    moves = [high[(i & -i).bit_length() - 1] for i in range(1, 1 << len(high))]
    cuts = lanes.to_bytes(width, "little")
    best_cut = max(cuts)
    best_side = cuts.index(best_cut)
    side = cut = 0
    for bit, row, deg, step in moves:
        c = (row & side).bit_count()
        if side & bit:
            cut += c + c - deg
            lanes -= step
        else:
            cut += deg - c - c
            lanes += step
        side ^= bit
        # the least lane value that beats the incumbent
        need = best_cut - cut + (side > best_side)
        cuts = lanes.to_bytes(width, "little")
        if need <= 0 or need < 256 and cuts.translate(None, _BELOW[need]):
            top = max(cuts)
            best_cut, best_side = cut + top, side | cuts.index(top)
    return Extremum(best_cut, VertexSet(n, best_side))


# -- combined report ------------------------------------------------------------


@dataclass(frozen=True)
class ParameterReport:
    """All exact parameters of one graph, with one witness per parameter."""

    n: int
    m: int
    alpha: int
    alpha_ir: int
    alpha_reg: int
    gamma_ir: int
    gamma_reg: int
    beta: int
    delta: int
    Delta: int
    span: int
    avg_degree: Fraction
    witnesses: dict[str, VertexSet] = field(compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if not 1 <= self.alpha_ir <= self.alpha <= n:
            raise AssertionError("alpha chain violated")
        if not 1 <= self.alpha_reg <= self.alpha:
            raise AssertionError("alpha_reg out of range")
        if not (n + 1) // 2 <= self.gamma_ir <= n:
            raise AssertionError("gamma_ir out of range")
        if not self.beta <= self.m:
            raise AssertionError("beta exceeds edge count")

    def to_json(self) -> dict:
        """Every field in field order; the fraction and the sets as lists."""
        blob = {f.name: getattr(self, f.name) for f in fields(self)}
        blob["avg_degree"] = [self.avg_degree.numerator, self.avg_degree.denominator]
        blob["witnesses"] = {
            key: list(ws.members) for key, ws in self.witnesses.items()
        }
        return blob


_WITNESS_CHECKS = {
    "alpha": is_independent,
    "alpha_ir": is_irregular_independent,
    "alpha_reg": is_regular_independent,
    "gamma_ir": is_irregular_dominating,
    "gamma_reg": is_regular_dominating,
}


def full_report(g: Graph) -> ParameterReport:
    """Compute every parameter exactly and re-validate each witness."""
    _guard(g)
    dc = classify_degrees(g)
    results = {
        "alpha": alpha(g),
        "alpha_ir": alpha_ir(g),
        "alpha_reg": alpha_reg(g),
        "gamma_ir": gamma_ir(g),
        "gamma_reg": gamma_reg(g),
        "beta": max_cut(g),
    }
    for key, ext in results.items():
        check = _WITNESS_CHECKS.get(key)
        if check is not None and not check(g, ext.witness):
            raise AssertionError(f"invalid witness for {key}")
        if check is not None and ext.witness.size != ext.value:
            raise AssertionError(f"witness size mismatch for {key}")
    if _cut(g.rows, g.n, results["beta"].witness.mask) != results["beta"].value:
        raise AssertionError("invalid witness for beta")
    return ParameterReport(
        n=g.n,
        m=g.m,
        **{key: ext.value for key, ext in results.items()},
        delta=dc.delta,
        Delta=dc.Delta,
        span=dc.span,
        avg_degree=Fraction(2 * g.m, g.n),
        witnesses={key: ext.witness for key, ext in results.items()},
    )
