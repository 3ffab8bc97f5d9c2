"""Seeded corpus of G(n, p) graphs for the compute workload.

The benchmark draws each graph itself and writes it as a graph6 line with its
own encoder, so the program under test only ever sees text it did not
produce.  Orders and densities are stratified: the corpus has a fixed number
of graphs per (order, density) cell.

The graphs are drawn once, from BASE_SEED; the workload seed then relabels
every graph by a random vertex permutation.  Different seeds therefore give
different graph6 lines, witnesses and search orders for the solvers, but the
same isomorphism classes.  At n = 18 two G(n, p) draws can differ twofold in
solve time while relabeling one moves it by a few percent, so fresh draws per
seed would make the per-seed run time spread wider than any useful bound.
"""

import random

BASE_SEED = 20170621
DENSITIES = (0.2, 0.5, 0.8)

# (order, graphs).  More small than large graphs.  At 102 lines the 90th
# percentile of per-line latency has ten samples beyond it and falls inside
# the n = 18 group, and the median inside the n = 16 group, away from the
# edges between groups.
FULL_ORDERS = ((14, 42), (16, 45), (18, 15))
SMOKE_ORDERS = ((7, 3), (9, 3))


def gnp_rows(n: int, p: float, rng: random.Random) -> list:
    """Adjacency bitmask rows of one G(n, p) draw."""
    rows = [0] * n
    for v in range(n):
        for u in range(v):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def graph6(rows: list) -> str:
    """Short-form graph6 text: upper triangle column by column, 6 bits a byte."""
    n = len(rows)
    bits = [rows[u] >> v & 1 for v in range(n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = (
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
        for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + "".join(body)


def corpus(seed: int, smoke: bool = False) -> list:
    """(graph6 line, rows) pairs, identical for identical seeds."""
    draw, relabel = random.Random(BASE_SEED), random.Random(seed)
    out = []
    for n, count in SMOKE_ORDERS if smoke else FULL_ORDERS:
        for i in range(count):
            base = gnp_rows(n, DENSITIES[i % len(DENSITIES)], draw)
            perm = relabel.sample(range(n), n)
            rows = [0] * n
            for v in range(n):
                for u in range(n):
                    if base[v] >> u & 1:
                        rows[perm[v]] |= 1 << perm[u]
            out.append((graph6(rows), rows))
    return out
