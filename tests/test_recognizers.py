"""Planarity, outerplanarity, the alpha_ir = 1 structure, and classifiers."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from irregraph.graph import (
    classify_degrees,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    disjoint_union_all,
    empty_graph,
    from_edge_mask,
    from_edges,
    parse_graph6,
    join,
    matching_graph,
    pair_count,
    path_graph,
    star_graph,
    windmill,
    write_graph6,
)
from irregraph.params import alpha_ir, gamma_ir
from irregraph.recognizers import (
    Family,
    classify_gamma_extremal,
    classify_outerplanar_alpha1,
    classify_planar_alpha1,
    is_outerplanar,
    is_planar,
    satisfies_lemma31,
)
from oracles import frozen_classes


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1))
    return from_edge_mask(n, mask)


def all_graphs(n):
    for mask in range(1 << pair_count(n)):
        yield from_edge_mask(n, mask)


# -- planarity -------------------------------------------------------------


def test_planarity_known_graphs():
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite(3, 3))
    assert is_planar(complete_graph(4))
    assert is_planar(join(empty_graph(2), cycle_graph(5)))  # n=7, m=15
    assert is_planar(complete_graph(4))
    # K_5 plus an isolated vertex is still non-planar
    assert not is_planar(disjoint_union(complete_graph(5), empty_graph(1)))
    # K_{3,3} subdivision: subdivide one edge, still non-planar
    k33 = complete_bipartite(3, 3)
    edges = list(k33.edges())
    u, v = edges[0]
    sub = [(a, b) for a, b in edges[1:]] + [(u, 6), (6, v)]
    assert not is_planar(from_edges(7, sub))
    # networkx's icosahedral and dodecahedral graphs, written as graph6
    assert is_planar(parse_graph6("KhFJ{B`KWqph"))
    assert is_planar(parse_graph6("ShCHGD@?K?_@?@?C_GGG@??cG?G?GK_?C"))
    petersen = [(i, (i + 1) % 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen += [(i, i + 5) for i in range(5)]
    assert not is_planar(from_edges(10, petersen))  # cubic, under 3n - 6
    # a 62-vertex stacked triangulation: each new vertex goes in a triangle
    rng = random.Random(62)
    triangles, tri = [(0, 1, 2), (0, 1, 2)], [(0, 1), (0, 2), (1, 2)]
    for v in range(3, 62):
        a, b, c = triangles.pop(rng.randrange(len(triangles)))
        triangles += [(a, b, v), (b, c, v), (a, c, v)]
        tri += [(a, v), (b, v), (c, v)]
    assert len(tri) == 3 * 62 - 6 and is_planar(from_edges(62, tri))
    # K_{3,3} hung off a 56-vertex triangulation at a cut vertex
    hung = tri[: 3 * 56 - 6] + [(55 + a, 55 + b) for a, b in k33.edges()]
    assert not is_planar(from_edges(61, hung))


def test_planar_counts_exhaustive():
    # labeled planar graph counts for n = 1..5: 1, 2, 8, 64, 1023
    want = {1: 1, 2: 2, 3: 8, 4: 64, 5: 1023}
    for n, expected in want.items():
        assert sum(1 for g in all_graphs(n) if is_planar(g)) == expected


def test_density_prescreen():
    # 8 vertices, more than 18 edges: rejected without any search
    g = complete_graph(8)
    assert not is_planar(g)


def test_outerplanarity_known_graphs():
    assert not is_outerplanar(complete_bipartite(2, 3))
    assert not is_outerplanar(complete_graph(4))
    assert is_outerplanar(cycle_graph(6))
    assert is_outerplanar(windmill(3, 2))
    assert is_outerplanar(path_graph(7))
    # diamond: C_4 plus one chord
    from irregraph.graph import from_edges

    diamond = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_outerplanar(diamond)
    # K_2 + E_3 contains K_{2,3}
    assert not is_outerplanar(join(complete_graph(2), empty_graph(3)))


def test_outerplanar_counts_exhaustive():
    # frozen by double enumeration with an independent planarity engine
    want = {1: 1, 2: 2, 3: 8, 4: 63, 5: 893}
    for n, expected in want.items():
        assert sum(1 for g in all_graphs(n) if is_outerplanar(g)) == expected


def test_outerplanar_implies_planar_sample():
    for g in all_graphs(5):
        if is_outerplanar(g):
            assert is_planar(g)


def test_planarity_matches_networkx_beyond_exhaustive_orders():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20170621)

    def draw(n, low, high):
        pairs = [(u, v) for v in range(n) for u in range(v)]
        return rng.sample(pairs, rng.randint(low, high))

    def networkx_planar(n, edges):
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        return nx.check_planarity(h)[0]

    verdicts = set()
    for _ in range(60):
        # edge counts up to 3n - 6, where the density prescreen stops deciding
        n = rng.randint(7, 40)
        edges = draw(n, n, 3 * n - 6)
        planar = is_planar(from_edges(n, edges))
        assert planar == networkx_planar(n, edges), (n, edges)
        verdicts.add(("planar", planar))
        # outerplanar iff planar after adding one vertex joined to all others
        n = rng.randint(7, 39)
        edges = draw(n, n - 1, 2 * n - 3)
        apex = edges + [(v, n) for v in range(n)]
        outer = is_outerplanar(from_edges(n, edges))
        assert outer == networkx_planar(n + 1, apex), (n, edges)
        verdicts.add(("outerplanar", outer))
    assert len(verdicts) == 4  # both answers occur for both recognizers


# -- alpha_ir = 1 structure ---------------------------------------------------


def test_lemma31_examples():
    assert satisfies_lemma31(complete_bipartite(2, 3))
    assert not satisfies_lemma31(path_graph(4))
    assert satisfies_lemma31(cycle_graph(6))
    assert satisfies_lemma31(complete_graph(1))
    assert satisfies_lemma31(empty_graph(4))
    assert satisfies_lemma31(star_graph(5))
    assert not satisfies_lemma31(disjoint_union(complete_graph(1), complete_graph(2)))


def test_order_zero_answers():
    # the degree classes refuse the graph with no vertices, so every
    # recognizer that reads them does too; planarity holds vacuously
    nothing = empty_graph(0)
    for reader in (classify_degrees, satisfies_lemma31, classify_planar_alpha1,
                   classify_outerplanar_alpha1, classify_gamma_extremal):
        with pytest.raises(ValueError) as raised:
            reader(nothing)
        assert str(raised.value) == "needs at least one vertex", reader.__name__
    assert is_planar(nothing) is True
    assert is_outerplanar(nothing) is True


def test_lemma31_iff_alpha_ir_one_exhaustive_n5():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert satisfies_lemma31(g) == (alpha_ir(g).value == 1)


@settings(deadline=None)
@given(graphs())
def test_lemma31_iff_alpha_ir_one_random(g):
    assert satisfies_lemma31(g) == (alpha_ir(g).value == 1)


# -- planar alpha_ir = 1 classifier ----------------------------------------------


def family_of(tag):
    return None if tag is None else tag.family


def test_classify_planar_tags():
    from irregraph.graph import from_edges

    diamond = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    cases = [
        (windmill(3, 3), Family.WINDMILL),
        (cycle_graph(6), Family.REGULAR_PLANAR),
        (path_graph(4), None),
        (star_graph(6), Family.STAR),
        (complete_bipartite(2, 3), Family.COMPLETE_BIPARTITE),
        (diamond, Family.K2_PLUS_EMPTY),
        (join(complete_graph(2), empty_graph(3)), Family.K2_PLUS_EMPTY),
        (join(complete_graph(2), matching_graph(2)), Family.K2_PLUS_MATCHING),
        (join(empty_graph(2), matching_graph(2)), Family.E2_PLUS_MATCHING),
        (join(empty_graph(2), cycle_graph(3)), Family.E2_PLUS_CYCLE),
        (join(empty_graph(2), cycle_graph(5)), Family.E2_PLUS_CYCLE),
        (join(complete_graph(1), cycle_graph(4)), Family.K1_PLUS_CYCLE_UNION),
        (
            join(
                complete_graph(1),
                disjoint_union(cycle_graph(3), cycle_graph(3)),
            ),
            Family.K1_PLUS_CYCLE_UNION,
        ),
        (complete_graph(5), None),  # regular but not planar
        (complete_graph(4), Family.REGULAR_PLANAR),
    ]
    for g, want in cases:
        assert family_of(classify_planar_alpha1(g)) == want, (g, want)


def test_classify_planar_rejects_twin_double_cycle():
    # E_2 + (C_3 union C_3): alpha_ir = 1 but non-planar, and the single-cycle
    # matcher must reject the disconnected degree-4 part
    g = join(empty_graph(2), disjoint_union(cycle_graph(3), cycle_graph(3)))
    assert satisfies_lemma31(g)
    assert not is_planar(g)
    assert classify_planar_alpha1(g) is None


def test_classify_planar_equivalence_exhaustive_n5():
    for n in range(1, 6):
        for g in all_graphs(n):
            got = classify_planar_alpha1(g) is not None
            want = is_planar(g) and alpha_ir(g).value == 1
            assert got == want


# -- outerplanar alpha_ir = 1 classifier -------------------------------------------


def test_classify_outerplanar_tags():
    from irregraph.graph import from_edges

    diamond = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    cases = [
        (cycle_graph(4), Family.CYCLE_UNION),  # K_{2,2} yields to the cycle
        (disjoint_union(cycle_graph(3), cycle_graph(4)), Family.CYCLE_UNION),
        (empty_graph(5), Family.EMPTY),
        (matching_graph(3), Family.PERFECT_MATCHING),
        (star_graph(6), Family.STAR),
        (diamond, Family.K2_PLUS_E2),
        (windmill(3, 2), Family.WINDMILL),
        (windmill(3, 3), Family.WINDMILL),
        (join(complete_graph(2), empty_graph(3)), None),  # not outerplanar
        (path_graph(4), None),  # alpha_ir = 2
        (complete_graph(4), None),  # not outerplanar
    ]
    for g, want in cases:
        assert family_of(classify_outerplanar_alpha1(g)) == want, (g, want)


def test_classify_outerplanar_equivalence_exhaustive_n5():
    for n in range(1, 6):
        for g in all_graphs(n):
            got = classify_outerplanar_alpha1(g) is not None
            want = is_outerplanar(g) and alpha_ir(g).value == 1
            assert got == want


# -- gamma_ir extremal classifier ----------------------------------------------------


def test_classify_gamma_extremal_tags():
    assert classify_gamma_extremal(empty_graph(5)).family is Family.EMPTY
    tag = classify_gamma_extremal(
        disjoint_union(empty_graph(2), star_graph(4))
    )
    assert tag.family is Family.ISOLATED_PLUS_STAR
    assert tag.params == {"t": 2, "r": 3}
    tag = classify_gamma_extremal(cycle_graph(4))
    assert tag.family is Family.ISOLATED_PLUS_REGULAR
    assert tag.params == {"t": 0, "r": 2}
    tag = classify_gamma_extremal(complete_graph(2))
    assert tag.family is Family.ISOLATED_PLUS_STAR
    assert tag.params == {"t": 0, "r": 1}
    tag = classify_gamma_extremal(
        disjoint_union(empty_graph(1), cycle_graph(3))
    )
    assert tag.family is Family.ISOLATED_PLUS_REGULAR
    assert tag.params == {"t": 1, "r": 2}
    assert classify_gamma_extremal(path_graph(4)) is None
    # star plus regular component: neither shape alone
    assert (
        classify_gamma_extremal(disjoint_union(star_graph(3), cycle_graph(3)))
        is None
    )


def test_classify_gamma_extremal_equivalence_exhaustive_n5():
    for n in range(1, 6):
        for g in all_graphs(n):
            tag = classify_gamma_extremal(g)
            value = gamma_ir(g).value
            assert (tag is not None and tag.family is Family.EMPTY) == (
                value == n
            )
            is_second = tag is not None and tag.family in (
                Family.ISOLATED_PLUS_STAR,
                Family.ISOLATED_PLUS_REGULAR,
            )
            assert is_second == (value == n - 1)


# -- every answer on every class of order 1-7, frozen -------------------------------

RECOGNIZERS = (
    satisfies_lemma31,
    is_planar,
    is_outerplanar,
    classify_planar_alpha1,
    classify_outerplanar_alpha1,
    classify_gamma_extremal,
)
# sha256 over "graph6 name value!r\n" of each recognizer on each class
# of order 1-7, in the order of tests/data/classes_1_8.g6.  The equivalence tests
# above compare only None with not-None; this pins each family and its params.
CLASSES_1_TO_7 = 1252
RECOGNIZER_DIGEST = "95ce560541c23e54e4736d95d824e64c310d35283a2a86e2e61968fb786a6204"


def test_every_recognizer_answer_is_frozen():
    digest = hashlib.sha256()
    classes = 0
    for n in range(1, 8):
        for g in frozen_classes()[n]:
            classes += 1
            g6 = write_graph6(g)
            for question in RECOGNIZERS:
                line = f"{g6} {question.__name__} {question(g)!r}\n"
                digest.update(line.encode("ascii"))
    assert classes == CLASSES_1_TO_7
    assert digest.hexdigest() == RECOGNIZER_DIGEST
