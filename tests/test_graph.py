"""Graph value type, combinators, isomorphism, canonical forms, and the
graph6 codec."""

import random
from math import factorial

import pytest
from hypothesis import given, strategies as st

from irregraph.graph import (
    Graph,
    Graph6Error,
    VertexSet,
    canonical_form,
    classify_degrees,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_mask,
    from_edges,
    graph6_from_edge_mask,
    isomorphism_classes,
    join,
    labeled_copies,
    matching_graph,
    pair_count,
    pair_index,
    parse_graph6,
    path_graph,
    star_graph,
    windmill,
    write_graph6,
)
from oracles import classes_by_key_dict, is_isomorphic


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1))
    return from_edge_mask(n, mask)


@st.composite
def permuted_pairs(draw, max_n=7):
    """A graph together with a relabeled copy of itself."""
    g = draw(graphs(max_n=max_n))
    perm = draw(st.permutations(range(g.n)))
    h = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    return g, h


# -- construction and invariants -------------------------------------------


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(2, [1, 0])  # asymmetric rows


def test_graph_is_immutable_and_hashable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5
    assert len({g, path_graph(3), cycle_graph(3)}) == 2


def test_basic_counts():
    assert complete_graph(5).m == 10
    assert empty_graph(5).m == 0
    assert path_graph(4).degrees() == (1, 2, 2, 1)
    assert cycle_graph(5).degrees() == (2,) * 5
    assert star_graph(6).degrees() == (5, 1, 1, 1, 1, 1)
    assert complete_bipartite(2, 3).degrees() == (3, 3, 2, 2, 2)
    assert matching_graph(3).degrees() == (1,) * 6


def test_pair_index_is_column_major_upper_triangle():
    # (0,1)=0 (0,2)=1 (1,2)=2 (0,3)=3 (1,3)=4 (2,3)=5
    order = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert [pair_index(u, v) for u, v in order] == list(range(6))
    assert pair_index(3, 1) == pair_index(1, 3)


def test_edge_mask_round_trip():
    g = from_edges(5, [(0, 1), (1, 3), (2, 4)])
    assert from_edge_mask(5, g.edge_mask) == g


def test_vertex_set():
    s = VertexSet.from_members(5, [0, 3])
    assert s.mask == 0b01001
    assert s.members == (0, 3)
    assert s.size == len(s) == 2
    assert 3 in s and 1 not in s
    with pytest.raises(ValueError):
        VertexSet(3, 0b1000)


# -- combinators ------------------------------------------------------------


def test_complement_involution_small():
    for g in (path_graph(4), cycle_graph(5), star_graph(6)):
        assert complement(complement(g)) == g
    assert complement(empty_graph(4)) == complete_graph(4)


def test_disjoint_union_and_join_sizes():
    g, h = cycle_graph(3), path_graph(4)
    u = disjoint_union(g, h)
    assert (u.n, u.m) == (7, g.m + h.m)
    j = join(g, h)
    assert (j.n, j.m) == (7, g.m + h.m + g.n * h.n)
    assert join(complete_graph(2), empty_graph(3)).degrees() == (4, 4, 2, 2, 2)


def test_join_of_completes_is_complete():
    assert join(complete_graph(2), complete_graph(3)) == complete_graph(5)


def test_windmill_shape():
    g = windmill(3, 2)  # bowtie
    assert (g.n, g.m) == (5, 6)
    assert sorted(g.degrees()) == [2, 2, 2, 2, 4]
    big = windmill(3, 4)
    assert (big.n, big.m) == (9, 12)
    assert sorted(big.degrees()) == [2] * 8 + [8]


# -- degree classification ---------------------------------------------------


def test_classify_degrees():
    g = star_graph(5)
    dc = classify_degrees(g)
    assert dc.distinct == (1, 4)
    assert dc.span == 2
    assert (dc.delta, dc.Delta) == (1, 4)
    assert dc.sizes == {1: 4, 4: 1}
    assert dc.classes[4].members == (0,)
    with pytest.raises(ValueError):
        classify_degrees(empty_graph(0))


def test_classify_degrees_regular():
    dc = classify_degrees(cycle_graph(6))
    assert dc.span == 1 and dc.delta == dc.Delta == 2


# -- isomorphism --------------------------------------------------------------


def test_isomorphism_basics():
    assert is_isomorphic(path_graph(4), from_edges(4, [(2, 0), (0, 3), (3, 1)]))
    assert not is_isomorphic(path_graph(4), star_graph(4))
    assert not is_isomorphic(path_graph(4), path_graph(5))
    # same degree sequence, different graphs
    assert not is_isomorphic(
        cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3))
    )


def test_isomorphism_class_counts():
    # unlabeled simple graphs on n nodes: 1, 2, 4, 11, 34
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    for n, want in expected.items():
        reps = []
        for mask in range(1 << pair_count(n)):
            g = from_edge_mask(n, mask)
            if not any(is_isomorphic(g, r) for r in reps):
                reps.append(g)
        assert len(reps) == want


@given(permuted_pairs())
def test_isomorphism_closed_under_relabeling(pair):
    g, h = pair
    assert is_isomorphic(g, h)


# -- canonical form and isomorphism classes ------------------------------------


def test_class_counts_and_labeled_weights():
    # unlabeled graphs on n nodes (OEIS A000088), and the orbit-counting
    # identity: the classes' n!/|Aut| members are all 2^C(n,2) labeled graphs
    expected = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
    for n, want in enumerate(expected):
        classes = isomorphism_classes(n)
        assert len(classes) == want
        assert sum(factorial(n) // aut for _, aut in classes) == 1 << pair_count(n)


def test_classes_match_key_dict_oracle():
    for n in range(8):
        got = [(g.edge_mask, aut) for g, aut in isomorphism_classes(n)]
        assert got == list(classes_by_key_dict(n))


def test_class_representatives_pairwise_non_isomorphic():
    for n in range(1, 6):
        reps = [g for g, _ in isomorphism_classes(n)]
        for i, g in enumerate(reps):
            assert canonical_form(g)[0] == g.edge_mask
            assert not any(is_isomorphic(g, h) for h in reps[:i])


def test_automorphism_counts():
    assert canonical_form(empty_graph(5))[1] == 120
    assert canonical_form(complete_graph(5))[1] == 120
    assert canonical_form(path_graph(4))[1] == 2
    assert canonical_form(star_graph(6))[1] == 120
    assert canonical_form(cycle_graph(6))[1] == 12
    # one refinement cell holding two twin classes
    assert canonical_form(cycle_graph(4))[1] == 8
    assert canonical_form(complete_bipartite(3, 3))[1] == 72
    assert canonical_form(empty_graph(0)) == (0, 1)


def test_labeled_copies_partition_every_order():
    for n in range(1, 5):
        seen = []
        for g, aut in isomorphism_classes(n):
            copies = labeled_copies(g)
            assert len(copies) == factorial(n) // aut
            assert g.edge_mask in copies
            seen.extend(copies)
        assert sorted(seen) == list(range(1 << pair_count(n)))


@given(permuted_pairs(max_n=8))
def test_canonical_form_survives_relabeling(pair):
    g, h = pair
    assert canonical_form(g) == canonical_form(h)


def test_classes_match_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas: dict[int, set] = {}
    for a in nx.graph_atlas_g():  # all 1253 graphs on 0..7 nodes
        n = a.number_of_nodes()
        key, _ = canonical_form(from_edges(n, a.edges()))
        atlas.setdefault(n, set()).add(key)
    assert sorted(atlas) == list(range(8))
    for n, keys in atlas.items():
        assert keys == {g.edge_mask for g, _ in isomorphism_classes(n)}


# -- graph6 -------------------------------------------------------------------


def test_graph6_known_values():
    assert write_graph6(empty_graph(4)) == "C?"
    assert write_graph6(complete_graph(4)) == "C~"
    assert write_graph6(path_graph(4)) == "Ch"
    assert parse_graph6("C?") == empty_graph(4)
    assert parse_graph6("C~") == complete_graph(4)
    assert parse_graph6("Ch") == path_graph(4)
    assert write_graph6(complete_graph(1)) == "@"
    assert parse_graph6("@") == empty_graph(1)


def test_graph6_exhaustive_round_trip_n4():
    for mask in range(1 << pair_count(4)):
        g = from_edge_mask(4, mask)
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_accepts_bytes_and_whitespace():
    assert parse_graph6(b"Ch\n") == path_graph(4)
    assert parse_graph6("  C~  ") == complete_graph(4)


@pytest.mark.parametrize(
    "bad",
    [
        "",  # empty
        "~??",  # long form header
        "\x3e",  # header below range
        "C",  # truncated body
        "Chh",  # trailing garbage
        "A" + chr(200),  # body byte out of range
        b"C\xffh",  # non-ASCII body byte
        b"\xff",  # non-ASCII header byte
        b"\xa0Ch",  # non-ASCII whitespace is not stripped
    ],
)
def test_graph6_rejects_malformed(bad):
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_graph6_rejects_nonzero_padding():
    # n=2: one pair bit, five padding bits; 'A' + chr(63 + 1) sets a pad bit
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(63 + 0b000001))
    # the valid encodings of both 2-vertex graphs still parse
    assert parse_graph6("A?") == empty_graph(2)
    assert parse_graph6("A_") == complete_graph(2)


def test_graph6_size_limits():
    for n in (0, 63):
        with pytest.raises(Graph6Error):
            write_graph6(empty_graph(n))
        with pytest.raises(Graph6Error):
            graph6_from_edge_mask(n, 0)
    for n, mask in ((1, 1), (4, -1), (4, 1 << 6), (62, 1 << pair_count(62))):
        with pytest.raises(ValueError, match="edge mask out of range"):
            graph6_from_edge_mask(n, mask)
        with pytest.raises(ValueError, match="edge mask out of range"):
            from_edge_mask(n, mask)


def bitwise_graph6(g: Graph) -> str:
    """Oracle: the graph6 writer the package had before its table encoder,
    one bit at a time, first pair of a group in the most significant bit."""
    if not 1 <= g.n <= 62:
        raise Graph6Error("short-form graph6 covers 1 <= n <= 62")
    out = [chr(g.n + 63)]
    mask = g.edge_mask
    nbits = pair_count(g.n)
    for start in range(0, nbits, 6):
        group = 0
        for k in range(6):
            p = start + k
            bit = (mask >> p & 1) if p < nbits else 0
            group = (group << 1) | bit
        out.append(chr(group + 63))
    return "".join(out)


def _mask_cases():
    for n in range(1, 6):
        for mask in range(1 << pair_count(n)):
            yield n, mask
    for n in range(6, 9):
        top = 1 << pair_count(n)
        for mask in range(0, top, top // 997 + 1):
            yield n, mask
        yield n, top - 1
    rng = random.Random(20170)
    for n in range(9, 63):
        for _ in range(8):
            yield n, rng.getrandbits(pair_count(n))
        yield n, (1 << pair_count(n)) - 1


def test_graph6_mask_encoder_matches_bitwise_oracle():
    seen = 0
    for n, mask in _mask_cases():
        g = from_edge_mask(n, mask)
        text = graph6_from_edge_mask(n, mask)
        assert text == bitwise_graph6(g) == write_graph6(g)
        assert parse_graph6(text).edge_mask == mask
        seen += 1
    assert seen > 4500


@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    assert parse_graph6(write_graph6(g)) == g


@given(graphs(max_n=8))
def test_complement_involution(g):
    c = complement(g)
    assert complement(c) == g
    assert g.m + c.m == pair_count(g.n)


@given(graphs(max_n=6), graphs(max_n=6))
def test_join_degree_identity(g, h):
    j = join(g, h)
    assert j.degrees() == tuple(d + h.n for d in g.degrees()) + tuple(
        d + g.n for d in h.degrees()
    )
