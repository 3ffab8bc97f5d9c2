"""Graph value type, combinators, isomorphism, canonical forms, and the
graph6 codec."""

import random
import re
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from irregraph.graph import (
    Graph,
    Graph6Error,
    VertexSet,
    _automorphisms,
    _class_walk,
    _hood_orbits,
    _refined,
    canonical_form,
    classify_degrees,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    disjoint_union_all,
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
from oracles import (
    classes_by_key_dict,
    frozen_classes,
    is_isomorphic,
    labeled_copies_by_relabelling,
    polya_graph_counts,
)


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
    assert dc.degrees == (4, 1, 1, 1, 1)
    assert list(dc.masks) == [1, 4]  # ascending, though vertex 0 has degree 4
    assert dc.masks == {1: 0b11110, 4: 0b00001}
    assert dc.span == 2
    assert (dc.delta, dc.Delta) == (1, 4)
    assert dc.sizes == {1: 4, 4: 1}
    with pytest.raises(ValueError):
        classify_degrees(empty_graph(0))


def test_classification_is_kept_in_the_graph():
    g = path_graph(5)
    dc = classify_degrees(g)
    assert classify_degrees(g) is dc
    fresh = path_graph(5)
    assert g == fresh and hash(g) == hash(fresh)
    assert {fresh: "p5"}[g] == "p5"
    for name in ("x", "_degree_classes"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
    assert classify_degrees(g) is dc


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


def test_frozen_class_list_is_every_class():
    # the list the digest tests hash: one graph per class, A000088 counts,
    # and up to order 7 exactly the classes that the walk yields
    counts = [len(frozen_classes()[n]) for n in range(1, 9)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044, 12346]
    for n in range(1, 8):
        keys = sorted(canonical_form(g)[0] for g in frozen_classes()[n])
        assert keys == [g.edge_mask for g, _ in isomorphism_classes(n)]


def test_classes_match_key_dict_oracle():
    for n in range(8):
        got = [(g.edge_mask, aut) for g, aut in isomorphism_classes(n)]
        assert got == list(classes_by_key_dict(n))


def test_capped_classes_match_polya_counts():
    # the walk the sweep reads for n_max = 8, capped at C(8,2)/2 = 14 edges
    # at every order, against the Polya counts of each order up to that cap
    cap = pair_count(8) // 2
    by_m = [Counter() for _ in range(9)]
    for rows, _ in _class_walk(8, cap):
        by_m[len(rows)][sum(row.bit_count() for row in rows) // 2] += 1
    for n, counted in enumerate(by_m):
        top = min(cap, pair_count(n))
        assert [counted[m] for m in range(top + 1)] == polya_graph_counts(n)[: top + 1]
        assert max(counted) <= top


def test_capped_classes_are_a_part_of_the_full_list():
    # at every order k <= n_max the walk yields each class of
    # isomorphism_classes(k) with at most cap edges exactly once, as a member
    # of the class its labelling names
    cases = [(n, cap) for n in range(7) for cap in range(pair_count(n) + 1)]
    for n_max, cap in cases + [(7, 10)]:
        walked = [[] for _ in range(n_max + 1)]
        for rows, lab in _class_walk(n_max, cap):
            assert canonical_form(Graph(len(rows), rows)) == (lab.key, lab.aut)
            walked[len(rows)].append((lab.key, lab.aut))
        for k, got in enumerate(walked):
            assert len({key for key, _ in got}) == len(got)
            full = isomorphism_classes(k)
            assert sorted(got) == [(g.edge_mask, a) for g, a in full if g.m <= cap]


@pytest.mark.parametrize("k", [2, 3])
def test_walk_shards_partition_the_walk(k):
    # the k shards yield disjoint entries whose union is the whole walk,
    # order by order, at the sweep's cap and (below order 7) uncapped
    cases = [(n, pair_count(n) // 2) for n in range(8)]
    cases += [(n, pair_count(n)) for n in range(7)]
    for n_max, cap in cases:
        whole = [set() for _ in range(n_max + 1)]
        for rows, lab in _class_walk(n_max, cap):
            whole[len(rows)].add((lab.key, lab.aut))
        parts = [[] for _ in range(n_max + 1)]
        for i in range(k):
            for rows, lab in _class_walk(n_max, cap, (i, k)):
                parts[len(rows)].append((lab.key, lab.aut))
        for n in range(n_max + 1):
            assert len(set(parts[n])) == len(parts[n])  # disjoint
            assert set(parts[n]) == whole[n]


def _orbit_minima(n: int, gens: list[list[int]]) -> list[int]:
    """The smallest mask of each orbit of gens on the subsets of n vertices,
    ascending, each orbit closed by mapping masks vertex by vertex."""
    minima, seen = [], set()
    for mask in range(1 << n):
        if mask in seen:
            continue
        minima.append(mask)
        seen.add(mask)
        stack = [mask]
        while stack:
            m = stack.pop()
            for image in gens:
                mapped = sum(1 << image[v] for v in range(n) if m >> v & 1)
                if mapped not in seen:
                    seen.add(mapped)
                    stack.append(mapped)
    return minima


def test_hood_orbits_keep_the_orbits_of_the_larger_hoods():
    # for the automorphisms of every class of order <= 6, the orbits with at
    # least `least` members are the unfiltered orbits cut by size
    for rows, lab in _class_walk(6, pair_count(6)):
        n = len(rows)
        gens = _automorphisms(lab)
        every = _orbit_minima(n, gens)
        for least in range(n + 1):
            got = _hood_orbits(n, gens, least)
            assert got == [mask for mask in every if mask.bit_count() >= least]


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
    # past order 8: vertex-transitive graphs whose refinement is one cell
    petersen = [(i, (i + 1) % 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen += [(i, i + 5) for i in range(5)]
    rook = [(u, v) for v in range(9) for u in range(v)
            if u // 3 == v // 3 or u % 3 == v % 3]
    cube = [(u, u | 1 << b) for u in range(16) for b in range(4) if not u >> b & 1]
    triangles = disjoint_union_all([complete_graph(3)] * 3)
    assert canonical_form(cycle_graph(9))[1] == 18
    assert canonical_form(from_edges(10, petersen))[1] == 120
    assert canonical_form(from_edges(9, rook))[1] == 72
    assert canonical_form(triangles)[1] == 1296
    assert canonical_form(complement(triangles))[1] == 1296
    assert canonical_form(complete_graph(9))[1] == factorial(9)
    assert canonical_form(from_edges(16, cube))[1] == 384


def test_refinement_stops_once_top_leaves_the_highest_class():
    # every labeled graph of order <= 5 and every vertex t: None exactly when
    # t is outside the highest class of the full refinement, else that
    # refinement itself
    for n in range(1, 6):
        for mask in range(1 << pair_count(n)):
            g = from_edge_mask(n, mask)
            full = _refined(g.rows, g.degrees())
            for t in range(n):
                got = _refined(g.rows, g.degrees(), t)
                assert got == (full if full[t] == max(full) else None)


def test_labeled_copies_partition_every_order():
    for n in range(1, 7):
        seen = []
        for g, aut in isomorphism_classes(n):
            copies = labeled_copies(g)
            assert len(copies) == factorial(n) // aut
            assert g.edge_mask in copies
            seen.extend(copies)
        assert sorted(seen) == list(range(1 << pair_count(n)))


def test_labeled_copies_match_every_relabelling():
    # the orbit walk against all n! relabelings, on every class of order <= 6
    assert labeled_copies(empty_graph(0)) == {0}
    for n in range(1, 7):
        for g, _ in isomorphism_classes(n):
            assert labeled_copies(g) == labeled_copies_by_relabelling(g)


@given(permuted_pairs(max_n=8))
def test_labeled_copies_is_the_orbit(pair):
    g, h = pair
    copies = labeled_copies(g)
    assert h.edge_mask in copies
    assert copies == labeled_copies(h)
    assert len(copies) == factorial(g.n) // canonical_form(g)[1]


@given(permuted_pairs(max_n=12))
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


# each malformed line and the exact text of its Graph6Error
MALFORMED_GRAPH6 = {
    "": "empty graph6 value",
    "~??": "long-form graph6 (n > 62) is not supported",
    "\x3e": "bad header byte 62",  # header below range
    "C": "expected 1 body bytes for n=4, got 0",  # truncated body
    "Chh": "expected 1 body bytes for n=4, got 2",  # trailing garbage
    "A" + chr(200): "bad body byte 200",  # body byte out of range
    b"C\xffh": "expected 1 body bytes for n=4, got 2",  # length is checked first
    b"C\xff": "bad body byte 255",  # non-ASCII body byte
    b"\xff": "bad header byte 255",  # non-ASCII header byte
    b"\xa0Ch": "bad header byte 160",  # non-ASCII whitespace is not stripped
    "A\udcc8": "bad body byte 200",  # a surrogate-escaped byte by its value
    "\udcff": "bad header byte 255",
}


@pytest.mark.parametrize("bad", list(MALFORMED_GRAPH6))
def test_graph6_rejects_malformed(bad):
    message = MALFORMED_GRAPH6[bad]
    with pytest.raises(Graph6Error, match=f"^{re.escape(message)}$"):
        parse_graph6(bad)


def test_graph6_rejects_nonzero_padding():
    # n=2: one pair bit, five padding bits; 'A' + chr(63 + 1) sets a pad bit
    with pytest.raises(Graph6Error, match="^nonzero padding bits$"):
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


def bitwise_parse_graph6(text: str | bytes) -> Graph:
    """Oracle: the graph6 reader the package had before its table decoder,
    one bit at a time, testing each padding bit as it goes."""
    if isinstance(text, bytes):
        text = text.decode("latin-1")
    text = text.strip(" \t\n\r\v\f")
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


def _decoded(decoder, text):
    """The graph decoder reads from text, or the text of its Graph6Error."""
    try:
        return decoder(text)
    except Graph6Error as exc:
        return str(exc)


def test_graph6_decoder_matches_bitwise_oracle_on_every_byte():
    # every line of order 0-6 with one byte, header included, replaced by
    # each of the 256 byte values: the same graph or the same error text
    rng = random.Random(6)
    seen = 0
    for n in range(7):
        masks = {0, (1 << pair_count(n)) - 1}
        masks |= {rng.getrandbits(pair_count(n)) for _ in range(4)}
        for mask in sorted(masks):
            line = b"?" if n == 0 else graph6_from_edge_mask(n, mask).encode()
            for i in range(len(line)):
                for byte in range(256):
                    text = line[:i] + bytes([byte]) + line[i + 1:]
                    want = _decoded(bitwise_parse_graph6, text)
                    assert _decoded(parse_graph6, text) == want, text
                    assert _decoded(parse_graph6, text.decode("latin-1")) == want
                    seen += 1
    assert seen > 15000


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
