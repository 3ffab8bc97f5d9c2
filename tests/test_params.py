"""Exact parameter solvers against frozen values and the naive oracles."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from irregraph.graph import (
    VertexSet,
    classify_degrees,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union_all,
    empty_graph,
    from_edge_mask,
    from_edges,
    isomorphism_classes,
    pair_count,
    path_graph,
    star_graph,
    write_graph6,
)
from irregraph.params import (
    alpha,
    alpha_ir,
    alpha_reg,
    full_report,
    gamma_ir,
    gamma_reg,
    is_dominating,
    is_independent,
    is_irregular_dominating,
    is_irregular_independent,
    is_regular_dominating,
    is_regular_independent,
    max_cut,
    naive_alpha,
    naive_alpha_ir,
    naive_alpha_reg,
    naive_gamma_ir,
    naive_gamma_reg,
    naive_max_cut,
)
from oracles import frozen_classes, outside_set_gamma_ir


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1))
    return from_edge_mask(n, mask)


def vs(n, *members):
    return VertexSet.from_members(n, members)


# -- predicates ---------------------------------------------------------------


def test_irregular_independent_predicate():
    p4 = path_graph(4)
    assert is_irregular_independent(p4, vs(4, 0, 2))  # degrees 1 and 2
    assert is_irregular_independent(p4, vs(4))  # vacuous
    assert not is_irregular_independent(p4, vs(4, 0, 3))  # equal degrees
    assert not is_irregular_independent(p4, vs(4, 1, 2))  # adjacent
    k13 = star_graph(4)
    assert not is_irregular_independent(k13, vs(4, 1, 2))  # two leaves


def test_irregular_dominating_predicate():
    p4 = path_graph(4)
    assert is_irregular_dominating(p4, vs(4, 0, 2))
    assert is_irregular_dominating(p4, vs(4, 0, 1, 2, 3))  # vacuous
    c4 = cycle_graph(4)
    assert not is_irregular_dominating(c4, vs(4, 0))  # vertex 2 undominated
    # {0,1} in C_4: both outside vertices see exactly one member
    assert not is_irregular_dominating(c4, vs(4, 0, 1))


def test_regular_predicates():
    p4 = path_graph(4)
    assert is_regular_independent(p4, vs(4, 0, 3))
    assert not is_regular_independent(p4, vs(4, 0, 2))
    assert is_regular_dominating(star_graph(4), vs(4, 0))
    assert not is_regular_dominating(p4, vs(4, 0))


def test_predicates_reject_mismatched_universe():
    with pytest.raises(ValueError):
        is_independent(path_graph(4), vs(5, 0))


# -- frozen example values ------------------------------------------------------


def test_alpha_values():
    assert alpha(complete_graph(6)).value == 1
    assert alpha(path_graph(4)).value == 2
    assert alpha(empty_graph(5)).value == 5


def test_alpha_ir_values():
    assert alpha_ir(complete_graph(5)).value == 1
    assert alpha_ir(path_graph(4)).value == 2
    k123 = disjoint_union_all(
        [complete_graph(1), complete_graph(2), complete_graph(3)]
    )
    assert alpha_ir(k123).value == 3  # Delta - delta + 1


def test_alpha_reg_values():
    assert alpha_reg(empty_graph(7)).value == 7
    assert alpha_reg(path_graph(4)).value == 2
    assert alpha_reg(cycle_graph(5)).value == 2


def test_gamma_ir_values():
    assert gamma_ir(empty_graph(3)).value == 3
    assert gamma_ir(cycle_graph(4)).value == 3
    assert gamma_ir(path_graph(4)).value == 2


def test_gamma_reg_values():
    assert gamma_reg(star_graph(4)).value == 1
    assert gamma_reg(empty_graph(4)).value == 4
    assert gamma_reg(path_graph(4)).value == 2


def test_max_cut_values():
    assert max_cut(empty_graph(4)).value == 0
    assert max_cut(path_graph(4)).value == 3  # bipartite: beta = m
    assert max_cut(cycle_graph(5)).value == 4


def test_full_report_frozen_rows():
    rows = {
        "P4": (path_graph(4), (2, 2, 2, 2, 2, 3, 2)),
        "K4": (complete_graph(4), (1, 1, 1, 3, 1, 4, 1)),
        "E3": (empty_graph(3), (3, 1, 3, 3, 3, 0, 1)),
    }
    for name, (g, want) in rows.items():
        r = full_report(g)
        got = (
            r.alpha,
            r.alpha_ir,
            r.alpha_reg,
            r.gamma_ir,
            r.gamma_reg,
            r.beta,
            r.span,
        )
        assert got == want, name


def test_witness_tie_break_is_smallest_mask():
    # P_4 endpoints and middles all admit optimal pairs; the smallest masks:
    assert alpha(path_graph(4)).witness.members == (0, 2)
    assert gamma_ir(path_graph(4)).witness.members == (0, 2)
    assert max_cut(path_graph(4)).witness.members == (0, 2)
    assert alpha_ir(complete_graph(5)).witness.members == (0,)
    # smallest mask, not smallest tuple: {1, 2} (mask 6) beats {0, 3} (mask 9)
    square = from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    for solver in (alpha, alpha_reg, max_cut):
        assert solver(square).witness.members == (1, 2), solver.__name__


def test_single_vertex():
    r = full_report(complete_graph(1))
    assert (r.alpha, r.alpha_ir, r.alpha_reg, r.gamma_ir, r.gamma_reg) == (
        1,
        1,
        1,
        1,
        1,
    )
    assert r.beta == 0


def test_size_guard():
    big = empty_graph(27)
    for solver in (gamma_ir, gamma_reg, max_cut):
        with pytest.raises(ValueError) as raised:
            solver(big)
        assert str(raised.value) == (
            f"{solver.__name__} enumerates 2^n subsets; n=27 exceeds the size "
            "guard (26)"
        )
    for solver in (alpha, alpha_ir, alpha_reg, gamma_ir, gamma_reg, max_cut,
                   full_report):
        with pytest.raises(ValueError) as raised:
            solver(empty_graph(0))
        assert str(raised.value) == "parameters need at least one vertex", (
            solver.__name__
        )


def test_full_report_rejects_wrong_cut_witness(monkeypatch):
    import irregraph.params as params_module

    def shifted_side(g):
        best = max_cut(g)
        return best._replace(witness=VertexSet(g.n, best.witness.mask ^ 1))

    monkeypatch.setattr(params_module, "max_cut", shifted_side)
    with pytest.raises(AssertionError, match="beta"):
        full_report(path_graph(4))


def test_report_serialization():
    r = full_report(path_graph(4))
    blob = r.to_json()
    assert blob["avg_degree"] == [3, 2]
    assert blob["witnesses"]["gamma_ir"] == [0, 2]
    assert blob["beta"] == 3


# -- oracle equivalence -----------------------------------------------------------


SOLVER_PAIRS = [
    (alpha, naive_alpha),
    (alpha_ir, naive_alpha_ir),
    (alpha_reg, naive_alpha_reg),
    (gamma_ir, naive_gamma_ir),
    (gamma_reg, naive_gamma_reg),
    (max_cut, naive_max_cut),
]


@pytest.mark.parametrize("fast,slow", SOLVER_PAIRS, ids=lambda f: f.__name__)
def test_oracle_equivalence_exhaustive_n4(fast, slow):
    for mask in range(1 << pair_count(4)):
        g = from_edge_mask(4, mask)
        assert fast(g) == slow(g), mask


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=7))
def test_oracle_equivalence_random(g):
    for fast, slow in SOLVER_PAIRS:
        assert fast(g) == slow(g)


def gnp(n, p, rng):
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return from_edges(n, [e for e in pairs if rng.random() < p])


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_exponential_solvers_match_oracles_beyond_n7(p):
    # up to order 13: the subset tables through order 9, then the packed
    # domination pass, at 10-12 with no high vertex and at 13 with one
    rng = random.Random(int(p * 10))
    for n in range(8, 14):
        for _ in range(3):
            g = gnp(n, p, rng)
            for fast, slow in SOLVER_PAIRS:
                assert fast(g) == slow(g), (fast.__name__, n, g.edge_mask)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_domination_walk_matches_oracles_at_depth_two_and_three(p):
    # at the default low part, orders 14 and 15 walk two and three high
    # vertices deep, so folds land at the root, inner depths and the leaves;
    # the complements put the other count mode against the oracles
    rng = random.Random(int(p * 10) + 14)
    drawn = [gnp(n, p, rng) for n in (14, 15) for _ in range(2)]
    for g in drawn + [complement(g) for g in drawn]:
        assert gamma_ir(g) == naive_gamma_ir(g), (g.n, g.edge_mask)
        assert gamma_reg(g) == naive_gamma_reg(g), (g.n, g.edge_mask)


def test_subset_tables_match_oracles():
    # the tables serve every order up to LATTICE_MAX: every labeled graph of
    # order <= 5, seeded G(n, p) draws above, and the complete graphs, where
    # gamma_ir's witness leaves one vertex outside with n - 1 neighbours in
    # it (a count of 8 at n = 9, past what a one-hot byte holds)
    from irregraph.params import LATTICE_MAX

    rng = random.Random(28)
    graphs = [from_edge_mask(n, mask) for n in range(1, 6)
              for mask in range(1 << pair_count(n))]
    graphs += [gnp(n, p, rng) for n in range(6, LATTICE_MAX + 1)
               for p in (0.2, 0.5, 0.8) for _ in range(3)]
    graphs += [complete_graph(n) for n in range(6, LATTICE_MAX + 1)]
    for g in graphs:
        for fast, slow in SOLVER_PAIRS:
            assert fast(g) == slow(g), (fast.__name__, g.n, g.edge_mask)


def general_answers(g):
    """(value, witness mask) of the five solvers with a second path, the one
    that serves orders above LATTICE_MAX, called directly; max_cut has one
    path at every order."""
    from irregraph.params import _max_independent, _packed_dominating

    rows, n, every = g.rows, g.n, (1 << g.n) - 1
    dc = classify_degrees(g)
    cliqued = [row | dc.masks[d] for row, d in zip(rows, dc.degrees)]
    regular = max((_max_independent(rows, c) for c in dc.masks.values()),
                  key=lambda found: (found[0], -found[1]))
    return [
        _max_independent(rows, every), _max_independent(cliqued, every),
        regular, *_packed_dominating(rows, n),
    ]


@pytest.mark.parametrize(
    "orders", [range(1, 8), pytest.param([8], marks=pytest.mark.slow)],
    ids=["1-7", "8"],
)
def test_subset_tables_match_the_general_paths(orders):
    for n in orders:
        for g in frozen_classes()[n]:
            got = [(found.value, found.witness.mask)
                   for found in (fast(g) for fast, _ in SOLVER_PAIRS
                                 if fast is not max_cut)]
            assert got == general_answers(g), (n, g.edge_mask)


def test_gamma_ir_reads_no_thm41_bound(monkeypatch):
    # the T4.1 row checks gamma_ir against lb_gamma_ir_thm41, so gamma_ir
    # must find its minimum without that bound: inflated to n, it changes
    # no answer
    import irregraph.bounds as bounds_module
    import irregraph.params as params_module

    def inflated(n, Delta, divisor=2):
        return n

    monkeypatch.setattr(bounds_module, "lb_gamma_ir_thm41", inflated)
    monkeypatch.setattr(params_module, "lb_gamma_ir_thm41", inflated,
                        raising=False)
    for n in range(1, 8):
        for g in frozen_classes()[n]:
            for h in (g, complement(g)):
                assert gamma_ir(h) == naive_gamma_ir(h), (n, h.edge_mask)


def test_subset_tables_are_small_and_built_on_demand():
    # importing the package builds no table, a report above LATTICE_MAX
    # builds only the tables of order LATTICE_MAX (max_cut's low part), and
    # those take under 1 MB
    import irregraph.params as params_module
    from irregraph.params import LATTICE_MAX, _lattice

    code = ("import irregraph, irregraph.params as p; "
            "print(p._lattice.cache_info().currsize)")
    env = {**os.environ,
           "PYTHONPATH": str(Path(params_module.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout == "0\n"
    _lattice.cache_clear()
    full_report(gnp(LATTICE_MAX + 1, 0.5, random.Random(1)))
    assert _lattice.cache_info().currsize == 1
    tables = _lattice(LATTICE_MAX)
    assert _lattice.cache_info().currsize == 1
    size = sum(sys.getsizeof(table) + sum(map(sys.getsizeof, table))
               for table in tables)
    assert size < 1 << 20


def test_split_scan_matches_oracles_at_small_orders(monkeypatch):
    # the packed pass only runs above LATTICE_MAX by default; force it
    # everywhere, and shrink its low part, down to none, so that every order
    # walks several high parts.  Each graph is solved at every low part in a
    # row, and each low part must run the pass once (gamma_ir) and serve
    # gamma_reg from the cache, never read an answer kept for another.  The
    # complements and a graph with 2m = C(n, 2) exactly put both count modes,
    # neighbours and non-neighbours, against the oracles.
    import irregraph.params as params_module

    monkeypatch.setattr(params_module, "LATTICE_MAX", 0)
    packed = params_module._packed_dominating
    rng = random.Random(7)
    graphs = [from_edge_mask(n, mask) for n in range(1, 6)
              for mask in range(1 << pair_count(n))]
    drawn = [gnp(n, p, rng) for n in range(6, 12) for p in (0.2, 0.5, 0.8)]
    graphs += drawn + [complement(g) for g in drawn]
    half = from_edge_mask(9, (1 << 18) - 1)
    assert 2 * half.m == pair_count(9)
    graphs.append(half)
    low_parts = (0, 1, 2, 3, params_module._DOMINATION_LOW)
    for g in graphs:
        ir, reg = naive_gamma_ir(g), naive_gamma_reg(g)
        for low_part in low_parts:
            monkeypatch.setattr(params_module, "_DOMINATION_LOW", low_part)
            packed.cache_clear()
            assert gamma_ir(g) == ir, (low_part, g.n, g.edge_mask)
            assert gamma_reg(g) == reg, (low_part, g.n, g.edge_mask)
            info = packed.cache_info()
            assert (info.misses, info.hits) == (1, 1), (low_part, g.n)


def test_full_report_builds_the_domination_tables_once(monkeypatch):
    # gamma_ir and gamma_reg share one packed pass: gamma_ir runs it, with
    # one _low_levels call per vertex, and gamma_reg reads its answer from
    # the cache.  pop and upto are built once per width of the low part:
    # one more _low_levels call for the first graph, none for the next
    import irregraph.params as params_module

    low_levels = params_module._low_levels
    calls = []

    def counted(*args):
        calls.append(args)
        return low_levels(*args)

    monkeypatch.setattr(params_module, "_low_levels", counted)
    params_module._low_sizes.cache_clear()
    rng = random.Random(25)
    for extra in (1, 0):
        params_module._packed_dominating.cache_clear()
        calls.clear()
        g = gnp(14, 0.5, rng)
        full_report(g)
        info = params_module._packed_dominating.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert len(calls) == g.n + extra
    info = params_module._low_sizes.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_max_cut_walk_matches_oracle_at_small_orders(monkeypatch):
    # with nine low vertices max_cut first walks two high parts at n = 11;
    # shrink the low part, down to none, so that every order walks, and
    # every width of the low part reads its own subset tables
    import irregraph.params as params_module

    rng = random.Random(11)
    graphs = [from_edge_mask(n, mask) for n in range(1, 6)
              for mask in range(1 << pair_count(n))]
    graphs += [gnp(n, p, rng) for n in range(6, 12) for p in (0.2, 0.5, 0.8)]
    expected = [naive_max_cut(g) for g in graphs]
    for low_part in range(10):
        monkeypatch.setattr(params_module, "LATTICE_MAX", low_part)
        for g, want in zip(graphs, expected):
            assert max_cut(g) == want, (low_part, g.n, g.edge_mask)


def test_max_cut_lanes_fit_a_byte_at_the_size_guard():
    # a lane counts cut edges that touch one of the t low vertices: at most
    # C(t, 2) inside the low part and t(n - t) to the rest
    from irregraph.params import LATTICE_MAX, SIZE_GUARD

    t = min(SIZE_GUARD - 1, LATTICE_MAX)
    assert t * (t - 1) // 2 + t * (SIZE_GUARD - t) <= 255
    cut = max_cut(complete_graph(26))  # the densest graph the guard admits
    assert (cut.value, cut.witness.mask) == (169, (1 << 13) - 1)


# sha256 over "graph6 gamma_ir witness-mask gamma_reg witness-mask\n".  The
# classes of order 1-7 and their complements take the subset tables (up to
# LATTICE_MAX); the G(n, p) draws at n = 12-16 ("gnp", four per (n, p)),
# n = 17-20 ("gnp_large", one per (n, p)) and n = 21-26 ("gnp_guard", one
# per (n, p), up to SIZE_GUARD) take the packed pass, through the n = 18
# that compute runs, past the n = 15 that the oracle comparisons above
# reach.  "gnp_guard" was recorded with the flat pass, one loop over the
# high parts, before the walk replaced it.
DOMINATION_DIGESTS = {
    "classes": "0ce2deaa8c87ba39becf341f8b3b11f62ad5926a9ad34515b71791e6ad6227fc",
    "gnp": "0d067bdc3f6e13c05eab33d057d9e387443241aeb2b4fd58e38ad2ae5b7310af",
    "gnp_large": "d253f490555999bf1020913d7f45cd489e15269f29c4292ebcb78ea93e6fbaa7",
    "gnp_guard": "27ab042218d3ab2ac2788b0d3aa87b3d20ec282d7e00b2c376f1dc66815d2a5a",
}


def test_every_domination_answer_is_frozen():
    rng = random.Random(19)
    sets = {
        "classes": [h for n in range(1, 8) for g in frozen_classes()[n]
                    for h in (g, complement(g))],
        "gnp": [gnp(n, p, rng) for n in range(12, 17) for p in (0.2, 0.5, 0.8)
                for _ in range(4)],
        "gnp_large": [gnp(n, p, rng) for n in range(17, 21)
                      for p in (0.2, 0.5, 0.8)],
        "gnp_guard": [gnp(n, p, rng) for n in range(21, 27)
                      for p in (0.2, 0.5, 0.8)],
    }
    for name, graphs in sets.items():
        digest = hashlib.sha256()
        for g in graphs:
            ir, reg = gamma_ir(g), gamma_reg(g)
            line = (f"{write_graph6(g)} {ir.value} {ir.witness.mask} "
                    f"{reg.value} {reg.witness.mask}\n")
            digest.update(line.encode("ascii"))
        assert digest.hexdigest() == DOMINATION_DIGESTS[name], name


@pytest.mark.slow
def test_gamma_ir_matches_the_outside_set_search_on_sparse_graphs():
    # the digests freeze answers up to n = 26, but above the n = 15 that the
    # naive oracles reach nothing else checks the packed pass independently:
    # 200 seeded sparse draws at n = 17-26, cubic graphs (even n), trees and
    # G(n, 3/n), whose small Delta keeps the outside-set search short
    nx = pytest.importorskip("networkx")
    rng = random.Random(9)
    graphs = []
    for n in range(17, 27):
        for seed in range(8):
            drawn = [nx.random_labeled_tree(n, seed=seed)]
            if n % 2 == 0:
                drawn.append(nx.random_regular_graph(3, n, seed=seed))
            graphs += [from_edges(n, h.edges()) for h in drawn]
            graphs.append(gnp(n, 3 / n, rng))
    assert len(graphs) == 200
    for g in graphs:
        found = gamma_ir(g)
        assert outside_set_gamma_ir(g) == (found.value, found.witness.mask), (
            g.n, g.edge_mask)


# sha256 over "graph6 value witness-mask\n" of max_cut.  "classes": every
# class of order 1-8 and the complement of each class of order 1-7, where the
# low part holds every free vertex; "gnp": G(n, p) draws at n = 12-20, where
# the walk over the high sides takes up to 2^10 steps.
MAX_CUT_DIGEST = {
    "classes": "00546984d6eac0e85059c14657c324d39b2a57797785b553cd9b24003a37d611",
    "gnp": "d91888818355023811cd7566d77d782bb472ae700e5fbdc06bc6c50788090dee",
}


def test_every_max_cut_answer_is_frozen():
    rng = random.Random(22)
    sets = {
        "classes": [g for n in range(1, 9) for g in frozen_classes()[n]]
        + [complement(g) for n in range(1, 8) for g in frozen_classes()[n]],
        "gnp": [gnp(n, p, rng) for n in range(12, 21) for p in (0.2, 0.5, 0.8)
                for _ in range(2)],
    }
    for name, graphs in sets.items():
        digest = hashlib.sha256()
        for g in graphs:
            cut = max_cut(g)
            line = f"{write_graph6(g)} {cut.value} {cut.witness.mask}\n"
            digest.update(line.encode("ascii"))
        assert digest.hexdigest() == MAX_CUT_DIGEST[name], name


# sha256 over one line per graph.  "oracles": "graph6" and then "value
# witness-mask" of the six naive oracles, over every class of order 1-6, its
# complement and 30 G(10, p) draws, so the oracles' tie-break is pinned, not
# just their values.  "predicates": "n edge-mask subset-mask" and then the
# six is_* answers as 0/1, over every subset of every labeled graph of order
# 0-4.
REFERENCE_DIGESTS = {
    "oracles": "02ed2fb8afaf0b7659173b550c5708077e2e49dc2efc9ad58f381c2e378d414e",
    "predicates": "afbc849319993f3dc29273eca020c82a71ce8be09837dd478f5a7237317f388c",
}

NAIVE_ORACLES = (naive_alpha, naive_alpha_ir, naive_alpha_reg,
                 naive_gamma_ir, naive_gamma_reg, naive_max_cut)
PREDICATES = (is_independent, is_irregular_independent, is_regular_independent,
              is_dominating, is_irregular_dominating, is_regular_dominating)


def test_every_oracle_and_predicate_answer_is_frozen():
    rng = random.Random(20)
    graphs = [h for n in range(1, 7) for g in frozen_classes()[n]
              for h in (g, complement(g))]
    graphs += [gnp(10, p, rng) for p in (0.2, 0.5, 0.8) for _ in range(10)]
    digest = hashlib.sha256()
    for g in graphs:
        answers = [oracle(g) for oracle in NAIVE_ORACLES]
        line = write_graph6(g) + "".join(
            f" {a.value} {a.witness.mask}" for a in answers
        )
        digest.update(f"{line}\n".encode("ascii"))
    assert digest.hexdigest() == REFERENCE_DIGESTS["oracles"]
    digest = hashlib.sha256()
    for n in range(5):
        for mask in range(1 << pair_count(n)):
            g = from_edge_mask(n, mask)
            for subset in range(1 << n):
                s = VertexSet(n, subset)
                bits = "".join(str(int(p(g, s))) for p in PREDICATES)
                digest.update(f"{n} {mask} {subset} {bits}\n".encode("ascii"))
    assert digest.hexdigest() == REFERENCE_DIGESTS["predicates"]


def test_witnesses_on_tie_heavy_graphs():
    # many sets reach the optimum here, so the witness pins the tie-break
    graphs = [empty_graph(9), complete_graph(9), complete_graph(12)]
    graphs += [complete_bipartite(a, b) for a, b in ((1, 7), (3, 4), (5, 6), (6, 7))]
    graphs += [cycle_graph(n) for n in (9, 10, 12, 14)]
    graphs += [
        disjoint_union_all([complete_graph(3), cycle_graph(5), empty_graph(2)]),
        disjoint_union_all([complete_bipartite(2, 3), complete_graph(4)]),
        disjoint_union_all([cycle_graph(4), cycle_graph(4), cycle_graph(3)]),
        disjoint_union_all([empty_graph(3), complete_graph(5), cycle_graph(4)]),
    ]
    for g in graphs:
        for fast, slow in SOLVER_PAIRS:
            assert fast(g) == slow(g), (fast.__name__, g.edge_mask)


# -- counting identities --------------------------------------------------------------


def test_extremal_counts_match_the_regular_class_counts():
    # Lemma 3.1: alpha_ir(G) = 1 exactly when any two vertices of distinct
    # degrees are adjacent, that is when the complement of G is a disjoint
    # union of regular graphs of pairwise distinct degrees.  So the classes
    # of order n with alpha_ir = 1 number [x^n] prod_d (1 + sum_k r_d(k) x^k),
    # with r_d(k) the d-regular classes of order k, and the labeled graphs
    # n! [x^n] prod_d (1 + sum_k R_d(k) x^k / k!), with R_d(k) their labeled
    # members.  gamma_ir = n - 1 holds exactly for isolated vertices plus a
    # star K_{1,r}, r >= 2, or an r-regular graph, r >= 1: n - 2 stars and
    # the r-regular classes of order at most n.  The regular counts read no
    # solver, so the solvers, the walk's |Aut| and both characterisations
    # are checked against each other.
    top = 8
    regular = [[0] * (top + 1) for _ in range(top)]  # r_d(k)
    egf = [[Fraction(0)] * (top + 1) for _ in range(top)]  # R_d(k) / k!
    for k in range(1, top + 1):
        for g, aut in isomorphism_classes(k):
            degrees = set(g.degrees())
            if len(degrees) == 1:
                d = degrees.pop()
                regular[d][k] += 1
                egf[d][k] += Fraction(1, aut)

    def product(series):
        total = [1] + [0] * top
        for coeffs in series:
            coeffs = [1] + coeffs[1:]
            total = [sum(total[i] * coeffs[j - i] for i in range(j + 1))
                     for j in range(top + 1)]
        return total

    by_class, by_label = product(regular), product(egf)
    got = {"classes": [], "labeled": [], "gamma": []}
    for n in range(1, top + 1):
        found = isomorphism_classes(n)
        alpha_one = [aut for g, aut in found if alpha_ir(g).value == 1]
        got["classes"].append(len(alpha_one))
        got["labeled"].append(sum(factorial(n) // aut for aut in alpha_one))
        got["gamma"].append(sum(gamma_ir(g).value == n - 1 for g, _ in found))
        assert got["classes"][-1] == by_class[n], n
        assert got["labeled"][-1] == factorial(n) * by_label[n], n
        assert got["gamma"][-1] == max(n - 2, 0) + sum(
            regular[r][k] for r in range(1, top) for k in range(1, n + 1)), n
    assert got == {
        "classes": [1, 2, 3, 6, 9, 18, 27, 58],
        "labeled": [1, 2, 5, 18, 79, 510, 3746, 70492],
        "gamma": [0, 1, 3, 7, 10, 18, 24, 46],
    }


# -- structural invariants ----------------------------------------------------------


@settings(deadline=None)
@given(graphs(max_n=8))
def test_report_invariants(g):
    r = full_report(g)
    n = g.n
    assert 1 <= r.alpha_ir <= r.alpha <= n
    assert 1 <= r.alpha_reg <= r.alpha
    assert (n + 1) // 2 <= r.gamma_ir <= n
    assert max((n + 1) // 2, n - r.Delta) <= r.gamma_ir
    assert r.alpha_ir <= r.span
    assert r.beta <= r.m
    for key, ws in r.witnesses.items():
        if key != "beta":  # a cut witness is a side, not a set of size beta
            assert ws.size == getattr(r, key)


@settings(deadline=None)
@given(graphs(max_n=8))
def test_complement_degree_identity(g):
    c = complement(g)
    for v in range(g.n):
        assert c.degree(v) == g.n - 1 - g.degree(v)


@settings(deadline=None)
@given(graphs(max_n=7))
def test_max_cut_realizes_all_bipartite_edges(g):
    beta, side = max_cut(g)
    # recount the cut from the witness
    out = ((1 << g.n) - 1) ^ side.mask
    recount = sum((g.rows[v] & out).bit_count() for v in side)
    assert recount == beta
    assert beta <= g.m


def test_bipartite_cut_equals_m():
    for g in (path_graph(6), cycle_graph(6), star_graph(5)):
        assert max_cut(g).value == g.m


def test_is_dominating_basics():
    c4 = cycle_graph(4)
    assert is_dominating(c4, vs(4, 0, 1))
    assert not is_dominating(c4, vs(4, 0))
    assert is_dominating(empty_graph(2), vs(2, 0, 1))
    assert not is_dominating(empty_graph(2), vs(2, 0))
