"""Construction builders: frozen example values, precondition errors, grid
sweeps, and graph6 round-trips.

The builders already assert their own claims via the exact solvers, so a
grid test passing means every claimed parameter value was recomputed and
matched.  The frozen values below pin the examples down independently, so a
silent change to a builder's output graph cannot hide behind its own checks.
"""

import pytest

from irregraph import (
    SHARPNESS_GRIDS,
    Claim,
    ConstructionReport,
    ModStarSchedule,
    StaircaseProfile,
    alpha_ir,
    alpha_reg,
    build_alpha_sharp_bipartite,
    build_alpha_sharp_clique,
    build_clique_union,
    build_modstar,
    build_ng_alpha,
    build_ng_gamma,
    build_product_extremal,
    build_relation_extremal,
    build_staircase,
    build_sum_extremal,
    complement,
    evaluate,
    from_edges,
    gamma_ir,
    max_cut,
    metadata_comment,
    parse_graph6,
    write_graph6,
)
from irregraph.constructions import ConstructionError


def test_clique_union_values():
    assert alpha_ir(build_clique_union(1, 3)).value == 3
    assert alpha_ir(build_clique_union(2, 2)).value == 2
    g = build_clique_union(1, 3)
    assert g.n == 1 + 2 + 3 and g.m == 0 + 1 + 3


def test_staircase_shapes():
    p = StaircaseProfile(k=4, t=3, mode="asc")
    g = build_staircase(p, "prefix")
    assert g.n == 7
    assert [g.degree(v) for v in range(4, 7)] == [1, 2, 3]
    assert gamma_ir(g).value == 4
    rr = build_staircase(p, "round_robin")
    assert rr.m == g.m
    assert [rr.degree(v) for v in range(4, 7)] == [1, 2, 3]


def test_staircase_profile_validation():
    with pytest.raises(ValueError):
        StaircaseProfile(k=2, t=4, mode="asc")  # degree_of(4) = 4 > k
    with pytest.raises(ValueError):
        StaircaseProfile(k=3, t=2, mode="sideways")
    with pytest.raises(ValueError):
        build_staircase(StaircaseProfile(k=3, t=2), "random")


def test_alpha_sharp_bipartite_values():
    g = build_alpha_sharp_bipartite(1, 2)
    assert g.n == 4 and alpha_ir(g).value == 2
    g = build_alpha_sharp_bipartite(2, 4)
    assert g.n == 9 and min(g.degrees()) == 2 and alpha_ir(g).value == 4


def test_alpha_sharp_bipartite_rejects_unbalanced():
    # t(t-1) < 2r(r-1) leaves some w short of degree r
    with pytest.raises(ValueError):
        build_alpha_sharp_bipartite(2, 2)


def test_alpha_sharp_clique_values():
    g = build_alpha_sharp_clique(2, 2)
    assert g.m == 4 and alpha_ir(g).value == 2
    g = build_alpha_sharp_clique(3, 2)
    assert g.m == 8 and alpha_ir(g).value == 2
    with pytest.raises(ValueError):
        build_alpha_sharp_clique(2, 3)


def test_modstar_values():
    g = build_modstar(ModStarSchedule(1, 2))
    assert max_cut(g).value == 3 and alpha_ir(g).value == 2
    g = build_modstar(ModStarSchedule(2, 4))
    assert g.n == 9 and g.m == 14 and alpha_ir(g).value == 4
    with pytest.raises(ValueError):
        ModStarSchedule(3, 2)


def test_modstar_matches_round_robin_bipartite():
    # the interval schedule reduced mod k lands on the same graph as the
    # rolling round-robin assignment
    for r, t in [(1, 1), (1, 4), (2, 4), (2, 6), (3, 5)]:
        a = build_modstar(ModStarSchedule(r, t))
        b = build_alpha_sharp_bipartite(r, t)
        assert a.rows == b.rows


@pytest.mark.parametrize("n,product", [(4, 4), (5, 6), (6, 9), (7, 12), (8, 16), (9, 20)])
def test_product_extremal_values(n, product):
    g = build_product_extremal(n)
    assert alpha_ir(g).value * alpha_reg(g).value == product


def test_sum_extremal_values():
    for n, k, total in [(5, 2, 2), (5, 6, 6), (6, 4, 4)]:
        g = build_sum_extremal(n, k)
        assert alpha_ir(g).value + alpha_reg(g).value == total
    with pytest.raises(ValueError):
        build_sum_extremal(5, 7)


def test_ng_alpha_values():
    for n, total, product in [(2, 2, 1), (5, 5, 6), (6, 6, 9)]:
        g = build_ng_alpha(n)
        a, ac = alpha_ir(g).value, alpha_ir(complement(g)).value
        assert a + ac == total and a * ac == product


def test_ng_gamma_values():
    for n, total, product in [(4, 4, 4), (5, 6, 9), (8, 8, 16)]:
        g = build_ng_gamma(n)
        a, ac = gamma_ir(g).value, gamma_ir(complement(g)).value
        assert a + ac == total and a * ac == product


def test_relation_extremal_values():
    g = build_relation_extremal(6, "delta_pos")
    assert alpha_ir(g).value + gamma_ir(g).value == 6
    g = build_relation_extremal(5, "delta_zero")
    assert alpha_ir(g).value + gamma_ir(g).value == 6
    assert alpha_ir(g).value * gamma_ir(g).value == 9
    g = build_relation_extremal(2, "delta_pos")
    assert alpha_ir(g).value + gamma_ir(g).value == 2
    with pytest.raises(ValueError):
        build_relation_extremal(5, "sideways")
    with pytest.raises(ValueError):
        evaluate("relation_extremal", {"n": 5, "case": "sideways"})
    with pytest.raises(ValueError):
        evaluate("relation_extremal", {"n": 5, "case": "sideways"}, graph=g)


@pytest.mark.parametrize("case", ["delta_pos", "delta_zero", "complement"])
@pytest.mark.parametrize("n", range(2, 11))
def test_relation_extremal_grid(n, case):
    build_relation_extremal(n, case)


def test_grids_round_trip_graph6():
    graphs = []
    for r in range(1, 4):
        for t in range(1, 4):
            graphs.append(build_clique_union(r, t))
            if t * (t - 1) >= 2 * r * (r - 1):
                graphs.append(build_modstar(ModStarSchedule(r, t)))
    graphs += [build_ng_gamma(n) for n in range(3, 11)]
    graphs += [build_product_extremal(n) for n in range(4, 11)]
    graphs += [build_sum_extremal(n, k) for n in range(2, 7) for k in range(2, n + 2)]
    for g in graphs:
        assert parse_graph6(write_graph6(g)).rows == g.rows


def test_evaluate_reports_failure_on_corrupted_graph():
    report = evaluate("ng_gamma", {"n": 4})
    assert report.ok
    g = report.graph
    edges = list(g.edges())[1:]  # drop one edge
    bad = evaluate("ng_gamma", {"n": 4}, graph=from_edges(g.n, edges))
    assert not bad.ok and len(bad.failures) >= 1
    with pytest.raises(ValueError):
        evaluate("no_such_family", {})


def test_radical_claims_need_exact_equality():
    # one edge fewer leaves each radical bound irrational while its floor
    # stays t, so the sharp claims must fail on the exact identity.
    # A single edge is skipped: the edgeless graph left attains both bounds.
    for family, label in (
        ("alpha_sharp_clique", "radical_bound"),
        ("modstar", "cut_radical_bound"),
    ):
        for params in SHARPNESS_GRIDS[family]:
            g = evaluate(family, params).graph
            if g.m == 1:
                continue
            thinner = from_edges(g.n, list(g.edges())[1:])
            report = evaluate(family, params, graph=thinner)
            (claim,) = [c for c in report.claims if c.label == label]
            assert claim.actual is None and not claim.ok, (family, params)


def test_metadata_comment_format():
    report = evaluate("clique_union", {"r": 2, "t": 2})
    line = metadata_comment(report)
    assert line.startswith("# clique_union(r=2,t=2)")
    assert "alpha_ir=2" in line
    # claim values are integers and print in full
    big = ConstructionReport("f", {}, None, (Claim("m", 1234567, 1234567),))
    assert metadata_comment(big) == "# f() m=1234567"


def test_builder_raises_construction_error():
    # ConstructionError is a ValueError carrying the failed claims
    assert issubclass(ConstructionError, ValueError)
