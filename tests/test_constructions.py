"""Construction builders: frozen example values, precondition errors, grid
sweeps, and graph6 round-trips.

The builders already assert their own claims via the exact solvers, so a
grid test passing means every claimed parameter value was recomputed and
matched.  The frozen values below pin the examples down independently, so a
silent change to a builder's output graph cannot hide behind its own checks.
"""

import hashlib
import re

import pytest

from irregraph import (
    FAMILIES,
    Claim,
    ConstructionReport,
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
from irregraph import constructions
from irregraph.constructions import ConstructionError, _modstar


def test_clique_union_values():
    assert alpha_ir(build_clique_union(1, 3)).value == 3
    assert alpha_ir(build_clique_union(2, 2)).value == 2
    g = build_clique_union(1, 3)
    assert g.n == 1 + 2 + 3 and g.m == 0 + 1 + 3


def test_staircase_shapes():
    g = evaluate("staircase_gamma", {"n": 7}).graph
    assert g.n == 7
    assert [g.degree(v) for v in range(4, 7)] == [1, 2, 3]
    assert gamma_ir(g).value == 4


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
    g = build_modstar(1, 2)
    assert max_cut(g).value == 3 and alpha_ir(g).value == 2
    g = build_modstar(2, 4)
    assert g.n == 9 and g.m == 14 and alpha_ir(g).value == 4
    with pytest.raises(ValueError, match=re.escape("needs t(t-1) >= 2r(r-1)")):
        build_modstar(3, 2)
    with pytest.raises(ValueError, match="needs r >= 1 and t >= 1"):
        build_modstar(0, 1)


def test_modstar_matches_round_robin_bipartite():
    # the two families share one builder
    for r, t in [(1, 1), (1, 4), (2, 4), (2, 6), (3, 5)]:
        a = build_modstar(r, t)
        b = build_alpha_sharp_bipartite(r, t)
        assert a.rows == b.rows


def test_round_robin_is_the_interval_schedule():
    # the paper's schedule, written out: v_i takes the w-indices
    # s_{i-1}+1 .. s_i with s_i = sum_{j<i} (r+j), multiples of k mapping
    # to k rather than 0
    for r in range(1, 8):
        for t in range(1, 16):
            if t * (t - 1) < 2 * r * (r - 1):
                continue
            k = r + t - 1
            s = [i * r + i * (i - 1) // 2 for i in range(t + 1)]
            edges = [
                ((j - 1) % k, k + i - 1)
                for i in range(1, t + 1)
                for j in range(s[i - 1] + 1, s[i] + 1)
            ]
            assert _modstar(r, t).rows == from_edges(k + t, edges).rows, (r, t)


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
                graphs.append(build_modstar(r, t))
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
    with pytest.raises(ValueError, match="missing parameter 't'"):
        evaluate("clique_union", {"r": 1})
    with pytest.raises(ValueError, match="unknown parameter 'n'"):
        evaluate("clique_union", {"r": 1, "t": 2, "n": 5})


def test_radical_claims_need_exact_equality():
    # one edge fewer leaves each radical bound irrational while its floor
    # stays t, so the sharp claims must fail on the exact identity.
    # A single edge is skipped: the edgeless graph left attains both bounds.
    for family, label in (
        ("alpha_sharp_clique", "radical_bound"),
        ("modstar", "cut_radical_bound"),
    ):
        for params in FAMILIES[family].grid:
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


def test_builder_raises_construction_error(monkeypatch):
    # ConstructionError is a ValueError carrying the failed claims
    assert issubclass(ConstructionError, ValueError)
    real = constructions.alpha_ir
    monkeypatch.setattr(
        constructions, "alpha_ir", lambda g: real(g)._replace(value=real(g).value + 1)
    )
    with pytest.raises(ConstructionError, match="alpha_ir: expected 3, got 4"):
        build_clique_union(1, 3)
    assert not evaluate("clique_union", {"r": 1, "t": 3}).ok


@pytest.mark.parametrize(
    "build,args,family,params,condition",
    [
        (build_clique_union, (0, 1), "clique_union", {"r": 0, "t": 1}, "r >= 1 and t >= 1"),
        (build_alpha_sharp_bipartite, (2, 2), "alpha_sharp_bipartite", {"r": 2, "t": 2},
         "t(t-1) >= 2r(r-1)"),
        (build_alpha_sharp_clique, (2, 3), "alpha_sharp_clique", {"r": 2, "t": 3}, "r >= t >= 1"),
        (build_sum_extremal, (5, 7), "sum_extremal", {"n": 5, "k": 7}, "2 <= k <= n+1"),
        (build_ng_alpha, (1,), "ng_alpha", {"n": 1}, "n >= 2"),
        (build_ng_gamma, (2,), "ng_gamma", {"n": 2}, "n >= 3"),
        (build_product_extremal, (3,), "product_extremal", {"n": 3}, "n >= 4"),
        (build_relation_extremal, (1, "delta_pos"), "relation_extremal",
         {"n": 1, "case": "delta_pos"}, "n >= 2"),
    ],
)
def test_one_domain_check_for_build_and_evaluate(build, args, family, params, condition):
    with pytest.raises(ValueError, match=re.escape(condition)):
        build(*args)
    with pytest.raises(ValueError, match=re.escape(condition)):
        evaluate(family, params)
    # a supplied graph does not skip the domain check
    with pytest.raises(ValueError, match=re.escape(condition)):
        evaluate(family, params, graph=from_edges(2, [(0, 1)]))


# sha256 over "graph6\nmetadata_comment\n" of every FAMILIES grid build, in
# grid order.  The sharpness payload lists only failures, so a builder that
# changed a graph while its claims still held would otherwise go unnoticed.
GRID_BUILDS = 168
GRID_DIGEST = "a75680b32257e6ddcfc00504a7c2f23a5d07cd631cee953b2c1802afabcb3f43"


def test_every_grid_build_is_frozen():
    digest = hashlib.sha256()
    builds = 0
    for family, row in FAMILIES.items():
        for params in row.grid:
            report = evaluate(family, params)
            text = f"{write_graph6(report.graph)}\n{metadata_comment(report)}\n"
            digest.update(text.encode("ascii"))
            builds += 1
    assert builds == GRID_BUILDS
    assert digest.hexdigest() == GRID_DIGEST
