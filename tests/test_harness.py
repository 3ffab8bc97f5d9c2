"""Sweep harness: class sweep against the labeled reference, frozen counts,
and the negative controls."""

import io
import json
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from irregraph.graph import (
    complete_graph,
    empty_graph,
    from_edge_mask,
    isomorphism_classes,
    pair_count,
    parse_graph6,
    path_graph,
)
from irregraph.harness import (
    THEOREM_IDS,
    SweepSummary,
    TheoremReport,
    Verdict,
    _sweep_order,
    sharpness_suite,
    theorem_report,
    verify_range,
)
from irregraph.recognizers import is_outerplanar, is_planar
from oracles import enumerate_labeled_graphs, sweep_order_labeled

# labeled graphs of order 0..n summed: 1, 2, 4, 12, 76, 1100, 33868, 2131020
GRAPHS_THROUGH = {0: 1, 1: 2, 2: 4, 3: 12, 4: 76, 5: 1100, 6: 33868}

# labeled planar and outerplanar graph counts per order
PLANAR_COUNTS = {1: 1, 2: 2, 3: 8, 4: 64, 5: 1023, 6: 32071, 7: 1823707}
OUTERPLANAR_COUNTS = {1: 1, 2: 2, 3: 8, 4: 63, 5: 893, 6: 19714, 7: 597510}


@st.composite
def graphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1))
    return from_edge_mask(n, mask)


def test_theorem_id_catalogue():
    assert len(THEOREM_IDS) == 28
    assert len(set(THEOREM_IDS)) == 28
    assert THEOREM_IDS[0] == "T2.1"
    assert THEOREM_IDS[-1] == "T6.2ii"


def test_enumeration_counts_and_bounds():
    assert sum(1 for _ in enumerate_labeled_graphs(0)) == 1
    assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
    masks = [g.edge_mask for g in enumerate_labeled_graphs(4)]
    assert masks == list(range(64))
    with pytest.raises(ValueError):
        list(enumerate_labeled_graphs(9))


def test_report_examples_all_pass():
    for g in (path_graph(4), empty_graph(3), complete_graph(7)):
        report = theorem_report(g)
        assert report.failures == ()
        assert [v.theorem_id for v in report.verdicts] == list(THEOREM_IDS)


def test_report_na_gating():
    by_id = lambda r: {v.theorem_id: v.status for v in r.verdicts}
    small = by_id(theorem_report(empty_graph(3)))
    assert small["T2.3iii"] == "not_applicable"
    assert small["C2.4"] == "not_applicable"
    assert small["T6.1i"] == "pass"
    lone = by_id(theorem_report(empty_graph(1)))
    assert lone["T6.1i"] == "not_applicable"
    assert lone["T6.2ii"] == "not_applicable"
    # the degree-structure consequences only apply when alpha_ir = 1
    spread = by_id(theorem_report(path_graph(4)))
    assert spread["T3.2i"] == "not_applicable"
    star = by_id(theorem_report(from_edge_mask(3, 0b011)))
    assert star["T3.2i"] == "pass"
    with pytest.raises(ValueError):
        theorem_report(empty_graph(0))


def test_report_structural_invariants():
    good = theorem_report(path_graph(4))
    with pytest.raises(ValueError):
        TheoremReport(good.graph, good.verdicts[::-1])
    broken = list(good.verdicts)
    broken[0] = Verdict("T2.1", "fail")  # no witness
    with pytest.raises(ValueError):
        TheoremReport(good.graph, tuple(broken))


def test_t41_divisor_validation_and_bound():
    # verify_range rejects the divisor before sweeping, even at order 0
    with pytest.raises(ValueError, match="divisor must be >= 1"):
        verify_range(0, t41_divisor=0)
    with pytest.raises(ValueError, match="divisor >= 1"):
        theorem_report(complete_graph(3), t41_divisor=0)
    # the T4.1 row takes its bound, divisor included, from irregraph.bounds
    by_id = lambda r: {v.theorem_id: v for v in r.verdicts}
    k3 = complete_graph(3)  # gamma_ir = 2 = max(ceil(3/2), 3-2)
    assert by_id(theorem_report(k3))["T4.1"].status == "pass"
    assert by_id(theorem_report(k3, t41_divisor=1))["T4.1"] == Verdict(
        "T4.1", "fail", "gamma_ir=2 < max(ceil(3/1), n-Delta=1) = 3"
    )


def test_sweep_frozen_graph_counts():
    small = verify_range(3)
    assert small.graphs_checked == GRAPHS_THROUGH[3]
    assert small.violations == ()
    mid = verify_range(5)
    assert mid.graphs_checked == GRAPHS_THROUGH[5]
    assert mid.violations == ()


def test_sweep_order_zero_checks_nothing():
    bare = verify_range(0)
    assert bare.graphs_checked == 1
    assert all(
        cell == {"pass": 0, "fail": 0, "not_applicable": 0}
        for cell in bare.per_theorem.values()
    )


def test_engines_agree_through_order_five():
    # the class sweep against the labeled reference that checks every mask
    for n in range(1, 6):
        class_counts, class_viol = _sweep_order(n, 2)
        labeled_counts, labeled_viol = sweep_order_labeled(n, 2)
        assert class_viol == labeled_viol == []
        assert class_counts == labeled_counts


def test_engines_agree_on_violations():
    for n in range(1, 5):
        class_counts, class_viol = _sweep_order(n, 1)
        labeled_counts, labeled_viol = sweep_order_labeled(n, 1)
        assert class_viol == labeled_viol
        assert class_counts == labeled_counts


def test_not_applicable_counts_frozen():
    summary = verify_range(5)
    expected_na = {
        "T2.3iii": 11, "C2.4": 11,
        "T3.2i": 994, "T3.2ii": 994,
        "T4.5i": 285, "T4.5ii": 1099,
        "T6.1i": 1, "T6.1ii": 1, "T6.2i": 1, "T6.2ii": 1,
    }
    checked = summary.graphs_checked - 1  # the order-0 graph runs no checks
    for tid, cell in summary.per_theorem.items():
        assert cell["fail"] == 0
        assert cell["not_applicable"] == expected_na.get(tid, 0)
        assert cell["pass"] + cell["not_applicable"] == checked


def test_negative_control_fires_and_sorts():
    summary = verify_range(4, t41_divisor=1)
    assert len(summary.violations) == 71
    names = [r.graph for r in summary.violations]
    assert names == sorted(names)
    assert names[0] == "A_"  # the single edge on two vertices
    first = summary.violations[0].failures
    assert any(v.theorem_id == "T4.1" for v in first)
    assert any("ceil(2/1)" in v.witness for v in first)
    for report in summary.violations:
        for verdict in report.failures:
            assert verdict.witness


def test_violations_reuse_class_verdicts():
    # a violating class reports its verdicts once for every labeled member;
    # recomputing each member's report from its graph6 string must agree
    summary = verify_range(5, t41_divisor=1)
    assert len(summary.violations) == 1094
    for report in summary.violations:
        assert report == theorem_report(parse_graph6(report.graph), t41_divisor=1)


def test_weakened_bound_cannot_fire():
    # ceil(n/3) <= ceil(n/2) <= gamma_ir, so divisor 3 proves nothing fails
    summary = verify_range(4, t41_divisor=3)
    assert summary.violations == ()


def test_verify_range_validation():
    # order 8 is accepted (about 10 seconds), order 9 is not
    with pytest.raises(ValueError, match="n_max <= 8"):
        verify_range(9)
    with pytest.raises(ValueError):
        verify_range(-1)
    with pytest.raises(TypeError):
        verify_range(3, engine="scalar")  # the engine choice is gone


def test_planarity_class_sums_match_known_counts():
    for n in range(1, 8):
        weights = [
            (g, factorial(n) // aut) for g, aut in isomorphism_classes(n)
        ]
        assert sum(w for g, w in weights if is_planar(g)) == PLANAR_COUNTS[n]
        assert sum(w for g, w in weights if is_outerplanar(g)) == OUTERPLANAR_COUNTS[n]


def test_sweep_json_is_serializable():
    summary = verify_range(4)
    blob = json.dumps(summary.to_json())
    parsed = json.loads(blob)
    assert parsed["schema"] == 1
    assert parsed["kind"] == "sweep"
    assert set(parsed["per_theorem"]) == set(THEOREM_IDS)
    bad = verify_range(3, t41_divisor=1)
    parsed = json.loads(json.dumps(bad.to_json()))
    assert parsed["violations"][0]["graph"] == "A_"
    assert any(
        v["status"] == "fail" and v["witness"]
        for v in parsed["violations"][0]["verdicts"]
    )


def _streamed(summary: SweepSummary) -> str:
    out = io.StringIO()
    summary.write_json(out)
    return out.getvalue()


@pytest.mark.parametrize("divisor", [1, 2])
def test_streamed_sweep_json_is_byte_identical(divisor):
    for n in range(6):
        summary = verify_range(n, divisor)
        assert _streamed(summary) == json.dumps(summary.to_json(), indent=2) + "\n"
    # order 5 with the falsified T4.1: 1094 members of 47 classes, and
    # graph6 strings with a backslash, which JSON escapes
    if divisor == 1:
        assert len(summary.violations) == 1094
        assert len({id(r.verdicts) for r in summary.violations}) == 47
        assert sum("\\" in r.graph for r in summary.violations) == 17


def test_streamed_sweep_json_without_shared_verdicts():
    # equal but distinct verdict tuples miss the per-tuple cache; the text
    # must not change, nor may one member's text leak into another's
    def failing(witness):
        return tuple(
            Verdict(tid, "fail", witness) if tid == "T4.1" else Verdict(tid, "pass")
            for tid in THEOREM_IDS
        )

    counts = {tid: {"pass": 3, "fail": 0, "not_applicable": 0} for tid in THEOREM_IDS}
    counts["T4.1"] = {"pass": 0, "fail": 3, "not_applicable": 0}
    verdicts = failing("a")
    summary = SweepSummary(
        n_max=2,
        graphs_checked=4,
        per_theorem=counts,
        violations=(
            TheoremReport("A_", verdicts),
            TheoremReport("B\\", failing("a")),
            TheoremReport("Bw", failing("b \"quoted\"")),
            TheoremReport("B~", verdicts),
        ),
        wall_time_ms=7,
    )
    assert summary.violations[0].verdicts == summary.violations[1].verdicts
    assert summary.violations[0].verdicts is not summary.violations[1].verdicts
    assert _streamed(summary) == json.dumps(summary.to_json(), indent=2) + "\n"


def test_sweep_summary_consistency_guard():
    with pytest.raises(ValueError):
        SweepSummary(
            n_max=2,
            graphs_checked=4,
            per_theorem={"T2.1": {"pass": 2, "fail": 1, "not_applicable": 0}},
            violations=(),
            wall_time_ms=0,
        )


def test_sharpness_full_grid_is_clean():
    summary = sharpness_suite()
    assert summary.builds == 168
    assert summary.failures == ()
    assert len(summary.families_run) == 10
    blob = json.loads(json.dumps(summary.to_json()))
    assert blob["schema"] == 1
    assert blob["kind"] == "sharpness"


def test_sharpness_restriction_and_corruption():
    clean = sharpness_suite(families=["ng_gamma"])
    assert clean.families_run == ("ng_gamma",)
    assert clean.builds == 10
    assert clean.failures == ()
    probe = sharpness_suite(families=["ng_gamma"], corrupt=True)
    assert probe.builds == 11
    assert len(probe.failures) == 1
    entry = probe.failures[0]
    assert entry["family"] == "ng_gamma"
    assert entry["failed_claims"]
    json.dumps(probe.to_json())
    with pytest.raises(ValueError):
        sharpness_suite(families=["unheard_of"])


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_every_check_passes_on_arbitrary_graphs(g):
    assert theorem_report(g).failures == ()
