"""Sweep harness: class sweep against the labeled reference, frozen counts,
and the negative controls."""

import io
import json
import marshal
import os
import signal
import threading
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from irregraph import harness, workers
from irregraph.graph import (
    Graph,
    complement,
    complete_graph,
    empty_graph,
    from_edge_mask,
    graph6_from_edge_mask,
    isomorphism_classes,
    pair_count,
    parse_graph6,
    path_graph,
    write_graph6,
)
from irregraph.harness import (
    THEOREM_IDS,
    SweepSummary,
    TheoremReport,
    Verdict,
    _blank_counts,
    sharpness_suite,
    theorem_report,
    verify_range,
)
from irregraph.params import full_report
from irregraph.recognizers import is_outerplanar, is_planar
from irregraph.workers import WorkerTraceback, usable_workers
from oracles import (
    enumerate_labeled_graphs,
    reference_row_verdicts,
    sweep_order_labeled,
)

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
    # only an int divisor: any other would print a float bound into T4.1
    for divisor in (1.5, 2.0):
        with pytest.raises(ValueError, match="int divisor >= 1"):
            theorem_report(path_graph(4), t41_divisor=divisor)
        with pytest.raises(ValueError, match="int divisor >= 1"):
            verify_range(3, t41_divisor=divisor)
    # the T4.1 row takes its bound, divisor included, from irregraph.bounds
    by_id = lambda r: {v.theorem_id: v for v in r.verdicts}
    k3 = complete_graph(3)  # gamma_ir = 2 = max(ceil(3/2), 3-2)
    assert by_id(theorem_report(k3))["T4.1"].status == "pass"
    assert by_id(theorem_report(k3, t41_divisor=1))["T4.1"] == Verdict(
        "T4.1", "fail", "gamma_ir=2 < max(ceil(3/1), n-Delta=1) = 3"
    )


@pytest.mark.parametrize("divisor", [1, 2])
def test_row_verdicts_match_the_reference_evaluator(divisor):
    # both sides of every class of order 1-6, against verdicts built anew
    # from the _Row fields for every row; alpha_ir or gamma_ir off by one
    # makes every row fail on some graph, the iff rows included, except
    # T4.5ii, which applies only from order 8 (span >= 5 and delta >= 3)
    statuses = set()
    failing = set()
    for n in range(1, 7):
        for g, _ in isomorphism_classes(n):
            gc = complement(g)
            own, own_c = harness._solve(g), harness._solve(gc)
            for side, mine, theirs in ((g, own, own_c), (gc, own_c, own)):
                for solved in (
                    mine,
                    *(mine._replace(alpha_ir=mine.alpha_ir + d) for d in (-1, 1)),
                    *(mine._replace(gamma_ir=mine.gamma_ir + d) for d in (-1, 1)),
                ):
                    c = harness._Ctx(
                        side, divisor, solved, theirs.alpha_ir, theirs.gamma_ir
                    )
                    verdicts = harness._row_verdicts(c)
                    assert verdicts == reference_row_verdicts(c), write_graph6(side)
                    if solved is mine:
                        statuses |= {v.status for v in verdicts}
                    failing |= {v.theorem_id for v in verdicts if v.status == "fail"}
    expected = {"pass", "not_applicable"} | ({"fail"} if divisor == 1 else set())
    assert statuses == expected
    assert failing == set(THEOREM_IDS) - {"T4.5ii"}


def test_passing_and_not_applicable_verdicts_are_shared():
    def by_id(g, divisor=2):
        return {v.theorem_id: v for v in theorem_report(g, divisor).verdicts}

    e3, k3 = by_id(empty_graph(3)), by_id(complete_graph(3))
    for tid in ("T2.1", "T4.1", "T6.1i"):
        assert e3[tid].status == "pass" and e3[tid] is k3[tid]
    # product rows need n >= 4
    assert e3["C2.4"].status == "not_applicable" and e3["C2.4"] is k3["C2.4"]
    p4, p5 = by_id(path_graph(4)), by_id(path_graph(5))
    assert p4["T3.2i"].status == "not_applicable" and p4["T3.2i"] is p5["T3.2i"]
    # a failing verdict is built for its graph and carries its witness
    first, second = by_id(complete_graph(2), 1), by_id(complete_graph(2), 1)
    witness = "gamma_ir=1 < max(ceil(2/1), n-Delta=1) = 2"
    assert first["T4.1"] == second["T4.1"] == Verdict("T4.1", "fail", witness)
    assert first["T4.1"] is not second["T4.1"]
    assert first["T4.1"].to_json() == {
        "theorem": "T4.1", "status": "fail", "witness": witness,
    }
    assert first["T2.1"] is e3["T2.1"]
    assert e3["T2.1"].to_json() == {"theorem": "T2.1", "status": "pass"}
    assert e3["C2.4"].to_json() == {"theorem": "C2.4", "status": "not_applicable"}


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


def _labeled_sweep(n_max: int, t41_divisor: int):
    """Counts and sorted (graph6, verdicts) violations of the labeled
    reference, summed over orders 1..n_max."""
    counts = _blank_counts()
    violations = []
    for n in range(1, n_max + 1):
        part, violating = sweep_order_labeled(n, t41_divisor)
        for tid, cell in part.items():
            for status, count in cell.items():
                counts[tid][status] += count
        violations += [
            (graph6_from_edge_mask(n, mask), verdicts) for mask, verdicts in violating
        ]
    return counts, sorted(violations, key=lambda pair: pair[0])


def test_engines_agree_through_order_five():
    # the class sweep against the labeled reference that checks every mask
    summary = verify_range(5, 2)
    counts, violations = _labeled_sweep(5, 2)
    assert summary.per_theorem == counts
    assert summary.violations == () and violations == []


def test_engines_agree_on_violations():
    summary = verify_range(4, 1)
    counts, violations = _labeled_sweep(4, 1)
    assert summary.per_theorem == counts
    assert [(r.graph, r.verdicts) for r in summary.violations] == violations


def test_wrong_class_weight_is_caught(monkeypatch):
    # |Aut| of K2+K1 is 2; claiming 1 counts it, and its complement P3, 6
    # times each, whether order 3 is the last order walked or not.
    real = harness._class_walk

    def wrong(n_max, cap, shard=(0, 1)):
        for rows, lab in real(n_max, cap, shard):
            if len(rows) == 3 and sum(row.bit_count() for row in rows) == 2:
                lab = lab._replace(aut=1)
            yield rows, lab

    monkeypatch.setattr(harness, "_class_walk", wrong)
    for n_max in (3, 4):
        with pytest.raises(
            AssertionError, match="order 3, m=1: class weights add up to 6, not 3"
        ):
            verify_range(n_max)


def _payload(summary: SweepSummary) -> str:
    return json.dumps(dict(summary.to_json(), wall_time_ms=0), indent=2)


# (n_max, t41_divisor) of the sharded sweeps compared with one shard
SWEEP_CASES = [(n, 2) for n in range(8)] + [(n, 1) for n in range(6)]


def _unsharded(n_max: int, t41_divisor: int) -> str:
    """The payload of verify_range(n_max, t41_divisor), merged from the
    whole walk as one shard in this process."""
    whole = harness._sweep_shard(n_max, t41_divisor, (0, 1))
    counts, violations = harness._merged(n_max, [whole])
    graphs = sum(1 << pair_count(n) for n in range(n_max + 1))
    return _payload(SweepSummary(n_max, graphs, counts, tuple(violations), 0))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_merged_shard_tallies_give_the_same_payload(monkeypatch, k):
    # the k shards' tallies, summed and expanded, against one unsharded run
    monkeypatch.setattr(workers, "usable_workers", lambda cap: k)
    monkeypatch.setattr(workers, "forked_map", lambda work, k: [*map(work, range(k))])
    for case in SWEEP_CASES:
        assert _payload(verify_range(*case)) == _unsharded(*case)


def _summed(tallies: list[tuple]) -> tuple[Counter, list]:
    """The shards' weights added up key by key, and their failing sides."""
    weights, failed_sides = Counter(), []
    for shard_weights, shard_failed in tallies:
        weights.update(shard_weights)
        failed_sides += shard_failed
    return weights, sorted(failed_sides)


@pytest.mark.parametrize("k", [2, 3])
def test_shard_weights_add_up_to_the_one_shard_map(k):
    for case in SWEEP_CASES:
        whole = harness._sweep_shard(*case, (0, 1))
        parts = [harness._sweep_shard(*case, (i, k)) for i in range(k)]
        assert _summed(parts) == _summed([whole])
        # one record per (n, m, statuses), of 28 statuses each
        assert all(
            len(record) == 3 and len(record[2]) == len(THEOREM_IDS)
            for record in whole[0]
        )
    # the records stay plain values, which marshal (and a JSON tally file)
    # can hold; marshal.dumps raises ValueError on any other
    marshal.dumps(harness._sweep_shard(6, 1, (0, 1))[0])


@pytest.mark.parametrize("fault", [0, 1, "duplicated"])
def test_lost_shard_is_caught(fault):
    # shard 0 or shard 1 lost, or shard 1 counted twice
    tallies = [harness._sweep_shard(5, 2, (i, 2)) for i in range(2)]
    if fault == "duplicated":
        tallies.append(tallies[1])
    else:
        del tallies[fault]
    with pytest.raises(AssertionError, match="class weights add up to"):
        harness._merged(5, tallies)


def _kept(monkeypatch) -> list:
    """The k each verify_range call forks, and the tallies it gets back,
    appended as (k, tallies) to the list returned."""
    kept = []
    real = workers.forked_map

    def keeping(work, k):
        kept.append((k, real(work, k)))
        return kept[-1][1]

    monkeypatch.setattr(workers, "forked_map", keeping)
    return kept


@pytest.mark.parametrize("k", [2, 3])
def test_forked_shards_give_the_same_payload(monkeypatch, k):
    monkeypatch.setattr(workers, "usable_workers", lambda cap: k)
    kept = _kept(monkeypatch)
    for case in SWEEP_CASES:
        assert _payload(verify_range(*case)) == _unsharded(*case)
    assert [shards for shards, _ in kept] == [k] * len(SWEEP_CASES)
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_second_thread_keeps_the_sweep_in_one_shard(monkeypatch):
    # a forked child of a threaded process can block on a lock another
    # thread held, so the sweep runs as one shard and forks nothing
    def forbidden():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "fork", forbidden)
    kept = _kept(monkeypatch)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        payload = _payload(verify_range(5))
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    assert payload == _unsharded(5, 2)
    assert [shards for shards, _ in kept] == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_shard_error_is_raised_after_reaping_every_worker(monkeypatch, where):
    # a solver that fails in one process only; the caller raises the same
    # exception and leaves no child behind, and so does the next normal call
    caller = os.getpid()
    real = harness.max_cut

    def failing(g):
        if g.n == 7 and (os.getpid() == caller) == (where == "caller"):
            raise ZeroDivisionError(f"max_cut failed in the {where}")
        return real(g)

    monkeypatch.setattr(workers, "usable_workers", lambda cap: 2)
    monkeypatch.setattr(harness, "max_cut", failing)
    message = f"^max_cut failed in the {where}$"
    with pytest.raises(ZeroDivisionError, match=message) as raised:
        verify_range(7)
    if where == "worker":  # raised again from the worker's own traceback
        cause = raised.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "in failing\n    raise ZeroDivisionError(" in str(cause)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(harness, "max_cut", real)
    assert verify_range(7).violations == ()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_killed_before_sending_is_an_error(monkeypatch):
    caller = os.getpid()
    real = harness._sweep_shard

    def killed(n_max, t41_divisor, shard):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(n_max, t41_divisor, shard)

    monkeypatch.setattr(workers, "usable_workers", lambda cap: 3)
    monkeypatch.setattr(harness, "_sweep_shard", killed)
    with pytest.raises(RuntimeError, match="ended without a result"):
        verify_range(7)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count(monkeypatch):
    # every sweep, whatever its order, forks usable_workers(_MAX_WORKERS)
    # shards, reading _MAX_WORKERS when it runs
    asked = []

    def usable(cap):
        asked.append(cap)
        return usable_workers(cap)

    monkeypatch.setattr(workers, "usable_workers", usable)
    kept = _kept(monkeypatch)
    for n_max in (0, 3, 7):
        verify_range(n_max)
    expected = [harness._MAX_WORKERS] * 3
    for cap in (1, 3):
        monkeypatch.setattr(harness, "_MAX_WORKERS", cap)
        verify_range(3)
        expected.append(cap)
    assert asked == expected
    assert [shards for shards, _ in kept] == [usable_workers(c) for c in expected]


@pytest.mark.slow
def test_order_eight_shards_give_the_same_payload(monkeypatch):
    # the payloads, and the weights the two forked shards sent back against
    # the one shard's (run in this process), key by key
    kept = _kept(monkeypatch)
    payloads = []
    for k in (1, 2):
        monkeypatch.setattr(workers, "usable_workers", lambda cap: k)
        payloads.append(_payload(verify_range(8)))
    assert payloads[1] == payloads[0]
    (one, whole), (two, parts) = kept
    assert (one, two) == (1, 2)
    assert _summed(parts) == _summed(whole)
    assert len(whole[0][0]) == 186


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


def test_each_violating_verdict_list_is_still_checked(monkeypatch):
    # the members of a violating class skip TheoremReport's own check, which
    # runs once on their shared verdicts; it must still refuse a bad list
    evaluate = harness._evaluate

    def without_witness(row, c):
        verdict = evaluate(row, c)
        if verdict.status == "fail":
            return Verdict(verdict.theorem_id, "fail")
        return verdict

    monkeypatch.setattr(harness, "_evaluate", without_witness)
    with pytest.raises(ValueError, match="^a failing verdict must carry a witness$"):
        verify_range(3, 1)


def test_weakened_bound_cannot_fire():
    # ceil(n/3) <= ceil(n/2) <= gamma_ir, so divisor 3 proves nothing fails
    summary = verify_range(4, t41_divisor=3)
    assert summary.violations == ()


def test_verify_range_validation():
    # order 8 is accepted (1.1-1.6 s in process, two shards, on a 2-vCPU
    # Xeon), 9 is not
    with pytest.raises(ValueError, match="n_max <= 8"):
        verify_range(9)
    with pytest.raises(ValueError):
        verify_range(-1)
    with pytest.raises(ValueError, match="an int 0 <= n_max"):
        verify_range(3.0)
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


def test_graph6_quoting_matches_json_dumps():
    # every graph6 byte, header (n + 63 for n = 1..62) or body (63..126)
    for code in range(63, 127):
        assert harness._quoted_graph6(chr(code)) == json.dumps(chr(code))
    texts = [
        graph6_from_edge_mask(n, mask)
        for n in range(1, 6)
        for mask in range(1 << pair_count(n))
    ]
    assert any("\\" in text for text in texts)
    for text in texts:
        assert harness._quoted_graph6(text) == json.dumps(text)


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


@pytest.mark.parametrize("g6", ["D~{", "DN{", "D?{", "Gsu~mW"])
def test_degrees_are_classified_once_per_graph(monkeypatch, g6):
    """Every layer reads graph.classify_degrees, which counts the degrees
    once per Graph object: a report needs the graph and its complement."""
    counted = []
    true_degrees = Graph.degrees

    def degrees(self):
        counted.append(self)
        return true_degrees(self)

    monkeypatch.setattr(Graph, "degrees", degrees)
    for check in (theorem_report, harness._pair_verdicts):
        g = parse_graph6(g6)
        counted.clear()
        check(g, 2)
        assert len(counted) == 2, check
        assert any(h is g for h in counted), check
        assert complement(g) in counted, check
    g = parse_graph6(g6)
    counted.clear()
    full_report(g)
    assert len(counted) == 1 and counted[0] is g
