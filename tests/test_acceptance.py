"""Release acceptance gate.

Each test is one acceptance criterion and prints a single PASS/FAIL line
(run pytest with -rA to see the lines for passing tests).  Where a criterion
states a wall-clock budget the test asserts it; arithmetic is exact integer
throughout, radical bounds included.  The full
sweep over every labeled graph on at most seven vertices runs once and is
shared by the criteria that consume it.
"""

import random
import time
from functools import lru_cache
from itertools import combinations

from irregraph import (
    FAMILIES,
    Family,
    THEOREM_IDS,
    alpha_ir,
    classify_gamma_extremal,
    classify_outerplanar_alpha1,
    classify_planar_alpha1,
    complement,
    cycle_graph,
    empty_graph,
    from_edge_mask,
    full_report,
    gamma_ir,
    is_outerplanar,
    is_planar,
    parse_graph6,
    satisfies_lemma31,
    sharpness_suite,
    ub_alpha_ir_thm22,
    verify_range,
    write_graph6,
)
from irregraph.bounds import DEFAULT_RAMSEY
from irregraph.params import naive_alpha_ir, naive_gamma_ir
from oracles import checked_member

LABELED_GRAPHS_THROUGH = {6: 33_868, 7: 2_131_020}

FULL_SWEEP_BUDGET_MS = 900_000
FAST_SWEEP_BUDGET_MS = 10_000
ORACLE_BUDGET_S = 120.0
SHARPNESS_BUDGET_S = 120.0
RAMSEY_BUDGET_S = 5.0

RANDOM_ORDER = 10
RANDOM_TRIALS = 1_000
RANDOM_SEED = 60289


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@lru_cache(maxsize=None)
def _full_sweep():
    return verify_range(7)


def _fails(summary, theorem_id: str) -> int:
    return summary.per_theorem[theorem_id]["fail"]


def test_criterion_1_exhaustive_sweep():
    fast = verify_range(6)
    full = _full_sweep()
    ok = (
        fast.graphs_checked == LABELED_GRAPHS_THROUGH[6]
        and not fast.violations
        and fast.wall_time_ms <= FAST_SWEEP_BUDGET_MS
        and full.graphs_checked == LABELED_GRAPHS_THROUGH[7]
        and not full.violations
        and full.wall_time_ms <= FULL_SWEEP_BUDGET_MS
        and set(full.per_theorem) == set(THEOREM_IDS)
        and all(_fails(full, tid) == 0 for tid in THEOREM_IDS)
    )
    _verdict(
        1,
        "exhaustive verification sweep",
        ok,
        f"{full.graphs_checked} graphs, {len(THEOREM_IDS)} checks, "
        f"{len(full.violations)} violations in {full.wall_time_ms} ms "
        f"(n_max=6 tier: {fast.wall_time_ms} ms)",
    )


def test_criterion_2_solver_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for mask in range(1 << 15):
        g = from_edge_mask(6, mask)
        if alpha_ir(g).value != naive_alpha_ir(g).value:
            mismatches += 1
        if gamma_ir(g).value != naive_gamma_ir(g).value:
            mismatches += 1
    rng = random.Random(RANDOM_SEED)
    bits = RANDOM_ORDER * (RANDOM_ORDER - 1) // 2
    for _ in range(RANDOM_TRIALS):
        g = from_edge_mask(RANDOM_ORDER, rng.getrandbits(bits))
        if alpha_ir(g).value != naive_alpha_ir(g).value:
            mismatches += 1
        if gamma_ir(g).value != naive_gamma_ir(g).value:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed <= ORACLE_BUDGET_S
    _verdict(
        2,
        "solver oracle equivalence",
        ok,
        f"{(1 << 15) + RANDOM_TRIALS} graphs (all order 6 plus {RANDOM_TRIALS} "
        f"seeded order {RANDOM_ORDER}), {mismatches} mismatches, {elapsed:.1f} s",
    )


def _cut_radical_attained(g, t) -> bool:
    """alpha_ir = t equals the Thm 2.2 bound (1 - 2delta + sqrt((2delta-1)^2
    + 8beta))/2 exactly, that is t(t + 2delta - 1) = 2beta."""
    rep = full_report(g)
    return (
        rep.alpha_ir == t == ub_alpha_ir_thm22(rep.beta, rep.delta)
        and t * (t + 2 * rep.delta - 1) == 2 * rep.beta
    )


def test_criterion_3_sharpness_contracts():
    start = time.perf_counter()
    summary = sharpness_suite()

    spread_ok = all(
        (rep := full_report(checked_member("clique_union", **p))).alpha_ir
        == rep.Delta - rep.delta + 1
        for p in FAMILIES["clique_union"].grid
    )
    radical_ok = all(
        _cut_radical_attained(checked_member("modstar", **p), p["t"])
        for p in FAMILIES["modstar"].grid
    )
    stair_ok = all(
        gamma_ir(FAMILIES["staircase_gamma"].build(n=n)).value == (n + 1) // 2
        for n in range(2, 15)
    )
    ng_ok = all(
        gamma_ir(g).value + gamma_ir(complement(g)).value == 2 * ((n + 1) // 2)
        for n in range(3, 13)
        for g in [checked_member("ng_gamma", n=n)]
    )

    elapsed = time.perf_counter() - start
    ok = (
        summary.builds == sum(len(row.grid) for row in FAMILIES.values())
        and not summary.failures
        and set(summary.families_run) == set(FAMILIES)
        and spread_ok
        and radical_ok
        and stair_ok
        and ng_ok
        and elapsed <= SHARPNESS_BUDGET_S
    )
    _verdict(
        3,
        "sharpness construction contracts",
        ok,
        f"{summary.builds} builds across {len(summary.families_run)} families, "
        f"{len(summary.failures)} failed claims, {elapsed:.1f} s",
    )


def test_criterion_4_characterization_equivalences():
    mismatches = 0
    checked = 0

    # Orders up to 5: every equivalence through the scalar recognizers,
    # planarity tests included.
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, mask)
            a1 = alpha_ir(g).value == 1
            gm = gamma_ir(g).value
            if satisfies_lemma31(g) != a1:
                mismatches += 1
            if (classify_planar_alpha1(g) is not None) != (is_planar(g) and a1):
                mismatches += 1
            if (classify_outerplanar_alpha1(g) is not None) != (
                is_outerplanar(g) and a1
            ):
                mismatches += 1
            tag = classify_gamma_extremal(g)
            if (tag is not None) != (gm >= n - 1):
                mismatches += 1
            if tag is not None:
                empty = tag.family is Family.EMPTY
                if empty != (gm == n) or (not empty) != (gm == n - 1):
                    mismatches += 1
            checked += 1

    # Order 6: the planarity-free equivalences stay scalar.
    for mask in range(1 << 15):
        g = from_edge_mask(6, mask)
        if satisfies_lemma31(g) != (alpha_ir(g).value == 1):
            mismatches += 1
        if (classify_gamma_extremal(g) is not None) != (gamma_ir(g).value >= 5):
            mismatches += 1
        checked += 1

    # Orders 6 and 7 in full: the sweep runs the same four equivalences as
    # checks L3.1, T3.3, C3.6, T4.4i, T4.4ii over every labeled graph.
    full = _full_sweep()
    sweep_ok = all(
        _fails(full, tid) == 0 for tid in ("L3.1", "T3.3", "C3.6", "T4.4i", "T4.4ii")
    )

    ok = mismatches == 0 and sweep_ok
    _verdict(
        4,
        "characterization equivalences",
        ok,
        f"{mismatches} mismatches over {checked} scalar graphs, "
        f"sweep equivalence checks clean through order {full.n_max}",
    )


def test_criterion_5_domination_radical_equality():
    mismatches = 0
    checked = 0
    for n in range(1, 7):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, mask)
            m = g.m
            # gamma_ir = n - sqrt(2m) exactly
            equality = (n - gamma_ir(g).value) ** 2 == 2 * m
            if equality != (m == 0):
                mismatches += 1
            checked += 1
    empties_ok = all(gamma_ir(empty_graph(n)).value == n for n in range(1, 8))
    full = _full_sweep()
    ok = mismatches == 0 and empties_ok and _fails(full, "C4.3") == 0
    _verdict(
        5,
        "domination radical equality case",
        ok,
        f"gamma_ir = n - sqrt(avg_degree * n) exactly on edgeless graphs, "
        f"{mismatches} mismatches over {checked} graphs, C4.3 clean at order 7",
    )


def test_criterion_6_ramsey_base_case():
    start = time.perf_counter()
    pairbit = {}
    slot = 0
    for v in range(6):
        for u in range(v):
            pairbit[(u, v)] = slot
            slot += 1
    triple_masks = [
        (1 << pairbit[(a, b)]) | (1 << pairbit[(a, c)]) | (1 << pairbit[(b, c)])
        for a, b, c in combinations(range(6), 3)
    ]
    lacking = 0
    for mask in range(1 << 15):
        if not any((hit := mask & tm) == tm or hit == 0 for tm in triple_masks):
            lacking += 1

    c5 = cycle_graph(5)
    rows = c5.rows
    c5_mono = any(
        (rows[a] >> b) & 1 == (rows[a] >> c) & 1 == (rows[b] >> c) & 1
        for a, b, c in combinations(range(5), 3)
    )
    elapsed = time.perf_counter() - start
    ok = (
        lacking == 0
        and not c5_mono
        and DEFAULT_RAMSEY[3] == 6
        and elapsed <= RAMSEY_BUDGET_S
    )
    _verdict(
        6,
        "Ramsey base case",
        ok,
        f"all {1 << 15} order-6 graphs contain a triangle or independent "
        f"triple, C_5 contains neither, table value 6, {elapsed:.2f} s",
    )


def test_criterion_7_graph6_format_fidelity():
    failures = 0
    checked = 0
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, mask)
            s = write_graph6(g)
            h = parse_graph6(s)
            if h != g or h.edge_mask != mask or write_graph6(h) != s:
                failures += 1
            checked += 1

    packed = {
        "C?": [],
        "C~": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        "Ch": [(0, 1), (1, 2), (2, 3)],
    }
    for text, edges in packed.items():
        g = parse_graph6(text)
        if g.n != 4 or sorted(g.edges()) != sorted(edges) or write_graph6(g) != text:
            failures += 1

    ok = failures == 0
    _verdict(
        7,
        "graph6 format fidelity",
        ok,
        f"{checked} round trips through order 5 plus {len(packed)} "
        f"hand-packed strings, {failures} failures",
    )


def test_criterion_8_negative_controls():
    # Dividing by more than 2 weakens the claimed lower bound, so it can
    # never fire; dividing by 1 strengthens it past the truth and must.
    weakened = verify_range(4, t41_divisor=3)
    falsified = verify_range(4, t41_divisor=1)

    first = falsified.violations[0] if falsified.violations else None
    fail_verdicts = (
        [v for v in first.verdicts if v.status == "fail"] if first else []
    )
    witness_ok = (
        first is not None
        and first.graph == "A_"
        and any(v.theorem_id == "T4.1" and v.witness for v in fail_verdicts)
    )
    # Hand check of the reported witness: the single edge has gamma_ir 1,
    # below the corrupted bound max(ceil(2/1), 2 - 1) = 2.
    k2 = parse_graph6("A_")
    hand_ok = gamma_ir(k2).value == 1 and max(-(-k2.n // 1), k2.n - 1) == 2

    corrupt = sharpness_suite(families=("ng_gamma",), corrupt=True)
    bad_build = corrupt.failures[0] if corrupt.failures else None
    corrupt_ok = (
        bad_build is not None
        and bad_build["family"] == "ng_gamma"
        and bad_build["failed_claims"]
        and all(c["expected"] != c["actual"] for c in bad_build["failed_claims"])
    )

    ok = (
        not weakened.violations
        and len(falsified.violations) >= 1
        and witness_ok
        and hand_ok
        and corrupt_ok
    )
    _verdict(
        8,
        "negative controls",
        ok,
        f"corrupted bound reports {len(falsified.violations)} violations "
        f"(first witness on {first.graph if first else '?'}), corrupted "
        f"construction reports {len(corrupt.failures)} failed build(s), "
        f"weakened bound stays silent as expected",
    )
