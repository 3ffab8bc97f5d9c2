"""Bound formulas: frozen example values, collapses, tightness against the
squared inequalities, and soundness sweeps."""

import pytest
from hypothesis import given, settings, strategies as st

from irregraph.bounds import (
    DEFAULT_RAMSEY,
    exact_root,
    lb_gamma_ir_cor43,
    lb_gamma_ir_thm41,
    lb_gamma_ir_thm42,
    product_cap,
    ub_alpha_ir_eq1,
    ub_alpha_ir_thm21,
    ub_alpha_ir_thm22,
    ub_gamma_ir_thm45i,
    ub_gamma_ir_thm45ii,
    ub_span_thm32,
)
from irregraph.graph import from_edge_mask, pair_count, path_graph
from irregraph.params import alpha_ir, full_report, gamma_ir

# P_4: n=4, m=3, delta=1, Delta=2, beta=3, span=2; E_4: n=4 and the rest 0


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1))
    return from_edge_mask(n, mask)


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        ub_alpha_ir_thm21(4, 3, 2, 1)  # delta > Delta
    with pytest.raises(ValueError):
        ub_alpha_ir_thm21(4, 7, 1, 2)  # m > C(4,2)
    with pytest.raises(ValueError):
        ub_alpha_ir_thm21(0, 0, 0, 0)
    with pytest.raises(ValueError):
        ub_alpha_ir_eq1(-1, 1)
    with pytest.raises(ValueError):
        ub_alpha_ir_eq1(3, -1)
    with pytest.raises(ValueError):
        ub_alpha_ir_thm22(-1, 1)
    with pytest.raises(ValueError):
        ub_alpha_ir_thm22(3, -1)
    with pytest.raises(ValueError):
        lb_gamma_ir_cor43(4, -1)
    with pytest.raises(ValueError):
        lb_gamma_ir_cor43(4, 7)  # m > C(4,2)
    with pytest.raises(ValueError):
        lb_gamma_ir_cor43(0, 0)
    p4 = full_report(path_graph(4))
    assert (p4.n, p4.m, p4.delta, p4.Delta, p4.beta, p4.span) == (4, 3, 1, 2, 3, 2)


def test_thm21_values():
    assert ub_alpha_ir_thm21(4, 3, 1, 2) == 2  # P_4
    assert ub_alpha_ir_thm21(4, 0, 0, 0) == 1  # E_4
    # 3-regular on 6 vertices: the spread term pins the bound to 1
    assert ub_alpha_ir_thm21(6, 9, 3, 3) == 1
    # the radical term (1 + sqrt(45))/2 = 3.85... is the strict minimum
    assert ub_alpha_ir_thm21(7, 10, 0, 5) == 3


def test_eq1_values():
    assert ub_alpha_ir_eq1(3, 1) == 2  # P_4
    assert ub_alpha_ir_eq1(0, 0) == 1  # E_4


def test_eq1_collapse_grid():
    # delta = r and m = t(2r + t - 1)/2 collapse the radical to exactly t
    for r in range(0, 5):
        for t in range(1, 7):
            m = t * (2 * r + t - 1) // 2
            assert ub_alpha_ir_eq1(m, r) == t, (r, t)


def test_thm22_values_and_collapse():
    assert ub_alpha_ir_thm22(3, 1) == 2  # P_4
    for r in range(0, 4):
        for t in range(1, 6):
            b = t * (2 * r + t - 1) // 2
            assert ub_alpha_ir_thm22(b, r) == t, (r, t)


def test_span_bound_values():
    assert ub_span_thm32(1) == 2
    assert ub_span_thm32(0) == 1
    # delta = n - k with n = k(k+1)/2 collapses to exactly k
    for k in range(1, 8):
        n = k * (k + 1) // 2
        assert ub_span_thm32(n - k) == k, k
    with pytest.raises(ValueError):
        ub_span_thm32(-1)


def test_thm41_values():
    assert lb_gamma_ir_thm41(4, 2) == 2
    assert lb_gamma_ir_thm41(3, 0) == 3
    assert lb_gamma_ir_thm41(7, 3) == 4
    assert lb_gamma_ir_thm41(5, 1) == 4  # max(ceil(5/2), 5-1)
    assert lb_gamma_ir_thm41(6, 5) == 3
    # divisor 1 falsifies the bound: it claims gamma_ir >= n
    for n, Delta in ((1, 0), (4, 2), (6, 5), (7, 3)):
        assert lb_gamma_ir_thm41(n, Delta, 1) == n
    assert lb_gamma_ir_thm41(7, 6, 3) == 3
    with pytest.raises(ValueError):
        lb_gamma_ir_thm41(4, 4)
    with pytest.raises(ValueError):
        lb_gamma_ir_thm41(4, 2, 0)


def test_thm42_values():
    assert lb_gamma_ir_thm42(5, 0) == 5
    # 4 + (1 - sqrt(33))/2 = 1.63...
    assert lb_gamma_ir_thm42(4, 4) == 2
    # beta = n'(n'+1)/2 with n' = n - k collapses to exactly k
    for n in range(2, 12):
        for k in range(1, n + 1):
            npr = n - k
            assert lb_gamma_ir_thm42(n, npr * (npr + 1) // 2) == k, (n, k)


def test_cor43_values():
    assert lb_gamma_ir_cor43(5, 0) == 5
    # 4 - sqrt(6) = 1.55...
    assert lb_gamma_ir_cor43(4, 3) == 2
    assert lb_gamma_ir_cor43(1, 0) == 1


def test_thm45_values():
    # rule (i) takes the largest k with span >= R(k,k) and delta >= k
    assert ub_gamma_ir_thm45i(20, 6, 3) == 17
    assert ub_gamma_ir_thm45i(20, 18, 4) == 16  # R(4,4) = 18
    assert ub_gamma_ir_thm45i(10, 2, 2) == 8
    # k = 1 fires for any graph with an edge everywhere: R(1,1) = 1
    assert ub_gamma_ir_thm45i(10, 2, 1) == 9
    # delta = 0 disables both rules
    for span in (1, 6):
        assert ub_gamma_ir_thm45i(10, span, 0) is None
        assert ub_gamma_ir_thm45ii(10, span, 0) is None
    # span 5 < R(3,3) leaves k = 2 for rule (i); rule (ii) gives n - 3
    assert ub_gamma_ir_thm45i(20, 5, 3) == 18
    assert ub_gamma_ir_thm45ii(20, 5, 3) == 17
    assert ub_gamma_ir_thm45ii(20, 6, 3) == 17
    assert ub_gamma_ir_thm45ii(20, 18, 2) is None


def test_ramsey_table():
    assert DEFAULT_RAMSEY == {1: 1, 2: 2, 3: 6, 4: 18}


@settings(deadline=None)
@given(graphs())
def test_alpha_ir_bounds_sound(g):
    rep = full_report(g)
    a = alpha_ir(g).value
    assert a <= ub_alpha_ir_thm21(rep.n, rep.m, rep.delta, rep.Delta)
    assert a <= ub_alpha_ir_eq1(rep.m, rep.delta)
    assert a <= ub_alpha_ir_thm22(rep.beta, rep.delta)


@settings(deadline=None)
@given(graphs())
def test_gamma_ir_bounds_sound(g):
    rep = full_report(g)
    value = gamma_ir(g).value
    assert value >= lb_gamma_ir_thm41(rep.n, rep.Delta)
    assert value >= lb_gamma_ir_thm42(rep.n, rep.beta)
    assert value >= lb_gamma_ir_cor43(rep.n, rep.m)
    for rule in (ub_gamma_ir_thm45i, ub_gamma_ir_thm45ii):
        ub = rule(rep.n, rep.span, rep.delta)
        if ub is not None:
            assert value <= ub


@settings(deadline=None)
@given(graphs())
def test_thm22_dominates_eq1(g):
    rep = full_report(g)
    assert ub_alpha_ir_thm22(rep.beta, rep.delta) <= ub_alpha_ir_eq1(rep.m, rep.delta)


# -- tightness: each exact bound is the extreme integer that satisfies the
# squared form of its inequality.  A bound loosened by one still passes
# every soundness test and sweep count; only these tests catch it.

TIGHT_N = 25


def test_alpha_ir_radical_bounds_tight():
    for n in range(1, TIGHT_N + 1):
        top = n * (n - 1) // 2
        for delta in range(n):
            for m in range(top + 1):
                # Delta = n - 1 keeps the spread term out of the way; the
                # half term still competes with the radical
                half = (n - delta + 1) // 2
                rad = 2 * n * n - 2 * n - 4 * m + 1
                ub = ub_alpha_ir_thm21(n, m, delta, n - 1)
                assert ub <= half and (2 * ub - 1) ** 2 <= rad, (n, m, delta)
                assert ub + 1 > half or (2 * ub + 1) ** 2 > rad, (n, m, delta)
                ub = ub_alpha_ir_eq1(m, delta)
                assert ub * (ub + 2 * delta - 1) <= 2 * m, (n, m, delta)
                assert (ub + 1) * (ub + 2 * delta) > 2 * m, (n, m, delta)
            for beta in range(top + 1):
                ub = ub_alpha_ir_thm22(beta, delta)
                assert ub * (ub + 2 * delta - 1) <= 2 * beta, (n, beta, delta)
                assert (ub + 1) * (ub + 2 * delta) > 2 * beta, (n, beta, delta)


def test_span_bound_tight():
    for delta in range(TIGHT_N * TIGHT_N):
        ub = ub_span_thm32(delta)
        assert ub * (ub - 1) <= 2 * delta < (ub + 1) * ub, delta


def test_gamma_ir_radical_bounds_tight():
    for n in range(1, TIGHT_N + 1):
        for half in range(n * (n - 1) // 2 + 1):  # beta for Thm 4.2, m for Cor 4.3
            twice = 2 * half
            gap = n - lb_gamma_ir_thm42(n, half)
            assert gap * (gap + 1) <= twice < (gap + 1) * (gap + 2), (n, twice)
            gap = n - lb_gamma_ir_cor43(n, half)
            assert gap * gap <= twice < (gap + 1) ** 2, (n, twice)


def test_product_cap_is_largest_product():
    for n in range(2 * TIGHT_N):
        assert product_cap(n) == max(x * (n - x) for x in range(n + 1)), n


def test_exact_root_against_brute_force():
    top = 4 * TIGHT_N * TIGHT_N
    for b in range(-1, 2 * TIGHT_N):
        largest = {}  # c -> largest a >= 0 with a(a + b) = c
        for a in range(top + 2):  # beyond, a(a + b) >= a(a - 1) > top
            largest[a * (a + b)] = a
        for c in range(top):
            assert exact_root(b, c) == largest.get(c), (b, c)
    for b, c in ((-2, 0), (0, -1)):
        with pytest.raises(ValueError):
            exact_root(b, c)
