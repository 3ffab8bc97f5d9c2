"""Bound formulas: frozen example values, collapses, tightness against the
squared inequalities, and soundness sweeps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from irregraph.bounds import (
    DEFAULT_RAMSEY,
    BoundInputs,
    RamseyTable,
    lb_gamma_ir_cor43,
    lb_gamma_ir_thm41,
    lb_gamma_ir_thm42,
    product_cap,
    ub_alpha_ir_eq1,
    ub_alpha_ir_thm21,
    ub_alpha_ir_thm22,
    ub_gamma_ir_thm45,
    ub_gamma_ir_thm45i,
    ub_gamma_ir_thm45ii,
    ub_span_thm32,
)
from irregraph.graph import from_edge_mask, pair_count, path_graph
from irregraph.params import alpha_ir, gamma_ir


def stats(n, m, delta, Delta, beta, span):
    return BoundInputs(
        n=n,
        m=m,
        delta=delta,
        Delta=Delta,
        beta=beta,
        span=span,
    )


P4_STATS = stats(n=4, m=3, delta=1, Delta=2, beta=3, span=2)
E4_STATS = stats(n=4, m=0, delta=0, Delta=0, beta=0, span=1)


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1))
    return from_edge_mask(n, mask)


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        stats(n=4, m=3, delta=2, Delta=1, beta=3, span=2)  # delta > Delta
    with pytest.raises(ValueError):
        stats(n=4, m=3, delta=1, Delta=2, beta=4, span=2)  # beta > m
    assert BoundInputs.from_graph(path_graph(4)) == P4_STATS


def test_thm21_values():
    assert ub_alpha_ir_thm21(P4_STATS) == 2
    assert ub_alpha_ir_thm21(E4_STATS) == 1
    # 3-regular on 6 vertices: the spread term pins the bound to 1
    reg = stats(n=6, m=9, delta=3, Delta=3, beta=9, span=1)
    assert ub_alpha_ir_thm21(reg) == 1
    # the radical term (1 + sqrt(45))/2 = 3.85... is the strict minimum
    dense = stats(n=7, m=10, delta=0, Delta=5, beta=9, span=3)
    assert ub_alpha_ir_thm21(dense) == 3


def test_eq1_values():
    assert ub_alpha_ir_eq1(P4_STATS) == 2
    assert ub_alpha_ir_eq1(E4_STATS) == 1


def test_eq1_collapse_grid():
    # delta = r and m = t(2r + t - 1)/2 collapse the radical to exactly t
    for r in range(0, 5):
        for t in range(1, 7):
            m = t * (2 * r + t - 1) // 2
            n = max(r + t + 1, 2 * m)  # any consistent frame
            inp = stats(n=n, m=m, delta=r, Delta=min(n - 1, max(r, m)), beta=m, span=1)
            assert ub_alpha_ir_eq1(inp) == t, (r, t)


def test_thm22_values_and_collapse():
    assert ub_alpha_ir_thm22(P4_STATS) == 2
    for r in range(0, 4):
        for t in range(1, 6):
            b = t * (2 * r + t - 1) // 2
            n = max(r + t + 1, 2 * b)
            inp = stats(n=n, m=b, delta=r, Delta=min(n - 1, max(r, b)), beta=b, span=1)
            assert ub_alpha_ir_thm22(inp) == t, (r, t)


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
    assert lb_gamma_ir_cor43(5, Fraction(0)) == 5
    # 4 - sqrt(6) = 1.55...
    assert lb_gamma_ir_cor43(4, Fraction(3, 2)) == 2
    assert lb_gamma_ir_cor43(1, Fraction(0)) == 1


def test_thm45_values():
    assert ub_gamma_ir_thm45(20, 6, 3) == 17
    assert ub_gamma_ir_thm45(20, 5, 3) == 17  # second rule only
    assert ub_gamma_ir_thm45(20, 18, 4) == 16  # R(4,4) = 18
    assert ub_gamma_ir_thm45(10, 2, 2) == 8
    # k = 1 fires for any graph with an edge everywhere: R(1,1) = 1
    assert ub_gamma_ir_thm45(10, 2, 1) == 9
    # delta = 0 disables every rule
    assert ub_gamma_ir_thm45(10, 1, 0) is None
    assert ub_gamma_ir_thm45(10, 6, 0) is None
    # the two rules separately: span 5 < R(3,3) leaves k = 2 for rule (i)
    assert ub_gamma_ir_thm45i(20, 5, 3) == 18
    assert ub_gamma_ir_thm45ii(20, 5, 3) == 17
    assert ub_gamma_ir_thm45ii(20, 18, 2) is None


def test_ramsey_table():
    assert DEFAULT_RAMSEY[3] == 6
    assert DEFAULT_RAMSEY.known_k == (1, 2, 3, 4)
    assert 4 in DEFAULT_RAMSEY and 5 not in DEFAULT_RAMSEY
    with pytest.raises(KeyError):
        RamseyTable()[5]


@settings(deadline=None)
@given(graphs())
def test_alpha_ir_bounds_sound(g):
    inp = BoundInputs.from_graph(g)
    a = alpha_ir(g).value
    assert a <= ub_alpha_ir_thm21(inp)
    assert a <= ub_alpha_ir_eq1(inp)
    assert a <= ub_alpha_ir_thm22(inp)


@settings(deadline=None)
@given(graphs())
def test_gamma_ir_bounds_sound(g):
    inp = BoundInputs.from_graph(g)
    value = gamma_ir(g).value
    assert value >= lb_gamma_ir_thm41(inp.n, inp.Delta)
    assert value >= lb_gamma_ir_thm42(inp.n, inp.beta)
    assert value >= lb_gamma_ir_cor43(inp.n, Fraction(2 * inp.m, inp.n))
    ub = ub_gamma_ir_thm45(inp.n, inp.span, inp.delta)
    if ub is not None:
        assert value <= ub


@settings(deadline=None)
@given(graphs())
def test_thm22_dominates_eq1(g):
    inp = BoundInputs.from_graph(g)
    assert ub_alpha_ir_thm22(inp) <= ub_alpha_ir_eq1(inp)


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
                inp = stats(n=n, m=m, delta=delta, Delta=n - 1, beta=m, span=1)
                half = (n - delta + 1) // 2
                rad = 2 * n * n - 2 * n - 4 * m + 1
                ub = ub_alpha_ir_thm21(inp)
                assert ub <= half and (2 * ub - 1) ** 2 <= rad, (n, m, delta)
                assert ub + 1 > half or (2 * ub + 1) ** 2 > rad, (n, m, delta)
                ub = ub_alpha_ir_eq1(inp)
                assert ub * (ub + 2 * delta - 1) <= 2 * m, (n, m, delta)
                assert (ub + 1) * (ub + 2 * delta) > 2 * m, (n, m, delta)
            for beta in range(top + 1):
                inp = stats(n=n, m=top, delta=delta, Delta=n - 1, beta=beta, span=1)
                ub = ub_alpha_ir_thm22(inp)
                assert ub * (ub + 2 * delta - 1) <= 2 * beta, (n, beta, delta)
                assert (ub + 1) * (ub + 2 * delta) > 2 * beta, (n, beta, delta)


def test_span_bound_tight():
    for delta in range(TIGHT_N * TIGHT_N):
        ub = ub_span_thm32(delta)
        assert ub * (ub - 1) <= 2 * delta < (ub + 1) * ub, delta


def test_gamma_ir_radical_bounds_tight():
    for n in range(1, TIGHT_N + 1):
        for twice in range(n * (n - 1) + 1):  # 2beta for Thm 4.2, d n for Cor 4.3
            if twice % 2 == 0:
                lb = lb_gamma_ir_thm42(n, twice // 2)
                gap = n - lb
                assert gap * (gap + 1) <= twice < (gap + 1) * (gap + 2), (n, twice)
            lb = lb_gamma_ir_cor43(n, Fraction(twice, n))
            gap = n - lb
            assert gap * gap <= twice < (gap + 1) ** 2, (n, twice)


def test_product_cap_is_largest_product():
    for n in range(2 * TIGHT_N):
        assert product_cap(n) == max(x * (n - x) for x in range(n + 1)), n
