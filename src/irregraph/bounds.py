"""Closed-form bounds on the irregular parameters, in exact integers.

Each function evaluates one published inequality from the plain integers it
reads (n, m, delta, Delta, beta, span), and is the only place the package
states it.  A ub_* function returns the largest integer the parameter may
take, an lb_* function the smallest.

The radical bounds are sharp, so only exact arithmetic can decide equality.
Each has the form a <= (-b + sqrt(b^2 + 4c))/2, which for an integer a >= 0
squares to a(a + b) <= c; the largest such a is (isqrt(b^2 + 4c) - b) // 2,
and the bound equals a exactly when a(a + b) = c, which exact_root decides.
"""

from __future__ import annotations

import math
from typing import Optional

# the known diagonal Ramsey numbers R(k,k), which Thm 4.5 reads
DEFAULT_RAMSEY = {1: 1, 2: 2, 3: 6, 4: 18}


def _root_floor(b: int, c: int) -> int:
    """Largest integer a >= 0 with a(a + b) <= c, for b >= -1 and c >= 0."""
    return (math.isqrt(b * b + 4 * c) - b) // 2


def exact_root(b: int, c: int) -> Optional[int]:
    """The largest a >= 0 with a(a + b) = c, which is the radical bound when
    that is an integer; None when it is not."""
    if b < -1 or c < 0:
        raise ValueError("need b >= -1 and c >= 0")
    a = _root_floor(b, c)
    return a if a * (a + b) == c else None


def product_cap(n: int) -> int:
    """floor(n/2) * ceil(n/2), the largest product of two nonnegative
    integers that sum to n."""
    return (n // 2) * ((n + 1) // 2)


def ub_alpha_ir_thm21(n: int, m: int, delta: int, Delta: int) -> int:
    """min of Delta - delta + 1, floor((n - delta + 1)/2), and the radical
    (1 + sqrt(2n^2 - 2n - 4m + 1))/2.

    The radical term is a(a - 1) <= C(n,2) - m, the number of non-edges.
    """
    if n < 1 or not 0 <= delta <= Delta <= n - 1:
        raise ValueError("need n >= 1 and 0 <= delta <= Delta <= n-1")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError("need 0 <= m <= C(n,2)")
    spread = Delta - delta + 1
    half = (n - delta + 1) // 2
    radical = _root_floor(-1, n * (n - 1) // 2 - m)
    return min(spread, half, radical)


def ub_alpha_ir_eq1(m: int, delta: int) -> int:
    """(-2 delta + 1 + sqrt((2 delta - 1)^2 + 8m)) / 2, that is
    alpha_ir(alpha_ir + 2 delta - 1) <= 2m."""
    if m < 0 or delta < 0:
        raise ValueError("need m >= 0 and delta >= 0")
    return _root_floor(2 * delta - 1, 2 * m)


def ub_alpha_ir_thm22(beta: int, delta: int) -> int:
    """Same formula with the maximum cut beta in place of the edge count."""
    if beta < 0 or delta < 0:
        raise ValueError("need beta >= 0 and delta >= 0")
    return _root_floor(2 * delta - 1, 2 * beta)


def ub_span_thm32(delta: int) -> int:
    """(1 + sqrt(1 + 8 delta)) / 2, that is span(span - 1) <= 2 delta;
    valid whenever alpha_ir = 1."""
    if delta < 0:
        raise ValueError("minimum degree cannot be negative")
    return _root_floor(-1, 2 * delta)


def lb_gamma_ir_thm41(n: int, Delta: int, divisor: int = 2) -> int:
    """max(ceil(n/divisor), n - Delta); the published divisor is 2."""
    if n < 1 or not 0 <= Delta <= n - 1 or divisor < 1:
        raise ValueError("need n >= 1, 0 <= Delta <= n-1 and divisor >= 1")
    return max(-(-n // divisor), n - Delta)


def lb_gamma_ir_thm42(n: int, beta: int) -> int:
    """n + (1 - sqrt(1 + 8 beta)) / 2, that is
    (n - gamma_ir)(n - gamma_ir + 1) <= 2 beta."""
    if n < 1 or beta < 0:
        raise ValueError("need n >= 1 and beta >= 0")
    return n - _root_floor(1, 2 * beta)


def lb_gamma_ir_cor43(n: int, m: int) -> int:
    """n - sqrt(d n), that is (n - gamma_ir)^2 <= d n; for a graph with
    average degree d the radicand d n equals 2m."""
    if n < 1 or not 0 <= m <= n * (n - 1) // 2:
        raise ValueError("need n >= 1 and 0 <= m <= C(n,2)")
    return n - math.isqrt(2 * m)


def ub_gamma_ir_thm45i(n: int, span: int, delta: int) -> Optional[int]:
    """Rule (i): n - k for the largest tabulated k with span >= R(k,k) and
    delta >= k; None when no k qualifies."""
    ks = [k for k, r in DEFAULT_RAMSEY.items() if span >= r and delta >= k]
    return n - max(ks) if ks else None


def ub_gamma_ir_thm45ii(n: int, span: int, delta: int) -> Optional[int]:
    """Rule (ii): n - 3 when span >= 5 and delta >= 3; None otherwise."""
    return n - 3 if span >= 5 and delta >= 3 else None
