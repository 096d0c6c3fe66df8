"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's own computation paths:
rising/falling factorials and the odd double factorial are bare products,
the hypergeometric sum is direct Pochhammer summation (no ratio
recurrence), both sides of the identity are their definitions with
``math.comb`` (the left one over that sum), Stirling/Bell numbers come
from enumerating actual set partitions or from their explicit alternating
sum, C-triangle entries come from expanding the product in the monomial
basis, L-triangle entries come from the binomial closed form summed entry
by entry with ``math.comb``, R-triangle rows come from the
Stirling-weighted sum with those two oracles, Lah numbers come from their
definition with ``math.comb`` and ``factorial``, L-triangle rows also come
from the L series summed with those Lah numbers, a Taylor shift by 1 is
its double sum with ``math.comb``, and a whole verify report is rendered
in one piece, JSON by ``json.dumps(rows, indent=2)``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


def falling_product(a: int, n: int) -> int:
    out = 1
    for m in range(n):
        out *= a - m
    return out


def rising_product(a: int, n: int) -> int:
    out = 1
    for m in range(n):
        out *= a + m
    return out


def odd_product(j: int) -> int:
    """(2j-1)!! = 1 * 3 * ... * (2j-1), one factor at a time."""
    out = 1
    for m in range(1, j + 1):
        out *= 2 * m - 1
    return out


def hyp2f1_by_pochhammer(a: int, b: int, c: int, z) -> Fraction:
    """Terminating 2F1 summed term by term from explicit rising factorials."""
    stops = [-p for p in (a, b) if p <= 0]
    if not stops:
        raise ValueError("series does not terminate")
    total = Fraction(0)
    for k in range(min(stops) + 1):
        num = rising_product(a, k) * rising_product(b, k)
        den = rising_product(c, k) * factorial(k)
        total += Fraction(num, den) * Fraction(z) ** k
    return total


def lhs_by_definition(N: int, j: int) -> Fraction:
    """j! 2^N C(N+j-1, j) 2F1(-j, -2j; -N-j+1; -1), the series summed from
    explicit rising factorials, as an exact rational (an integer if the
    identity's integrality holds)."""
    series = hyp2f1_by_pochhammer(-j, -2 * j, -N - j + 1, -1)
    return factorial(j) * 2**N * comb(N + j - 1, j) * series


def rhs_by_definition(N: int, j: int) -> int:
    """sum_{l=0}^{N} C(N, l) prod_{i=0}^{j-1} 2(2i+1+l), every product in full."""
    total = 0
    for l in range(N + 1):
        prod = 1
        for i in range(j):
            prod *= 2 * (2 * i + 1 + l)
        total += comb(N, l) * prod
    return total


def partition_block_sizes(n: int):
    """Yield the block count of every set partition of an n-set.

    Enumerates restricted growth strings, so Stirling/Bell values derived
    from it count actual combinatorial objects rather than reusing any
    recurrence.
    """

    def rec(i: int, max_block: int):
        if i == n:
            yield max_block
            return
        for b in range(max_block + 1):
            yield from rec(i + 1, max(max_block, b + 1))

    if n == 0:
        yield 0
    else:
        yield from rec(0, 0)


def stirling2_by_enumeration(k: int, i: int) -> int:
    return sum(1 for blocks in partition_block_sizes(k) if blocks == i)


def bell_by_enumeration(k: int) -> int:
    return sum(1 for _ in partition_block_sizes(k))


@lru_cache(maxsize=None)
def stirling2_by_formula(k: int, i: int) -> int:
    """S(k, i) = (1/i!) sum_{t=0}^{i} (-1)^t C(i, t) (i-t)^k, with 0^0 = 1."""
    return sum((-1) ** t * comb(i, t) * (i - t) ** k for t in range(i + 1)) // factorial(i)


def c_row_by_expansion(j: int) -> list[int]:
    """C(0..j, j): the coefficients of prod_{i=0}^{j-1} (2i+1+x), by direct
    monomial-basis expansion (no level recurrence)."""
    poly = [1]
    for i in range(j):
        out = [0] * (len(poly) + 1)
        for d, pd in enumerate(poly):
            out[d] += pd * (2 * i + 1)
            out[d + 1] += pd
        poly = out
    return poly


def c_entry_by_expansion(k: int, j: int) -> int:
    """C(k, j), the coefficient of x^k in prod_{i=0}^{j-1} (2i+1+x)."""
    return c_row_by_expansion(j)[k]


def r_row_by_stirling_sum(j: int) -> tuple[int, ...]:
    """R(0..j, j) as 2^{j-i} sum_{k=i}^{j} C(k, j) S(k, i), with C from the
    product expansion and S from its explicit formula."""
    c = c_row_by_expansion(j)
    return tuple(
        sum(c[k] * stirling2_by_formula(k, i) for k in range(i, j + 1)) << (j - i)
        for i in range(j + 1)
    )


def lah_by_definition(k: int, i: int) -> int:
    """The coefficient of (x)_i in x^(k): C(k-1, i-1) k!/i! for 1 <= i <= k."""
    return comb(k - 1, i - 1) * factorial(k) // factorial(i)


def l_row_by_lah_sum(j: int) -> tuple[int, ...]:
    """L(0..j, j) as the series sum_k C(j,k) (2j)!/(j+k)! x^(k) in the
    falling basis, every rising factorial by its Lah numbers from their
    definition; x^(0) = 1 = (x)_0 is the only term with an i = 0 part."""
    weights = [comb(j, k) * factorial(2 * j) // factorial(j + k) for k in range(j + 1)]
    return (weights[0], *(
        sum(weights[k] * lah_by_definition(k, i) for k in range(i, j + 1)) for i in range(1, j + 1)))


def l_entry_by_binomial_sum(i: int, j: int) -> int:
    """L(i, j) by its binomial closed form, one entry at a time:
    (2j)!/j! for i = 0, else j!/i! sum_{k=i}^{j} C(2j, j+k) C(k-1, i-1)."""
    if i == 0:
        return factorial(2 * j) // factorial(j)
    inner = sum(comb(2 * j, j + k) * comb(k - 1, i - 1) for k in range(i, j + 1))
    return factorial(j) // factorial(i) * inner


def taylor_shift_by_binomial_sum(v: list[int]) -> list[int]:
    """S_m = sum_{k=1}^{n} v_k C(k-1, m) for m = 0..n-1, v = (v_1, ..., v_n):
    the coefficients of sum_k v_k (1+y)^(k-1), summed term by term."""
    return [sum(vk * comb(k - 1, m) for k, vk in enumerate(v, 1)) for m in range(len(v))]


def report_document(reports, fmt: str, micros: int = 0) -> str:
    """A verify report in one piece, every row with the given micros: the
    JSON list that ``json.dumps(rows, indent=2)`` prints, or a CSV header
    and one line per report, or one plain line per report."""
    def verdict(r):
        return "true" if r.equal else "false"

    if fmt == "json":
        rows = [
            {"N": r.point.N, "j": r.point.j, "lhs": str(r.lhs), "rhs": str(r.rhs),
             "equal": r.equal, "micros": micros}
            for r in reports
        ]
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        lines = ["N,j,lhs,rhs,equal,micros"] + [
            f"{r.point.N},{r.point.j},{r.lhs},{r.rhs},{verdict(r)},{micros}"
            for r in reports
        ]
    else:
        lines = [
            f"j={r.point.j} N={r.point.N} lhs={r.lhs} rhs={r.rhs} equal={verdict(r)}"
            for r in reports
        ]
    return "\n".join(lines) + "\n"
