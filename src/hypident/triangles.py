"""The three coefficient triangles and the polynomials they define.

Every table here is lower-triangular, indexed (i, j) with 0 <= i <= j and
level j >= 1, and determined by its marginals (index-0 column and diagonal)
plus a two-term recurrence:

  C(k, j): coefficient of x^k in prod_{i=0}^{j-1} (2i+1+x).
      C(0,j) = (2j-1)!!, C(j,j) = 1,
      C(k,j+1) = (2j+1) C(k,j) + C(k-1,j).
  R(i, j): falling-basis coefficients of the polynomial R_j with
      2^N R_j(N) = sum_l C(N,l) prod_i 2(2i+1+l)  (the binomial-sum side).
      R(0,j) = 2^j (2j-1)!!, R(j,j) = 1,
      R(i,j+1) = 2(2j+i+1) R(i,j) + R(i-1,j).
  L(i, j): falling-basis coefficients of the polynomial L_j with
      2^N L_j(N) equal to the hypergeometric side; closed form
      L(0,j) = (2j)!/j!,  L(i,j) = j!/i! S_i,
      S_i = sum_{k=i}^j C(2j, j+k) C(k-1, i-1).
      The inner sums have the generating function
          sum_{i>=1} S_i y^(i-1) = sum_{k=1}^j C(2j, j+k) (1+y)^(k-1),
      so a closed-form row is built whole: one Taylor shift by 1 of the
      vector C(2j, j+1..2j) (``_taylor_shift``), then a running product
      for the j!/i! factors.

R and L are provably the same table, but they are kept as separate objects
with independent construction routes on purpose: their entry-by-entry
equality (plus the recurrence/closed-form agreement within each family and
the companion ``vanishing_sum`` telescoping check) is the package's
principal verification target, so collapsing them would test nothing.

Every route builds a row whole. The recurrence routes build level by
level and keep every row, so random access to (i, j) builds every row up
to j; the closed forms, ``l_poly_from_series`` and ``vanishing_sum`` build
the row of their level on their own. Recurrence rows grow as Stirling
rows do, in ``factorial_basis._RecurrenceTable``: under a lock, and
published whole, so concurrent readers see only whole rows.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import accumulate
from operator import add, mul

from .exact_arith import _check_int, binomial, double_factorial_odd, factorial, pow2
from .factorial_basis import (
    FallingPoly, _RecurrenceTable, monomial_to_falling, rising_to_falling,
)
from .render import dump

__all__ = [
    "IndexOutOfTriangle",
    "Triangle",
    "c_entry",
    "export_csv",
    "export_json",
    "l_entry_closed",
    "l_entry_recurrence",
    "l_poly",
    "l_poly_from_series",
    "r_entry",
    "r_entry_closed",
    "r_poly",
    "table_pieces",
    "triangle_row",
    "vanishing_sum",
]

# The kinds triangle_row and the dumps accept, in the order `table` lists them.
KINDS = ("C", "R", "L")


class IndexOutOfTriangle(ValueError):
    """Requested (i, j) lies outside the lower triangle (0 <= i <= j, j >= 1)."""


def _check_index(i: int, j: int, kind: str) -> None:
    _check_int("i", i)
    _check_int("j", j)
    if j < 1 or i < 0 or i > j:
        raise IndexOutOfTriangle(f"{kind}({i}, {j}): need 0 <= i <= j and j >= 1")


class Triangle(_RecurrenceTable):
    """A ``_RecurrenceTable`` named by kind, read from level 1 up: ``entry``
    checks its index, and ``triangle_row`` a row's level."""

    def __init__(
        self,
        kind: str,
        margin: Callable[[int], int],
        weight: Callable[[int, int], int],
    ) -> None:
        super().__init__(margin, weight)
        self.kind = kind

    @property
    def max_level(self) -> int:
        return len(self._rows) - 1

    def entry(self, i: int, j: int) -> int:
        _check_index(i, j, self.kind)
        return self.row(j)[i]


_C = Triangle("C", double_factorial_odd, lambda j, k: 2 * j + 1)
_R = Triangle(
    "R",
    lambda j: pow2(j) * double_factorial_odd(j),
    lambda j, i: 2 * (2 * j + i + 1),
)
# Same recurrence as R but seeded from the L marginals; backs
# l_entry_recurrence, whose whole point is that the marginals already
# pin down the table.
_L_REC = Triangle(
    "L",
    lambda j: factorial(2 * j) // factorial(j),
    lambda j, i: 2 * (2 * j + i + 1),
)


def c_entry(k: int, j: int) -> int:
    """C(k, j) by the level recurrence."""
    return _C.entry(k, j)


def r_entry(i: int, j: int) -> int:
    """R(i, j) by the level recurrence from the R marginals."""
    return _R.entry(i, j)


def r_entry_closed(i: int, j: int) -> int:
    """R(i, j) by the Stirling-weighted closed form

        R(i, j) = 2^{j-i} * sum_{k=i}^{j} C(k,j) S(k,i),

    which at i = 0 is the 2^j (2j-1)!! marginal, since S(k,0) = 0 for
    k >= 1. Reads row j, built whole by ``_r_closed_row``.
    """
    _check_index(i, j, "R")
    return _r_closed_row(j)[i]


def l_entry_closed(i: int, j: int) -> int:
    """L(i, j) by the binomial closed form of the module docstring, read
    from the cached row j."""
    _check_index(i, j, "L")
    return _l_closed_row(j)[i]


def l_entry_recurrence(i: int, j: int) -> int:
    """L(i, j) by propagating the R recurrence from the L marginals."""
    return _L_REC.entry(i, j)


# The Taylor shift by 1 of (v_1, ..., v_n), given as seq = (v_n, ..., v_1):
# S_m = sum_k v_k C(k-1, m) for m = 0..n-1, the coefficients of
# sum_k v_k (1+y)^(k-1). Pass m takes the prefix sums of what is left of seq,
# whose last entry is then final and is S_m: about n^2/2 additions in n
# passes, each one ``itertools.accumulate``.
def _taylor_shift(seq: list[int]) -> list[int]:
    sums = []
    while seq:
        seq = list(accumulate(seq))
        sums.append(seq.pop())
    return sums


# Callers read one level at a time, so only the last row is kept.
@lru_cache(maxsize=1)
def _l_closed_row(j: int) -> tuple[int, ...]:
    # C(2j, 2j-m) for m = 0..j-1, each binomial stepped from the last by its
    # exact ratio: the vector C(2j, j+1..2j) reversed, whose shift is S_1..S_j.
    seq = list(accumulate(range(j - 1), lambda c, m: c * (2 * j - m) // (m + 1), initial=1))
    # j!/i! for i = 1..j
    scales = list(accumulate(range(j, 1, -1), mul, initial=1))[::-1]
    return (factorial(2 * j) // factorial(j), *map(mul, _taylor_shift(seq), scales))


# Callers read one level at a time, so only the last row is kept.
@lru_cache(maxsize=1)
def _r_closed_row(j: int) -> tuple[int, ...]:
    # x^k is Stirling row k in the falling basis, so the sums over k for
    # every i at once are the C(., j)-weighted sum of Stirling rows 0..j.
    sums = [0] * (j + 1)
    for k, c in enumerate(_C.row(j)):
        sums[: k + 1] = map(add, sums, [c * s for s in monomial_to_falling(k).coeffs])
    return tuple(v << (j - i) for i, v in enumerate(sums))


def r_poly(j: int) -> FallingPoly:
    """The degree-j falling-basis polynomial with coefficients R(., j)."""
    return FallingPoly(triangle_row("R", j))


def l_poly(j: int) -> FallingPoly:
    """The degree-j falling-basis polynomial with coefficients L(., j)."""
    return FallingPoly(triangle_row("L", j))


def l_poly_from_series(j: int) -> FallingPoly:
    """L_j assembled term by term from its rising-factorial series.

    Sums C(j,k) * (2j)!/(j+k)! * x^(k) over k = 0..j, converting each
    rising factorial through the Lah transform. The weight of term k+1 is
    that of term k times the exact ratio (j-k) / ((k+1)(j+k+1)). A
    construction route independent of both l_entry paths.
    """
    _check_index(0, j, "L")
    coeffs = [0] * (j + 1)
    weight = factorial(2 * j) // factorial(j)
    for k in range(j + 1):
        lah = rising_to_falling(k).coeffs
        coeffs[: k + 1] = map(add, coeffs, [weight * c for c in lah])
        weight = weight * (j - k) // ((k + 1) * (j + k + 1))
    return FallingPoly(coeffs)


def vanishing_sum(i: int, j: int) -> int:
    """The telescoping binomial sum that locks the L recurrence in place.

    For i >= 2 this is
        sum_{k=i-1}^{j} C(2j, j+k) * [ 2(i-1) C(k-1, i-1)
                                       + i C(k-1, i-2)
                                       - (j+1) C(k-2, i-3) ],
    where at i = 2 the k = i-1 term needs the convention C(-1,-1) = 1
    (and C(k-2,-1) = 0 for k >= 2); ``binomial`` zero-fills C(-1,-1), so
    that one term is written out. For i = 1 the bracket degenerates under
    pure zero-fill, so the i = 1 reduction is used instead:
    (j+1)! * [C(2j, j) - C(2j, j+1)] - (2j)!/j!.

    Reads the cached level j, whose sums for every i are built at once
    from two column sums over k (see ``_vanishing_row``), so a single call
    costs O(j^2) additions. Every term is added.

    Always 0; returning the computed value (rather than asserting) is the
    point, since tests check the zero exactly.
    """
    _check_int("i", i)
    _check_int("j", j)
    if j < 1 or i < 1 or i > j:
        raise IndexOutOfTriangle(f"vanishing_sum({i}, {j}): need 1 <= i <= j")
    return _vanishing_row(j)[i - 1]


# vanishing_sum(i, j) for i = 1..j. With c_k = C(2j, j+k), the sums
# A_m = sum_k c_k C(k-1, m) and b_m = sum_k c_k C(k-2, m-1), where C(-1,-1) = 1
# makes b_0 = c_1 (the term written out at i = 2), give the sum at i >= 2 as
# 2(i-1) A_{i-1} + i A_{i-2} - (j+1) b_{i-2}. Past b_0, b is the Taylor shift
# of c_2..c_j, and A_m = b_{m+1} + b_m by Pascal's rule: one shift per level.
# Callers read one level at a time, so only the last row is kept.
@lru_cache(maxsize=1)
def _vanishing_row(j: int) -> tuple[int, ...]:
    # c_j, ..., c_1, stepped from c_j = 1 by exact ratios.
    seq = list(accumulate(range(j - 1), lambda c, m: c * (2 * j - m) // (m + 1), initial=1))
    b = [seq.pop(), *_taylor_shift(seq)]
    a = list(map(add, b[1:] + [0], b))
    catalan = factorial(j + 1) * (binomial(2 * j, j) - binomial(2 * j, j + 1))
    return (catalan - factorial(2 * j) // factorial(j), *(
        2 * (i - 1) * a[i - 1] + i * a[i - 2] - (j + 1) * b[i - 2] for i in range(2, j + 1)))


def triangle_row(kind: str, j: int) -> tuple[int, ...]:
    """Row j of the named triangle (kind in {"C", "R", "L"}), index-ascending.

    The L row comes from the closed form; by the table equality it matches
    the recurrence route, which tests assert separately.
    """
    _check_row(kind, j)
    if kind == "C":
        return _C.row(j)
    if kind == "R":
        return _R.row(j)
    return _l_closed_row(j)


def _check_row(kind: str, j: int) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown triangle kind {kind!r}; expected C, R or L")
    _check_index(0, j, kind)


def table_pieces(kind: str, j_max: int, fmt: str) -> Iterator[str]:
    """Rows 1..j_max of a triangle dumped in fmt ("csv" or "json") by
    ``render.dump``, each row's piece as soon as ``triangle_row`` gives the
    row. kind and j_max are checked, as ``triangle_row`` checks a row,
    before any piece."""
    _check_row(kind, j_max)
    return dump(kind, j_max, fmt, (triangle_row(kind, j) for j in range(1, j_max + 1)))


def export_csv(kind: str, j_max: int) -> str:
    """Rows 1..j_max as CSV: one line per level, exact decimal entries."""
    return "".join(table_pieces(kind, j_max, "csv"))


def export_json(kind: str, j_max: int) -> str:
    """Rows 1..j_max as JSON, entries as decimal digit strings."""
    return "".join(table_pieces(kind, j_max, "json"))
