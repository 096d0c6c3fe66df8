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
      vector C(2j, j+1..2j) (Pascal's rule, about j^2/2 additions), then
      a running product for the j!/i! factors.

R and L are provably the same table, but they are kept as separate objects
with independent construction routes on purpose: their entry-by-entry
equality (plus the recurrence/closed-form agreement within each family and
the companion ``vanishing_sum`` telescoping check) is the package's
principal verification target, so collapsing them would test nothing.

Every route builds a row whole. The recurrence routes build level by
level and keep every row, so random access to (i, j) builds every row up
to j. An L closed-form row is built on its own from the binomials of its
level and cached. An R closed-form row is the C(., j)-weighted sum of
Stirling rows 0..j, shifted left by j-i; only the last one is kept,
because callers read such a row entry by entry. ``l_poly_from_series``
sums Lah rows with weights stepped by exact ratios, and
``vanishing_sum`` steps its binomials the same way. Recurrence rows grow
under an internal lock, and every row is immutable once published, so
concurrent readers only ever observe complete rows.
"""

from __future__ import annotations

import json
import threading
from functools import lru_cache
from operator import add
from typing import Callable

from .exact_arith import binomial, double_factorial_odd, factorial, pow2
from .factorial_basis import FallingPoly, monomial_to_falling, rising_to_falling

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
    "triangle_row",
    "vanishing_sum",
]


class IndexOutOfTriangle(ValueError):
    """Requested (i, j) lies outside the lower triangle (0 <= i <= j, j >= 1)."""


def _check_index(i: int, j: int, kind: str) -> None:
    if j < 1 or i < 0 or i > j:
        raise IndexOutOfTriangle(f"{kind}({i}, {j}): need 0 <= i <= j and j >= 1")


class Triangle:
    """Lazily grown lower-triangular table of exact integers.

    Level j+1 is filled from level j by
        next[i] = weight(j, i) * prev[i] + prev[i-1],   1 <= i <= j,
    with next[0] recomputed from the exact marginal function and the
    diagonal pinned to 1. Rows are cached whole and grown under a lock.
    """

    def __init__(
        self,
        kind: str,
        margin: Callable[[int], int],
        weight: Callable[[int, int], int],
    ) -> None:
        self.kind = kind
        self._margin = margin
        self._weight = weight
        self._rows: list[tuple[int, ...]] = [(), (margin(1), 1)]
        self._lock = threading.Lock()

    @property
    def max_level(self) -> int:
        return len(self._rows) - 1

    def entry(self, i: int, j: int) -> int:
        _check_index(i, j, self.kind)
        if j >= len(self._rows):
            self._grow_to(j)
        return self._rows[j][i]

    def row(self, j: int) -> tuple[int, ...]:
        """Entries (0..j, j), index-ascending."""
        _check_index(0, j, self.kind)
        if j >= len(self._rows):
            self._grow_to(j)
        return self._rows[j]

    def _grow_to(self, j: int) -> None:
        with self._lock:
            while len(self._rows) <= j:
                top = len(self._rows) - 1
                prev = self._rows[top]
                nxt = [self._margin(top + 1)]
                nxt.extend(
                    self._weight(top, i) * prev[i] + prev[i - 1]
                    for i in range(1, top + 1)
                )
                nxt.append(1)
                self._rows.append(tuple(nxt))


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
    """L(i, j) by the binomial closed form.

    j!/i! * sum_{k=i}^{j} C(2j, j+k) C(k-1, i-1) for i >= 1; the i = 0
    column is (2j)!/j!. Reads the cached row j, which is built whole from
    the generating function of the inner sums (see the module docstring).
    """
    _check_index(i, j, "L")
    return _l_closed_row(j)[i]


def l_entry_recurrence(i: int, j: int) -> int:
    """L(i, j) by propagating the R recurrence from the L marginals.

    Exists as a third, independent route: if the L marginals plus the
    shared recurrence reproduce the closed form, the two tables are pinned
    to each other entry by entry.
    """
    return _L_REC.entry(i, j)


@lru_cache(maxsize=None)
def _l_closed_row(j: int) -> tuple[int, ...]:
    # a[m] = C(2j, j+1+m). The Taylor shift turns sum_m a[m] y^m into
    # sum_m a[m] (1+y)^m in place, after which a[i-1] = S_i.
    a = [binomial(2 * j, j + k) for k in range(1, j + 1)]
    for i in range(j - 1):
        for k in range(j - 2, i - 1, -1):
            a[k] += a[k + 1]
    row = [factorial(2 * j) // factorial(j)] + a
    scale = 1  # j!/i!
    for i in range(j, 0, -1):
        row[i] *= scale
        scale *= i
    return tuple(row)


# Callers read a row entry by entry, so only the last row is kept.
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
    return FallingPoly(_R.row(j))


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
    that one term is written out here. For i = 1 the bracket
    degenerates under pure zero-fill, so the i = 1 reduction is used
    instead: (j+1)! * [C(2j, j) - C(2j, j+1)] - (2j)!/j!.

    Every term is added. Only C(2j, j+i-1) is computed in full; each
    binomial of term k+1 comes from term k by an exact integer ratio.

    Always 0; returning the computed value (rather than asserting) is the
    point, since tests check the zero exactly.
    """
    if j < 1 or i < 1 or i > j:
        raise IndexOutOfTriangle(f"vanishing_sum({i}, {j}): need 1 <= i <= j")
    if i == 1:
        reduced = binomial(2 * j, j) - binomial(2 * j, j + 1)
        return factorial(j + 1) * reduced - factorial(2 * j) // factorial(j)
    # k = i-1: C(k-1, i-1) = 0, C(k-1, i-2) = 1 and C(k-2, i-3) = 1, which
    # at i = 2 is C(-1,-1) = 1.
    outer = binomial(2 * j, j + i - 1)
    total = outer * (i - (j + 1))
    # C(k-1, i-1), C(k-1, i-2) and C(k-2, i-3) at k = i.
    b1, b2, b3 = 1, i - 1, i - 2
    for k in range(i, j + 1):
        outer = outer * (j - k + 1) // (j + k)
        total += outer * (2 * (i - 1) * b1 + i * b2 - (j + 1) * b3)
        b1 = b1 * k // (k - i + 1)
        b2 = b2 * k // (k - i + 2)
        b3 = b3 * (k - 1) // (k - i + 2)
    return total


def triangle_row(kind: str, j: int) -> tuple[int, ...]:
    """Row j of the named triangle (kind in {"C", "R", "L"}), index-ascending.

    The L row comes from the closed form; by the table equality it matches
    the recurrence route, which tests assert separately.
    """
    if kind == "C":
        return _C.row(j)
    if kind == "R":
        return _R.row(j)
    if kind == "L":
        _check_index(0, j, "L")
        return _l_closed_row(j)
    raise ValueError(f"unknown triangle kind {kind!r}; expected C, R or L")


def export_csv(kind: str, j_max: int) -> str:
    """Rows 1..j_max as CSV: one line per level, exact decimal entries."""
    lines = [
        ",".join(str(v) for v in triangle_row(kind, j)) for j in range(1, j_max + 1)
    ]
    return "\n".join(lines) + "\n"


def export_json(kind: str, j_max: int) -> str:
    """Rows 1..j_max as a JSON object; entries are decimal digit strings.

    The bytes are those of json.dumps({"kind", "max_level", "rows"},
    indent=2) + "\n", written from a template: json.dumps with an indent
    runs CPython's pure-Python encoder, and the entries, being digit
    strings, need no escaping.
    """
    rows = ",\n".join(
        '    [\n      "' + '",\n      "'.join(map(str, triangle_row(kind, j))) + '"\n    ]'
        for j in range(1, j_max + 1)
    )
    rows = "[\n" + rows + "\n  ]" if rows else "[]"
    return (
        f'{{\n  "kind": {json.dumps(kind)},\n  "max_level": {json.dumps(j_max)},\n'
        f'  "rows": {rows}\n}}\n'
    )
