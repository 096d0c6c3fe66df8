"""Falling/rising factorials and polynomials over the falling-factorial basis.

The falling factorial is (x)_n = x(x-1)...(x-n+1), the rising factorial
x^(n) = x(x+1)...(x+n-1); both are 1 for n = 0. Polynomials are stored
exclusively in the falling basis (``FallingPoly``), because every identity
this package verifies is settled there; monomials and rising factorials
are converted on entry:

    x^k       = sum_i S(k, i) * (x)_i           (Stirling, second kind)
    x^(k)     = sum_i C(k-1, i-1) * k!/i! * (x)_i   (Lah coefficients)

Both coefficient rows come from ``_RecurrenceTable``, the one lazy table
class: ``monomial_to_falling(k)`` is row k of ``_STIRLING``, grown by
S(k+1, i) = i*S(k, i) + S(k, i-1), and ``rising_to_falling(k)`` is row k
of ``_LAH``, grown by L(k+1, i) = (k+i)*L(k, i) + L(k, i-1). Closed forms
are reserved for the test oracles.

A polynomial is evaluated at one point by Horner's rule (``poly_eval``)
and over a run of consecutive integers by forward differences
(``poly_values``): since Delta (x)_i = i (x)_{i-1}, the differences at 0
are Delta^k p(0) = k! c_k, and each difference level over the run is the
running sum of the level above it, one ``itertools.accumulate`` pass.
When walking up from 0 would cost more than twice the run itself,
``poly_values`` falls back to Horner's rule at each point.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from collections.abc import Callable, Iterable
from itertools import accumulate
from operator import mul

from .exact_arith import _check_int

__all__ = [
    "FallingPoly",
    "falling",
    "monomial_to_falling",
    "poly_eval",
    "poly_values",
    "rising",
    "rising_to_falling",
    "stirling2",
]


def falling(a: int, n: int) -> int:
    """Falling factorial (a)_n = prod_{m=0}^{n-1} (a - m); 1 when n = 0."""
    _check_int("a", a)
    _check_int("n", n)
    if n < 0:
        raise ValueError(f"falling({a}, {n}): n must be >= 0")
    out = 1
    for m in range(n):
        out *= a - m
    return out


def rising(a: int, n: int) -> int:
    """Rising factorial a^(n) = prod_{m=0}^{n-1} (a + m); 1 when n = 0."""
    _check_int("a", a)
    _check_int("n", n)
    if n < 0:
        raise ValueError(f"rising({a}, {n}): n must be >= 0")
    out = 1
    for m in range(n):
        out *= a + m
    return out


class _RecurrenceTable:
    """Lower-triangular rows of exact integers, grown on demand under a lock:
    row 0 is (1,), and row top+1 is next[0] = margin(top+1), then
    next[i] = weight(top, i) * prev[i] + prev[i-1] for 1 <= i <= top, then 1.
    Rows are published whole, so concurrent readers see only whole rows, and
    row k < 0 is a ValueError. Sibling subclasses: ``_StirlingTable``,
    ``_LahTable``, ``triangles.Triangle``."""

    def __init__(
        self, margin: Callable[[int], int], weight: Callable[[int, int], int]
    ) -> None:
        self._margin = margin
        self._weight = weight
        self._rows: list[tuple[int, ...]] = [(1,)]
        self._lock = threading.Lock()

    def row(self, k: int) -> tuple[int, ...]:
        if k < 0:
            raise ValueError(f"row {k}: k must be >= 0")
        if k >= len(self._rows):
            self._grow_to(k)
        return self._rows[k]

    def _grow_to(self, k: int) -> None:
        with self._lock:
            while len(self._rows) <= k:
                top = len(self._rows) - 1
                prev = self._rows[top]
                nxt = [self._margin(top + 1)]
                nxt.extend(
                    self._weight(top, i) * prev[i] + prev[i - 1]
                    for i in range(1, top + 1)
                )
                nxt.append(1)
                self._rows.append(tuple(nxt))


class _StirlingTable(_RecurrenceTable):
    """Row k holds S(k, 0..k): margin S(k, 0) = 0 for k >= 1, weight i."""


_STIRLING = _StirlingTable(lambda k: 0, lambda k, i: i)


class _LahTable(_RecurrenceTable):
    """Row k holds L(k, 0..k): margin L(k, 0) = 0 for k >= 1, weight k + i."""


_LAH = _LahTable(lambda k: 0, lambda k, i: k + i)


def stirling2(k: int, i: int) -> int:
    """Stirling number of the second kind S(k, i).

    Counts partitions of a k-set into i nonempty blocks; 0 above the
    diagonal and for (i = 0, k >= 1), per the usual conventions.
    """
    _check_int("k", k)
    _check_int("i", i)
    if k < 0 or i < 0:
        raise ValueError(f"stirling2({k}, {i}): indices must be >= 0")
    return _STIRLING.row(k)[i] if i <= k else 0


class FallingPoly(namedtuple("FallingPoly", "coeffs")):
    """Polynomial sum_i coeffs[i] * (x)_i over the falling-factorial basis.

    The zero polynomial is the empty coefficient tuple; otherwise the
    trailing (highest-index) coefficient is nonzero. Trailing zeros are
    trimmed on construction, so equal polynomials compare equal.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int]) -> FallingPoly:
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1


def poly_eval(p: FallingPoly, x: int) -> int:
    """Evaluate p at the integer point x, exactly, by Horner's rule.

    In the falling basis the nesting is
        c_0 + x (c_1 + (x-1) (c_2 + ... + (x-d+1) c_d)),
    so each step multiplies the running total by the small int x - i.
    """
    coeffs = p.coeffs
    total = 0
    for i in range(len(coeffs) - 1, -1, -1):
        total = total * (x - i) + coeffs[i]
    return total


def poly_values(p: FallingPoly, lo: int, hi: int) -> list[int]:
    """Evaluate p at every integer lo, lo+1, ..., hi, exactly.

    Works from the forward differences at 0, Delta^k p(0) = k! c_k, one
    level at a time: Delta^k p(x+1) = Delta^k p(x) + Delta^{k+1} p(x), so
    level k over x = 0..hi-k is the running sum of level k+1 started at
    k! c_k, and level 0 holds p(0..hi). The top level, k = min(degree, hi),
    is constant, since no higher difference reaches p(hi); when the degree
    exceeds hi this saves the additions that could never reach a value.
    The walk from 0 costs lo steps before the first value; when that is
    more than the hi-lo+1 steps that collect values (or lo < 0), each
    point is evaluated by ``poly_eval`` instead. An empty run is [].
    """
    if lo < 0 or lo > hi - lo + 1 or hi < lo:
        return [poly_eval(p, x) for x in range(lo, hi + 1)]
    coeffs = p.coeffs or (0,)
    top = min(len(coeffs) - 1, hi)
    diffs = list(map(mul, accumulate(range(1, top + 1), mul, initial=1), coeffs))
    level = [diffs[top]] * (hi - top + 1)
    for d in reversed(diffs[:top]):
        level = list(accumulate(level, initial=d))
    return level[lo:]


def monomial_to_falling(k: int) -> FallingPoly:
    """The monomial x^k expressed in the falling basis.

    Coefficient of (x)_i is S(k, i), read as row k of the Stirling table;
    for k = 0 this is the constant 1.
    """
    _check_int("k", k)
    if k < 0:
        raise ValueError(f"monomial_to_falling({k}): k must be >= 0")
    return FallingPoly(_STIRLING.row(k))


def rising_to_falling(k: int) -> FallingPoly:
    """The rising factorial x^(k) expressed in the falling basis.

    Coefficient of (x)_i is the Lah number L(k, i) = C(k-1, i-1) * k!/i!
    for 1 <= i <= k, read as row k of the Lah table; for k = 0 this is the
    constant 1.
    """
    _check_int("k", k)
    if k < 0:
        raise ValueError(f"rising_to_falling({k}): k must be >= 0")
    return FallingPoly(_LAH.row(k))
