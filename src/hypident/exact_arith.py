"""Exact integer/rational scalars shared by every other module.

All arithmetic in this package is exact: integers are Python's unbounded
``int``, rationals are ``fractions.Fraction`` (always canonical: positive
denominator, gcd-reduced, structural equality). No floats anywhere.
"""

from __future__ import annotations

import math

__all__ = [
    "binomial",
    "double_factorial_odd",
    "factorial",
    "pow2",
]


def _check_int(name: str, value: int) -> None:
    """value must be an int; anything else, bools included, is a TypeError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) with zero-fill for out-of-range indices.

    Returns the ordinary coefficient for n >= k >= 0 and 0 whenever k < 0
    or k > n >= 0. The exceptional value C(-1, -1) = 1 is not honored
    here: exactly one term of one telescoping sum needs that convention
    (k = 1 at i = 2 in ``triangles.vanishing_sum``), and that sum writes
    the term out itself.

    Raises ValueError for negative n with k >= 0: no generalized
    (Pochhammer) extension is provided. k > n >= 0 is ``math.comb``'s own
    zero.
    """
    _check_int("n", n)
    _check_int("k", k)
    if k < 0:
        return 0
    if n < 0:
        raise ValueError(f"binomial({n}, {k}): negative n is not supported")
    return math.comb(n, k)


def factorial(n: int) -> int:
    """n! for n >= 0."""
    _check_int("n", n)
    return math.factorial(n)


def double_factorial_odd(j: int) -> int:
    """Odd double factorial (2j-1)!! = 1 * 3 * ... * (2j-1), by ``math.prod``; 1 for j = 0."""
    _check_int("j", j)
    if j < 0:
        raise ValueError(f"double_factorial_odd({j}): j must be >= 0")
    return math.prod(range(1, 2 * j, 2))


def pow2(n: int) -> int:
    """2**n for n >= 0."""
    _check_int("n", n)
    if n < 0:
        raise ValueError(f"pow2({n}): n must be >= 0")
    return 1 << n
