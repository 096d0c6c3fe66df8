"""Exact integer scalars shared by every other module: Python's own
arithmetic behind one check, ``_check_int`` (an argument that is not an
int, a bool included, is a TypeError). A helper checks a range itself only
where Python would return a value instead of raising. No floats anywhere.
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
    """Binomial coefficient C(n, k) by ``math.comb``: 0 for k > n >= 0, and
    a ValueError naming the argument for a negative n or k."""
    _check_int("n", n)
    _check_int("k", k)
    return math.comb(n, k)


def factorial(n: int) -> int:
    """n! for n >= 0."""
    _check_int("n", n)
    return math.factorial(n)


def double_factorial_odd(j: int) -> int:
    """Odd double factorial (2j-1)!! = 1 * 3 * ... * (2j-1), by ``math.prod``;
    1 for j = 0. j < 0 is checked here, because ``math.prod`` over the
    empty range would return 1."""
    _check_int("j", j)
    if j < 0:
        raise ValueError(f"double_factorial_odd({j}): j must be >= 0")
    return math.prod(range(1, 2 * j, 2))


def pow2(n: int) -> int:
    """2**n for n >= 0, as ``1 << n``, which raises ValueError for n < 0."""
    _check_int("n", n)
    return 1 << n
