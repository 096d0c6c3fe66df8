"""Exact evaluation of terminating Gauss hypergeometric series.

A 2F1 series

    2F1(a, b; c; z) = sum_k  a^(k) b^(k) / c^(k) * z^k / k!

terminates when a or b is a nonpositive integer: the rising factorial in
the numerator vanishes past K = min(|a|, |b|), so the sum is a finite,
exactly computable rational. That is the only regime this module handles;
there is no analytic continuation and no floating point.

Every series is summed by one integer Horner loop, ``_series``, into an
unreduced pair (num, den); each caller states why its parameters keep
den nonzero.

``lhs_direct_run`` packages the one series family the rest of the package
cares about, j! * 2^N * C(N+j-1, j) * 2F1(-j, -2j; -N-j+1; -1), which is
always an integer for positive N, over a run of N for one j: each N's pair
is divided out exactly, with no Fraction. ``lhs_direct`` is that run at
one N.

``_check_run`` is the identity's one domain check, j >= 0 and then N >= 1,
made by each run (this module's and ``identity``'s), ``IdentityPoint`` and
``cli.SweepConfig``; a point is the run N..N.
"""

from __future__ import annotations

from .exact_arith import _check_int, binomial, factorial

__all__ = ["lhs_direct", "lhs_direct_run"]


def _series(a: int, b: int, c: int, z: int | Fraction, K: int) -> tuple[int, int]:
    """The series 2F1(a, b; c; z) summed for k = 0..K, as an unreduced
    integer pair (num, den). Nothing is checked here. K must be the
    termination index, the least K with a+K = 0 or b+K = 0, and c+k != 0
    for every k < K, so that den is nonzero; its sign is that of c^(K).

    Consecutive terms have the ratio
    r_k = term_{k+1} / term_k = (a+k)(b+k) p / ((c+k)(k+1) q)  with z = p/q,
    so the sum is 1 + r_0 (1 + r_1 (1 + ... (1 + r_{K-1}))). That nest is
    evaluated by Horner's rule from the inside out: with t = den (c+k)(k+1) q,
    one step is num = num (a+k)(b+k) p + t and den = t, so each step
    multiplies den by its factor once, and nothing is reduced.
    """
    p, q = z.numerator, z.denominator
    num = den = 1
    for k in range(K - 1, -1, -1):
        t = den * ((c + k) * (k + 1) * q)
        num = num * ((a + k) * (b + k) * p) + t
        den = t
    return num, den


def _check_run(j: int, n_min: int, n_max: int) -> None:
    """The identity's domain, checked first by each run: j an int >= 0,
    then both bounds ints (else a TypeError, bools included), and a
    non-empty run (n_min <= n_max) from N >= 1. A point is the run N..N."""
    _check_int("j", j, 0)
    _check_int("N", n_min)
    _check_int("N", n_max)
    if n_min < 1 and n_min <= n_max:
        raise ValueError(f"N = {n_min} is outside the identity's domain (N >= 1)"
                         + "; no value is defined at N = 0" * (n_min == 0))


def lhs_direct_run(j: int, n_min: int, n_max: int) -> list[int]:
    """j! * 2^N * C(N+j-1, j) * 2F1(-j, -2j; -N-j+1; -1) for N =
    n_min..n_max, as integers; [] for an empty run.

    Defined for N >= 1 (at N = 0 the series parameters are invalid: c^(k)
    hits zero inside the terminating range) and j >= 0 (j = 0 gives 2^N).
    The termination index is K = j at every N, and c = -N-j+1 <= -j = -K
    for N >= 1, so c+k != 0 for every k < K, as ``_series`` needs. Each
    N's series is the brute-force sum of all j+1 general 2F1 terms by
    ``_series``, an unreduced integer pair. j! is computed once, and
    C(N+j-1, j) is stepped to the next N by its exact ratio (N+j)/N. The
    product is provably an integer; that is checked, not assumed, by one
    exact division per N, and a non-integer raises ArithmeticError.
    """
    _check_run(j, n_min, n_max)
    if n_min > n_max:
        return []
    prefactor = factorial(j)
    c = binomial(n_min + j - 1, j)
    values = []
    for N in range(n_min, n_max + 1):
        num, den = _series(-j, -2 * j, -N - j + 1, -1, j)
        numerator = prefactor * c * num << N
        value, rest = divmod(numerator, den)
        if rest:
            from fractions import Fraction

            raise ArithmeticError(
                f"lhs_direct(N={N}, j={j}) is not an integer: "
                f"{Fraction(numerator, den)}"
            )
        values.append(value)
        c = c * (N + j) // N
    return values


def lhs_direct(N: int, j: int) -> int:
    """j! * 2^N * C(N+j-1, j) * 2F1(-j, -2j; -N-j+1; -1), as an integer:
    ``lhs_direct_run`` at the single N, which checks it."""
    return lhs_direct_run(j, N, N)[0]
