"""Exact evaluation of terminating Gauss hypergeometric series.

A 2F1 series

    2F1(a, b; c; z) = sum_k  a^(k) b^(k) / c^(k) * z^k / k!

terminates when a or b is a nonpositive integer: the rising factorial in
the numerator vanishes past K = min(|a|, |b|), so the sum is a finite,
exactly computable rational. That is the only regime this module handles;
there is no analytic continuation and no floating point.

``lhs_direct_run`` packages the one series family the rest of the package
cares about, j! * 2^N * C(N+j-1, j) * 2F1(-j, -2j; -N-j+1; -1), which is
always an integer for positive N, over a run of N for one j;
``lhs_direct`` is that run at one N.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact_arith import ExactRat, binomial, factorial

__all__ = [
    "DenominatorPochhammerZero",
    "Hyp2F1Spec",
    "NonTerminatingSeries",
    "hyp2f1_terminating",
    "lhs_direct",
    "lhs_direct_run",
]


class NonTerminatingSeries(ValueError):
    """Neither numerator parameter is a nonpositive integer."""


class DenominatorPochhammerZero(ValueError):
    """c^(k) vanishes at some k inside the terminating range."""


class Hyp2F1Spec(namedtuple("Hyp2F1Spec", "a b c z")):
    """Parameters of a terminating 2F1 series, validated on construction.

    Requires at least one nonpositive integer among a, b (termination) and
    c^(k) != 0 for every k up to the termination index (so each term's
    denominator is nonzero). a, b and c must be ints and z an int or an
    exact rational; anything else, bools included, is a TypeError, so no
    float can reach the series. z is stored as a Fraction.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, z: ExactRat) -> Hyp2F1Spec:
        for name, value in (("a", a), ("b", b), ("c", c)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if not isinstance(z, (int, Fraction)) or isinstance(z, bool):
            raise TypeError(f"z must be an exact rational, got {type(z).__name__}")
        if a > 0 and b > 0:
            raise NonTerminatingSeries(
                f"2F1(a={a}, b={b}; ...) does not terminate: "
                "need a nonpositive integer numerator parameter"
            )
        self = super().__new__(cls, a, b, c, Fraction(z))
        k = self.termination_index
        # c^(k) vanishes for some k <= K  iff  -K < c <= 0.
        if -k < c <= 0:
            raise DenominatorPochhammerZero(
                f"c = {c} makes c^(k) vanish at k = {-c + 1} "
                f"<= termination index {k}"
            )
        return self

    @property
    def termination_index(self) -> int:
        """Least K with a+K = 0 or b+K = 0; the last contributing term."""
        candidates = [-p for p in (self.a, self.b) if p <= 0]
        return min(candidates)


def hyp2f1_terminating(spec: Hyp2F1Spec) -> Fraction:
    """Exact rational value of the finite series, k = 0 .. termination index.

    Consecutive terms have the ratio
    r_k = term_{k+1} / term_k = (a+k)(b+k) p / ((c+k)(k+1) q)  with z = p/q,
    so the sum is 1 + r_0 (1 + r_1 (1 + ... (1 + r_{K-1}))). That nest is
    evaluated by Horner's rule from the inside out on a plain integer pair
    num/den, left unreduced; one Fraction (one gcd) is built at the end
    instead of reducing after every term.
    """
    a, b, c = spec.a, spec.b, spec.c
    p, q = spec.z.numerator, spec.z.denominator
    num = den = 1
    for k in range(spec.termination_index - 1, -1, -1):
        step = (c + k) * (k + 1) * q
        num = num * ((a + k) * (b + k) * p) + den * step
        den *= step
    return Fraction(num, den)


def _check_int(name: str, value: int) -> None:
    """value must be an int; anything else, bools included, is a TypeError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _check_point(N: int, j: int) -> None:
    """The identity's point domain, shared by every route: N >= 1, j >= 0.

    N and j must be ints; anything else, bools included, is a TypeError,
    as in ``Hyp2F1Spec``. N is checked first, then j by ``_check_j``.
    """
    _check_int("N", N)
    if N < 1:
        raise ValueError(
            f"N = {N} is outside the identity's domain (N >= 1); "
            "no value is defined at N = 0"
        )
    _check_j(j)


def _check_j(j: int) -> None:
    """The j part of the point domain: an int >= 0."""
    _check_int("j", j)
    if j < 0:
        raise ValueError(f"j = {j} must be >= 0")


def _check_run(j: int, n_min: int, n_max: int) -> None:
    """A run of N for one j: j as ``_check_j``, then both bounds must be
    ints, and a non-empty run (n_min <= n_max) must start at N >= 1, with
    the error ``_check_point`` gives at N = n_min."""
    _check_j(j)
    _check_int("N", n_min)
    _check_int("N", n_max)
    if n_min < 1 and n_min <= n_max:
        _check_point(n_min, j)


def lhs_direct_run(j: int, n_min: int, n_max: int) -> list[int]:
    """j! * 2^N * C(N+j-1, j) * 2F1(-j, -2j; -N-j+1; -1) for N =
    n_min..n_max, as integers; [] for an empty run.

    Defined for N >= 1 (at N = 0 the series parameters are invalid: c^(k)
    hits zero inside the terminating range) and j >= 0 (j = 0 gives 2^N).
    Each N's series is the brute-force sum of all j+1 terms from
    ``hyp2f1_terminating``. j! is computed once, and C(N+j-1, j) is
    stepped to the next N by its exact ratio (N+j)/N. The product is
    provably an integer; that is checked, not assumed, by one exact
    division per N, and a non-integer raises ArithmeticError.
    """
    _check_run(j, n_min, n_max)
    if n_min > n_max:
        return []
    prefactor = factorial(j)
    c = binomial(n_min + j - 1, j)
    z = Fraction(-1)
    values = []
    for N in range(n_min, n_max + 1):
        series = hyp2f1_terminating(Hyp2F1Spec(-j, -2 * j, -N - j + 1, z))
        numerator = prefactor * c * series.numerator << N
        value, rest = divmod(numerator, series.denominator)
        if rest:
            raise ArithmeticError(
                f"lhs_direct(N={N}, j={j}) is not an integer: "
                f"{Fraction(numerator, series.denominator)}"
            )
        values.append(value)
        c = c * (N + j) // N
    return values


def lhs_direct(N: int, j: int) -> int:
    """j! * 2^N * C(N+j-1, j) * 2F1(-j, -2j; -N-j+1; -1), as an integer:
    ``lhs_direct_run`` at the single N."""
    _check_point(N, j)
    return lhs_direct_run(j, N, N)[0]
