"""Exact evaluation of terminating Gauss hypergeometric series.

A 2F1 series

    2F1(a, b; c; z) = sum_k  a^(k) b^(k) / c^(k) * z^k / k!

terminates when a or b is a nonpositive integer: the rising factorial in
the numerator vanishes past K = min(|a|, |b|), so the sum is a finite,
exactly computable rational. That is the only regime this module handles;
there is no analytic continuation and no floating point.

``lhs_direct`` packages the one series family the rest of the package
cares about: j! * 2^N * C(N+j-1, j) * 2F1(-j, -2j; -N-j+1; -1), which is
always an integer for positive N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import ExactRat, binomial, factorial, pow2

__all__ = [
    "DenominatorPochhammerZero",
    "Hyp2F1Spec",
    "NonTerminatingSeries",
    "hyp2f1_terminating",
    "lhs_direct",
]


class NonTerminatingSeries(ValueError):
    """Neither numerator parameter is a nonpositive integer."""


class DenominatorPochhammerZero(ValueError):
    """c^(k) vanishes at some k inside the terminating range."""


@dataclass(frozen=True)
class Hyp2F1Spec:
    """Parameters of a terminating 2F1 series, validated on construction.

    Requires at least one nonpositive integer among a, b (termination) and
    c^(k) != 0 for every k up to the termination index (so each term's
    denominator is nonzero). a, b and c must be ints and z an int or an
    exact rational; anything else, bools included, is a TypeError, so no
    float can reach the series.
    """

    a: int
    b: int
    c: int
    z: ExactRat

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if not isinstance(self.z, (int, Fraction)) or isinstance(self.z, bool):
            raise TypeError(f"z must be an exact rational, got {type(self.z).__name__}")
        object.__setattr__(self, "z", Fraction(self.z))
        if self.a > 0 and self.b > 0:
            raise NonTerminatingSeries(
                f"2F1(a={self.a}, b={self.b}; ...) does not terminate: "
                "need a nonpositive integer numerator parameter"
            )
        k = self.termination_index
        # c^(k) vanishes for some k <= K  iff  -K < c <= 0.
        if -k < self.c <= 0:
            raise DenominatorPochhammerZero(
                f"c = {self.c} makes c^(k) vanish at k = {-self.c + 1} "
                f"<= termination index {k}"
            )

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


def _check_point(N: int, j: int) -> None:
    """The identity's point domain, shared by every route: N >= 1, j >= 0."""
    if N < 1:
        raise ValueError(
            f"N = {N} is outside the identity's domain (N >= 1); "
            "no value is defined at N = 0"
        )
    if j < 0:
        raise ValueError(f"j = {j} must be >= 0")


def lhs_direct(N: int, j: int) -> int:
    """j! * 2^N * C(N+j-1, j) * 2F1(-j, -2j; -N-j+1; -1), as an integer.

    Defined for N >= 1 (at N = 0 the series parameters are invalid: c^(k)
    hits zero inside the terminating range) and j >= 0 (j = 0 gives 2^N).
    The series is the brute-force sum of all j+1 terms from
    ``hyp2f1_terminating``. The product is provably an integer; that is
    checked, not assumed, and a non-integer raises ArithmeticError.
    """
    _check_point(N, j)
    series = hyp2f1_terminating(Hyp2F1Spec(-j, -2 * j, -N - j + 1, Fraction(-1)))
    value = factorial(j) * pow2(N) * binomial(N + j - 1, j) * series
    if value.denominator != 1:
        raise ArithmeticError(
            f"lhs_direct(N={N}, j={j}) is not an integer: {value}"
        )
    return value.numerator
