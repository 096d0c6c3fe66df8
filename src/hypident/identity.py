"""Both sides of the central identity, plus the map-count evaluator.

The identity, for integers N >= 1 and j >= 1:

    j! 2^N C(N+j-1, j) 2F1(-j, -2j; -N-j+1; -1)
        = sum_{l=0}^{N} C(N, l) prod_{i=0}^{j-1} 2(2i+1+l).

Each side has a brute-force route and a fast route through the
falling-basis polynomials, and each route evaluates one j over a run of N
at once. The brute-force routes are ``lhs_direct_run`` in ``hypergeom``,
which sums every term of each N's series, sharing across the run only j!
and C(N+j-1, j) stepped from the previous N, and ``rhs_direct_run`` here,
which builds the products P(l) once, sums every term of the binomial sum
at the run's first N and walks Pascal's rule from there to every further
N, additions only; ``lhs_direct`` and ``rhs_direct`` are these runs at
one N. The fast routes, ``_fast_values`` behind ``lhs_fast``/``rhs_fast``,
evaluate 2^N L_j(N) and 2^N R_j(N). Each of these three runs checks its
j and N with ``hypergeom._check_run``; what reads a run checks neither.
``check_cell`` is the one checker: for one j over a run of N it
evaluates each route of the chosen mode once over the whole run and
returns the cell as columns, a ``CellReport`` holding the first and the
last route's values and one verdict per N; an unequal pair is a result,
never an exception. ``check_identity`` is ``check_cell`` at a single
point, as one ``VerifyReport``.

The j = 0 boundary is accepted as a harmless extension (both sides
collapse to 2^N). N = 0 is rejected: there the hypergeometric side's
denominator parameters are genuinely invalid, and no regularized value is
defined.

``map_count`` evaluates the genus-g count of 2*nu-valent two-leg maps with
j vertices,

    j! [2 nu (nu-1) C(2nu-1, nu-1)]^j
        * sum_{l=0}^{3g-1} a_l C(2g-2+l+j, j)
              2F1(-j, -nu*j; 2-2g-l-j; 1/(1-nu)),

where the 3g weights a_l are supplied by the caller (typically from a JSON
coefficient file; this package never fabricates them). ``map_summand``
exposes one weightless term of that sum, and ``summand_equivalence``
checks the nu = 2 statement that ties each term back to the identity with
N = 2g-1+l. One check, ``_check_map_domain``, serves ``map_summand``,
``summand_equivalence`` and ``MapCountSpec``, and ``map_count`` checks no
term again. The one loader of a coefficient file,
``mapcount_spec_from_file``, checks the caller's j and the file's shape, and
``MapCountSpec`` the rest. Only these map-count functions use ``fractions``
and ``json``, so they import them, and checking the identity loads neither.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from itertools import accumulate, count, repeat
from operator import add, and_, eq, lshift, mul

from .exact_arith import _check_int, binomial, factorial, pow2
from .factorial_basis import FallingPoly, falling, poly_values
from .hypergeom import _check_run, _series, lhs_direct_run
from .triangles import l_poly, r_poly

__all__ = [
    "CellReport",
    "IdentityPoint",
    "MapCountSpec",
    "VerifyReport",
    "binomial_falling_sum",
    "check_cell",
    "check_identity",
    "lhs_fast",
    "map_count",
    "map_summand",
    "mapcount_spec_from_file",
    "rhs_direct",
    "rhs_direct_run",
    "rhs_fast",
    "summand_equivalence",
]

MODES = ("direct", "fast", "cross")

# Parsing a decimal is quadratic in its digits: a weight of 2^18 digits
# takes 0.5 s, one of 2^20 digits 7 s. 3g short weights fit in far less.
# The bound holds a weight's digits to the file's bytes only because a
# weight in exponent notation ("1e1000000") is rejected before it is parsed.
MAX_COEFF_FILE_BYTES = 2**18


class IdentityPoint(namedtuple("IdentityPoint", "N j")):
    """One (N, j) evaluation point. N >= 1; j >= 0 (j = 0 is the extension),
    checked as the run N..N by ``hypergeom._check_run``: j first, then N."""

    __slots__ = ()

    def __new__(cls, N: int, j: int) -> IdentityPoint:
        _check_run(j, N, N)
        return super().__new__(cls, N, j)


class VerifyReport(namedtuple("VerifyReport", "point lhs rhs equal")):
    """Outcome of one identity check: both side values and the verdict."""

    __slots__ = ()


class CellReport(namedtuple("CellReport", "j n_min lhs rhs equal")):
    """Outcome of one j cell, N = n_min, n_min + 1, ..., as columns: the
    first route's values, the last route's and one verdict per N. rhs is
    lhs, the same list, when both come from one shared polynomial row."""

    __slots__ = ()


def rhs_direct_run(j: int, n_min: int, n_max: int) -> list[int]:
    """The binomial sum side for N = n_min..n_max: sum_l C(N,l) P(l), where
    P(l) = prod_{i=0}^{j-1} 2(2i+1+l); [] for an empty run.

    P(0..n_max) is built once: P(l+2) = P(l)(l+2j+1)/(l+1) because the
    product telescopes, so P(0) and P(1), one ``math.prod`` each (1 at
    j = 0), are the only full products. The sum is the binomial transform
    of P, walked by Pascal's rule: with a_N(l) = sum_m C(N,m) P(l+m), the
    value at N is a_N(0) and a_{N+1}(l) = a_N(l) + a_N(l+1). The walk is
    seeded at n_min with every term of a_{n_min}(l) for l = 0..n_max-n_min,
    C(n_min,m+1) stepped from C(n_min,m) by its exact ratio (n_min-m)/(m+1).
    Then it goes one l at a time, from l = n_max-n_min down to 0: a_N(l)
    for N = n_min..n_max-l is the running sum of a_N(l+1), started at
    a_{n_min}(l), one ``itertools.accumulate`` pass of additions, and
    l = 0 holds the values. So one point costs its N+1 products, and a run
    from N = 1 costs additions only. This route reads no polynomial or
    triangle, so it stays independent of ``rhs_fast``.
    """
    _check_run(j, n_min, n_max)
    if n_min > n_max:
        return []
    products = [math.prod(range(2, 4 * j, 4)), math.prod(range(4, 4 * j + 1, 4))]
    for l in range(n_max - 1):
        products.append(products[l] * (l + 2 * j + 1) // (l + 1))
    width = n_max - n_min + 1
    sums = products[:width]
    c = 1
    for m in range(1, n_min + 1):
        c = c * (n_min - m + 1) // m
        sums = list(map(add, sums, map(mul, repeat(c), products[m:m + width])))
    values = sums[-1:]
    for seed in reversed(sums[:-1]):
        values = list(accumulate(values, initial=seed))
    return values


def rhs_direct(N: int, j: int) -> int:
    """The binomial sum side at one point: ``rhs_direct_run`` at the single N."""
    return rhs_direct_run(j, N, N)[0]


def _fast_values(
    j: int, n_min: int, n_max: int, *routes: Callable[[int], FallingPoly]
) -> list[list[int]]:
    """Per row route, 2^N p(N) for N = n_min..n_max, p = route(j) (the
    constant 1 at j = 0, where both sides are 2^N), once ``_check_run``
    passes. A row equal to the previous route's row shares its values."""
    _check_run(j, n_min, n_max)
    values: list[list[int]] = []
    last = None
    for route in routes:
        row = route(j) if j else FallingPoly((1,))
        values.append(
            values[-1] if row == last
            else list(map(lshift, poly_values(row, n_min, n_max), count(n_min)))
        )
        last = row
    return values


def rhs_fast(N: int, j: int) -> int:
    """2^N R_j(N), the binomial sum side by its polynomial: ``_fast_values`` at N."""
    return _fast_values(j, N, N, r_poly)[0][0]


def lhs_fast(N: int, j: int) -> int:
    """2^N L_j(N), the hypergeometric side by its polynomial: ``_fast_values`` at N."""
    return _fast_values(j, N, N, l_poly)[0][0]


def binomial_falling_sum(N: int, i: int) -> int:
    """sum_{l=0}^{N} C(N,l) (l)_i, in closed form: 2^{N-i} (N)_i."""
    _check_int("N", N, 1)
    _check_int("i", i, 0, N)
    return pow2(N - i) * falling(N, i)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected direct, fast or cross")


def check_identity(point: IdentityPoint, mode: str = "fast") -> VerifyReport:
    """Evaluate both sides at ``point`` and report whether they agree:
    ``check_cell`` over the single N of the point."""
    cell = check_cell(point.j, point.N, point.N, mode)
    return VerifyReport(point, cell.lhs[0], cell.rhs[0], cell.equal[0])


def check_cell(j: int, n_min: int, n_max: int, mode: str = "fast") -> CellReport:
    """Check the identity at (N, j) for N = n_min..n_max, as one cell.

    mode "direct" compares the two brute-force routes, "fast" the two
    polynomial routes (L_j from its closed form and R_j from its recurrence,
    each evaluated over the whole run by ``poly_values``), and "cross" all
    four. Equal rows are one polynomial, so they agree at every N >= 1 and
    share one list, compared with the first route's once. lhs holds the
    first route's values and rhs the last's; equal[i] says whether every
    route agrees at N = n_min + i, and is reported, never raised. Nothing is
    timed, so repeated checks give equal cells. The mode is checked first,
    then the run, by the first route's ``_check_run``: j first, then the
    types of n_min and n_max, so an empty run of N (n_min > n_max) still
    rejects a bad j or a non-int bound, and otherwise has empty columns.
    """
    _check_mode(mode)
    routes = []
    if mode != "fast":
        routes.append(lhs_direct_run(j, n_min, n_max))
    if mode != "direct":
        routes += _fast_values(j, n_min, n_max, l_poly, r_poly)
    if mode != "fast":
        routes.append(rhs_direct_run(j, n_min, n_max))
    equal = [True] * len(routes[0])
    for previous, values in zip(routes, routes[1:]):
        if values is not previous:
            equal = list(map(and_, equal, map(eq, routes[0], values)))
    return CellReport(j, n_min, routes[0], routes[-1], equal)


def _check_map_domain(g: int, l: int, j: int, nu: int) -> None:
    """The map count's one domain check: g, l, j and nu must be ints (not
    bools), else a TypeError, and then g >= 1, 0 <= l <= 3g-1, j >= 1 and
    nu >= 2, else a ValueError, each in that order."""
    for name, value in (("g", g), ("l", l), ("j", j), ("nu", nu)):
        _check_int(name, value)
    _check_int("g", g, 1)
    if not 0 <= l <= 3 * g - 1:
        raise ValueError(f"l = {l} must satisfy 0 <= l <= 3g-1 = {3 * g - 1}")
    _check_int("j", j, 1)
    _check_int("nu", nu, 2)


def _summand(g: int, l: int, j: int, nu: int, z: int | Fraction) -> tuple[int, int]:
    """``map_summand`` unchecked, as a pair (num, den), with z = 1/(1-nu)."""
    num, den = _series(-j, -nu * j, 2 - 2 * g - l - j, z, j)
    return binomial(2 * g - 2 + l + j, j) * num, den


def map_summand(g: int, l: int, j: int, nu: int) -> Fraction:
    """One weightless term of the map-count sum.

    C(2g-2+l+j, j) * 2F1(-j, -nu*j; 2-2g-l-j; 1/(1-nu)), exact. The
    arguments are checked by ``_check_map_domain``, with the messages a
    ``MapCountSpec`` gives. The series terminates at K = j, and for g >= 1
    and l >= 0 its denominator parameter is c = 2-2g-l-j <= -j = -K, so
    c+k != 0 for every k < K, as ``_series`` needs: the series is one
    ``_series`` pair over which a single Fraction is built.
    """
    from fractions import Fraction

    _check_map_domain(g, l, j, nu)
    return Fraction(*_summand(g, l, j, nu, Fraction(1, 1 - nu)))


def summand_equivalence(g: int, l: int, j: int) -> bool:
    """Does the nu = 2 summand match its hypergeometric-free form? With
    N = 2g-1+l: is j! * map_summand(g,l,j,2) * 2^N the binomial sum side
    at (N, j)? g, l and j are checked as ``map_summand`` checks them; at
    nu = 2, z = 1/(1-nu) is the int -1, so the rest is integer arithmetic."""
    _check_map_domain(g, l, j, 2)
    num, den = _summand(g, l, j, 2, -1)
    N = 2 * g - 1 + l
    return factorial(j) * num << N == rhs_direct(N, j) * den


class MapCountSpec(namedtuple("MapCountSpec", "nu g j a")):
    """Inputs for one map count: half-valence nu, genus g, vertices j,
    and the 3g externally supplied weights a.

    g, j and nu are checked first, by ``map_summand``'s check; then a, a
    list or tuple (a string is not split), each weight, and their number.
    A weight is an int, a Fraction or a rational string such as "-3/4",
    stored as a Fraction. Bools and floats are rejected, so no inexact
    value reaches the count, as are strings with "_", in exponent notation
    or with non-ASCII characters (Fraction reads them). Any other fault is
    a ValueError naming it.
    """

    __slots__ = ()

    def __new__(cls, nu: int, g: int, j: int, a: tuple[Fraction, ...]) -> MapCountSpec:
        from fractions import Fraction

        _check_map_domain(g, 0, j, nu)
        if not isinstance(a, (list, tuple)):
            raise ValueError(f"'a' must be a list or tuple of weights, got {type(a).__name__}")
        weights = []
        for idx, entry in enumerate(a):
            if isinstance(entry, bool):
                raise ValueError(f"a[{idx}]: booleans are not rationals")
            if not isinstance(entry, (int, Fraction, str)):
                raise ValueError(
                    f"a[{idx}]: expected a rational string or integer, got {entry!r}"
                )
            if isinstance(entry, str) and ("e" in entry or "E" in entry):
                raise ValueError(f"a[{idx}]: exponent notation is not accepted; use p/q")
            if isinstance(entry, str) and "_" in entry:
                raise ValueError(f"a[{idx}]: digit separators are not accepted")
            if isinstance(entry, str) and not entry.isascii():
                raise ValueError(f"a[{idx}]: only ASCII characters are accepted")
            try:
                weights.append(Fraction(entry))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"a[{idx}]: malformed rational {entry!r} ({exc})") from None
        if len(weights) != 3 * g:
            raise ValueError(f"need 3g = {3 * g} coefficients, got {len(weights)}")
        return super().__new__(cls, nu, g, j, tuple(weights))


def map_count(spec: MapCountSpec) -> Fraction:
    """Evaluate the map-count formula for the given spec, exactly.

    Linear in the weight vector; returns a Fraction (an integer value only
    when the supplied weights are the true ones, which this package does
    not assert). A spec is checked when built, so no term is checked again.
    """
    from fractions import Fraction

    nu, g, j, a = spec
    prefactor = factorial(j) * (2 * nu * (nu - 1) * binomial(2 * nu - 1, nu - 1)) ** j
    z = Fraction(1, 1 - nu)
    total = sum(
        (w * Fraction(*_summand(g, l, j, nu, z)) for l, w in enumerate(a)), start=Fraction(0)
    )
    return prefactor * total


def mapcount_spec_from_file(path: str, j: int) -> MapCountSpec:
    """Load and validate a JSON coefficient file {"nu": int, "g": int,
    "a": [entries]}, no other key, each entry a rational string ("7",
    "-3/4") or a JSON integer. j is checked first, before the file is
    opened, as MapCountSpec checks it. A file above MAX_COEFF_FILE_BYTES is
    a ValueError before it is parsed: at most that many bytes plus one are
    read, so an endless pipe fails too. Then come the shape and the values,
    by MapCountSpec; each fault of the file is a ValueError naming the file.
    """
    import json

    _check_map_domain(1, 0, j, 2)  # j alone: g = 1, l = 0 and nu = 2 are in range
    with open(path, "rb") as fh:
        data = fh.read(MAX_COEFF_FILE_BYTES + 1)
    if len(data) > MAX_COEFF_FILE_BYTES:
        raise ValueError(f"{path}: size is above the bound of {MAX_COEFF_FILE_BYTES} bytes")
    try:
        obj = json.loads(data.decode("utf-8"))
        if not isinstance(obj, dict):
            raise ValueError("coefficient file must contain a JSON object")
        missing = [key for key in ("nu", "g", "a") if key not in obj]
        if missing:
            raise ValueError(f"coefficient file is missing key(s): {', '.join(missing)}")
        unknown = [key for key in obj if key not in ("nu", "g", "a")]
        if unknown:
            names = ", ".join(map(repr, unknown))
            raise ValueError(f"coefficient file has unknown key(s): {names}")
        return MapCountSpec(nu=obj["nu"], g=obj["g"], j=j, a=obj["a"])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except (ValueError, TypeError) as exc:  # outside input: a TypeError too is a usage error
        raise ValueError(f"{path}: {exc}") from None
