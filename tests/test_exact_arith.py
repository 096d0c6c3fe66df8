import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypident.exact_arith import _check_int, binomial, double_factorial_odd, factorial, pow2
from hypident.factorial_basis import falling, rising, stirling2
from hypident.identity import binomial_falling_sum

from oracles import odd_product


@pytest.mark.parametrize(
    "n, k, expected",
    [(4, 2, 6), (0, 0, 1), (5, 0, 1), (6, 6, 1), (10, 3, 120)],
)
def test_binomial_small_values(n, k, expected):
    assert binomial(n, k) == expected


def test_binomial_zero_fill_out_of_range():
    assert binomial(3, 5) == 0
    assert binomial(0, 1) == 0
    # a negative k is math.comb's ValueError, as a negative n is
    with pytest.raises(ValueError, match="^k must be a non-negative integer$"):
        binomial(7, -1)
    with pytest.raises(ValueError):
        binomial(-1, -1)


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError, match="^n must be a non-negative integer$"):
        binomial(-3, 2)
    with pytest.raises(ValueError):
        binomial(-3, -2)


def test_pascal_recurrence():
    for n in range(1, 65):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@given(n=st.integers(min_value=-200, max_value=200), k=st.integers(min_value=-200, max_value=200))
def test_binomial_is_math_comb(n, k):
    """C(n, k) is math.comb's for n, k >= 0, zero for k > n among them, and
    a negative n or k is a ValueError, whichever of the two is negative."""
    if n >= 0 and k >= 0:
        assert binomial(n, k) == math.comb(n, k)
    else:
        with pytest.raises(ValueError):
            binomial(n, k)


def test_binomial_row_sums_are_powers_of_two():
    for n in range(21):
        assert sum(binomial(n, k) for k in range(n + 1)) == pow2(n)


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(10) == 3628800


def test_factorial_matches_iterated_product():
    prod = 1
    for n in range(1, 26):
        prod *= n
        assert factorial(n) == prod


def test_double_factorial_odd_values():
    assert double_factorial_odd(0) == 1
    assert double_factorial_odd(2) == 3
    assert double_factorial_odd(3) == 15


def test_double_factorial_odd_matches_direct_product():
    for j in range(61):
        assert double_factorial_odd(j) == odd_product(j), j


def test_double_factorial_links_to_factorial():
    # (2j-1)!! * 2^j * j! == (2j)!
    for j in range(31):
        assert double_factorial_odd(j) * pow2(j) * factorial(j) == factorial(2 * j)


def test_pow2_values():
    assert pow2(0) == 1
    assert pow2(1) == 2
    assert pow2(10) == 1024


def test_pow2_matches_repeated_doubling():
    value = 1
    for n in range(1, 80):
        value *= 2
        assert pow2(n) == value


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        factorial(-1)
    with pytest.raises(ValueError):
        double_factorial_odd(-2)
    with pytest.raises(ValueError):
        pow2(-1)


@pytest.mark.parametrize("value, type_name", [(True, "bool"), (2.0, "float")])
@pytest.mark.parametrize("helper, args, name", [
    (falling, (None, 2), "a"),
    (falling, (5, None), "n"),
    (rising, (None, 2), "a"),
    (rising, (5, None), "n"),
    (binomial, (None, 1), "n"),
    (binomial, (5, None), "k"),
    (factorial, (None,), "n"),
    (double_factorial_odd, (None,), "j"),
    (pow2, (None,), "n"),
], ids=lambda case: getattr(case, "__name__", None))
def test_scalar_helpers_reject_a_bool_or_float(helper, args, name, value, type_name):
    """Each scalar helper runs the package's one int check on every argument:
    a bool is not read as 0 or 1, and a float fails with the package's
    message, not range's or math's."""
    args = tuple(value if arg is None else arg for arg in args)
    with pytest.raises(TypeError, match=f"^{name} must be an int, got {type_name}$"):
        helper(*args)


@pytest.mark.parametrize("helper, args, error, message", [
    (_check_int, ("x", True, 0, 9), TypeError, "x must be an int, got bool"),
    (_check_int, ("x", 2.0, 0, 9), TypeError, "x must be an int, got float"),
    (_check_int, ("x", -1, 0, 9), ValueError, "x = -1 must be >= 0"),
    (_check_int, ("x", 10, 0, 9), ValueError, "x = 10 is above the bound of 9"),
    (double_factorial_odd, (-1,), ValueError, "j = -1 must be >= 0"),
    (falling, (5, -1), ValueError, "n = -1 must be >= 0"),
    (rising, (5, -1), ValueError, "n = -1 must be >= 0"),
    (stirling2, (-1, 0), ValueError, "k = -1 must be >= 0"),
    (stirling2, (0, -1), ValueError, "i = -1 must be >= 0"),
    (binomial_falling_sum, (0, 0), ValueError, "N = 0 must be >= 1"),
    (binomial_falling_sum, (3, -1), ValueError, "i = -1 must be >= 0"),
], ids=lambda case: getattr(case, "__name__", None))
def test_one_check_of_type_and_range(helper, args, error, message):
    """``_check_int`` is the package's one check of an int argument: a bool
    or a float is a TypeError, and a value below low or above high a
    ValueError naming the argument and its value. Each helper whose range
    it checks fails with its message one below the helper's floor."""
    with pytest.raises(error, match=f"^{message}$"):
        helper(*args)


@pytest.mark.parametrize("value, low, high", [
    (0, 0, 9), (9, 0, 9), (-5, None, None), (10**30, 1, None), (-10**30, None, 0),
])
def test_check_int_returns_a_value_inside_its_bounds(value, low, high):
    assert _check_int("x", value, low, high) == value


nonzero_ints = st.integers(min_value=-10**6, max_value=10**6).filter(lambda v: v != 0)


@given(p=nonzero_ints, q=nonzero_ints)
def test_rational_canonicalization(p, q):
    """p/q times q/p is exactly 1/1 for any nonzero p, q."""
    assert Fraction(p, q) * Fraction(q, p) == Fraction(1)


def test_rational_canonical_form():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(1, -2) == Fraction(-1, 2)
    assert Fraction(1, -2).denominator == 2
    assert Fraction(0, 7) == Fraction(0) and Fraction(0).denominator == 1
