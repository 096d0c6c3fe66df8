import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypident import factorial_basis
from hypident.factorial_basis import (
    FallingPoly,
    falling,
    monomial_to_falling,
    poly_eval,
    poly_values,
    rising,
    rising_to_falling,
    stirling2,
)
from hypident.triangles import l_poly, r_poly

from oracles import (
    bell_by_enumeration,
    falling_product,
    lah_by_definition,
    rising_product,
    stirling2_by_enumeration,
    stirling2_by_formula,
)


def test_falling_values():
    assert falling(5, 0) == 1
    assert falling(5, 2) == 20
    assert falling(2, 4) == 0  # the (2-2) factor vanishes


def test_rising_values():
    assert rising(3, 2) == 12
    assert rising(-1, 3) == 0
    for a in (-4, 0, 7, 123):
        assert rising(a, 0) == 1


@given(a=st.integers(-70, 70), n=st.integers(0, 60))
def test_falling_and_rising_match_their_oracles(a, n):
    """Negative a, n = 0 (the empty product) and ranges through zero."""
    assert falling(a, n) == falling_product(a, n)
    assert rising(a, n) == rising_product(a, n)


def test_falling_shift_identity():
    # (x)_n * (x-n)_m == (x)_{n+m}
    for x in range(-5, 11):
        for n in range(9):
            for m in range(9):
                assert falling(x, n) * falling(x - n, m) == falling(x, n + m)


def test_rising_is_shifted_falling():
    for x in range(-5, 11):
        for n in range(9):
            assert rising(x, n) == falling(x + n - 1, n)


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        falling(3, -1)
    with pytest.raises(ValueError):
        rising(3, -1)


# -- Stirling numbers ---------------------------------------------------

def test_stirling2_against_partition_enumeration():
    for k in range(8):
        for i in range(k + 2):
            assert stirling2(k, i) == stirling2_by_enumeration(k, i), (k, i)


def test_stirling2_conventions():
    assert stirling2(0, 0) == 1
    assert stirling2(2, 5) == 0
    assert stirling2(3, 2) == 3
    for k in range(1, 13):
        assert stirling2(k, 0) == 0
        assert stirling2(k, k) == 1
        assert stirling2(k, 1) == 1
        assert stirling2(k - 1, k) == 0


def test_stirling2_recurrence():
    for k in range(20):
        for i in range(1, k + 2):
            assert stirling2(k + 1, i) == i * stirling2(k, i) + stirling2(k, i - 1)


def test_stirling2_row_sums_are_bell_numbers():
    for k in range(11):
        row_sum = sum(stirling2(k, i) for i in range(k + 1))
        assert row_sum == bell_by_enumeration(k)


def test_stirling2_negative_rejected():
    with pytest.raises(ValueError):
        stirling2(-1, 0)


# -- FallingPoly --------------------------------------------------------

def test_trailing_zeros_trimmed():
    assert FallingPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert FallingPoly((0, 0)).coeffs == ()
    assert FallingPoly(()).degree == -1
    assert FallingPoly((5,)).degree == 0


def test_poly_eval():
    one = FallingPoly((1,))
    for x in (-7, 0, 3, 100):
        assert poly_eval(one, x) == 1
        assert poly_eval(FallingPoly(()), x) == 0
    assert poly_eval(FallingPoly((2, 1)), 1) == 3
    assert poly_eval(FallingPoly((12, 10, 1)), 1) == 22
    # Horner's rule never stops early, so check below the degree, where
    # (x)_i = 0 for 0 <= x < i, and at negative x, against the basis sum
    polys = [f(j) for j in range(1, 13) for f in (l_poly, r_poly)]
    polys += [f(k) for k in range(13) for f in (monomial_to_falling, rising_to_falling)]
    for p in polys:
        for x in range(-3, p.degree + 3):
            expected = sum(c * falling_product(x, i) for i, c in enumerate(p.coeffs))
            assert poly_eval(p, x) == expected, (p, x)


def horner_values(p, lo, hi):
    return [poly_eval(p, x) for x in range(lo, hi + 1)]


@given(
    coeffs=st.lists(st.integers(-10**30, 10**30), max_size=12),
    lo=st.integers(-20, 300),
    width=st.integers(0, 400),
)
def test_poly_values_matches_poly_eval(coeffs, lo, width):
    # width < lo - 1 takes the Horner fallback, wider ranges the walk
    p = FallingPoly(tuple(coeffs))
    assert poly_values(p, lo, lo + width) == horner_values(p, lo, lo + width)


@given(
    coeffs=st.integers(0, 60).flatmap(
        lambda degree: st.lists(st.integers(-10**30, 10**30),
                                min_size=degree + 1, max_size=degree + 1)
    ),
    hi=st.integers(0, 40),
    width=st.integers(0, 40),
)
def test_poly_values_degree_above_range(coeffs, hi, width):
    # mostly degree > hi, where the walk starts at level hi, not at the degree
    p = FallingPoly(tuple(coeffs))
    lo = max(hi - width, 0)
    assert poly_values(p, lo, hi) == horner_values(p, lo, hi)


@given(j=st.integers(1, 40), lo=st.integers(0, 300), width=st.integers(0, 300))
def test_poly_values_on_triangle_rows(j, lo, width):
    for p in (l_poly(j), r_poly(j)):
        assert poly_values(p, lo, lo + width) == horner_values(p, lo, lo + width)


def test_poly_values_edges(monkeypatch):
    for p in (FallingPoly(()), FallingPoly((7,)), FallingPoly((0, 0, 3)), r_poly(5)):
        for lo in (0, 1, 2, 9, 250):
            assert poly_values(p, lo, lo) == [poly_eval(p, lo)]
        assert poly_values(p, 4, 3) == poly_values(p, 0, -1) == []
    assert poly_values(FallingPoly(()), 0, 5) == [0] * 6
    assert poly_values(FallingPoly((7,)), 300, 310) == [7] * 11
    # the walk from 0 is taken while lo <= hi - lo + 1, else Horner per point
    calls = []
    monkeypatch.setattr(factorial_basis, "poly_eval",
                        lambda p, x: calls.append(x) or poly_eval(p, x))
    p = l_poly(6)
    assert poly_values(p, 10, 19) == horner_values(p, 10, 19)
    assert calls == []
    assert poly_values(p, 10, 18) == horner_values(p, 10, 18)
    assert calls == list(range(10, 19))


# -- basis transforms ----------------------------------------------------

def test_monomial_to_falling_coefficients():
    assert monomial_to_falling(0).coeffs == (1,)
    assert monomial_to_falling(2).coeffs == (0, 1, 1)
    assert monomial_to_falling(3).coeffs == (0, 1, 3, 1)


def test_monomial_to_falling_is_the_stirling_row():
    for k in range(61):
        assert monomial_to_falling(k).coeffs == tuple(stirling2(k, i) for i in range(k + 1)), k


def test_monomial_to_falling_against_the_explicit_formula():
    """Each Stirling row the shared recurrence table grows, checked against
    the alternating-sum formula, which reads no table."""
    for k in range(61):
        expected = tuple(stirling2_by_formula(k, i) for i in range(k + 1))
        assert monomial_to_falling(k).coeffs == expected, k


def test_monomial_to_falling_reproduces_powers():
    for k in range(13):
        p = monomial_to_falling(k)
        for x in range(-5, 11):
            assert poly_eval(p, x) == x**k, (k, x)


def test_rising_to_falling_coefficients():
    assert rising_to_falling(0).coeffs == (1,)
    assert rising_to_falling(1).coeffs == (0, 1)
    assert rising_to_falling(2).coeffs == (0, 2, 1)


def test_rising_to_falling_matches_lah_definition():
    for k in range(1, 151):
        expected = (0,) + tuple(lah_by_definition(k, i) for i in range(1, k + 1))
        assert rising_to_falling(k).coeffs == expected, k


def test_rising_to_falling_reads_the_lah_table():
    for k in range(151):
        assert rising_to_falling(k).coeffs == factorial_basis._LAH.row(k), k


def test_rising_to_falling_reproduces_rising_factorials():
    for k in range(13):
        p = rising_to_falling(k)
        for x in range(-5, 11):
            assert poly_eval(p, x) == rising(x, k), (k, x)


def test_transform_negative_rejected():
    with pytest.raises(ValueError):
        monomial_to_falling(-1)
    with pytest.raises(ValueError):
        rising_to_falling(-2)


def _table_weighted_sum(row, w):
    """sum_k w_k * row(k).coeffs, each row zero-padded to len(w), untrimmed."""
    total = [0] * len(w)
    for k, wk in enumerate(w):
        for i, c in enumerate(row(k).coeffs):
            total[i] += wk * c
    return total


@given(st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=40))
def test_horner_transforms_match_the_basis_tables(w):
    """The whole-polynomial transforms agree with the single-element tables:
    sum_k w_k x^k and sum_k w_k x^(k) in the falling basis are the
    w-weighted sums of Stirling and Lah rows, zeros and negatives included."""
    assert factorial_basis._powers_to_falling(w) == _table_weighted_sum(monomial_to_falling, w)
    assert factorial_basis._risings_to_falling(w) == _table_weighted_sum(rising_to_falling, w)
