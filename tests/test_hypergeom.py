from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hypident import hypergeom
from hypident.hypergeom import _series, lhs_direct, lhs_direct_run
from hypident.identity import map_summand

from oracles import hyp2f1_by_pochhammer, lhs_by_definition, rising_product


def termination_index(a, b):
    """K = min(-a, -b) over the nonpositive numerator parameters."""
    return min(-p for p in (a, b) if p <= 0)


def series_value(a, b, c, z):
    """The terminating series by ``_series``, reduced to one Fraction."""
    return Fraction(*_series(a, b, c, z, termination_index(a, b)))


def test_small_series_values():
    assert series_value(-1, -2, -1, -1) == 3
    assert series_value(-2, -4, -2, -1) == 11  # 1 + 4 + 6
    assert series_value(0, -7, -5, -1) == 1  # stops at k = 0


def test_matches_direct_pochhammer_summation():
    """Ratio-recurrence accumulation agrees with explicit Pochhammer sums."""
    zs = [Fraction(-1), Fraction(1, 2), Fraction(-3, 7), 2]
    for a in range(-6, 1):
        for b in range(-6, 1):
            k = min(-a, -b)
            for c in [-20, -k - 1, -k, 1, 5]:
                if -k < c <= 0:
                    continue
                for z in zs:
                    assert series_value(a, b, c, z) == hyp2f1_by_pochhammer(a, b, c, z)


def test_denominator_outside_window_is_fine():
    # c = -K is the first safe nonpositive value: c+k != 0 for all k < K
    assert series_value(-3, -5, -3, -1) == hyp2f1_by_pochhammer(-3, -5, -3, -1)


@pytest.mark.parametrize("a, b, c", [
    (-1, -1, 0), (-3, -5, -2), (-4, -4, -1), (-2, 3, 0), (-5, -15, -4),
])
def test_series_denominator_vanishes_inside_window(a, b, c):
    """_series's precondition is needed: with -K < c <= 0, c+k = 0 at some
    k < K and den is 0; at c = -K, the first safe value, den is nonzero."""
    K = termination_index(a, b)
    assert _series(a, b, c, -1, K)[1] == 0
    assert _series(a, b, -K, -1, K)[1] != 0


@pytest.mark.parametrize("a, b, c, z, K", [
    (-3, -5, 1, -1, 3),
    (-5, -3, 1, -1, 3),
    (0, -7, -5, -1, 0),  # stops at k = 0
    (4, -2, 1, -1, 2),  # only one parameter needs to be nonpositive
    (-2, 5, -7, Fraction(1, 3), 2),
])
def test_series_stops_at_termination_index(a, b, c, z, K):
    """K is the least k with a+k = 0 or b+k = 0, and the series summed to
    K is the whole terminating series."""
    assert termination_index(a, b) == K
    assert Fraction(*_series(a, b, c, z, K)) == hyp2f1_by_pochhammer(a, b, c, z)


def test_matches_pochhammer_in_map_count_regime():
    """map_summand, the composition map_count calls, against the oracle:
    C(2g-2+l+j, j) 2F1(-j, -nu j; 2-2g-l-j; 1/(1-nu)) for every l < 3g."""
    for nu in range(2, 5):
        z = Fraction(1, 1 - nu)
        for g in range(1, 4):
            for l in range(3 * g):
                for j in range(1, 26):
                    expected = comb(2 * g - 2 + l + j, j) * hyp2f1_by_pochhammer(
                        -j, -nu * j, 2 - 2 * g - l - j, z
                    )
                    assert map_summand(g, l, j, nu) == expected, (nu, g, l, j)


terminating_params = st.tuples(
    st.integers(min_value=-8, max_value=0),
    st.integers(min_value=-8, max_value=0),
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)


@given(params=terminating_params)
def test_symmetric_in_numerator_parameters(params):
    a, b, c, z = params
    k = min(-a, -b)
    assume(c > 0 or c <= -k)
    assert series_value(a, b, c, z) == series_value(b, a, c, z)


@given(
    a=st.integers(min_value=-12, max_value=0),
    b=st.integers(min_value=-12, max_value=12),
    c=st.integers(min_value=-40, max_value=40),
    z=st.fractions(min_value=-4, max_value=4, max_denominator=9),
)
@example(a=0, b=-7, c=-5, z=Fraction(-1))  # K = 0: the series is 1
@example(a=-3, b=0, c=2, z=Fraction(5, 2))  # b = 0 stops it at K = 0
@example(a=-4, b=-12, c=3, z=Fraction(-3, 7))  # positive c
@example(a=-5, b=-15, c=-9, z=Fraction(-1, 2))  # map count at nu = 3: z = 1/(1-nu)
@example(a=-6, b=9, c=-6, z=Fraction(7, 3))  # positive b, c = -K
def test_series_pair_matches_pochhammer(a, b, c, z):
    """The unreduced (num, den) pair is the series' value for any valid
    terminating parameters: K = 0, positive c, z = p/q with q > 1 and p < 0."""
    K = termination_index(a, b)
    assume(not -K < c <= 0)
    num, den = _series(a, b, c, z, K)
    assert Fraction(num, den) == hyp2f1_by_pochhammer(a, b, c, z)


# -- the packaged left-hand side ------------------------------------------

def test_lhs_direct_values():
    assert lhs_direct(1, 1) == 6
    assert lhs_direct(2, 1) == 16
    assert lhs_direct(1, 2) == 44
    assert lhs_direct(7, 3) == 289536  # frozen from the brute-force oracle


def test_lhs_direct_j0_extension():
    assert lhs_direct(5, 0) == 32
    assert lhs_direct(1, 0) == 2


def test_lhs_direct_always_integer():
    """The exact-division check never fires across the sweep domain."""
    for j in range(1, 21):
        for n in range(1, 51):
            assert isinstance(lhs_direct(n, j), int)


@pytest.mark.parametrize("j", [250, 299, 300])
def test_lhs_direct_run_matches_definition_at_large_j(j):
    """Where the series is longest, up to MAX_J: at N = 1, 2 and j+1, each
    alone and as one run."""
    points = (1, 2, j + 1)
    expected = [lhs_by_definition(N, j) for N in points]
    assert [lhs_direct_run(j, N, N)[0] for N in points] == expected
    assert lhs_direct_run(j, 1, 2) == expected[:2]


def test_lhs_direct_integrality_check_fires(monkeypatch):
    original = hypergeom._series

    def plus_1_over_3(*args):
        num, den = original(*args)
        return 3 * num + den, 3 * den

    monkeypatch.setattr(hypergeom, "_series", plus_1_over_3)
    with pytest.raises(ArithmeticError, match="not an integer"):
        lhs_direct(1, 1)  # prefactor 1! 2^1 C(1,1) = 2 keeps the 1/3


def test_lhs_direct_rejects_n0():
    with pytest.raises(ValueError):
        lhs_direct(0, 3)
    with pytest.raises(ValueError):
        lhs_direct(-2, 1)
    with pytest.raises(ValueError):
        lhs_direct(3, -1)


def test_series_denominator_vanishes_only_at_n0():
    """The left side's series at N = 0 (c = 1-j) sums to den == 0, which is
    why N >= 1 is required; at N = 1 and 2, den is nonzero with the sign
    of c^(K), K = j."""
    for j in range(1, 41):
        assert _series(-j, -2 * j, 1 - j, -1, j)[1] == 0, j
        for N in (1, 2):
            c = -N - j + 1
            den = _series(-j, -2 * j, c, -1, j)[1]
            assert den != 0 and (den > 0) == (rising_product(c, j) > 0), (N, j)
