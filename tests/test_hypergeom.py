from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hypident import hypergeom
from hypident.hypergeom import (
    DenominatorPochhammerZero,
    Hyp2F1Spec,
    NonTerminatingSeries,
    _series,
    hyp2f1_terminating,
    lhs_direct,
    lhs_direct_run,
)

from oracles import hyp2f1_by_pochhammer, lhs_by_definition


def test_small_series_values():
    assert hyp2f1_terminating(Hyp2F1Spec(-1, -2, -1, -1)) == 3
    assert hyp2f1_terminating(Hyp2F1Spec(-2, -4, -2, -1)) == 11  # 1 + 4 + 6
    assert hyp2f1_terminating(Hyp2F1Spec(0, -7, -5, -1)) == 1  # stops at k = 0


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
                    spec = Hyp2F1Spec(a, b, c, z)
                    assert hyp2f1_terminating(spec) == hyp2f1_by_pochhammer(a, b, c, z)


def test_termination_index():
    assert Hyp2F1Spec(-3, -5, 1, -1).termination_index == 3
    assert Hyp2F1Spec(-5, -3, 1, -1).termination_index == 3
    assert Hyp2F1Spec(0, -7, -5, -1).termination_index == 0
    # only one parameter needs to be a nonpositive integer
    assert Hyp2F1Spec(4, -2, 1, -1).termination_index == 2


def test_denominator_outside_window_is_fine():
    # c = -K is the first safe nonpositive value: c^(k) != 0 for all k <= K
    spec = Hyp2F1Spec(-3, -5, -3, -1)
    assert hyp2f1_terminating(spec) == hyp2f1_by_pochhammer(-3, -5, -3, -1)


def test_nonterminating_rejected():
    with pytest.raises(NonTerminatingSeries):
        Hyp2F1Spec(1, 2, 3, -1)


@pytest.mark.parametrize("a, b, c", [(-1, -1, 0), (-3, -5, -2), (-4, -4, -1)])
def test_denominator_pochhammer_zero_rejected(a, b, c):
    with pytest.raises(DenominatorPochhammerZero):
        Hyp2F1Spec(a, b, c, -1)


def test_float_z_rejected():
    with pytest.raises(TypeError):
        Hyp2F1Spec(-1, -2, -1, 0.5)


@pytest.mark.parametrize("a, b, c, z", [
    (-1, -2, -1, True),
    (-2, -4, -2.5, -1),
    (-2.0, -4, -3, -1),
    (-2, Fraction(-4), -3, -1),
    (-2, -4, False, -1),
])
def test_non_integer_parameters_rejected(a, b, c, z):
    """Only ints (not bools) as a, b, c and exact rationals as z reach the
    series, so no float can leak into a value."""
    with pytest.raises(TypeError):
        Hyp2F1Spec(a, b, c, z)


def test_non_integer_parameter_messages():
    """The TypeError names the first bad parameter and the type it got."""
    for args, error in (
        ((-2.0, -4, -3, -1), "a must be an int, got float"),
        ((-2, Fraction(-4), -3, -1), "b must be an int, got Fraction"),
        ((-2, -4, False, -1), "c must be an int, got bool"),
        ((-1, -2, -1, 0.5), "z must be an exact rational, got float"),
    ):
        with pytest.raises(TypeError, match=f"^{error}$"):
            Hyp2F1Spec(*args)


def test_matches_pochhammer_in_map_count_regime():
    """The parameters map_summand uses: a = -j, b = -nu j, c = 2-2g-l-j,
    z = 1/(1-nu), for every l < 3g."""
    for nu in range(2, 5):
        z = Fraction(1, 1 - nu)
        for g in range(1, 4):
            for l in range(3 * g):
                for j in range(1, 26):
                    a, b, c = -j, -nu * j, 2 - 2 * g - l - j
                    assert hyp2f1_terminating(Hyp2F1Spec(a, b, c, z)) == \
                        hyp2f1_by_pochhammer(a, b, c, z), (nu, g, l, j)


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
    assert hyp2f1_terminating(Hyp2F1Spec(a, b, c, z)) == hyp2f1_terminating(
        Hyp2F1Spec(b, a, c, z)
    )


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
    """The unreduced (num, den) pair is the series' value over any valid
    terminating spec: K = 0, positive c, z = p/q with q > 1 and p < 0."""
    try:
        spec = Hyp2F1Spec(a, b, c, z)
    except DenominatorPochhammerZero:
        assume(False)
    num, den = _series(a, b, c, z, spec.termination_index)
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
    """Denominator-1 assertion never fires across the sweep domain,
    and the parameter family never trips the Pochhammer guard."""
    for j in range(1, 21):
        for n in range(1, 51):
            assert isinstance(lhs_direct(n, j), int)


@pytest.mark.parametrize("j", [250, 299, 300])
def test_lhs_direct_run_matches_definition_at_large_j(j):
    """Where the series is longest, up to MAX_J: at N = 1, 2 and j+1, each
    alone and as one run, whose single spec check covers every N."""
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


def test_n0_parameters_hit_pochhammer_guard():
    """At N = 0 the denominator parameter lands inside the vanishing window."""
    for j in (1, 2, 5):
        with pytest.raises(DenominatorPochhammerZero):
            Hyp2F1Spec(-j, -2 * j, -j + 1, -1)
