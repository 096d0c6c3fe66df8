import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hypident import hypergeom, identity
from hypident.exact_arith import binomial, factorial, pow2
from hypident.factorial_basis import FallingPoly, falling
from hypident.hypergeom import lhs_direct, lhs_direct_run
from hypident.identity import (
    CellReport,
    CoefficientLengthMismatch,
    IdentityPoint,
    MapCountSpec,
    VerifyReport,
    binomial_falling_sum,
    check_cell,
    check_identity,
    lhs_fast,
    map_count,
    map_summand,
    mapcount_spec_from_file,
    mapcount_spec_from_obj,
    rhs_direct,
    rhs_direct_run,
    rhs_fast,
    summand_equivalence,
)

from oracles import lhs_by_definition, rhs_by_definition


def test_rhs_direct_values():
    assert rhs_direct(1, 1) == 6  # 2 + 4
    assert rhs_direct(2, 1) == 16  # 2 + 8 + 6
    assert rhs_direct(1, 2) == 44  # 12 + 32


def test_rhs_direct_matches_definition():
    for j in range(31):
        for n in range(1, 61):
            assert rhs_direct(n, j) == rhs_by_definition(n, j), (n, j)


@given(j=st.integers(0, 30), a=st.integers(1, 80), width=st.integers(0, 79))
@example(j=0, a=1, width=0)
@example(j=30, a=80, width=0)
@example(j=7, a=37, width=43)
@example(j=30, a=1, width=79)
def test_direct_runs_match_definitions(j, a, width):
    """Each brute-force run equals its side's definition at every N of the
    run, wherever the run starts and whatever its length."""
    b = min(a + width, 80)
    assert rhs_direct_run(j, a, b) == [rhs_by_definition(N, j) for N in range(a, b + 1)]
    assert lhs_direct_run(j, a, b) == [lhs_by_definition(N, j) for N in range(a, b + 1)]


@pytest.mark.parametrize("j", [0, 1, 7, 30])
@pytest.mark.parametrize("width", [0, 1, 50])
@pytest.mark.parametrize("a", [1, 37, 500])
def test_rhs_walk_regimes(a, width, j):
    """rhs_direct_run's Pascal walk: seeded with every term at a start of
    1, 37 or 500, then 0, 1 or 50 passes of additions."""
    b = a + width
    assert rhs_direct_run(j, a, b) == [rhs_by_definition(N, j) for N in range(a, b + 1)]


@pytest.mark.parametrize("run", [lhs_direct_run, rhs_direct_run], ids=lambda f: f.__name__)
def test_direct_runs_check_their_domain(run):
    """A run checks j, then the types of its bounds, then N >= 1 at its
    start; an empty run gives []."""
    assert run(3, 5, 4) == [] and run(0, -2, -3) == []
    with pytest.raises(ValueError, match="^j = -1 must be >= 0$"):
        run(-1, 0, 3)
    with pytest.raises(TypeError, match="^N must be an int, got float$"):
        run(1, 1.0, 3)
    with pytest.raises(TypeError, match="^N must be an int, got bool$"):
        run(1, 1, True)
    with pytest.raises(ValueError, match="^N = 0 is outside"):
        run(2, 0, 3)
    assert run(2, 1, 1) == [44]


def test_brute_force_routes_read_no_polynomial_route():
    """The brute-force routes and the hypergeom module reach no
    falling-basis polynomial or triangle, so they stay independent of the
    fast ones."""
    polynomial_names = {"poly_eval", "poly_values", "r_poly", "l_poly", "triangle_row",
                        "binomial_falling_sum", "falling", "_fast_values"}
    for route in (rhs_direct, rhs_direct_run, lhs_direct, lhs_direct_run):
        assert polynomial_names.isdisjoint(route.__code__.co_names), route.__name__
    assert polynomial_names.isdisjoint(vars(hypergeom))


def test_direct_mode_names_the_first_non_integral_point(monkeypatch):
    """A series whose product is not an integer is an ArithmeticError at
    the first N of the run, not a report."""
    original = hypergeom._series

    def plus_1_over_7919(*args):
        num, den = original(*args)
        return 7919 * num + den, 7919 * den

    monkeypatch.setattr(hypergeom, "_series", plus_1_over_7919)
    with pytest.raises(ArithmeticError, match=r"^lhs_direct\(N=3, j=2\) is not an integer: "):
        check_cell(2, 3, 7, "direct")


def test_j0_extension_collapses_to_power_of_two():
    for n in (1, 5, 9):
        assert rhs_direct(n, 0) == pow2(n)
        assert rhs_fast(n, 0) == pow2(n)
        assert lhs_fast(n, 0) == pow2(n)
        assert lhs_direct(n, 0) == pow2(n)


def test_n0_rejected_everywhere():
    for fn in (lhs_direct, rhs_direct, rhs_fast, lhs_fast):
        with pytest.raises(ValueError, match="N = 0"):
            fn(0, 3)
        with pytest.raises(ValueError, match="j = -1"):
            fn(2, -1)
    with pytest.raises(ValueError):
        IdentityPoint(0, 3)
    with pytest.raises(ValueError):
        IdentityPoint(2, -1)


@pytest.mark.parametrize("N, j", [(3, 1.0), (2.0, 1), (True, 2), (2, True)])
@pytest.mark.parametrize(
    "route", [IdentityPoint, lhs_direct, rhs_direct, lhs_fast, rhs_fast],
    ids=lambda route: route.__name__,
)
def test_non_integer_points_rejected_everywhere(route, N, j):
    with pytest.raises(TypeError, match="must be an int"):
        route(N, j)


def test_fast_routes_match_brute_force():
    for j in range(1, 11):
        for n in range(1, 21):
            assert rhs_fast(n, j) == rhs_direct(n, j), (n, j)
            assert lhs_fast(n, j) == lhs_direct(n, j), (n, j)


def test_frozen_large_point():
    # value computed once with the brute-force routes and pinned
    assert rhs_direct(30, 3) == 52956946759680
    assert rhs_fast(30, 3) == 52956946759680


def test_rhs_divisible_by_power_of_two():
    # every product term carries one factor 2 per i
    for j in range(16):
        for n in range(1, 31):
            assert rhs_direct(n, j) % pow2(j) == 0, (n, j)


def test_binomial_falling_sum_values():
    assert binomial_falling_sum(3, 1) == 12  # 0 + 3 + 6 + 3
    assert binomial_falling_sum(4, 0) == 16
    assert binomial_falling_sum(2, 2) == 2  # only l = 2 contributes


def test_binomial_falling_sum_matches_direct_summation():
    for n in range(1, 31):
        for i in range(n + 1):
            direct = sum(binomial(n, l) * falling(l, i) for l in range(n + 1))
            assert binomial_falling_sum(n, i) == direct == pow2(n - i) * falling(n, i)


def test_binomial_falling_sum_domain():
    with pytest.raises(ValueError):
        binomial_falling_sum(0, 0)
    with pytest.raises(ValueError):
        binomial_falling_sum(3, 4)
    with pytest.raises(ValueError):
        binomial_falling_sum(3, -1)


# -- check_identity ----------------------------------------------------------

def test_check_identity_direct():
    report = check_identity(IdentityPoint(1, 1), "direct")
    assert report.equal and report.lhs == report.rhs == 6
    assert report == (IdentityPoint(1, 1), 6, 6, True)


@pytest.mark.parametrize("mode", ["direct", "fast", "cross"])
def test_repeated_checks_give_equal_reports(mode):
    """A report holds no clock reading: checking a point or a run again
    gives equal reports or cells, and so does a pickle round trip."""
    assert VerifyReport._fields == ("point", "lhs", "rhs", "equal")
    point = IdentityPoint(9, 4)
    first, again = (check_identity(point, mode) for _ in range(2))
    assert first == again and hash(first) == hash(again)
    assert pickle.loads(pickle.dumps(first)) == first
    cell = check_cell(4, 1, 12, mode)
    assert cell == check_cell(4, 1, 12, mode)
    assert pickle.loads(pickle.dumps(cell)) == cell
    assert (point, cell.lhs[8], cell.rhs[8], cell.equal[8]) == first


def test_check_identity_cross():
    report = check_identity(IdentityPoint(2, 1), "cross")
    assert report.equal and report.lhs == report.rhs == 16
    report = check_identity(IdentityPoint(7, 3), "cross")
    assert report.equal and report.lhs == 289536


def test_check_identity_default_is_fast():
    report = check_identity(IdentityPoint(1, 2))
    assert report.equal and report.lhs == 44


def test_check_identity_unknown_mode():
    with pytest.raises(ValueError):
        check_identity(IdentityPoint(1, 1), "slow")


@pytest.mark.parametrize("mode", ["direct", "fast", "cross"])
@pytest.mark.parametrize("j, error, message", [
    (-1, ValueError, "j = -1 must be >= 0"),
    (2.0, TypeError, "j must be an int, got float"),
    (True, TypeError, "j must be an int, got bool"),
])
@pytest.mark.parametrize("n_min, n_max", [(5, 4), (1, 3)], ids=["empty", "nonempty"])
def test_check_cell_checks_j_in_every_mode(mode, j, error, message, n_min, n_max):
    """A bad j is the same error in every mode, even when the N run is empty."""
    with pytest.raises(error, match=f"^{message}$"):
        check_cell(j, n_min, n_max, mode)


@pytest.mark.parametrize("mode", ["direct", "fast", "cross"])
@pytest.mark.parametrize("n_min, n_max, message", [
    (True, 2, "N must be an int, got bool"),
    (1.0, 3, "N must be an int, got float"),
    (1, 3.0, "N must be an int, got float"),
    (5, 4.0, "N must be an int, got float"),
])
def test_check_cell_checks_n_types_as_identity_point(mode, n_min, n_max, message):
    """n_min and n_max get IdentityPoint's type check, after the j check,
    even when the run is empty."""
    with pytest.raises(TypeError, match=f"^{message}$"):
        check_cell(1, n_min, n_max, mode)
    with pytest.raises(ValueError, match="^j = -1 must be >= 0$"):
        check_cell(-1, n_min, n_max, mode)
    if n_min is True:
        with pytest.raises(TypeError, match=f"^{message}$"):
            IdentityPoint(True, 1)


@pytest.mark.parametrize("mode", ["direct", "fast", "cross"])
def test_check_cell_empty_run(mode):
    """An empty run of N is a CellReport with empty columns."""
    for j, n_min, n_max in ((1, 5, 4), (0, 2, 1)):
        cell = check_cell(j, n_min, n_max, mode)
        assert type(cell) is CellReport and cell == (j, n_min, [], [], [])


@pytest.mark.parametrize("mode", ["direct", "fast", "cross"])
@pytest.mark.parametrize("j, n_min, n_max", [(0, 1, 6), (3, 1, 9), (5, 37, 45)])
def test_check_cell_columns_are_check_identity_per_point(mode, j, n_min, n_max):
    """A cell holds one entry per N in each column, in N order, and each
    entry is what check_identity reports at that point, from N = 1 and
    from an offset alike."""
    cell = check_cell(j, n_min, n_max, mode)
    assert (cell.j, cell.n_min) == (j, n_min)
    assert len(cell.lhs) == len(cell.rhs) == len(cell.equal) == n_max - n_min + 1
    assert list(zip(cell.lhs, cell.rhs, cell.equal)) == [
        check_identity(IdentityPoint(N, j), mode)[1:] for N in range(n_min, n_max + 1)
    ]


@pytest.mark.parametrize("mode", ["direct", "fast", "cross"])
@pytest.mark.parametrize("j, n_min, n_max", [(0, 1, 6), (3, 1, 9), (5, 37, 45)])
def test_check_identity_reports_identity_points(mode, j, n_min, n_max):
    """Each report's point is the IdentityPoint (N, j) it checked, at N = 1
    and at an offset alike; a plain tuple would compare equal, so the type
    is checked too."""
    points = [check_identity(IdentityPoint(N, j), mode).point for N in range(n_min, n_max + 1)]
    assert points == [IdentityPoint(N, j) for N in range(n_min, n_max + 1)]
    assert all(type(point) is IdentityPoint for point in points)


def test_check_cell_shares_rhs_only_between_equal_rows(monkeypatch):
    """rhs is lhs, one list, exactly when the fast mode's L and R rows are
    equal; the brute-force routes never share, and unequal rows are two
    lists compared point by point."""
    for j in (0, 1, 4, 9):
        cell = check_cell(j, 1, 12, "fast")
        assert cell.rhs is cell.lhs and cell.equal == [True] * 12
        for mode in ("direct", "cross"):
            cell = check_cell(j, 1, 12, mode)
            assert cell.rhs is not cell.lhs and cell.rhs == cell.lhs
    right = identity.r_poly

    def wrong(j):
        *rest, top = right(j).coeffs
        return FallingPoly((*rest, top + 1))

    monkeypatch.setattr(identity, "r_poly", wrong)
    cell = check_cell(4, 1, 12, "fast")
    assert cell.rhs is not cell.lhs
    # the wrong top coefficient is multiplied by (N)_4, zero below N = 4
    assert cell.equal == [N < 4 for N in range(1, 13)]


MODE_ROUTES = {
    "direct": {"lhs_direct", "rhs_direct"},
    "fast": {"lhs_fast", "rhs_fast"},
    "cross": {"lhs_direct", "lhs_fast", "rhs_fast", "rhs_direct"},
}


@pytest.mark.parametrize("route", ["lhs_direct", "rhs_direct", "lhs_fast", "rhs_fast"])
def test_every_mode_catches_one_wrong_route(monkeypatch, route):
    """A wrong brute-force route is off by one at every point; a wrong fast
    route has its row's constant coefficient off by one, which moves its
    value at every N. Checked at one point and over a run of N."""
    if route.endswith("_direct"):
        right = getattr(identity, route + "_run")
        monkeypatch.setattr(identity, route + "_run",
                            lambda j, lo, hi: [v + 1 for v in right(j, lo, hi)])
    else:
        row = {"lhs_fast": "l_poly", "rhs_fast": "r_poly"}[route]
        right_row = getattr(identity, row)

        def wrong(j):
            c0, *rest = right_row(j).coeffs
            return FallingPoly((c0 + 1, *rest))

        monkeypatch.setattr(identity, row, wrong)
    for mode, routes in MODE_ROUTES.items():
        at_point = check_identity(IdentityPoint(5, 3), mode).equal
        over_run = check_cell(3, 1, 12, mode).equal
        assert [at_point, *over_run] == [route not in routes] * 13, mode


def test_report_equal_mirrors_values():
    for point in (IdentityPoint(3, 2), IdentityPoint(10, 4), IdentityPoint(1, 0)):
        for mode in ("direct", "fast", "cross"):
            report = check_identity(point, mode)
            assert isinstance(report, VerifyReport)
            assert report.equal == (report.lhs == report.rhs)
            assert report.equal


# -- map counts --------------------------------------------------------------

def test_map_summand_values():
    assert map_summand(1, 0, 1, 2) == 3
    assert map_summand(1, 1, 1, 2) == 4
    assert map_summand(1, 0, 2, 2) == 11
    assert map_summand(1, 1, 2, 2) == 17


def test_map_summand_ties_to_lhs():
    # with N = 2g-1+l and nu = 2 the summand is lhs_direct(N, j)/(j! 2^N)
    for g in (1, 2):
        for l in range(3 * g):
            for j in (1, 2, 3):
                n = 2 * g - 1 + l
                expected = Fraction(lhs_direct(n, j), factorial(j) * pow2(n))
                assert map_summand(g, l, j, 2) == expected


def test_map_summand_domain():
    with pytest.raises(ValueError):
        map_summand(0, 0, 1, 2)
    with pytest.raises(ValueError):
        map_summand(1, 3, 1, 2)  # l > 3g-1
    with pytest.raises(ValueError):
        map_summand(1, 0, 0, 2)
    with pytest.raises(ValueError):
        map_summand(1, 0, 1, 1)


@pytest.mark.parametrize("route, args, error", [
    (summand_equivalence, (True, 0, 1), "g must be an int, got bool"),
    (summand_equivalence, (1, Fraction(0), 1), "l must be an int, got Fraction"),
    (summand_equivalence, (1, 0, 1.0), "j must be an int, got float"),
    (map_summand, (1.0, 0, 1, 2), "g must be an int, got float"),
    (map_summand, (1, False, 1, 2), "l must be an int, got bool"),
    (map_summand, (1, 0, True, 2), "j must be an int, got bool"),
    (map_summand, (1, 0, 1, 2.0), "nu must be an int, got float"),
    (map_summand, (1, 0, 1, True), "nu must be an int, got bool"),
    (summand_equivalence, (1.0, 0, 1), "g must be an int, got float"),
    (summand_equivalence, (1, True, 1), "l must be an int, got bool"),
    (summand_equivalence, (1, 0, False), "j must be an int, got bool"),
    (summand_equivalence, (1, 0, "1"), "j must be an int, got str"),
    (summand_equivalence, (1, 0, Fraction(1)), "j must be an int, got Fraction"),
    (summand_equivalence, (0.0, 0, 1), "g must be an int, got float"),  # before g >= 1
    (map_summand, (Fraction(1), 0, 1, 2), "g must be an int, got Fraction"),
    (map_summand, (1, 0.0, 1, 2), "l must be an int, got float"),
    (map_summand, (1, 3.0, 1, 2), "l must be an int, got float"),  # before l < 3g
    (map_summand, (1, 0, "1", 2), "j must be an int, got str"),
    (map_summand, (1, 0, 1, None), "nu must be an int, got NoneType"),
    (map_summand, (1, 0, 1, Fraction(2)), "nu must be an int, got Fraction"),
    (map_summand, (True, 0, 1, 1.0), "g must be an int, got bool"),  # first bad one
])
def test_non_integer_summand_arguments_rejected(route, args, error):
    """A bool or a float is a TypeError before any arithmetic: a bool would
    count as 0 or 1, and a float j would reach math.factorial."""
    with pytest.raises(TypeError, match=f"^{error}$"):
        route(*args)


def test_summand_equivalence_examples():
    assert summand_equivalence(1, 0, 1)  # 1*3*2 == rhs_direct(1,1)
    assert summand_equivalence(1, 1, 1)  # 1*4*4 == rhs_direct(2,1)
    assert summand_equivalence(1, 2, 3)


def test_summand_equivalence_small_sweep():
    for g in (1, 2):
        for l in range(3 * g):
            for j in range(1, 6):
                assert summand_equivalence(g, l, j), (g, l, j)


def test_map_count_stub_values():
    assert map_count(MapCountSpec(2, 1, 1, (1, 0, 0))) == 36
    assert map_count(MapCountSpec(2, 1, 5, (0, 0, 0))) == 0
    assert map_count(MapCountSpec(2, 1, 2, (0, 1, 0))) == 2 * 144 * 17


def test_map_count_linear_in_weights():
    rng = random.Random(20240811)

    def rand_weights():
        return tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)
        )

    u, v = rand_weights(), rand_weights()
    w = tuple(a + b for a, b in zip(u, v))
    total = map_count(MapCountSpec(3, 2, 2, u)) + map_count(MapCountSpec(3, 2, 2, v))
    assert map_count(MapCountSpec(3, 2, 2, w)) == total


def test_map_count_spec_validation():
    with pytest.raises(CoefficientLengthMismatch):
        MapCountSpec(2, 1, 1, (1, 0))
    with pytest.raises(ValueError):
        MapCountSpec(1, 1, 1, (1, 0, 0))
    with pytest.raises(ValueError):
        MapCountSpec(2, 0, 1, ())
    with pytest.raises(ValueError):
        MapCountSpec(2, 1, 0, (1, 0, 0))
    with pytest.raises(ValueError, match=r"a\[0\]: expected a rational"):
        MapCountSpec(2, 1, 1, (0.1, 0, 0))
    with pytest.raises(ValueError, match=r"a\[1\]: booleans are not rationals"):
        MapCountSpec(2, 1, 1, (0, True, 0))
    with pytest.raises(TypeError, match="^nu must be an int, got float$"):
        MapCountSpec(2.0, 1, 1, (1, 0, 0))
    spec = MapCountSpec(2, 1, 1, (Fraction(1, 2), "-3/4", 5))
    assert spec.a == (Fraction(1, 2), Fraction(-3, 4), Fraction(5))
    spec = MapCountSpec(2, 1, 1, ("-12", "3/4", "0.25"))
    assert spec.a == (Fraction(-12), Fraction(3, 4), Fraction(1, 4))


@pytest.mark.parametrize("a, name", [
    ("103", "str"), (b"103", "bytes"), ({1: 0, 0: 0, 3: 0}, "dict"), ({1, 0, 3}, "set"),
    (5, "int"),
], ids=["str", "bytes", "dict", "set", "int"])
def test_spec_rejects_weights_that_are_not_a_list_or_tuple(a, name):
    """A string is not split into digit weights, nor bytes into byte
    values, a dict into its keys or a set into its elements in any order;
    a scalar is a ValueError naming the field, as every other fault is."""
    with pytest.raises(ValueError, match=f"^'a' must be a list or tuple of weights, got {name}$"):
        MapCountSpec(2, 1, 1, a)


@pytest.mark.parametrize("weight", ["1e1000000", "2E3", "1.5e-2", "-3/4e2"])
def test_spec_rejects_exponent_notation(weight):
    """A weight in exponent notation is refused before Fraction expands it
    into as many digits as its exponent asks for."""
    with pytest.raises(ValueError, match=r"^a\[1\]: exponent notation"):
        MapCountSpec(2, 1, 1, ("1", weight, "0"))


@pytest.mark.parametrize("weight", ["1_000", "1_0/3", "0.2_5"])
def test_spec_rejects_digit_separators(weight):
    """Fraction reads "1_000" from Python 3.11 on and rejects it before, so
    a weight with "_" is refused on every version."""
    with pytest.raises(ValueError, match=r"^a\[2\]: digit separators are not accepted$"):
        MapCountSpec(2, 1, 1, ("1", "0", weight))


NON_ASCII_WEIGHTS = ["\u0661\u0662", "\u0663/\u0664", "\uff11\uff12", "\u00a01"]
NON_ASCII_IDS = ["arabic-indic", "arabic-indic-ratio", "full-width", "no-break-space"]


@pytest.mark.parametrize("weight", NON_ASCII_WEIGHTS, ids=NON_ASCII_IDS)
def test_spec_rejects_non_ascii_weights(weight):
    """Fraction reads any Unicode decimal digit and strips any Unicode
    space, so "\u0661\u0662" would be the weight 12; only ASCII is accepted."""
    with pytest.raises(ValueError, match=r"^a\[0\]: only ASCII characters are accepted$"):
        MapCountSpec(2, 1, 1, (weight, "0", "1"))


def test_spec_accepts_ascii_spaces():
    assert MapCountSpec(2, 1, 1, (" 1", "0 ", " -3/4 ")).a == (1, 0, Fraction(-3, 4))


# -- coefficient files --------------------------------------------------------

def test_spec_from_obj_parses_rationals():
    spec = mapcount_spec_from_obj({"nu": 3, "g": 1, "a": ["1/2", "-3", 4]}, j=2)
    assert spec.a == (Fraction(1, 2), Fraction(-3), Fraction(4))
    assert spec.nu == 3 and spec.g == 1 and spec.j == 2


@pytest.mark.parametrize(
    "obj, error",
    [
        ([], ValueError),  # not an object
        ({"nu": 2, "g": 1}, ValueError),  # missing a
        # nu and g are MapCountSpec's ints: the package's one int check
        ({"nu": "2", "g": 1, "a": ["0", "0", "0"]}, TypeError),
        ({"nu": 2, "g": True, "a": ["0", "0", "0"]}, TypeError),
        ({"nu": 2, "g": 1, "a": "000"}, ValueError),
        ({"nu": 2, "g": 1, "a": ["0", "x", "0"]}, ValueError),
        ({"nu": 2, "g": 1, "a": ["0", "1/0", "0"]}, ValueError),
        ({"nu": 2, "g": 1, "a": ["0", True, "0"]}, ValueError),
        ({"nu": 2, "g": 1, "a": ["0", 0.5, "0"]}, ValueError),
    ],
)
def test_spec_from_obj_rejects_malformed(obj, error):
    with pytest.raises(error):
        mapcount_spec_from_obj(obj, j=1)


def test_spec_from_file(tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text('{"nu": 2, "g": 1, "a": ["1", "0", "0"]}', encoding="utf-8")
    spec = mapcount_spec_from_file(str(path), j=1)
    assert map_count(spec) == 36

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError):
        mapcount_spec_from_file(str(bad), j=1)


@pytest.mark.parametrize("text, exc_type, message", [
    ('{"nu": 2, "g": 1, "a": ["1", "0"]}', CoefficientLengthMismatch,
     "need 3g = 3 coefficients, got 2"),
    ('{"nu": 2, "g": 1, "a": ["1", "0", "1_000"]}', ValueError,
     "a[2]: digit separators are not accepted"),
    ('{"nu": 2, "g": 1}', ValueError, "coefficient file is missing key(s): a"),
    ('{"nu": 2, "g": 1, "a": ["1", "0", "0"], "x": 1, "j": 5}', ValueError,
     "coefficient file has unknown key(s): 'x', 'j'"),
], ids=["length", "separator", "missing-key", "unknown-keys"])
def test_spec_from_file_names_the_file(tmp_path, text, exc_type, message):
    """A value error from the file's contents is prefixed with the path and
    keeps its class."""
    path = tmp_path / "coeffs.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        mapcount_spec_from_file(str(path), j=1)
    assert type(info.value) is exc_type
    assert str(info.value) == f"{path}: {message}"
