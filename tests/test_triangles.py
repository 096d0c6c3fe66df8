import json
import re
import threading
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypident import factorial_basis, triangles
from hypident.cli import MAX_J
from hypident.exact_arith import double_factorial_odd, factorial, pow2
from hypident.factorial_basis import _LahTable, _RecurrenceTable, _StirlingTable, poly_eval
from hypident.hypergeom import lhs_direct
from hypident.identity import rhs_direct
from hypident.triangles import (
    IndexOutOfTriangle,
    Triangle,
    c_entry,
    export_csv,
    export_json,
    l_entry_closed,
    l_entry_recurrence,
    l_poly,
    l_poly_from_series,
    r_entry,
    r_entry_closed,
    r_poly,
    triangle_row,
    vanishing_sum,
)

from oracles import (
    c_entry_by_expansion, l_entry_by_binomial_sum, r_row_by_stirling_sum,
    taylor_shift_by_binomial_sum,
)


def test_c_entry_values():
    assert (c_entry(0, 1), c_entry(1, 1)) == (1, 1)
    assert [c_entry(k, 2) for k in range(3)] == [3, 4, 1]  # (1+x)(3+x)
    assert c_entry(0, 3) == 15


def test_c_recurrence_matches_product_expansion():
    for j in range(1, 31):
        for k in range(j + 1):
            assert c_entry(k, j) == c_entry_by_expansion(k, j), (k, j)


def test_r_entry_values():
    assert (r_entry(0, 1), r_entry(1, 1)) == (2, 1)
    assert r_entry(0, 2) == 12
    assert r_entry(1, 2) == 10  # 2*(2+1+1)*1 + 2


def test_r_entry_closed_values():
    assert r_entry_closed(1, 1) == 1
    assert r_entry_closed(1, 2) == 10  # 2*(4*1 + 1*1)
    assert r_entry_closed(2, 2) == 1


def test_l_entry_closed_values():
    assert l_entry_closed(0, 2) == 12  # (2j)!/j!
    assert l_entry_closed(1, 2) == 10  # 2*(C(4,3) + C(4,4))
    assert l_entry_closed(2, 2) == 1


def test_l_closed_rows_match_binomial_sum():
    # Rows 1..60, and the Taylor shift's longest passes: past 1000 bits
    # (j = 149, 150) and at the CLI's bound on j.
    for j in [*range(1, 61), 149, 150, MAX_J]:
        row = triangle_row("L", j)
        assert row == tuple(l_entry_by_binomial_sum(i, j) for i in range(j + 1)), j


def test_l_closed_rows_equal_r_rows_beyond_1000_bits():
    for j in range(1, 151):
        assert triangle_row("L", j) == triangle_row("R", j), j
    assert max(triangle_row("L", 150)).bit_length() > 1000


def test_r_closed_rows_match_stirling_sum():
    for j in range(1, 61):
        row = tuple(r_entry_closed(i, j) for i in range(j + 1))
        assert row == r_row_by_stirling_sum(j), j


def _names_read(fn) -> set[str]:
    """Every global and attribute name fn's code reads, nested code included."""
    names, stack = set(), [getattr(fn, "__wrapped__", fn).__code__]
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


def test_closed_form_and_series_routes_read_no_other_route():
    """The R closed form reads no R recurrence row, and the L series no L
    closed-form or L recurrence row: each route is built on its own."""
    r_closed = _names_read(triangles.r_entry_closed) | _names_read(triangles._r_closed_row)
    assert not r_closed & {"_R", "r_entry", "r_poly", "triangle_row"}
    l_series = _names_read(triangles.l_poly_from_series)
    assert not l_series & {
        "_l_closed_row", "_L_REC", "l_entry_closed", "l_entry_recurrence", "l_poly",
        "triangle_row",
    }


def test_vanishing_sums_read_no_triangle_route():
    """The vanishing sums are built from their own binomials: they read no
    row of the L closed form, the L recurrence or the R recurrence."""
    names = _names_read(triangles.vanishing_sum) | _names_read(triangles._vanishing_row)
    assert not names & {
        "_l_closed_row", "_r_closed_row", "_R", "_L_REC", "_C", "triangle_row",
        "l_entry_closed", "l_entry_recurrence", "r_entry", "r_entry_closed",
    }


@given(st.lists(st.integers(-(10**40), 10**40), max_size=40))
def test_taylor_shift_matches_binomial_sum(v):
    """The shift helper, given v highest index first, gives
    sum_k v_k C(k-1, m) for every m, negative entries included."""
    assert triangles._taylor_shift(v[::-1]) == taylor_shift_by_binomial_sum(v)


def test_l_entry_recurrence_values():
    assert l_entry_recurrence(1, 1) == 1
    assert l_entry_recurrence(1, 2) == 10  # 8*L(1,1) + L(0,1)
    assert l_entry_recurrence(0, 3) == 120  # 6!/3!


def test_all_four_routes_agree():
    """R recurrence, R closed form, L closed form and L recurrence give one
    table (the acceptance suite pushes this to j = 60)."""
    for j in range(1, 26):
        for i in range(j + 1):
            v = r_entry(i, j)
            assert v == r_entry_closed(i, j) == l_entry_closed(i, j) == l_entry_recurrence(i, j), (i, j)


def test_marginals():
    for j in range(1, 20):
        assert r_entry(0, j) == pow2(j) * double_factorial_odd(j)
        assert c_entry(0, j) == double_factorial_odd(j)
        assert l_entry_closed(0, j) == factorial(2 * j) // factorial(j)
        assert r_entry(j, j) == c_entry(j, j) == l_entry_closed(j, j) == 1


def test_entries_strictly_positive():
    for j in range(1, 31):
        for i in range(j + 1):
            assert c_entry(i, j) > 0
            assert r_entry(i, j) > 0
            assert l_entry_closed(i, j) > 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: c_entry(2, 1),
        lambda: c_entry(0, 0),
        lambda: r_entry(-1, 3),
        lambda: r_entry_closed(4, 3),
        lambda: l_entry_closed(1, 0),
        lambda: l_entry_recurrence(5, 2),
        lambda: vanishing_sum(0, 5),
        lambda: vanishing_sum(3, 2),
    ],
)
def test_out_of_triangle_rejected(call):
    with pytest.raises(IndexOutOfTriangle):
        call()


# -- polynomials ---------------------------------------------------------

def test_r_poly_coefficients():
    assert r_poly(1).coeffs == (2, 1)
    assert r_poly(2).coeffs == (12, 10, 1)


def test_l_poly_coefficients():
    assert l_poly(2).coeffs == (12, 10, 1)
    assert l_poly(2) == r_poly(2)


def test_l_poly_from_series_values():
    assert l_poly_from_series(1).coeffs == (2, 1)
    assert l_poly_from_series(2).coeffs == (12, 10, 1)
    assert poly_eval(l_poly_from_series(2), 1) == 22
    assert poly_eval(l_poly_from_series(2), 1) == lhs_direct(1, 2) // 2


def test_l_poly_from_series_matches_closed_form():
    for j in range(1, 31):
        assert l_poly_from_series(j) == l_poly(j), j


def test_r_poly_reproduces_binomial_sum():
    # 2^N * R_j(N) equals the brute-force binomial-product sum
    for j in range(1, 16):
        p = r_poly(j)
        for n in range(1, 31):
            assert pow2(n) * poly_eval(p, n) == rhs_direct(n, j), (n, j)


# -- the telescoping zero sum ---------------------------------------------

def test_vanishing_sum_examples():
    assert vanishing_sum(2, 2) == 0  # -4 + 4
    assert vanishing_sum(1, 3) == 0
    assert vanishing_sum(3, 5) == 0


def test_vanishing_sum_is_zero_everywhere():
    for j in range(1, 21):
        for i in range(1, j + 1):
            assert vanishing_sum(i, j) == 0, (i, j)


@pytest.mark.parametrize("i, j", [(0, 5), (3, 2), (1, 0), (0, 0), (-1, 3), (2, -1)])
def test_bad_vanishing_index_builds_no_row(i, j):
    """A bad (i, j) is rejected before any level is built or read."""
    assert vanishing_sum(2, 4) == 0
    before = triangles._vanishing_row.cache_info()
    message = re.escape(f"vanishing_sum({i}, {j}): need 1 <= i <= j")
    with pytest.raises(IndexOutOfTriangle, match=f"^{message}$"):
        vanishing_sum(i, j)
    assert triangles._vanishing_row.cache_info() == before


def test_routes_agree_and_sums_vanish_up_to_the_cli_bound():
    """The five routes give one row at level MAX_J, and every vanishing sum
    with 1 <= i <= j <= MAX_J is 0 (the tests above stop at j = 60 and 20)."""
    j = MAX_J
    row = triangle_row("R", j)
    assert row == triangle_row("L", j)
    assert row == tuple(l_entry_recurrence(i, j) for i in range(j + 1))
    assert row == tuple(r_entry_closed(i, j) for i in range(j + 1))
    assert row == l_poly_from_series(j).coeffs
    for j in range(1, MAX_J + 1):
        assert [i for i in range(1, j + 1) if vanishing_sum(i, j) != 0] == [], j


# -- exports ---------------------------------------------------------------

def test_export_csv():
    assert export_csv("R", 2) == "2,1\n12,10,1\n"
    assert export_csv("C", 1) == "1,1\n"
    assert export_csv("L", 2) == export_csv("R", 2)


def test_export_json():
    doc = json.loads(export_json("R", 3))
    assert doc["kind"] == "R"
    assert doc["max_level"] == 3
    assert doc["rows"][0] == ["2", "1"]
    assert doc["rows"][2] == ["120", "132", "24", "1"]
    assert all(isinstance(v, str) and v.isdigit() for row in doc["rows"] for v in row)


@pytest.mark.parametrize("kind", ["C", "R", "L"])
@pytest.mark.parametrize("j_max", [1, 2, 40])
def test_export_json_matches_json_dumps(kind, j_max):
    rows = [[str(v) for v in triangle_row(kind, j)] for j in range(1, j_max + 1)]
    doc = {"kind": kind, "max_level": j_max, "rows": rows}
    assert export_json(kind, j_max) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("export", [export_csv, export_json])
def test_export_rejects_unknown_kind_and_bad_level(export):
    """An export checks its kind and j_max as triangle_row checks a row."""
    with pytest.raises(ValueError, match="^unknown triangle kind 'X'; expected C, R or L$"):
        export("X", 0)
    with pytest.raises(ValueError, match="^unknown triangle kind 'X'; expected C, R or L$"):
        export("X", 3)
    for kind in ("C", "R", "L"):
        for j_max in (0, -3):
            with pytest.raises(IndexOutOfTriangle, match=rf"^{kind}\(0, {j_max}\): "):
                export(kind, j_max)


def test_triangle_row_kinds():
    assert triangle_row("C", 2) == (3, 4, 1)
    with pytest.raises(ValueError):
        triangle_row("Q", 2)
    with pytest.raises(IndexOutOfTriangle):
        triangle_row("R", 0)
    for kind in ("C", "R", "L"):
        with pytest.raises(IndexOutOfTriangle):
            triangle_row(kind, -1)
    # a rejected L row must not have been cached as an empty row
    with pytest.raises(IndexOutOfTriangle):
        triangle_row("L", -1)


# -- concurrency contract ---------------------------------------------------

def _fresh_r():
    return Triangle(
        "R",
        lambda j: pow2(j) * double_factorial_odd(j),
        lambda j, i: 2 * (2 * j + i + 1),
    )


def _fresh_stirling():
    return _StirlingTable(lambda k: 0, lambda k, i: i)


def _fresh_lah():
    return _LahTable(lambda k: 0, lambda k, i: k + i)


def _triangle_entries(table, j):
    return tuple(table.entry(i, j) for i in range(j + 1))


@pytest.mark.parametrize("fresh_table, serial, read", [
    (_fresh_r, triangles._R, _triangle_entries),
    (_fresh_stirling, factorial_basis._STIRLING, _StirlingTable.row),
    (_fresh_lah, factorial_basis._LAH, _LahTable.row),
], ids=["Triangle", "_StirlingTable", "_LahTable"])
def test_concurrent_growth_is_consistent(fresh_table, serial, read):
    """Readers racing to grow a fresh table all observe the same rows that
    the package's own table of that recurrence, grown serially, holds."""
    fresh = fresh_table()
    results: dict[int, tuple] = {}
    errors: list[BaseException] = []

    def reader(tid: int) -> None:
        try:
            results[tid] = read(fresh, 80 + tid)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(t,)) for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()

    assert not errors
    assert sorted(results) == list(range(8))
    for tid, values in results.items():
        assert values == read(serial, 80 + tid)


def test_recurrence_tables_are_siblings():
    """perfbench wraps Triangle._grow_to and _StirlingTable._grow_to by
    class, so a table that subclassed another would have its rows counted
    as the other's."""
    tables = (_LahTable, _StirlingTable, Triangle)
    for table in tables:
        assert issubclass(table, _RecurrenceTable)
        for other in tables:
            assert table is other or not issubclass(table, other), (table, other)
