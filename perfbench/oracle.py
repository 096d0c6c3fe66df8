"""Independent correctness oracle for the benchmark.

Every expected value here is recomputed from first principles with
``math.comb``, ``math.factorial`` and plain integer or rational arithmetic.
This module never imports ``hypident``, so a defect shared by the program's
own routes cannot hide behind it.

Each ``check_*`` function takes the exact text a command printed and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

CSV_HEADER = "N,j,lhs,rhs,equal,micros"
JSON_ROW_KEYS = {"N", "j", "lhs", "rhs", "equal", "micros"}
MAX_PROBLEMS = 5


def rhs_binomial_sum(N: int, j: int) -> int:
    """sum_{l=0}^{N} C(N, l) prod_{i<j} 2(2i+1+l), term by term.

    With P(l) = (l+1)(l+3)...(l+2j-1), each term is 2^j C(N, l) P(l), and
    P(l) = P(l-2) (l+2j-1) / (l-1) exactly, so a term costs O(1) big-integer
    operations rather than j.
    """
    prods = [math.prod(range(1, 2 * j, 2)), math.prod(range(2, 2 * j + 1, 2))]
    total = 0
    binom = 1
    for l in range(N + 1):
        if l >= 2:
            prods[l % 2] = prods[l % 2] * (l + 2 * j - 1) // (l - 1)
        total += binom * prods[l % 2]
        binom = binom * (N - l) // (l + 1)
    return total << j


def l_rows(j_max: int) -> list[tuple[int, ...]]:
    """Rows 1..j_max of the L triangle by its binomial closed form.

    L(0, j) = (2j)!/j! and L(i, j) = j!/i! sum_{k=i}^{j} C(2j, j+k) C(k-1, i-1).
    The R triangle is the same table, so these rows are the oracle for both.
    """
    rows = []
    for j in range(1, j_max + 1):
        central = [math.comb(2 * j, j + k) for k in range(j + 1)]
        fact_j = math.factorial(j)
        row = [math.factorial(2 * j) // fact_j]
        for i in range(1, j + 1):
            inner = sum(central[k] * math.comb(k - 1, i - 1) for k in range(i, j + 1))
            row.append(fact_j // math.factorial(i) * inner)
        rows.append(tuple(row))
    return rows


def c_rows(j_max: int) -> list[tuple[int, ...]]:
    """Rows 1..j_max of C: the monomial coefficients of prod_{i<j} (2i+1+x)."""
    poly = [1]
    rows = []
    for i in range(j_max):
        a = 2 * i + 1
        poly = [a * poly[0]] + [a * poly[d] + poly[d - 1] for d in range(1, len(poly))] + [1]
        rows.append(tuple(poly))
    return rows


def map_count(nu: int, g: int, j: int, weights: list[Fraction]) -> Fraction:
    """The map-count formula by a direct Pochhammer sum.

    j! [2 nu (nu-1) C(2nu-1, nu-1)]^j sum_l a_l C(2g-2+l+j, j)
        sum_{k=0}^{j} (-j)^(k) (-nu j)^(k) / ((2-2g-l-j)^(k) k!) z^k,
    with z = 1/(1-nu) and x^(k) the rising factorial.
    """
    z = Fraction(1, 1 - nu)
    a, b = -j, -nu * j
    total = Fraction(0)
    for l, weight in enumerate(weights):
        c = 2 - 2 * g - l - j
        poch_a = poch_b = poch_c = fact_k = 1
        series = Fraction(0)
        for k in range(j + 1):
            series += Fraction(poch_a * poch_b, poch_c * fact_k) * z**k
            poch_a *= a + k
            poch_b *= b + k
            poch_c *= c + k
            fact_k *= k + 1
        total += weight * math.comb(2 * g - 2 + l + j, j) * series
    scale = 2 * nu * (nu - 1) * math.comb(2 * nu - 1, nu - 1)
    return math.factorial(j) * scale**j * total


def rows_digest(rows) -> str:
    """SHA-256 of rows of integers, one comma-separated line per row."""
    text = "\n".join(",".join(str(v) for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _is_decimal(text: object) -> bool:
    return isinstance(text, str) and text.isascii() and text.isdigit()


def _grid(j_range: tuple[int, int], n_range: tuple[int, int]) -> list[tuple[int, int]]:
    return [
        (N, j)
        for j in range(j_range[0], j_range[1] + 1)
        for N in range(n_range[0], n_range[1] + 1)
    ]


def _parse_csv_rows(text: str) -> tuple[list[tuple[object, ...]], list[str]]:
    lines = text.split("\n")
    if lines[-1] != "":
        return [], ["report does not end with a newline"]
    if lines[0] != CSV_HEADER:
        return [], [f"bad CSV header {lines[0][:60]!r}"]
    rows = []
    for n, line in enumerate(lines[1:-1], start=2):
        fields = line.split(",")
        if len(fields) != 6 or not (fields[0].isdigit() and fields[1].isdigit()):
            return [], [f"line {n}: malformed row {line[:60]!r}"]
        N, j, lhs, rhs, equal, micros = fields
        equal = {"true": True, "false": False}.get(equal, equal)
        rows.append((int(N), int(j), lhs, rhs, equal, int(micros) if micros.isdigit() else micros))
    return rows, []


def _parse_json_rows(text: str) -> tuple[list[tuple[object, ...]], list[str]]:
    try:
        decoded = json.loads(text)
    except ValueError as exc:
        return [], [f"report is not JSON ({exc})"]
    if not isinstance(decoded, list):
        return [], ["JSON report is not an array"]
    rows = []
    for n, row in enumerate(decoded):
        if not isinstance(row, dict) or set(row) != JSON_ROW_KEYS:
            return [], [f"row {n}: malformed {str(row)[:60]!r}"]
        rows.append((row["N"], row["j"], row["lhs"], row["rhs"], row["equal"], row["micros"]))
    return rows, []


def check_sweep(text: str, fmt: str, j_range, n_range, sample: list[int]) -> list[str]:
    """Check a verify report: one row per grid point in (j, N) order, each
    with equal=true, lhs == rhs and micros 0, and the rows at the indices in
    ``sample`` recomputed by ``rhs_binomial_sum``."""
    rows, problems = (_parse_csv_rows if fmt == "csv" else _parse_json_rows)(text)
    if problems:
        return problems
    grid = _grid(j_range, n_range)
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for a grid of {len(grid)} points"]
    for (N, j, lhs, rhs, equal, micros), point in zip(rows, grid):
        if (N, j) != point:
            problems.append(f"row (N={N}, j={j}) where (N={point[0]}, j={point[1]}) belongs")
        elif not (_is_decimal(lhs) and lhs == rhs and equal is True and micros == 0):
            problems.append(f"row N={N} j={j}: lhs/rhs/equal/micros wrong")
        if len(problems) >= MAX_PROBLEMS:
            break
    if problems:
        return problems
    for index in sample:
        N, j, _, rhs, _, _ = rows[index]
        if int(rhs) != rhs_binomial_sum(N, j):
            problems.append(f"row N={N} j={j}: rhs differs from the binomial sum")
    return problems


def check_table_json(text: str, kind: str, expected: list[tuple[int, ...]]) -> list[str]:
    """Check a ``table KIND --format json`` dump against the expected rows."""
    try:
        decoded = json.loads(text)
    except ValueError as exc:
        return [f"table {kind}: not JSON ({exc})"]
    if not isinstance(decoded, dict) or set(decoded) != {"kind", "max_level", "rows"}:
        return [f"table {kind}: malformed object"]
    if decoded["kind"] != kind or decoded["max_level"] != len(expected):
        return [f"table {kind}: wrong kind or max_level"]
    rows = decoded["rows"]
    if not isinstance(rows, list) or any(not all(map(_is_decimal, row)) for row in rows):
        return [f"table {kind}: entries are not decimal strings"]
    return _compare_rows(kind, [tuple(map(int, row)) for row in rows], expected)


def check_table_csv(text: str, kind: str, expected: list[tuple[int, ...]]) -> list[str]:
    """Check a ``table KIND --format csv`` dump against the expected rows."""
    lines = text.split("\n")
    if lines[-1] != "":
        return [f"table {kind}: does not end with a newline"]
    fields = [line.split(",") for line in lines[:-1]]
    if any(not all(map(_is_decimal, row)) for row in fields):
        return [f"table {kind}: entries are not decimal integers"]
    return _compare_rows(kind, [tuple(map(int, row)) for row in fields], expected)


def _compare_rows(kind: str, rows: list[tuple[int, ...]], expected) -> list[str]:
    if len(rows) != len(expected):
        return [f"table {kind}: {len(rows)} rows, expected {len(expected)}"]
    return [
        f"table {kind}: row {j} differs from the oracle"
        for j, (row, want) in enumerate(zip(rows, expected), start=1)
        if row != want
    ][:MAX_PROBLEMS]


def check_eval(text: str, expected: int) -> list[str]:
    """Check ``eval both N j`` output: lhs and rhs both equal the binomial sum."""
    want = f"lhs={expected} rhs={expected} equal=true\n"
    return [] if text == want else [f"eval: got {text[:60]!r}..., expected the binomial sum"]


def check_mapcount(text: str, expected: Fraction) -> list[str]:
    """Check ``mapcount`` output against the direct Pochhammer sum."""
    return [] if text == f"{expected}\n" else [f"mapcount: got {text[:60]!r}"]
