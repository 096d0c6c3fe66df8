"""Acceptance suite: the eight exit criteria, each as one test.

Every criterion is exact (big-int equality, zero tolerance). Each test
prints a single `[criterion N] ...: PASS` line; run with `pytest -v -s
tests/test_acceptance.py` to see them. A failed assertion is the FAIL
line for that criterion.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hypident
from hypident.exact_arith import binomial, pow2
from hypident.factorial_basis import (
    falling,
    monomial_to_falling,
    poly_eval,
    rising,
    rising_to_falling,
)
from hypident.identity import (
    IdentityPoint,
    MapCountSpec,
    check_identity,
    map_count,
    summand_equivalence,
)
from hypident.triangles import (
    l_entry_closed,
    l_entry_recurrence,
    r_entry,
    r_entry_closed,
    vanishing_sum,
)


def _passline(num: int, text: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\n[criterion {num}] {text}: PASS{suffix}")


def test_criterion_1_main_identity_brute_force():
    """cross-mode equality on the 480-point grid j<=12, N<=40, under 10 s."""
    start = time.perf_counter()
    checked = 0
    for j in range(1, 13):
        for n in range(1, 41):
            report = check_identity(IdentityPoint(n, j), "cross")
            assert report.equal, (n, j, report.lhs, report.rhs)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 480
    # spot values, frozen from the direct-summation oracles
    assert check_identity(IdentityPoint(1, 1), "cross").lhs == 6
    assert check_identity(IdentityPoint(2, 1), "cross").lhs == 16
    assert check_identity(IdentityPoint(1, 2), "cross").lhs == 44
    assert elapsed < 10.0, f"brute-force sweep took {elapsed:.1f}s"
    _passline(1, "main identity, brute force (480 points, exact)", elapsed)


def test_criterion_2_main_identity_fast_path():
    """fast-mode equality on the 8000-point grid j<=40, N<=200, under 60 s."""
    start = time.perf_counter()
    checked = 0
    for j in range(1, 41):
        for n in range(1, 201):
            report = check_identity(IdentityPoint(n, j), "fast")
            assert report.equal, (n, j)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 8000
    assert elapsed < 60.0, f"fast sweep took {elapsed:.1f}s"
    _passline(2, "main identity, fast path (8000 points, exact)", elapsed)


def test_criterion_3_table_equality():
    """all four construction routes agree entry-by-entry for j <= 60."""
    start = time.perf_counter()
    for j in range(1, 61):
        for i in range(j + 1):
            v = r_entry(i, j)
            assert v == l_entry_closed(i, j), (i, j)
            assert v == l_entry_recurrence(i, j), (i, j)
            assert v == r_entry_closed(i, j), (i, j)
    _passline(3, "table equality, four routes (j <= 60, exact)",
              time.perf_counter() - start)


def test_criterion_4_vanishing_sum():
    """the telescoping sum is exactly zero for 1 <= i <= j <= 50."""
    start = time.perf_counter()
    for j in range(1, 51):
        for i in range(1, j + 1):
            assert vanishing_sum(i, j) == 0, (i, j)
    # the i = 2 column holds the one C(-1,-1) = 1 term
    assert vanishing_sum(2, 2) == 0
    _passline(4, "vanishing telescoping sum (j <= 50, incl. i=2 branch)",
              time.perf_counter() - start)


def test_criterion_5_binomial_falling_sum():
    """sum_l C(N,l) (l)_i == 2^{N-i} (N)_i for 1 <= N <= 30, 0 <= i <= N."""
    start = time.perf_counter()
    for n in range(1, 31):
        for i in range(n + 1):
            direct = sum(binomial(n, l) * falling(l, i) for l in range(n + 1))
            assert direct == pow2(n - i) * falling(n, i), (n, i)
    _passline(5, "binomial-falling sum closed form (N <= 30, exact)",
              time.perf_counter() - start)


def test_criterion_6_basis_transforms():
    """monomial and rising-factorial transforms evaluate exactly,
    k <= 12, x in [-5, 10]."""
    start = time.perf_counter()
    for k in range(13):
        mono = monomial_to_falling(k)
        lah = rising_to_falling(k)
        for x in range(-5, 11):
            assert poly_eval(mono, x) == x**k, (k, x)
            assert poly_eval(lah, x) == rising(x, k), (k, x)
    _passline(6, "falling-basis transforms (k <= 12, x in [-5, 10], exact)",
              time.perf_counter() - start)


def test_criterion_7_summand_equivalence():
    """every weightless map-count summand matches its hypergeometric-free
    form for g <= 4, l <= 3g-1, j <= 10; map_count accepted via the stub
    example and linearity (true weights are external inputs)."""
    start = time.perf_counter()
    for g in range(1, 5):
        for l in range(3 * g):
            for j in range(1, 11):
                assert summand_equivalence(g, l, j), (g, l, j)
    assert map_count(MapCountSpec(2, 1, 1, (1, 0, 0))) == 36
    u = (Fraction(1, 3), Fraction(-2), Fraction(5, 7))
    v = (Fraction(0), Fraction(3, 2), Fraction(-1, 4))
    w = tuple(a + b for a, b in zip(u, v))
    assert map_count(MapCountSpec(2, 1, 4, w)) == (
        map_count(MapCountSpec(2, 1, 4, u)) + map_count(MapCountSpec(2, 1, 4, v))
    )
    _passline(7, "map-count summand equivalence (g <= 4, j <= 10, exact)",
              time.perf_counter() - start)


def test_criterion_8_cli_determinism():
    """`verify --j 1..5 --n 1..20 --format json` is byte-identical between
    parallelism 1 and parallelism 8."""
    start = time.perf_counter()
    base = [
        sys.executable, "-m", "hypident", "verify",
        "--j", "1..5", "--n", "1..20", "--format", "json",
    ]
    # the child imports the same hypident as this test, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(hypident.__file__).parents[1])}
    runs = [
        subprocess.run(base + ["--parallelism", p], capture_output=True, check=True, env=env)
        for p in ("1", "8")
    ]
    assert runs[0].stdout == runs[1].stdout
    reports = json.loads(runs[0].stdout)
    assert len(reports) == 100 and all(r["equal"] for r in reports)
    _passline(8, "CLI determinism across parallelism (byte-identical)",
              time.perf_counter() - start)
