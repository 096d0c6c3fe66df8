import argparse
import contextlib
import errno
import importlib
import io
import json
import marshal
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypident
from hypident import cli, hypergeom, identity, render, triangles
# as runner: test_forked_* name their worker count workers
from hypident import workers as runner
from hypident.factorial_basis import FallingPoly, poly_eval
from hypident.identity import (
    MODES,
    CellReport,
    IdentityPoint,
    MapCountSpec,
    VerifyReport,
    check_cell,
    check_identity,
)
from oracles import report_document


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify -------------------------------------------------------------------

def test_verify_single_point_json(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--j", "1..1", "--n", "1..1", "--mode", "cross",
        "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert reports == [
        {"N": 1, "j": 1, "lhs": "6", "rhs": "6", "equal": True, "micros": 0}
    ]
    assert "1/1 points verified" in err


def test_verify_plain_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--j", "1..1", "--n", "2..2")
    assert code == 0
    assert out == "j=1 N=2 lhs=16 rhs=16 equal=true\n"


def test_verify_j0_extension(capsys):
    code, out, _ = run_cli(capsys, "verify", "--j", "0..0", "--n", "5..5")
    assert code == 0
    assert out == "j=0 N=5 lhs=32 rhs=32 equal=true\n"


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--j", "1..1", "--n", "1..2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == [
        "N,j,lhs,rhs,equal,micros",
        "1,1,6,6,true,0",
        "2,1,16,16,true,0",
    ]


def test_verify_report_order_is_j_then_n(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--j", "1..3", "--n", "1..4", "--format", "json"
    )
    assert code == 0
    reports = json.loads(out)
    assert [(r["j"], r["N"]) for r in reports] == [
        (j, n) for j in range(1, 4) for n in range(1, 5)
    ]


@pytest.mark.parametrize("parallelism", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_verify_out_file(tmp_path, capsys, monkeypatch, forks, fmt, parallelism):
    """--out FILE holds the bytes the same sweep writes to stdout."""
    cpus(monkeypatch, 2)
    target = tmp_path / f"report.{fmt}"
    args = ("verify", "--j", "1..3", "--n", "2..4", "--format", fmt,
            "--parallelism", parallelism)
    code, stdout, _ = run_cli(capsys, *args)
    assert code == 0
    code, out, _ = run_cli(capsys, *args, "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == stdout
    assert len(forks) == (4 if parallelism == "2" else 0)
    reports = [r for j in range(1, 4) for r in reports_of(identity.check_cell(j, 2, 4))]
    assert stdout == report_document(reports, fmt)


def test_verify_unwritable_out_fails_before_sweep(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda config, out: calls.append(config) or [])
    code, out, err = run_cli(
        capsys, "verify", "--j", "1..40", "--n", "1..100", "--mode", "cross",
        "--out", str(tmp_path / "missing" / "report.txt"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert calls == []


def test_verify_non_integral_series_is_internal_error(capsys, monkeypatch):
    original = hypergeom._series

    def plus_1_over_3(*args):
        num, den = original(*args)
        return 3 * num + den, 3 * den

    monkeypatch.setattr(hypergeom, "_series", plus_1_over_3)
    code, out, err = run_cli(capsys, "verify", "--j", "1..2", "--n", "1..3",
                             "--mode", "direct")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: worker for j=1 failed: ArithmeticError: lhs_direct(")
    assert err.count("\n") == 1


def test_verify_dead_worker_is_internal_error(capsys, monkeypatch):
    def broken(config, out):
        raise RuntimeError("worker for j=3 died")

    monkeypatch.setattr(cli, "run_sweep", broken)
    code, out, err = run_cli(capsys, "verify", "--j", "1..4", "--n", "1..10",
                             "--parallelism", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: worker for j=3 died\n"


def test_verify_deterministic_across_parallelism(capsys):
    args = ("verify", "--j", "1..4", "--n", "1..10", "--format", "json")
    _, first, _ = run_cli(capsys, *args, "--parallelism", "1")
    _, second, _ = run_cli(capsys, *args, "--parallelism", "4")
    assert first == second


def test_verify_invalid_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--j", "5..1", "--n", "1..3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--j", "x", "--n", "1..3"])
    assert exc.value.code == 2


def test_verify_n0_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--j", "1..2", "--n", "0..3")
    assert code == 2
    assert "error:" in err


def test_verify_failing_point_exits_1(capsys, monkeypatch):
    """The sweep exit code contract: any unequal report means exit 1."""

    def rigged(j, n_min, n_max, mode="fast"):
        ns = range(n_min, n_max + 1)
        return CellReport(j, n_min, [1 if N == 2 else 6 for N in ns], [6] * len(ns),
                          [N != 2 for N in ns])

    monkeypatch.setattr(cli, "check_cell", rigged)
    for mode in ("fast", "direct", "cross"):
        code, out, err = run_cli(capsys, "verify", "--j", "1..1", "--n", "1..3",
                                 "--mode", mode)
        assert code == 1
        assert "FAIL j=1 N=2" in err
        assert "2/3 points verified" in err
        assert "equal=false" in out


def fail_lines(reports):
    return [f"FAIL j={r.point.j} N={r.point.N} lhs={r.lhs} rhs={r.rhs}"
            for r in reports if not r.equal]


def reports_of(cell):
    """A cell's columns as one report per point, as check_identity gives them."""
    return [VerifyReport(IdentityPoint(N, cell.j), lhs, rhs, equal)
            for N, lhs, rhs, equal in zip(count(cell.n_min), cell.lhs, cell.rhs, cell.equal)]


def swept(config):
    """The report run_sweep writes for config, and the FAIL lines it
    returns."""
    out = io.StringIO()
    failed = cli.run_sweep(config, out)
    return out.getvalue(), failed


@pytest.mark.parametrize("j_min, j_max, n_min, n_max", [
    (0, 12, 1, 60),      # the forward-difference walk
    (1, 8, 400, 430),    # n_min far above the range width: Horner per point
    (0, 0, 1, 9),        # the j = 0 extension alone
    (50, 70, 1, 30),     # degree above the range: the walk drops high differences
])
def test_fast_sweep_matches_check_identity(j_min, j_max, n_min, n_max):
    rows, failed = swept(cli.SweepConfig(j_min, j_max, n_min, n_max))
    expected = [
        check_identity(IdentityPoint(N, j), "fast")
        for j in range(j_min, j_max + 1)
        for N in range(n_min, n_max + 1)
    ]
    assert rows == report_document(expected, "plain")
    assert failed == []
    assert all(r.equal for r in expected)


@pytest.mark.parametrize("row", ["l_poly", "r_poly"])
@pytest.mark.parametrize("index", [0, -1])
def test_fast_sweep_catches_one_wrong_coefficient(capsys, monkeypatch, row, index):
    right = getattr(identity, row)

    def wrong(j):
        coeffs = list(right(j).coeffs)
        coeffs[index] += 1
        return FallingPoly(tuple(coeffs))

    monkeypatch.setattr(identity, row, wrong)
    # Unequal rows: each side's values come from its own row, compared point
    # by point. A wrong top coefficient of j = 3 is multiplied by (N)_3,
    # which vanishes at N < 3, so only there do the sides still agree.
    for n_min, n_max in ((1, 6), (3, 40), (300, 310)):
        expected = [
            VerifyReport(
                IdentityPoint(N, 3),
                poly_eval(identity.l_poly(3), N) << N,
                poly_eval(identity.r_poly(3), N) << N,
                index == -1 and N < 3,
            )
            for N in range(n_min, n_max + 1)
        ]
        rows, failed = swept(cli.SweepConfig(3, 3, n_min, n_max))
        assert rows == report_document(expected, "plain")
        assert failed == fail_lines(expected)
    code, out, err = run_cli(capsys, "verify", "--j", "2..3", "--n", "3..12")
    assert code == 1
    assert "0/20 points verified" in err
    assert err.count("\nFAIL j=") == 20
    assert out.count("equal=false") == 20


def test_fast_and_direct_sweeps_render_identically(capsys):
    # micros is 0 without --timings, so equal values give equal bytes
    for fmt in ("plain", "json", "csv"):
        fast, direct = (
            run_cli(capsys, "verify", "--j", "0..20", "--n", "1..50",
                    "--mode", mode, "--format", fmt)
            for mode in ("fast", "direct")
        )
        assert fast[0] == direct[0] == 0
        assert fast[1] == direct[1]


@pytest.mark.usefixtures("no_digit_limit")
def test_render_writes_both_values_whatever_the_verdict(capsys, monkeypatch):
    big = 7**6000  # past CPython's 4300-digit str(int) limit
    pairs = {1: (6, 7), 2: (big, big + 1), 3: (big, big)}

    def rigged(j, n_min, n_max, mode="fast"):
        ns = range(n_min, n_max + 1)
        return CellReport(j, n_min, [pairs[N][0] for N in ns], [pairs[N][1] for N in ns],
                          [True] * len(ns))

    monkeypatch.setattr(cli, "check_cell", rigged)
    for fmt in ("plain", "json", "csv"):
        code, out, _ = run_cli(capsys, "verify", "--j", "1", "--n", "1..3",
                               "--format", fmt)
        assert code == 0
        if fmt == "json":
            got = [(row["lhs"], row["rhs"]) for row in json.loads(out)]
        elif fmt == "csv":
            got = [tuple(line.split(",")[2:4]) for line in out.splitlines()[1:]]
        else:
            got = [
                tuple(field.split("=")[1] for field in line.split()[2:4])
                for line in out.splitlines()
            ]
        assert got == [(str(lhs), str(rhs)) for lhs, rhs in pairs.values()]


exact_values = st.one_of(
    st.integers(),
    # past CPython's 4300-digit str(int) limit
    st.tuples(st.integers(4300, 6000), st.integers()).map(lambda t: 10 ** t[0] + t[1]),
)


@st.composite
def cell_reports(draw, min_size=0):
    """A cell whose verdicts need not match its values: rhs is lhs, the
    same list, or drawn value by value, each equal to lhs's or not."""
    lhs = draw(st.lists(exact_values, min_size=min_size, max_size=4))
    rhs = lhs if draw(st.booleans()) else [
        draw(st.one_of(st.just(value), exact_values)) for value in lhs
    ]
    equal = draw(st.lists(st.booleans(), min_size=len(lhs), max_size=len(lhs)))
    return CellReport(draw(st.integers(0, cli.MAX_J)), draw(st.integers(1, cli.MAX_N)),
                      lhs, rhs, equal)


@given(cell_reports(), st.sampled_from(["json", "csv"]), st.integers(0, 10**9))
@pytest.mark.usefixtures("no_digit_limit")
def test_render_round_trips(cell, fmt, micros):
    """JSON and CSV reports parse back to the same N, j, lhs, rhs and
    verdict, whatever the verdict says, with the given micros on every row."""
    reports = reports_of(cell)
    head, _, sep, tail = render._FORMATS[fmt]
    out = "".join(render.pieces(head, sep, tail, [render._render_reports(cell, fmt, micros)]))
    if fmt == "json":
        got = [
            (row["N"], row["j"], int(row["lhs"]), int(row["rhs"]), row["equal"], row["micros"])
            for row in json.loads(out)
        ]
    else:
        header, *lines = out.splitlines()
        assert header == "N,j,lhs,rhs,equal,micros"
        got = []
        for line in lines:
            N, j, lhs, rhs, equal, row_micros = line.split(",")
            verdict = {"true": True, "false": False}[equal]
            got.append((int(N), int(j), int(lhs), int(rhs), verdict, int(row_micros)))
    assert got == [(r.point.N, r.point.j, r.lhs, r.rhs, r.equal, micros) for r in reports]


@given(st.lists(cell_reports(min_size=1), min_size=1, max_size=3),
       st.sampled_from(["json", "csv", "plain"]), st.integers(0, 10**9),
       st.lists(st.lists(exact_values, min_size=1, max_size=4), min_size=1, max_size=3),
       st.sampled_from(triangles.KINDS))
@pytest.mark.usefixtures("no_digit_limit")
def test_cells_with_framing_give_the_whole_document(cells, fmt, micros, rows, kind):
    """The one join, render.pieces, writes the framing around the cells
    that _render_reports writes, whatever the cell boundaries, and gives
    the bytes of the report rendered in one piece (JSON by
    json.dumps(rows, indent=2)); around table rows in JSON, it gives the
    bytes of json.dumps of the dump's object."""
    head, _, sep, tail = render._FORMATS[fmt]
    streamed = "".join(render.pieces(head, sep, tail, [
        render._render_reports(cell, fmt, micros) for cell in cells]))
    assert streamed == report_document(
        [r for cell in cells for r in reports_of(cell)], fmt, micros)
    head, row, sep, tail = render._TABLE_FORMATS["json"]
    dumped = "".join(render.pieces(head.format(kind=kind, j_max=len(rows)), sep, tail,
                                   map(row, rows)))
    doc = {"kind": kind, "max_level": len(rows), "rows": [list(map(str, r)) for r in rows]}
    assert dumped == json.dumps(doc, indent=2) + "\n"


@pytest.fixture(scope="module")
def long_cells():
    """The 3000-point cell j = 1, N = 1..3000 in each mode: in fast mode rhs
    is lhs, the same list; in the others, a list of equal ints."""
    return {mode: check_cell(1, 1, 3000, mode) for mode in MODES}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_render_memory_stays_near_its_text(long_cells, fmt, mode):
    """Rendering a cell holds its rows and then their joined text, each
    value printed once, and little else: the peak traced memory stays under
    2.3 times the length of the text it returns."""
    tracemalloc.start()
    try:
        text = cli._render_reports(long_cells[mode], fmt, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * len(text)


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_verify_writes_each_cell_before_the_next(monkeypatch, capsys, forks, fmt,
                                                 parallelism):
    """Each j cell's rows reach the report stream before the next cell is
    checked (serial) or its frame is read from a worker (pooled), and the
    stream ends as the report rendered in one piece."""
    out = io.StringIO()
    monkeypatch.setattr(cli, "_open_out", lambda path: contextlib.nullcontext(out))
    cpus(monkeypatch, 2)
    written = []
    right_cell, right_frame = cli._sweep_cell, runner._read_frame

    def cell(c):
        written.append((c[0], out.getvalue()))
        return right_cell(c)

    def frame(reader, j):
        written.append((j, out.getvalue()))
        return right_frame(reader, j)

    # A worker's cells run in its own process, so the pooled sweep is seen
    # where the parent reads each frame.
    monkeypatch.setattr(cli, "_sweep_cell", cell)
    monkeypatch.setattr(runner, "_read_frame", frame)
    code, _, _ = run_cli(capsys, "verify", "--j", "2..5", "--n", "1..3", "--format", fmt,
                         "--parallelism", str(parallelism))
    assert code == 0
    assert len(forks) == (2 if parallelism > 1 else 0)
    reports = [r for j in range(2, 6) for r in reports_of(identity.check_cell(j, 1, 3))]
    assert out.getvalue() == report_document(reports, fmt)
    # one per row, and one more for the CSV header
    marker = {"json": '"N": ', "csv": "\n", "plain": " N="}[fmt]
    for j, text in written:
        assert out.getvalue().startswith(text)
        rows_before = sum(r.point.j < j for r in reports)
        assert text.count(marker) == rows_before + (fmt == "csv")
    assert [j for j, _ in written] == [2, 3, 4, 5]


@pytest.mark.parametrize("j_min, j_max, n_span, k", [
    (1, 4, "3..7", 2),
    (0, 6, "3..9", 3),  # seven cells on three workers: three, two and two each
])
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_real_pool_reports_a_rigged_route_as_serial(monkeypatch, capsys, forks, fmt,
                                                    j_min, j_max, n_span, k):
    """With a route rigged before the workers fork, workers that check and
    render their own cells give the serial sweep's report, FAIL lines and
    exit code."""
    right = identity.rhs_direct_run

    def rigged(j, n_min, n_max):
        return [v + (N == 5 and j % 2) for N, v in
                zip(range(n_min, n_max + 1), right(j, n_min, n_max))]

    monkeypatch.setattr(identity, "rhs_direct_run", rigged)
    cpus(monkeypatch, k)
    serial, pooled = (
        run_cli(capsys, "verify", "--j", f"{j_min}..{j_max}", "--n", n_span,
                "--mode", "cross", "--format", fmt, "--parallelism", str(parallelism))
        for parallelism in (1, k)
    )
    assert len(forks) == k
    odd = [j for j in range(j_min, j_max + 1) if j % 2]
    assert serial[0] == pooled[0] == 1
    assert serial[1] == pooled[1]
    assert serial[1].count("false") == len(odd)
    fails = [[line for line in err.splitlines() if line.startswith("FAIL")]
             for _, _, err in (serial, pooled)]
    assert fails[0] == fails[1] == [
        f"FAIL j={j} N=5 lhs={v} rhs={v + 1}"
        for j in odd for v in [identity.lhs_direct_run(j, 5, 5)[0]]
    ]


# Each mode's routes in check_cell's order: lhs is the first's value, rhs the
# last's. "L" and "R" are the polynomial routes of _fast_values.
MODE_ROUTES = {
    "direct": ("lhs_direct_run", "rhs_direct_run"),
    "fast": ("L", "R"),
    "cross": ("lhs_direct_run", "L", "R", "rhs_direct_run"),
}


def route_values(route, j, n_min, n_max):
    if route in ("L", "R"):
        return identity._fast_values(j, n_min, n_max, identity.l_poly,
                                     identity.r_poly)[route == "R"]
    return getattr(identity, route)(j, n_min, n_max)


def rig_route(monkeypatch, route, j_bad, n_bad):
    """Add 1 to route's value at (N, j) = (n_bad, j_bad) alone."""
    def bump(values, j, n_min):
        return [v + (j == j_bad and N == n_bad) for N, v in zip(count(n_min), values)]

    if route in ("L", "R"):
        right = identity._fast_values

        def rigged(j, n_min, n_max, *rows):
            values = right(j, n_min, n_max, *rows)
            if len(rows) == 2:
                index = route == "R"
                values[index] = bump(values[index], j, n_min)
            return values

        monkeypatch.setattr(identity, "_fast_values", rigged)
    else:
        right = getattr(identity, route)
        monkeypatch.setattr(identity, route,
                            lambda j, n_min, n_max: bump(right(j, n_min, n_max), j, n_min))


@pytest.mark.parametrize("mode, route",
                         [(mode, route) for mode, routes in MODE_ROUTES.items() for route in routes])
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_sweep_cells_agree_with_check_cell(monkeypatch, capsys, fmt, mode, route):
    """With one route wrong at one point, the rows and FAIL lines a sweep
    builds from its cells' columns are check_cell's, one report per point,
    field by field, and it exits 1; each report's lhs is the mode's first
    route and its rhs the last, and it is equal where every route agrees."""
    rig_route(monkeypatch, route, 3, 5)
    code, out, err = run_cli(capsys, "verify", "--j", "2..4", "--n", "3..7", "--mode", mode,
                             "--format", fmt)
    reports = [r for j in range(2, 5) for r in reports_of(identity.check_cell(j, 3, 7, mode))]
    assert code == 1
    assert out == report_document(reports, fmt)
    assert [line for line in err.splitlines() if line.startswith("FAIL")] == fail_lines(reports)
    assert [(r.point.j, r.point.N) for r in reports if not r.equal] == [(3, 5)]
    for j in range(2, 5):
        routes = [route_values(name, j, 3, 7) for name in MODE_ROUTES[mode]]
        assert [(r.lhs, r.rhs, r.equal) for r in reports if r.point.j == j] == [
            (values[0], values[-1], len(set(values)) == 1) for values in zip(*routes)
        ]


def test_verify_timings_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--j", "10..10", "--n", "100..100", "--format", "json",
        "--mode", "cross", "--timings",
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["micros"] >= 1


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_timings_are_one_share_per_cell(monkeypatch, capsys, forks, fmt, parallelism):
    """With --timings, every row of a j cell has the same micros, at least
    one is positive, and zeroing them gives the untimed report's bytes."""
    cpus(monkeypatch, 2)
    argv = ("verify", "--j", "20..24", "--n", "1..30", "--mode", "cross", "--format", fmt,
            "--parallelism", str(parallelism))
    code, timed, _ = run_cli(capsys, *argv, "--timings")
    assert code == 0
    if fmt == "json":
        rows = [(row["j"], row["micros"]) for row in json.loads(timed)]
    else:
        rows = [(int(fields[1]), int(fields[5]))
                for fields in (line.split(",") for line in timed.splitlines()[1:])]
    shares = {}
    for j, micros in rows:
        assert shares.setdefault(j, micros) == micros
    assert sorted(shares) == list(range(20, 25))
    assert max(shares.values()) > 0
    assert len(forks) == (2 if parallelism > 1 else 0)
    pattern, zero = (r'"micros": \d+', '"micros": 0') if fmt == "json" else (r",\d+$", ",0")
    assert re.sub(pattern, zero, timed, flags=re.M) == run_cli(capsys, *argv)[1]


def test_parallelism_flag(capsys, monkeypatch):
    """--parallelism sets the worker count, 1 by default; a count below 1
    is a usage error with one error line, and a value that is not an
    integer is rejected by the parser, both with exit 2 before any work."""
    seen = []
    monkeypatch.setattr(cli, "run_sweep",
                        lambda config, out: seen.append(config.parallelism) or [])
    assert run_cli(capsys, "verify")[0] == 0
    assert run_cli(capsys, "verify", "--parallelism", "6")[0] == 0
    assert seen == [1, 6]
    for bad in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "--parallelism", bad)
        assert (code, out) == (2, "")
        assert err == f"error: parallelism = {bad} must be >= 1\n"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--parallelism", "bogus"])
    assert exc.value.code == 2
    assert "--parallelism: invalid int value: 'bogus'" in capsys.readouterr().err
    assert seen == [1, 6]


@pytest.mark.parametrize("field, value, error", [
    ("mode", "slow", "unknown mode 'slow'; expected direct, fast or cross"),
    ("fmt", "xml", "unknown format 'xml'; expected plain, json or csv"),
    ("mode", ["fast"], "unknown mode ['fast']; expected direct, fast or cross"),
    ("fmt", ["json"], "unknown format ['json']; expected plain, json or csv"),
])
def test_sweep_config_rejects_an_unknown_mode_or_format(monkeypatch, field, value, error):
    """A bad mode or format, an unhashable one included, fails with a
    ValueError when the config is built, so a sweep never starts a cell or
    writes a byte of a report for it."""
    monkeypatch.setattr(cli, "_sweep_cell", lambda cell: pytest.fail("swept"))
    out = io.StringIO()
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        cli.run_sweep(cli.SweepConfig(1, 1, 1, 2, **{field: value}), out)
    assert out.getvalue() == ""


@pytest.mark.parametrize("value", [True, 1.0])
@pytest.mark.parametrize("field", ["j_min", "j_max", "n_min", "n_max", "parallelism"])
def test_sweep_config_rejects_a_bool_or_non_int_field(monkeypatch, field, value):
    """A bool or float in an int field fails when the config is built,
    naming the field, with the package's one int check, so a sweep writes
    nothing."""
    monkeypatch.setattr(cli, "_sweep_cell", lambda cell: pytest.fail("swept"))
    fields = {"j_min": 1, "j_max": 3, "n_min": 1, "n_max": 5, "parallelism": 1}
    out = io.StringIO()
    with pytest.raises(TypeError, match=f"^{field} must be an int, got {type(value).__name__}$"):
        cli.run_sweep(cli.SweepConfig(**{**fields, field: value}, fmt="json"), out)
    assert out.getvalue() == ""


@pytest.mark.parametrize("value", ["no", 1, None])
def test_sweep_config_rejects_a_non_bool_timings(monkeypatch, value):
    """timings must be a bool, or the config fails naming the field with a
    TypeError, as every type fault does: a string such as "no" would
    otherwise turn timings on."""
    monkeypatch.setattr(cli, "_sweep_cell", lambda cell: pytest.fail("swept"))
    out = io.StringIO()
    with pytest.raises(TypeError, match=f"^timings must be a bool, got {type(value).__name__}$"):
        cli.run_sweep(cli.SweepConfig(1, 1, 1, 1, timings=value), out)
    assert out.getvalue() == ""


def cpus(monkeypatch, count):
    """Let a sweep see count CPUs, whichever way it counts them."""
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: count)


@pytest.fixture
def forks(monkeypatch):
    """The pid of every worker a sweep forks during the test. Afterwards,
    the test process must have no child left: every worker was reaped."""
    started = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(runner.os, "fork", counted)
    yield started
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_is_capped_at_cpu_count(monkeypatch, forks):
    cpus(monkeypatch, 3)
    config = cli.SweepConfig(1, 8, 1, 4, parallelism=5000)
    pooled = swept(config)
    assert len(forks) == 3
    serial = swept(cli.SweepConfig(1, 8, 1, 4))
    assert pooled[0] == serial[0]
    assert pooled[1] == serial[1]
    assert len(forks) == 3
    # without an affinity set, os.cpu_count() is the count, and None is 1
    monkeypatch.delattr(runner.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
    assert swept(config) == serial
    assert len(forks) == 3


def test_pool_is_capped_at_the_affinity_set(monkeypatch, forks):
    """A process allowed on one CPU of two runs its sweep serially."""
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    config = cli.SweepConfig(1, 4, 1, 3, parallelism=2)
    assert swept(config) == swept(config._replace(parallelism=1))
    assert forks == []


def test_a_sweep_without_fork_or_beside_a_thread_is_serial(monkeypatch, forks):
    cpus(monkeypatch, 2)
    config = cli.SweepConfig(1, 4, 1, 3, parallelism=2)
    serial = swept(config._replace(parallelism=1))
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        assert swept(config) == serial
    finally:
        release.set()
        waiting.join(60)
    assert not waiting.is_alive()
    assert forks == []
    monkeypatch.delattr(runner.os, "fork")
    assert swept(config) == serial


# An exception cell j = 3 raises, eval's exit code and stderr line when it
# checks that cell, and verify's line at every K (exit 3). eval reads a
# ValueError as a usage error; a sweep reports it as it reports any other.
FAULTS = [
    (ValueError, 2, "error: rigged", "worker for j=3 failed: ValueError: rigged"),
    (ArithmeticError, 3, "internal error: rigged",
     "worker for j=3 failed: ArithmeticError: rigged"),
    (TypeError, 3, "internal error: TypeError: rigged",
     "worker for j=3 failed: TypeError: rigged"),
    (KeyError, 3, "internal error: KeyError: 'rigged'",
     "worker for j=3 failed: KeyError: 'rigged'"),
]
VERIFY_AT = ("verify", "--j", "1..6", "--n", "1..4", "--mode", "cross", "--parallelism")


@pytest.mark.parametrize("argv, fault, status, error", [
    *(pytest.param(("eval", "both", "2", "3"), fault, status, line, id=f"eval-{fault.__name__}")
      for fault, status, line, _ in FAULTS),
    *(pytest.param(VERIFY_AT + (k,), fault, 3, f"internal error: {there}",
                   id=f"{k}-{fault.__name__}")
      for k in "123" for fault, _, _, there in FAULTS),
    *(pytest.param(VERIFY_AT + (k,), None, 3, "internal error: worker for j=3 died",
                   id=f"{k}-died") for k in "23"),
])
def test_a_failed_or_dead_worker_is_internal_error(monkeypatch, capsys, forks, argv, fault,
                                                    status, error):
    """A sweep cell that raises, whatever the exception and whatever K, or
    a worker that exits mid-cell, ends verify with exit 3 and one line,
    the same at every K, never a traceback. The line names the cell's j;
    the other workers, still busy with later cells, are killed, and every
    worker is reaped (the forks fixture). eval checks its point here and
    keeps main's lines."""
    right = cli._sweep_cell

    def cell(c):
        if c[0] == 3:
            if fault is None:
                os._exit(9)
            raise fault("rigged")
        if c[0] == 4:
            time.sleep(60)
        return right(c)

    monkeypatch.setattr(cli, "_sweep_cell", cell)
    k = int(argv[-1]) if argv[0] == "verify" else 1
    cpus(monkeypatch, k)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 30
    assert len(forks) == (k if k > 1 else 0)
    assert code == status
    assert err == f"{error}\n"


def test_read_frame_reads_one_cell_per_value():
    """The cells a worker dumps on its pipe are read back one value each,
    in order."""
    cells = [cli._sweep_task(cli.SweepConfig(7, 7, 1, 2, fmt="json"), 7),
             ("j=8 N=1 lhs=1 rhs=2 equal=false\n", ["FAIL j=8 N=1 lhs=1 rhs=2", "FAIL x"])]
    reader = io.BytesIO(b"".join(map(marshal.dumps, cells)))
    assert [runner._read_frame(reader, j) for j in (7, 8)] == cells
    assert reader.read() == b""


def test_read_frame_names_a_failed_worker():
    with pytest.raises(RuntimeError, match="^worker for j=7 failed: ValueError: x$"):
        runner._read_frame(io.BytesIO(marshal.dumps("ValueError: x")), 7)


def test_read_frame_names_a_worker_that_died_mid_cell():
    """A pipe that ends anywhere before a cell's last byte, or before its
    first, means the worker died."""
    data = marshal.dumps(("j=7 N=1 lhs=1 rhs=2 equal=false\n", ["FAIL j=7 N=1 lhs=1 rhs=2"]))
    for size in range(len(data)):
        with pytest.raises(RuntimeError, match="^worker for j=7 died$"):
            runner._read_frame(io.BytesIO(data[:size]), 7)


def toy_task(j):
    return str(j), [f"x{j}"]


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_forked_yields_task_results_in_j_order(forks, workers):
    """Seven js on one to four workers, so the shares are unequal: the
    results come back in j order whatever worker ran each."""
    assert list(runner._forked(toy_task, range(5, 12), workers)) == [
        (str(j), [f"x{j}"]) for j in range(5, 12)
    ]
    assert len(forks) == workers


def failing_at_8(j):
    if j == 8:
        raise ValueError("no cell 8")
    return toy_task(j)


def dying_at_8(j):
    if j == 8:
        os._exit(9)
    return toy_task(j)


@pytest.mark.parametrize("task, error", [
    (failing_at_8, "worker for j=8 failed: ValueError: no cell 8"),
    (dying_at_8, "worker for j=8 died"),
])
@pytest.mark.parametrize("workers", [2, 3])
def test_forked_names_the_j_of_a_failed_or_dead_worker(forks, task, error, workers):
    """A task that raises, or a worker that exits, at j = 8 ends the
    results with one RuntimeError naming j = 8, after those of 5, 6 and 7;
    every worker is reaped (the forks fixture)."""
    results = runner._forked(task, range(5, 12), workers)
    assert [next(results) for _ in range(3)] == [toy_task(j) for j in (5, 6, 7)]
    with pytest.raises(RuntimeError, match=f"^{re.escape(error)}$"):
        next(results)
    assert len(forks) == workers


def test_closing_forked_kills_and_reaps_every_worker(forks):
    """Closed after its first result, _forked kills the workers, busy
    with later js, and waits on each one (the forks fixture) at once."""
    results = runner._forked(lambda j: time.sleep(60) if j > 5 else toy_task(j), range(5, 12), 3)
    assert next(results) == toy_task(5)
    start = time.perf_counter()
    results.close()
    assert time.perf_counter() - start < 5
    assert len(forks) == 3


@pytest.mark.parametrize("exc", [BrokenPipeError, KeyboardInterrupt])
def test_interrupted_sweep_cancels_pending_cells(monkeypatch, forks, exc):
    """A report stream that fails, or an interrupt, after the first cell
    is written ends the sweep with that exception. The workers, busy with
    later cells, are killed, and every worker is reaped (the forks
    fixture)."""
    cpus(monkeypatch, 2)
    right = cli._sweep_cell
    monkeypatch.setattr(cli, "_sweep_cell", lambda c: time.sleep(60) if c[0] > 2 else right(c))

    class Failing(io.StringIO):
        def write(self, text):
            if "N=" in self.getvalue():
                raise exc
            return super().write(text)

    start = time.perf_counter()
    with pytest.raises(exc):
        cli.run_sweep(cli.SweepConfig(1, 6, 1, 4, "cross", 2), Failing())
    assert time.perf_counter() - start < 30
    assert len(forks) == 2


def test_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(config, out):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_sweep", interrupted)
    try:
        code, out, err = run_cli(capsys, "verify", "--j", "1..4", "--n", "1..10")
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == 130
    assert out == ""
    assert err == "interrupted\n"


@given(st.integers(), st.integers())
def test_span_parses_ranges(a, b):
    lo, hi = sorted((a, b))
    assert cli._span(f"{lo}..{hi}") == (lo, hi)
    assert cli._span(str(a)) == (a, a)


@given(st.integers(), st.integers())
def test_span_rejects_descending_ranges(a, b):
    lo, hi = sorted((a, b))
    if lo < hi:
        with pytest.raises(argparse.ArgumentTypeError, match="empty range"):
            cli._span(f"{hi}..{lo}")


@given(st.text() | st.text(alphabet="0123456789.-+_ x"))
def test_span_parses_or_rejects_any_text(text):
    try:
        lo, hi = cli._span(text)
    except argparse.ArgumentTypeError:
        return
    assert type(lo) is int and type(hi) is int and lo <= hi


@pytest.mark.parametrize("text", ["１", "١٢", "1_0", " 2", "2 ", "+-1", "²", "0x10", "+"])
@pytest.mark.parametrize("argv, error", [
    (("verify", "--j", "{}"), "argument --j: expected INT or INT..INT, got {!r}"),
    (("verify", "--n", "1..{}"), "argument --n: expected INT or INT..INT, got {!r}"),
    (("verify", "--parallelism", "{}"), "argument --parallelism: invalid int value: {!r}"),
    (("table", "C", "--jmax", "{}"), "argument --jmax: invalid int value: {!r}"),
    (("eval", "both", "{}", "1"), "argument N: invalid int value: {!r}"),
    (("eval", "both", "1", "{}"), "argument j: invalid int value: {!r}"),
    (("mapcount", "unread.json", "--j", "{}"), "argument --j: invalid int value: {!r}"),
])
def test_integer_arguments_take_ascii_digits_only(capsys, monkeypatch, argv, error, text):
    """int() reads full-width and Arabic-Indic digits, "_" separators and
    surrounding spaces; an integer argument of any kind takes an optional
    sign and ASCII digits only, and anything else is a usage error."""
    monkeypatch.setattr(cli, "run_sweep", lambda config, out: pytest.fail("swept"))
    value = next(arg.format(text) for arg in argv if "{}" in arg)
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(text) for arg in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ")
    assert err.endswith(f"hypident {argv[0]}: error: {error.format(value)}\n")


def test_integer_arguments_take_a_sign(capsys, monkeypatch):
    assert cli._span("+1..+3") == (1, 3)
    assert cli._span("-0") == (0, 0)
    assert cli._span("-2..007") == (-2, 7)
    assert run_cli(capsys, "eval", "both", "+2", "+01") == (0, "lhs=16 rhs=16 equal=true\n", "")
    seen = []
    monkeypatch.setattr(cli, "run_sweep",
                        lambda config, out: seen.append(config.parallelism) or [])
    assert run_cli(capsys, "verify", "--parallelism", "+2")[0] == 0
    assert seen == [2]


PAST_LIMIT = "9" * 4301


@pytest.mark.parametrize("argv, error", [
    (("eval", "both", PAST_LIMIT, "1"), f"argument N: invalid int value: {PAST_LIMIT!r}"),
    (("verify", "--n", f"1..{PAST_LIMIT}"),
     f"argument --n: expected INT or INT..INT, got '1..{PAST_LIMIT}'"),
    (("table", "L", "--jmax", PAST_LIMIT), f"argument --jmax: invalid int value: {PAST_LIMIT!r}"),
], ids=["eval", "verify", "table"])
def test_an_argument_past_the_digit_limit_is_one_usage_error(capsys, monkeypatch, argv, error):
    """int() reads at most CPython's 4300 digits, and main lifts that limit
    only after parsing, so a longer argument is argparse's usage error, not
    a traceback. Where int() has no such limit, it is the bound's error."""
    monkeypatch.setattr(cli, "run_sweep", lambda config, out: pytest.fail("swept"))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "Traceback" not in err and err.count("error: ") == 1
    if 0 < limit <= 4300:
        assert err.startswith("usage: ")
        assert err.endswith(f"hypident {argv[0]}: error: {error}\n")
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is above the bound of" in err


# -- eval ----------------------------------------------------------------------

def test_eval_both(capsys):
    code, out, _ = run_cli(capsys, "eval", "both", "1", "2")
    assert code == 0
    assert out == "lhs=44 rhs=44 equal=true\n"


def stdout_of(*argv):
    """(exit code, stdout) of cli.main(argv), stderr dropped, outside
    pytest's capture, so that a hypothesis property can call it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@given(st.integers(1, 5000), st.integers(0, 60))
def test_eval_both_prints_the_plain_verify_row(N, j):
    """eval both's line is the plain verify row of its point without the
    row's "j=J N=N " prefix."""
    assert stdout_of("verify", "--j", str(j), "--n", str(N)) == (
        0, f"j={j} N={N} " + stdout_of("eval", "both", str(N), str(j))[1])


@pytest.mark.parametrize("lhs, rhs", [(5, 7), (10**5000, 10**5000 + 1), (-1, 1)],
                         ids=["small", "past-4300-digits", "opposite"])
@pytest.mark.usefixtures("no_digit_limit")
def test_eval_both_prints_unequal_values(monkeypatch, capsys, lhs, rhs):
    """A one-point cell whose sides differ prints each value and equal=false,
    and exits 1 as verify does, with nothing on stderr."""
    monkeypatch.setattr(cli, "_sweep_cell",
                        lambda cell: CellReport(cell[0], cell[1], [lhs], [rhs], [False]))
    assert run_cli(capsys, "eval", "both", "4", "2") == (
        1, f"lhs={lhs} rhs={rhs} equal=false\n", "")


def test_eval_single_sides(capsys):
    code, out, _ = run_cli(capsys, "eval", "rhs", "2", "1")
    assert (code, out) == (0, "16\n")
    code, out, _ = run_cli(capsys, "eval", "lhs", "1", "1")
    assert (code, out) == (0, "6\n")


def _raises(exc):
    def rigged(*args):
        raise exc("rigged")
    return rigged


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no str(int) digit limit")
@pytest.mark.parametrize("caller_limit", [None, 5000], ids=["default", "5000"])
def test_main_gives_back_the_callers_digit_limit(capsys, monkeypatch, caller_limit):
    """main lifts the str(int) digit limit while it runs, so a value of
    5001 digits prints, and the caller's limit is back after every exit."""
    before = sys.get_int_max_str_digits()
    big = 10**5000
    unequal = CellReport(1, 1, [6], [7], [False])
    runs = [
        (0, "_sweep_cell", lambda cell: CellReport(2, 4, [big], [big], [True]),
         ["eval", "both", "4", "2"]),
        (0, None, None, ["eval", "both", "1", "1"]),
        (1, "check_cell", lambda *cell: unequal, ["verify", "--j", "1", "--n", "1"]),
        (2, None, None, ["eval", "both", "1", str(cli.MAX_J + 1)]),
        (3, "_sweep_cell", _raises(ArithmeticError), ["eval", "both", "1", "1"]),
        (130, "_sweep_cell", _raises(KeyboardInterrupt), ["eval", "both", "1", "1"]),
    ]
    try:
        if caller_limit is not None:
            sys.set_int_max_str_digits(caller_limit)
        expected = sys.get_int_max_str_digits()
        assert expected != 0
        outs = []
        for code, name, rigged, argv in runs:
            with monkeypatch.context() as patch:
                if name is not None:
                    patch.setattr(cli, name, rigged)
                got, out, _ = run_cli(capsys, *argv)
            assert (got, sys.get_int_max_str_digits()) == (code, expected), argv
            outs.append(out)
        assert outs[0] == "lhs=1" + "0" * 5000 + " rhs=1" + "0" * 5000 + " equal=true\n"
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.usefixtures("no_digit_limit")
def test_values_beyond_4300_digits_print(capsys):
    code, out, err = run_cli(capsys, "eval", "rhs", "15000", "0")
    assert (code, err) == (0, "")
    assert out == f"{2**15000}\n"
    code, out, _ = run_cli(capsys, "verify", "--j", "1..1", "--n", "15000..15000",
                           "--format", "csv")
    assert code == 0
    assert out.endswith(",true,0\n")


def test_n_above_bound_is_usage_error(capsys, monkeypatch):
    assert cli.MAX_N == 1_000_000
    monkeypatch.setattr(cli, "run_sweep", lambda config, out: pytest.fail("swept"))
    too_big = str(cli.MAX_N + 1)
    for argv in (
        ("eval", "rhs", too_big, "0"),
        ("eval", "both", too_big, "3"),
        ("verify", "--n", f"1..{too_big}"),
        ("verify", "--n", too_big, "--j", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: N = {too_big} is above the bound of {cli.MAX_N}\n"


@pytest.mark.parametrize("argv, target, error", [
    (("eval", "both", "5", "{j}"), "_sweep_cell", "j"),
    (("eval", "lhs", "5", "{j}"), "lhs_fast", "j"),
    (("eval", "rhs", "5", "{j}"), "rhs_fast", "j"),
    (("verify", "--j", "1..{j}", "--n", "1..2"), "run_sweep", "j"),
    (("verify", "--j", "{j}", "--n", "3"), "run_sweep", "j"),
    (("table", "L", "--jmax", "{j}"), "table_pieces", "--jmax"),
    (("table", "C", "--jmax", "{j}", "--format", "json"), "table_pieces", "--jmax"),
    (("mapcount", "unread.json", "--j", "{j}"), "mapcount_spec_from_file", "--j"),
])
def test_j_above_bound_is_usage_error(capsys, monkeypatch, argv, target, error):
    """j, the upper end of verify --j, table --jmax and mapcount --j stop at
    MAX_J before any work starts (the coefficient file is not even read);
    the bound itself is accepted."""
    assert cli.MAX_J == 300
    started = []
    result = {
        "_sweep_cell": CellReport(cli.MAX_J, 5, [0], [0], [True]),
        "run_sweep": [],
        "mapcount_spec_from_file": MapCountSpec(2, 1, 1, (1, 0, 0)),
    }.get(target, "")

    def work(*args):
        started.append(args)
        return result

    monkeypatch.setattr(cli, target, work)
    code, out, err = run_cli(capsys, *[arg.format(j=cli.MAX_J + 1) for arg in argv])
    assert (code, out, started) == (2, "", [])
    assert err == f"error: {error} = {cli.MAX_J + 1} is above the bound of {cli.MAX_J}\n"
    assert run_cli(capsys, *[arg.format(j=cli.MAX_J) for arg in argv])[0] == 0
    assert len(started) == 1


def test_grid_above_bound_is_usage_error(capsys, monkeypatch, tmp_path):
    """A grid's size is its points times b^2, b = N + j * bit_length(2N + 4j)
    at its largest N and j. A grid at MAX_GRID runs; one unit above, verify
    exits 2 with one error line before any work."""
    started = []
    monkeypatch.setattr(cli, "run_sweep", lambda config, out: started.append(config) or [])
    out_path = tmp_path / "report.csv"
    argv = ("verify", "--j", "2..5", "--n", "3..40", "--out", str(out_path))
    size = 4 * 38 * (40 + 5 * 7) ** 2  # bit_length(2*40 + 4*5) = 7
    monkeypatch.setattr(cli, "MAX_GRID", size - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, started) == (2, "", [])
    assert err == f"error: grid size = {size} is above the bound of {size - 1}\n"
    assert not out_path.exists()
    monkeypatch.setattr(cli, "MAX_GRID", size)
    assert run_cli(capsys, *argv)[0] == 0
    assert len(started) == 1


@pytest.mark.parametrize("j, n, inside", [
    ("1..120", "1..100", True),       # the fast_sweep benchmark grid
    ("1..40", "1..100", True),        # the cross_sweep benchmark grid
    ("0..40", "1..80", True),         # the CI grid
    ("1..40", "1..200", True),        # the acceptance suite's fast grid
    ("1", "1..10000", True),
    ("300", "1000000", True),         # one point at MAX_N and MAX_J
    ("0..300", "1..280", True),
    ("0..300", "1..290", False),
    ("1", "1..20000", False),
    ("0", "1..1000000", False),
])
def test_grid_bound(capsys, monkeypatch, j, n, inside):
    assert cli.MAX_GRID == 2**40
    monkeypatch.setattr(cli, "run_sweep", lambda config, out: [])
    code, out, err = run_cli(capsys, "verify", "--j", j, "--n", n)
    assert code == (0 if inside else 2)
    assert err.startswith("verify" if inside else "error: grid size = ")


@pytest.mark.parametrize("j, n, mode, inside", [
    ("1..40", "1..100", "cross", True),    # the cross_sweep benchmark grid
    ("0..40", "1..80", "direct", True),    # the CI grid
    ("0..40", "1..80", "cross", True),
    ("0..12", "1..40", "direct", True),    # the acceptance suite's brute-force grid
    ("3..5", "15000", "cross", True),
    ("300", "30000", "direct", True),
    ("1", "1..10000", "cross", False),     # 127 s before the brute-force term
    ("300", "100000", "direct", False),    # one point, 46 s before
    ("0..300", "1..280", "direct", False), # 31 s before
])
def test_brute_force_grid_bound(capsys, monkeypatch, j, n, mode, inside):
    """direct and cross add BRUTE_FORCE_WEIGHT * (N + 1) * b per point, so
    their large-N grids exit 2 before any work."""
    assert cli.BRUTE_FORCE_WEIGHT == 1000
    started = []
    monkeypatch.setattr(cli, "run_sweep", lambda config, out: started.append(config) or [])
    code, out, err = run_cli(capsys, "verify", "--j", j, "--n", n, "--mode", mode)
    assert (code, len(started)) == ((0, 1) if inside else (2, 0))
    assert err.startswith("verify" if inside else "error: grid size = ")
    assert err.count("\n") == 1


def test_eval_n0_domain_error(capsys):
    code, _, err = run_cli(capsys, "eval", "both", "0", "3")
    assert code == 2
    assert "N = 0" in err


def test_a_negative_n_is_worded_by_its_n(capsys):
    """Below N = 0 the domain error names that N and only the domain; the
    clause about N = 0 belongs to N = 0 alone."""
    line = "error: N = -3 is outside the identity's domain (N >= 1)\n"
    assert run_cli(capsys, "eval", "both", "-3", "1") == (2, "", line)
    assert run_cli(capsys, "verify", "--j", "1", "--n=-3..-1") == (2, "", line)
    assert run_cli(capsys, "eval", "both", "0", "1") == (2, "", (
        "error: N = 0 is outside the identity's domain (N >= 1); no value is defined at N = 0\n"))


# -- table -----------------------------------------------------------------------

def test_table_r_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "R", "--jmax", "2")
    assert code == 0
    assert out == "2,1\n12,10,1\n"


def test_table_c_base_row(capsys):
    code, out, _ = run_cli(capsys, "table", "C", "--jmax", "1")
    assert (code, out) == (0, "1,1\n")


def test_table_l_equals_table_r(capsys):
    _, l_out, _ = run_cli(capsys, "table", "L", "--jmax", "8")
    _, r_out, _ = run_cli(capsys, "table", "R", "--jmax", "8")
    assert l_out == r_out


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "C", "--jmax", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "C", "max_level": 2, "rows": [["1", "1"], ["3", "4", "1"]]}


def test_table_bad_jmax(capsys):
    code, _, err = run_cli(capsys, "table", "R", "--jmax", "0")
    assert code == 2
    assert "error:" in err


@given(st.sampled_from(triangles.KINDS), st.sampled_from(["csv", "json"]), st.integers(1, 40))
def test_table_writes_the_export_bytes_to_stdout_and_to_a_file(kind, fmt, j_max):
    """table streams its dump piece by piece; what it writes, to stdout or
    to --out FILE, is the export of the same kind, format and level."""
    text = (triangles.export_json if fmt == "json" else triangles.export_csv)(kind, j_max)
    argv = ("table", kind, "--jmax", str(j_max), "--format", fmt)
    assert stdout_of(*argv) == (0, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table"
        assert stdout_of(*argv, "--out", str(path)) == (0, "")
        assert path.read_bytes() == text.encode()


def test_table_writes_each_row_as_it_is_built(tmp_path, capsys, monkeypatch):
    """A dump whose row 6 fails has already written rows 1..5 to its file,
    and exits 3 with one internal error line."""
    written = triangles.export_csv("L", 5)
    row = triangles.triangle_row

    def rigged(kind, j):
        if j == 6:
            raise ArithmeticError("rigged")
        return row(kind, j)

    monkeypatch.setattr(triangles, "triangle_row", rigged)
    path = tmp_path / "table.csv"
    assert run_cli(capsys, "table", "L", "--jmax", "10", "--out", str(path)) == (
        3, "", "internal error: rigged\n")
    assert path.read_bytes() == written.encode()


# -- mapcount ----------------------------------------------------------------------

def write_coeffs(tmp_path, text, name="coeffs.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_mapcount_stub(tmp_path, capsys):
    path = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1", "0", "0"]}')
    code, out, _ = run_cli(capsys, "mapcount", path, "--j", "1")
    assert (code, out) == (0, "36\n")


def test_mapcount_zero_weights(tmp_path, capsys):
    path = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["0", "0", "0"]}')
    code, out, _ = run_cli(capsys, "mapcount", path, "--j", "5")
    assert (code, out) == (0, "0\n")


def test_mapcount_rational_output(tmp_path, capsys):
    path = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1/7", "0", "0"]}')
    code, out, _ = run_cli(capsys, "mapcount", path, "--j", "1")
    assert (code, out) == (0, "36/7\n")


@pytest.mark.parametrize("j", ["0", "-1"])
def test_mapcount_j_below_one_is_a_usage_error(tmp_path, capsys, j):
    """mapcount --j below 1 is a command-line fault, worded as table
    --jmax's: exit 2 with one error line before the coefficient file is
    read, so a good file and a missing one give the same line."""
    good = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1", "0", "0"]}')
    for path in (good, str(tmp_path / "missing.json")):
        assert run_cli(capsys, "mapcount", path, "--j", j) == (
            2, "", f"error: --j = {j} must be >= 1\n")
    assert run_cli(capsys, "table", "R", "--jmax", j) == (
        2, "", f"error: --jmax = {j} must be >= 1\n")


def test_mapcount_length_mismatch(tmp_path, capsys):
    path = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1", "0"]}')
    code, _, err = run_cli(capsys, "mapcount", path, "--j", "1")
    assert code == 2
    assert "3g" in err


def test_mapcount_unknown_key(tmp_path, capsys):
    """A key other than nu, g and a is an error naming it, so a stray "j"
    is never read as a setting that --j overrides."""
    path = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1", "0", "0"], "j": 1}')
    code, out, err = run_cli(capsys, "mapcount", path, "--j", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: coefficient file has unknown key(s): 'j'\n"


def test_mapcount_malformed_file(tmp_path, capsys):
    path = write_coeffs(tmp_path, "{broken")
    code, _, err = run_cli(capsys, "mapcount", path, "--j", "1")
    assert code == 2
    assert "JSON" in err


def test_mapcount_deeply_nested_file(tmp_path, capsys):
    path = write_coeffs(tmp_path, "[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "mapcount", path, "--j", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_mapcount_file_size_bound(tmp_path, capsys, monkeypatch):
    """A file above MAX_COEFF_FILE_BYTES exits 2 with one error line before
    it is parsed; a file at the bound is read."""
    bound = identity.MAX_COEFF_FILE_BYTES
    assert bound == 2**18
    doc = '{"nu": 2, "g": 1, "a": ["1", "0", "0"]}'
    at_bound = write_coeffs(tmp_path, doc + " " * (bound - len(doc)), "at.json")
    above = write_coeffs(tmp_path, doc + " " * (bound + 1 - len(doc)), "above.json")
    assert run_cli(capsys, "mapcount", at_bound, "--j", "1") == (0, "36\n", "")
    parsed = []
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text))
    code, out, err = run_cli(capsys, "mapcount", above, "--j", "1")
    assert (code, out, parsed) == (2, "", [])
    assert err == f"error: {above}: size is above the bound of {bound} bytes\n"


MAPCOUNT_COST_CASES = [
    (3, 4, 300, 0, True),          # the benchmark's coefficient file
    (3, 32768, 7, 0, True),        # 3 * 32768 * 8 terms of weight 10, the bound itself
    (3, 32769, 7, 0, False),
    (3, 1023, 255, 0, True),
    (3, 1024, 255, 0, False),      # 3 * 2^18 terms and a value of 2570 bits
    (3, 2000, 300, 0, False),
    (1176, 1, 300, 0, True),       # the largest nu at g = 1, j = 300
    (1177, 1, 300, 0, False),
    (10**4, 1, 300, 0, False),
    (119662, 1, 1, 0, True),       # the largest nu at g = 1, j = 1
    (119663, 1, 1, 0, False),
    (10**100, 1, 1, 0, False),
    # a denominator of 179,516 bits, the most at g = 1, j = 1, and one more
    (3, 1, 1, "1/1" + "0" * 54040, True),
    (3, 1, 1, "1/1" + "0" * 54041, False),
    # 3069 equal denominators count once: 64 bits, not 3069 * 64
    (3, 1023, 255, f"1/{2**64}", True),
    # 6000 distinct 30-digit denominators in 210 KB: 4 s of Fraction sums at j = 1
    (3, 2000, 1, "1/1{i:029d}", False),
    # 1/k for k = 2..6001: an lcm of 8,640 bits, where the product has 63,834 bits
    (3, 2000, 115, "1/{k}", True),
]


def cost_case_id(nu, g, j, weight, inside):
    """nu-g-j-inside, with a nonzero weight (or a long one's length) before
    inside."""
    if weight == 0:
        return f"{nu}-{g}-{j}-{inside}"
    shown = weight if len(weight) <= 24 else f"{len(weight)}-chars"
    return f"{nu}-{g}-{j}-{shown}-{inside}"


@pytest.mark.parametrize("nu, g, j, weight, inside", MAPCOUNT_COST_CASES,
                         ids=[cost_case_id(*case) for case in MAPCOUNT_COST_CASES])
@pytest.mark.usefixtures("no_digit_limit")
def test_mapcount_cost_bound(tmp_path, capsys, monkeypatch, nu, g, j, weight, inside):
    """A spec whose cost 3g(j+1)(8 + bit_length(nu)) + (b // 2^8)^2 +
    (d // 2^6)^2, with b = (j+2)(2nu + 2 bit_length(nu)) and d the bits of
    the lcm of the weights' denominators, one fewer, is above
    MAX_MAPCOUNT_COST exits 2 with one error line before any series runs.
    d is counted up to the first value whose term alone is above the
    bound. A str weight is formatted with its index i and k = i + 2."""
    assert cli.MAX_MAPCOUNT_COST == 30 * 2**18
    counted = []
    monkeypatch.setattr(cli, "map_count", lambda spec: counted.append(spec) or 0)
    weights = [weight.format(i=i, k=i + 2) if isinstance(weight, str) else weight
               for i in range(3 * g)]
    doc = {"nu": nu, "g": g, "a": weights}
    path = write_coeffs(tmp_path, json.dumps(doc, separators=(",", ":")))
    code, out, err = run_cli(capsys, "mapcount", path, "--j", str(j))
    bits = (j + 2) * (2 * nu + 2 * nu.bit_length())
    cap = (math.isqrt(cli.MAX_MAPCOUNT_COST) + 1) * 64
    assert ((cap >> 6) - 1) ** 2 <= cli.MAX_MAPCOUNT_COST < (cap >> 6) ** 2
    # An lcm only grows as denominators join it, so once one past cap bits
    # is reached, in any order, d is cap: the full lcm of 6000 30-digit
    # denominators would take seconds.
    lcm = 1
    for q in sorted(Fraction(w).denominator for w in weights):
        lcm = math.lcm(lcm, q)
        if lcm.bit_length() > cap:
            break
    d = min(lcm.bit_length() - 1, cap)
    cost = 3 * g * (j + 1) * (8 + nu.bit_length()) + (bits >> 8) ** 2 + (d >> 6) ** 2
    assert (cost <= cli.MAX_MAPCOUNT_COST) == inside
    if inside:
        assert (code, out, err, len(counted)) == (0, "0\n", "", 1)
    else:
        assert (code, out, counted) == (2, "", [])
        assert err == (f"error: map-count cost = {cost} is above "
                       f"the bound of {cli.MAX_MAPCOUNT_COST}\n")


def test_mapcount_exponent_weight_fails_fast(tmp_path, capsys):
    """A 48-byte file whose weight is "1e1000000" would parse to a
    million-digit integer; it exits 2 at once, naming the weight."""
    path = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1e1000000", "0", "0"]}')
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mapcount", path, "--j", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: a[0]: exponent notation") and err.count("\n") == 1


def test_mapcount_weight_with_digit_separators(tmp_path, capsys):
    path = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1", "0", "1_000"]}')
    code, out, err = run_cli(capsys, "mapcount", path, "--j", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: a[2]: digit separators are not accepted\n"


@pytest.mark.parametrize("weight", ["\u0661\u0662", "\u0663/\u0664", "\uff11\uff12", "\u00a01"],
                         ids=["arabic-indic", "arabic-indic-ratio", "full-width", "no-break-space"])
def test_mapcount_non_ascii_weight(tmp_path, capsys, weight):
    """Weights in non-ASCII digits or spaces, which Fraction would read, exit 2
    with one error line naming the file, and print no count."""
    path = write_coeffs(tmp_path, json.dumps({"nu": 2, "g": 1, "a": [weight, "0", "1"]},
                                             ensure_ascii=False))
    code, out, err = run_cli(capsys, "mapcount", path, "--j", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: a[0]: only ASCII characters are accepted\n"


def test_mapcount_file_not_utf8(tmp_path, capsys):
    """A file that is not UTF-8 is a usage error naming the file, as a
    file that is not JSON is."""
    path = tmp_path / "coeffs.json"
    path.write_bytes(b'\xff\xfe{"nu": 2, "g": 1, "a": ["1", "0", "0"]}')
    code, out, err = run_cli(capsys, "mapcount", str(path), "--j", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not valid JSON (") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_mapcount_endless_file(capsys):
    code, out, err = run_cli(capsys, "mapcount", "/dev/zero", "--j", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: /dev/zero: size is above the bound") and err.count("\n") == 1


def test_mapcount_missing_file(capsys):
    code, _, err = run_cli(capsys, "mapcount", "/nonexistent/coeffs.json", "--j", "1")
    assert code == 2
    assert "error:" in err


# -- entry points ------------------------------------------------------------------

def child_env(unbuffered=None):
    """The environment of a fresh hypident process: it imports the same
    hypident as this test, installed or not, and runs under python -u iff
    unbuffered is set."""
    env = {**os.environ, "PYTHONPATH": str(Path(hypident.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return env if unbuffered is None else {**env, "PYTHONUNBUFFERED": unbuffered}


def test_python_m_entrypoint():
    for unbuffered in (None, "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "hypident", "eval", "both", "1", "1"],
            capture_output=True,
            text=True,
            env=child_env(unbuffered),
        )
        assert proc.returncode == 0
        assert proc.stdout == "lhs=6 rhs=6 equal=true\n"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_installed_script_is_the_entrypoint():
    """pyproject.toml's hypident script resolves to cli.entrypoint."""
    import tomllib

    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, name = scripts["hypident"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.entrypoint


@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("argv", [
    ("verify", "--j", "1", "--n", "1..2000", "--format", "csv"),  # one cell, 1.25 MB
    ("table", "L", "--jmax", "200"),  # 3.9 MB
    ("verify", "--j", "1..3", "--n", "1..20", "--format", "csv"),  # fits stdout's buffer
    ("eval", "lhs", "20000", "30"),  # fits stdout's buffer
])
def test_a_report_past_the_file_size_limit_exits_2(tmp_path, argv, unbuffered):
    """A report that cannot be written whole exits 2 with one error line,
    buffered or under python -u, and nothing fails again at exit."""
    resource = pytest.importorskip("resource")

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE,
                           (1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    with open(tmp_path / "report", "wb") as out:
        proc = subprocess.run([sys.executable, "-m", "hypident", *argv], stdout=out,
                              stderr=subprocess.PIPE, text=True, env=child_env(unbuffered),
                              preexec_fn=limit_file_size)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}")
    assert "Exception ignored" not in proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child")
@pytest.mark.parametrize("argv", [
    ("verify", "--j", "1..3", "--n", "1..5"),
    ("table", "R", "--jmax", "4"),
    ("eval", "both", "7", "3"),
    ("mapcount", "{coeffs}", "--j", "2"),
])
def test_a_closed_stdout_exits_2(tmp_path, argv):
    coeffs = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1", "0", "0"]}')
    argv = [arg.format(coeffs=coeffs) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "hypident", *argv], stderr=subprocess.PIPE,
                          text=True, env=child_env(), preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert proc.stderr == "error: stdout is closed\n"


@pytest.mark.skipif(os.name != "posix", reason="closes fd 2 in the child")
@pytest.mark.parametrize("argv", [
    ("verify", "--j", "1..3", "--n", "1..5", "--format", "json"),
    ("table", "R", "--jmax", "4"),
    ("eval", "both", "7", "3"),
    ("mapcount", "{coeffs}", "--j", "2"),
    ("--version",),
])
def test_a_closed_stderr_exits_2_and_writes_nothing(tmp_path, argv):
    """With fd 2 closed, sys.stderr is None, and print(file=None) would
    write the summary or an error line to stdout, into the report."""
    coeffs = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1", "0", "0"]}')
    argv = [arg.format(coeffs=coeffs) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "hypident", *argv], stdout=subprocess.PIPE,
                          env=child_env(), preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (2, b"")


def run_with_broken_stderr(argv, unbuffered=None):
    """A fresh hypident process whose stderr is a pipe nobody reads."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "hypident", *argv], stdout=subprocess.PIPE,
                              stderr=write_end, env=child_env(unbuffered))
    finally:
        os.close(write_end)


@pytest.mark.skipif(os.name != "posix", reason="needs a pipe with no reader")
@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("k", ["1", "2"])
@pytest.mark.parametrize("span", [
    ("--j", "1", "--n", "1..2"),  # fits stdout's buffer
    ("--j", "0..12", "--n", "1..40"),  # 480 rows, past it
])
def test_a_broken_stderr_exits_2_after_the_whole_report(span, k, unbuffered):
    """The summary cannot be written, so verify exits 2, not 1 (which means
    a failing point), and stdout still holds the whole report."""
    argv = ("verify", *span, "--format", "json", "--parallelism", k)
    whole = subprocess.run([sys.executable, "-m", "hypident", *argv], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, env=child_env())
    assert whole.returncode == 0
    proc = run_with_broken_stderr(argv, unbuffered)
    assert (proc.returncode, proc.stdout) == (2, whole.stdout)


@pytest.mark.skipif(os.name != "posix", reason="needs a pipe with no reader")
def test_a_broken_stderr_keeps_exit_2_for_bad_input_and_0_for_eval():
    assert run_with_broken_stderr(("verify", "--n", "0..2")).returncode == 2
    assert run_with_broken_stderr(("verify", "--format", "xml")).returncode == 2
    proc = run_with_broken_stderr(("eval", "both", "3", "2"))
    assert (proc.returncode, proc.stdout) == (0, b"lhs=384 rhs=384 equal=true\n")


@pytest.mark.skipif(os.name != "posix", reason="needs a pipe with no reader")
@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("argv", [("--version",), ("verify", "--help")])
def test_version_or_help_to_a_broken_stdout_exits_2_and_writes_nothing(argv, unbuffered):
    """argparse ignores a failed write and exits 0; the text left in
    stdout's buffer fails at entrypoint's flush (exit 2), not at the
    interpreter's closing flush (exit 120, "Exception ignored")."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hypident", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=child_env(unbuffered))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")


# entrypoint ends the process with os._exit, so the interpreter's teardown,
# which used to finalise a file or pipe left open (a ResourceWarning), no
# longer runs. This launcher checks, just before the real os._exit of the
# main process, that only fds 0, 1 and 2 are open and that nothing left
# over warns when gc.collect() finalises it. Under -W error::ResourceWarning
# a warning in a finaliser goes to sys.unraisablehook, which the launcher
# records from the start. A leak exits 99 with one "leak:" line; else the
# check writes "exit checked" last on stderr.
LEAK_CHECKED = """
import gc, os, sys
unraisable = []
sys.unraisablehook = unraisable.append
real_exit, pid = os._exit, os.getpid()

def is_open(fd):
    try:
        os.fstat(fd)
    except OSError:  # listdir's own fd, closed by now
        return False
    return True

def checked_exit(code):
    if os.getpid() == pid:  # a forked worker's pipe is its own to close
        fds = sorted(fd for fd in map(int, os.listdir("/proc/self/fd")) if is_open(fd))
        gc.collect()
        if fds != [0, 1, 2] or unraisable:
            warned = [str(hook.exc_value) for hook in unraisable]
            os.write(2, f"leak: fds {fds}, warnings {warned}\\n".encode())
            code = 99
        else:
            os.write(2, b"exit checked\\n")
    real_exit(code)

os._exit = checked_exit
{prelude}
from hypident.cli import entrypoint
entrypoint()
"""


def run_leak_checked(argv, prelude=""):
    return subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-c",
         LEAK_CHECKED.replace("{prelude}", prelude), *argv],
        capture_output=True, env=child_env())


needs_proc_fds = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                    reason="lists open fds in /proc/self/fd")


@needs_proc_fds
@pytest.mark.parametrize("argv, code", [
    (("verify", "--j", "1..3", "--n", "1..5", "--format", "json", "--parallelism", "1"), 0),
    (("verify", "--j", "1..3", "--n", "1..5", "--format", "json", "--parallelism", "2"), 0),
    (("verify", "--j", "1..3", "--n", "1..5", "--parallelism", "1", "--out", "{out}"), 0),
    (("verify", "--j", "1..3", "--n", "1..5", "--parallelism", "2", "--out", "{out}"), 0),
    (("table", "R", "--jmax", "4"), 0),
    (("eval", "both", "7", "3"), 0),
    (("mapcount", "{coeffs}", "--j", "2"), 0),
    (("--version",), 0),
    (("verify", "--format", "xml"), 2),
])
def test_a_process_exits_with_no_file_open_and_nothing_to_finalise(tmp_path, argv, code):
    coeffs = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1", "0", "0"]}')
    argv = [arg.format(coeffs=coeffs, out=tmp_path / "report") for arg in argv]
    proc = run_leak_checked(argv)
    assert proc.stderr.endswith(b"exit checked\n") and b"leak:" not in proc.stderr
    assert proc.returncode == code, proc.stderr


@needs_proc_fds
@pytest.mark.parametrize("prelude, found", [
    ("held = open(os.devnull)", b"leak: fds [0, 1, 2, 3], warnings []"),
    ("open(os.devnull)", b"unclosed file"),
    # still open at exit, or finalised by a collection during the run
    ("cycle = [open(os.devnull)]; cycle.append(cycle); del cycle", b"leak: "),
], ids=["held", "dropped", "in-a-cycle"])
def test_the_leak_check_finds_a_file_left_open(prelude, found):
    proc = run_leak_checked(["eval", "both", "7", "3"], prelude)
    assert proc.returncode == 99
    assert found in proc.stderr


# rigged is cli._sweep_cell raising {fault} at j = 4, as a failed
# integrality check (ArithmeticError) or a bug (TypeError, say) would;
# in-process and in a fresh process alike.
RIGGED_SWEEP_CELL = """
from hypident import cli
check = cli._sweep_cell

def rigged(cell):
    if cell[0] == 4:
        raise {fault}("rigged at j=4")
    return check(cell)
"""


@pytest.mark.parametrize("fault", ["ArithmeticError", "TypeError"])
@pytest.mark.parametrize("k", ["1", "2"])
def test_an_internal_error_writes_the_truncated_report_before_exit_3(monkeypatch, capsys,
                                                                      forks, k, fault):
    """The rows written before the error still sit in stdout's buffer (they
    fit in it) when entrypoint ends the process; its flush writes them, so
    a fresh process prints the bytes of main in-process."""
    argv = ["verify", "--j", "1..6", "--n", "1..5", "--format", "json", "--parallelism", k]
    rig = RIGGED_SWEEP_CELL.format(fault=fault)
    launcher = rig + "cli._sweep_cell = rigged\ncli.entrypoint()\n"
    proc = subprocess.run([sys.executable, "-c", launcher, *argv], capture_output=True,
                          text=True, env=child_env())
    namespace = {}
    exec(rig, namespace)
    monkeypatch.setattr(cli, "_sweep_cell", namespace["rigged"])
    code, out, err = run_cli(capsys, *argv)
    assert code == proc.returncode == 3
    assert out.startswith('[\n  {\n    "N": 1,\n    "j": 1,') and 0 < len(out) < 8192
    assert proc.stdout == out
    assert proc.stderr == err and err.count("internal error:") == err.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, code, out, err", [
    (("--version",), 0, f"hypident {hypident.__version__}\n", ""),
    (("verify", "--help"), 0, "usage: hypident verify [-h]", ""),
    (("verify", "--format", "xml"), 2, "",
     "hypident verify: error: argument --format: invalid choice: 'xml'"),
])
def test_version_help_and_usage_errors_in_a_fresh_process(argv, code, out, err):
    proc = subprocess.run([sys.executable, "-m", "hypident", *argv], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == code
    assert proc.stdout.startswith(out) and bool(proc.stdout) == bool(out)
    if err:
        assert proc.stderr.startswith("usage: hypident verify")
        assert proc.stderr.splitlines()[-1].startswith(err)
    else:
        assert proc.stderr == ""


# -- what a process imports -------------------------------------------------------

POOL_AND_DATACLASSES = ("concurrent", "multiprocessing", "dataclasses")


def imported_modules(*argv, env=None):
    """Every module a fresh ``python -S ARGV`` imports, as -X importtime
    lists them, with env added to the environment; -S keeps the site
    hooks' own imports out of the list."""
    env = {**child_env(), **(env or {})}
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *argv],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    } - {"imported package"}


def pool_or_dataclasses(modules):
    return sorted(m for m in modules if m.split(".")[0] in POOL_AND_DATACLASSES)


@pytest.mark.parametrize("argv", [
    ("--version",),
    ("eval", "both", "7", "3"),
    ("table", "R", "--jmax", "4", "--format", "json"),
    ("mapcount", "{coeffs}", "--j", "2"),
    ("verify", "--j", "1..3", "--n", "1..5", "--mode", "cross", "--parallelism", "1"),
])
def test_commands_import_no_pool_and_no_dataclasses(tmp_path, argv):
    coeffs = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1", "0", "0"]}')
    argv = [arg.format(coeffs=coeffs) for arg in argv]
    modules = imported_modules("-m", "hypident", *argv)
    assert "hypident.cli" in modules
    assert pool_or_dataclasses(modules) == []


def test_import_hypident_imports_no_dataclasses():
    """Nor typing: the library's modules annotate with built-in and
    collections.abc types only (cli's NoReturn has no such substitute)."""
    modules = imported_modules("-c", "import hypident")
    assert "hypident.identity" in modules
    assert pool_or_dataclasses(modules) == []
    assert "typing" not in modules
    # the library writes its documents, but never loads the fork runner
    assert "hypident.render" in modules and not {"hypident.workers", "hypident.cli"} & modules


def test_a_pooled_sweep_imports_no_pool():
    """Pooled or not, a sweep imports neither concurrent.futures nor
    multiprocessing; only its forked workers import signal."""
    modules = imported_modules("-m", "hypident", "verify", "--j", "1..2", "--n", "1..3",
                               "--parallelism", "2")
    assert ("signal" in modules) == (runner._cpus() > 1 and hasattr(os, "fork"))
    assert pool_or_dataclasses(modules) == []


# fractions imports decimal; both and json are for map counts alone.
MAP_COUNT_MODULES = ("fractions", "decimal", "_decimal", "_pydecimal", "json", "_json")


@pytest.mark.parametrize("argv", [
    ("-c", "import hypident"),
    ("-m", "hypident", "verify", "--j", "1..3", "--n", "1..5", "--parallelism", "1"),
    ("-m", "hypident", "verify", "--j", "1..3", "--n", "1..5", "--mode", "cross",
     "--format", "json", "--parallelism", "2"),
    ("-m", "hypident", "table", "R", "--jmax", "4", "--format", "json"),
    ("-m", "hypident", "eval", "both", "7", "3"),
])
def test_only_mapcount_imports_fractions_and_json(argv):
    """A pooled sweep's workers write their imports to the same stderr."""
    modules = imported_modules(*argv)
    assert "hypident.identity" in modules
    assert sorted(m for m in modules if m.split(".")[0] in MAP_COUNT_MODULES) == []


def test_mapcount_imports_fractions_and_json(tmp_path):
    coeffs = write_coeffs(tmp_path, '{"nu": 2, "g": 1, "a": ["1", "0", "0"]}')
    modules = imported_modules("-m", "hypident", "mapcount", coeffs, "--j", "2")
    assert {"fractions", "decimal", "json"} <= modules


def test_parallelism_comes_only_from_the_flag():
    """A worker count in the environment starts no pool: the sweep
    neither starts nor imports one."""
    modules = imported_modules("-m", "hypident", "verify", "--j", "1..4", "--n", "1..3",
                               "--mode", "cross", env={"HYPIDENT_PARALLELISM": "2"})
    assert "hypident.cli" in modules
    assert pool_or_dataclasses(modules) == []
