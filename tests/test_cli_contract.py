"""A generative test of the CLI contract for verify, table and eval.

Whatever the arguments, ``cli.main`` returns 0 with a report that parses
in its format, or exits 2 with one error line (its own ``error: ...``, or
argparse's usage error), and no other exception escapes. An integer
argument is an optional sign and ASCII digits: one written with "_" or
non-ASCII digits, which int() reads, is a usage error. The bounds are
patched down so that examples near and past them stay quick, each within
a deadline, and ``cli._cpus`` reads 1 so that no example forks.
"""

import contextlib
import csv
import io
import json
import re
from datetime import timedelta
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from hypident import cli
from hypident.identity import MODES
from hypident.triangles import KINDS

MAX_N, MAX_J, MAX_GRID = 200, 12, 2**24

# ASCII, Arabic-Indic and full-width digits: int() reads each of them.
DIGITS = ["0123456789", "".join(map(chr, range(0x660, 0x66A))),
          "".join(map(chr, range(0xFF10, 0xFF1A)))]

# Junk stays on one line, so that an error line quoting it stays one line.
JUNK = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8)


@st.composite
def numbers(draw, bound):
    """(text, value): text that int() reads as value, an int at or next to
    0, 1 or bound, written in ASCII, non-ASCII or "_"-separated
    digits; or junk text, with value None."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK), None
    value = draw(st.sampled_from([-1, 0, 1, 2, bound - 1, bound, bound + 1]))
    digits = "".join(draw(st.sampled_from(DIGITS))[int(d)] for d in str(abs(value)))
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    return "-" * (value < 0) + digits, value


@st.composite
def spans(draw, bound):
    """(text, (lo, hi)) for an inclusive span "lo..hi", ascending more
    often than not, or a single "lo", with None for a part that is junk."""
    lo_text, lo = draw(numbers(bound))
    if draw(st.booleans()):
        return lo_text, (lo, lo)
    hi_text, hi = draw(numbers(bound))
    if None not in (lo, hi) and hi < lo and draw(st.booleans()):
        (lo_text, lo), (hi_text, hi) = (hi_text, hi), (lo_text, lo)
    return f"{lo_text}..{hi_text}", (lo, hi)


def choice(names):
    """(text, known): one of names, or junk text that may still be one."""
    junk = JUNK.map(lambda text: (text, text in names))
    return st.one_of(*[st.just((name, True)) for name in names], junk)


@st.composite
def verify_args(draw):
    j_text, js = draw(spans(MAX_J))
    n_text, ns = draw(spans(MAX_N))
    argv = ["verify", "--j", j_text, "--n", n_text]
    clean = None not in js + ns and 0 <= js[0] <= js[1] <= MAX_J and 1 <= ns[0] <= ns[1] <= MAX_N
    for flag, names in (("--mode", MODES), ("--format", ("plain", "json", "csv"))):
        if draw(st.booleans()):
            text, known = draw(choice(names))
            argv += [flag, text]
            clean = clean and known
    if draw(st.booleans()):
        text, k = draw(numbers(3))
        argv += ["--parallelism", text]
        clean = clean and k is not None and k >= 1
    return argv, clean, (js, ns)


@st.composite
def table_args(draw):
    kind, known = draw(choice(KINDS))
    text, jmax = draw(numbers(MAX_J))
    argv = ["table", kind, "--jmax", text]
    fmt = "csv"
    if draw(st.booleans()):
        fmt, known_fmt = draw(choice(("csv", "json")))
        argv += ["--format", fmt]
        known = known and known_fmt
    return argv, known and jmax is not None and 1 <= jmax <= MAX_J, (kind, jmax, fmt)


@st.composite
def eval_args(draw):
    side, known = draw(choice(("lhs", "rhs", "both")))
    n_text, n = draw(numbers(MAX_N))
    j_text, j = draw(numbers(MAX_J))
    clean = known and n is not None and j is not None and 1 <= n <= MAX_N and 0 <= j <= MAX_J
    return ["eval", side, n_text, j_text], clean, (side, n, j)


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), with the bounds
    patched down and one CPU seen. A SystemExit gives its code; any other
    exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "MAX_N", MAX_N), mock.patch.object(cli, "MAX_J", MAX_J), \
            mock.patch.object(cli, "MAX_GRID", MAX_GRID), \
            mock.patch.object(cli, "_cpus", lambda: 1), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_verify(argv, out, err, drawn):
    """One row per point of the grid the summary names, in (j, N) order,
    every one equal; and the grid is the one drawn where it was drawn
    clean."""
    summary = re.fullmatch(r"verify j=(\d+)\.\.(\d+) N=(\d+)\.\.(\d+) mode=(\w+): "
                           r"(\d+)/(\d+) points verified in \d+\.\d{3}s\n", err)
    assert summary, err
    j_lo, j_hi, n_lo, n_hi = map(int, summary.group(1, 2, 3, 4))
    grid = [(j, n) for j in range(j_lo, j_hi + 1) for n in range(n_lo, n_hi + 1)]
    assert summary.group(6) == summary.group(7) == str(len(grid))
    js, ns = drawn
    if None not in js + ns:
        assert (js, ns) == ((j_lo, j_hi), (n_lo, n_hi))
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "plain"
    if fmt == "json":
        rows = [(r["j"], r["N"], r["lhs"], r["rhs"], r["equal"], r["micros"])
                for r in json.loads(out)]
        assert all(isinstance(r[2], str) for r in rows)
    elif fmt == "csv":
        lines = list(csv.reader(io.StringIO(out)))
        assert lines[0] == ["N", "j", "lhs", "rhs", "equal", "micros"]
        rows = [(int(j), int(n), lhs, rhs, equal == "true", int(micros))
                for n, j, lhs, rhs, equal, micros in lines[1:]]
    else:
        rows = [(int(j), int(n), lhs, rhs, True, 0) for j, n, lhs, rhs in re.findall(
            r"^j=(\d+) N=(\d+) lhs=(\d+) rhs=(\d+) equal=true$", out, re.M)]
        assert len(out.splitlines()) == len(rows)
    assert [row[:2] for row in rows] == grid
    assert all(lhs == rhs and int(lhs) > 0 and equal and micros == 0
               for _, _, lhs, rhs, equal, micros in rows)


def check_table(out, drawn):
    """Rows 1..jmax, row j with j + 1 entries, where jmax is the one drawn
    if it was drawn clean."""
    kind, jmax, fmt = drawn
    if fmt == "json":
        table = json.loads(out)
        assert table["kind"] == kind and table["max_level"] == len(table["rows"])
        rows = table["rows"]
    else:
        rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [j + 1 for j in range(1, len(rows) + 1)]
    assert jmax is None or len(rows) == jmax
    assert all(int(v) >= 0 for row in rows for v in row)


def check_eval(out, drawn):
    if drawn[0] == "both":
        match = re.fullmatch(r"lhs=(\d+) rhs=(\d+) equal=true\n", out)
        assert match and match.group(1) == match.group(2)
    else:
        assert re.fullmatch(r"\d+\n", out)


# The slowest example takes about 0.1 s; the deadline leaves room for a slow host.
@settings(deadline=timedelta(seconds=2))
@given(st.one_of(verify_args().map(lambda a: ("verify", *a)),
                 table_args().map(lambda a: ("table", *a)),
                 eval_args().map(lambda a: ("eval", *a))))
def test_cli_exits_0_with_a_report_or_2_with_one_error_line(case):
    command, argv, clean, drawn = case
    code, out, err = run(argv)
    assert code in (0, 2), (argv, code, err)
    if any("_" in arg or any(c.isdigit() and not c.isascii() for c in arg) for arg in argv):
        # No argument that holds either is a number or a name the CLI reads.
        assert (code, out) == (2, "") and err.startswith("usage: "), (argv, err)
    elif code == 2:
        assert out == ""
        last = err.splitlines()[-1]
        assert last.startswith(("error: ", f"hypident {command}: error: ")), (argv, err)
        assert err == last + "\n" or err.startswith("usage: "), (argv, err)
        # A clean command fails only on the grid bound.
        assert not clean or last.startswith("error: grid size = "), (argv, err)
    elif command == "verify":
        check_verify(argv, out, err, drawn)
    elif command == "table":
        assert err == ""
        check_table(out, drawn)
    else:
        assert err == ""
        check_eval(out, drawn)
