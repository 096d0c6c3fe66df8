"""A generative test of the CLI contract for verify, table, eval and
mapcount.

Whatever the arguments, ``cli.main`` returns 0 with a report that parses
in its format, or exits 2 with one error line (its own ``error: ...``, or
argparse's usage error), and no other exception escapes. An integer
argument is an optional sign and ASCII digits: one written with "_" or
non-ASCII digits, which int() reads, is a usage error. Whatever bytes a
coefficient file holds, ``mapcount`` prints one exact rational or exits 2
with one ``error:`` line. The bounds are patched down so that examples
near and past them stay quick, each within a deadline, and ``cli._cpus``
reads 1 so that no example forks.
"""

import contextlib
import csv
import io
import json
import os
import re
import tempfile
from datetime import timedelta
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypident import cli, identity
from hypident.identity import MODES
from hypident.triangles import KINDS

MAX_N, MAX_J, MAX_GRID = 200, 12, 2**24
# Hypothesis lifts the recursion limit to about 2000 frames above the
# test's depth, so only a file of more than about 4000 bytes of brackets
# nests deeper than json decodes; the file bound leaves room for one.
MAX_COEFF_FILE_BYTES, MAX_MAPCOUNT_COST = 2**14, 2**16

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
            mock.patch.object(cli, "MAX_MAPCOUNT_COST", MAX_MAPCOUNT_COST), \
            mock.patch.object(identity, "MAX_COEFF_FILE_BYTES", MAX_COEFF_FILE_BYTES), \
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


# A coefficient file is drawn as JSON text with at most one fault, and
# with whether the loader takes it: True, False, or None where the draw
# alone does not say (junk text may still be a rational).

def json_string(draw, text):
    """text as a JSON string literal: escaped by json.dumps, ASCII only or
    not, or with every character a \\u escape (a surrogate pair above
    U+FFFF), so that "7" may arrive as "\\u0037"."""
    if draw(st.booleans()):
        return json.dumps(text, ensure_ascii=draw(st.booleans()))
    units = text.encode("utf-16-be", "surrogatepass")
    return '"' + "".join(f"\\u{units[i]:02x}{units[i + 1]:02x}"
                         for i in range(0, len(units), 2)) + '"'


def nested(depth):
    return "[" * depth + "]" * depth


# Weight strings that Fraction reads and the loader takes, and ones that
# the loader rejects: exponent notation, "_" separators, non-ASCII digits
# (which Fraction reads), and text Fraction itself refuses.
RATIONALS = st.from_regex(
    r"\A *[+-]?([0-9]{1,40}(/0*[1-9][0-9]{0,40})?|[0-9]{1,40}\.[0-9]{0,40}|\.[0-9]{1,40}) *\Z")
LONG_DIGITS = (st.integers(1, 100) | st.integers(15000, 20000)).map(lambda n: "7" * n)
REJECTED = st.one_of(
    st.from_regex(r"\A[+-]?[0-9]{1,3}(\.[0-9]{0,3})?[eE][+-]?[0-9]{1,4}\Z"),
    st.from_regex(r"\A[0-9]{1,4}(_[0-9]{1,4})+(/[1-9](_?[0-9]){0,3})?\Z"),
    st.tuples(RATIONALS, st.sampled_from(DIGITS[1:])).map(
        lambda pair: pair[0].translate(str.maketrans(DIGITS[0], pair[1]))),
    st.sampled_from(["1/", "/2", "1//2", "", ".", "+-1", "1/0", "0/0", "3/-4", "1.5/2", "nan",
                     "Infinity", "0x1F", "1 2", "\ud800", "7\udfff"]),
)
# JSON values that are not a string or an integer, written as JSON text,
# NaN and Infinity included (json reads them).
SHALLOW = st.sampled_from(["1.5", "1e5", "1E400", "-0.0", "NaN", "Infinity", "-Infinity", "true",
                           "false", "null", "{}", '["1"]', '{"p": 1}'])
NOT_RATIONALS = SHALLOW | st.integers(1, 50).map(nested)


TAKEN_KINDS = ["int", "string"]
BAD_KINDS = ["rejected", "rejected", "not a string", "junk"]


@st.composite
def weights(draw, kinds):
    """(JSON text, taken) for one entry of "a", of one of kinds."""
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return str(draw(st.integers(-10**30, 10**30))), True
    if kind == "string":
        return json_string(draw, draw(RATIONALS)), True
    if kind == "long":
        digits = draw(LONG_DIGITS)
        return draw(st.sampled_from([digits, json_string(draw, digits)])), True
    if kind == "rejected":
        return json_string(draw, draw(REJECTED)), False
    if kind == "not a string":
        return draw(NOT_RATIONALS), False
    return json_string(draw, draw(st.text(st.characters(blacklist_categories=()),
                                          max_size=6))), None


FAULTS = [None] * 3 + ["weight"] * 6 + ["long weight", "deep weight"] + [
    "nu", "g", "count", "missing key", "unknown key", "a not an array", "not an object",
    "truncated", "bad byte", "re-encoded"]
# Values of nu and g that the loader rejects: below the least one, of
# another type, or (for g) not a third of the weights' number.
BAD_FIELDS = {
    "nu": ["1", "0", "-5", '"2"', "2.0", "true", "null", "NaN", "[2]"],
    "g": ["0", "-1", '"1"', "1.0", "false", "null", "Infinity", "{}", str(10**1000)],
}


@st.composite
def coefficient_files(draw):
    """(bytes, taken) for a file with the fault drawn from FAULTS."""
    fault = draw(st.sampled_from(FAULTS))
    nu = draw(st.integers(2, 10) | st.integers(2, 3000) | st.just(10**1000))
    g = draw(st.integers(1, 12))
    entries = [draw(weights(TAKEN_KINDS))[0] for _ in range(3 * g)]
    taken = fault in (None, "long weight", "re-encoded")
    if fault in ("weight", "long weight"):
        entry, taken = draw(weights(BAD_KINDS if fault == "weight" else ["long"]))
        entries[draw(st.integers(0, 3 * g - 1))] = entry
    elif fault == "deep weight":
        entries[draw(st.integers(0, 3 * g - 1))] = nested(draw(st.integers(4000, 8000)))
    elif fault == "count":
        entries = entries[1:] if draw(st.booleans()) else [*entries, "1"]
    members = {'"nu"': str(nu), '"g"': str(g), '"a"': "[" + ", ".join(entries) + "]"}
    if fault in BAD_FIELDS:
        members[f'"{fault}"'] = draw(st.sampled_from(BAD_FIELDS[fault]))
    elif fault == "missing key":
        del members[draw(st.sampled_from(['"nu"', '"g"', '"a"']))]
    elif fault == "unknown key":
        # Any other key is rejected, whatever its name and value.
        key = draw(st.text(st.characters(blacklist_categories=()), max_size=4).filter(
            lambda key: key not in ("nu", "g", "a")))
        members[json_string(draw, key)] = draw(SHALLOW | st.integers().map(str))
    elif fault == "a not an array":
        members['"a"'] = draw(st.sampled_from(['"1"', "{}", "3", "null"]))
    order = draw(st.permutations(sorted(members)))
    text = "{" + ", ".join(f"{key}: {members[key]}" for key in order) + "}"
    if fault == "not an object":
        text = draw(st.sampled_from(["[]", '"nu"', "3", "null", "", nested(5000), nested(9000)]))
    elif fault == "truncated":  # the object is never closed
        text = text[:draw(st.integers(0, len(text) - 1))]
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, unescaped: never UTF-8
        data, taken = text.encode("utf-8", "surrogatepass"), False
    if fault == "bad byte":
        # One byte more leaves a lead byte short or a continuation stray.
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
        data = data[:at] + byte + data[at:]
    elif fault == "re-encoded":
        data = draw(st.sampled_from([b"\xef\xbb\xbf" + data, text.encode("latin-1", "replace"),
                                     text.encode("utf-16", "surrogatepass")]))
        # Latin-1 is UTF-8 on ASCII text.
        taken = taken and data == text.encode("utf-8")
    return data, taken


def one_weight(entry, taken):
    """(bytes, taken) for a g = 1 file whose first weight is entry, as JSON."""
    return f'{{"nu": 2, "g": 1, "a": [{entry}, "1", "1"]}}'.encode("utf-8", "surrogatepass"), taken


# A file the loader takes fails only on a bound: its size, or the count's
# cost; one it rejects always fails, before its cost is worked out. The
# examples hold one weight of each grammar.
@settings(deadline=timedelta(seconds=2))
@example(one_weight('" -3/4 "', True), 3)
@example(one_weight('"0.25"', True), 3)
@example(one_weight("7" * 40, True), 3)
@example(one_weight('"\\u0037"', True), 3)
@example(one_weight('"1e5"', False), 3)
@example(one_weight('"1_000"', False), 3)
@example(one_weight('"\\u0663/\\u0664"', False), 3)
@example(one_weight('"\\ud800"', False), 3)
@example(one_weight('"1//2"', False), 3)
@example(one_weight("1.5", False), 3)
@example(one_weight(nested(5000), False), 3)
@example(one_weight('"\udfff"', False), 3)
@example((b'{"a": [0, 0, 1], "g": 1, "nu": 1420}', True), 5)  # a count of 4302 digits
@example((b'{"nu": true, "g": 1, "a": [1, 1, 1]}', False), 3)  # MapCountSpec's TypeError
@example((b'{"nu": 2, "g": 1.0, "a": [1, 1, 1]}', False), 3)
@given(coefficient_files(), st.sampled_from(["in", "in", "in", "out"]).flatmap(
    lambda side: st.integers(1, MAX_J) if side == "in" else st.sampled_from([-1, 0, MAX_J + 1])))
@pytest.mark.usefixtures("no_digit_limit")
def test_mapcount_exits_0_with_a_rational_or_2_with_one_error_line(file, j):
    data, taken = file
    if not 1 <= j <= MAX_J:
        taken = False
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "coeffs.json")
        with open(path, "wb") as fh:
            fh.write(data)
        code, out, err = run(["mapcount", path, "--j", str(j)])
    assert code in (0, 2), (data, code, err)
    assert taken is not False or code == 2 and "error: map-count cost" not in err, (data, j, err)
    if code == 0:
        assert err == "" and re.fullmatch(r"-?\d+(/\d+)?\n", out), (data, out, err)
        Fraction(out)
    else:
        assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), (data, err)
        bounds = ("error: map-count cost = ", f"error: {path}: size is above the bound")
        assert taken is not True or err.startswith(bounds), (data, j, err)
