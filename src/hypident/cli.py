"""Command-line front end: verification sweeps, table dumps, point
evaluation, and map counts.

Subcommands:

  verify    check the identity over a (j, N) grid; exit 0 iff every
            point verifies, 1 if any fails, 2 on usage/domain errors,
            3 on any other exception, whatever K; 130 when interrupted
  table     dump triangle rows as CSV or JSON (triangles.table_pieces)
  eval      evaluate one side (or both) of the identity at a single point;
            eval both checks it, and exits as verify does
  mapcount  evaluate the map-count formula from a JSON coefficient file

Reports go to stdout (or --out FILE); the human summary and the FAIL
lines go to stderr, so JSON/CSV report streams stay machine-clean.
Without --timings (the default), identical configs produce byte-identical
output whatever --parallelism K asks for. A sweep that ends in an error or
an interrupt may leave a truncated report, and never leaves a worker
running.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import sys
import time
from collections import namedtuple
from itertools import compress, count
from operator import not_
from typing import Iterator, NoReturn, TextIO

from . import __version__
from .exact_arith import _check_int
from .hypergeom import _check_run
from .identity import (
    MODES,
    CellReport,
    _check_mode,
    check_cell,
    lhs_fast,
    map_count,
    mapcount_spec_from_file,
    rhs_fast,
)
from .render import FORMATS, TABLE_FORMATS, _render_reports, report
from .triangles import KINDS, table_pieces
from .workers import run_tasks

# Printing an exact value takes time quadratic in its digits (CPython's
# str(int)); at N = 10^6 one value takes over a second, so a sweep over
# many such N is limited by MAX_GRID.
MAX_N = 1_000_000
# `table` writes each row as soon as it is built. The recurrence triangles
# (C, R) keep every row up to the largest j asked for and the L closed form
# only its last, so time grows roughly as j^3, and so does memory for C and
# R: `table L --jmax 300` takes about 0.5 s and 15 MB, `table R --jmax 300`
# 0.2 s and 22 MB; rows 1..500 about 2.2 s and 15 MB for L, 0.9 s and 50 MB
# for R.
MAX_J = 300
# A sweep keeps one j cell's values at a time, and printing a value takes
# time quadratic in its bits. So a grid's size is its number of points
# times b^2 for its largest value, which is at most 2^N (2N + 4j)^j and so
# has about b = N + j * bit_length(2N + 4j) bits. The brute-force routes of
# the direct and cross modes add up to N+1 terms of up to b bits per point
# (rhs_direct_run seeds its walk with n_min + 1 products per N of the run,
# then only adds; lhs_direct_run sums j+1 series terms per N), at 45 to
# 1900 times printing's cost per bit for both routes together (measured at
# j = 1, 40 and 300): the most at large j far from N = 1, the least at
# small j from N = 1. Those modes add BRUTE_FORCE_WEIGHT * (N + 1) * b per
# point. That bounds their cost but does not match it to fast mode's: near
# the bound, `verify --j 300 --n 30000 --mode direct` spent 2.65 to 4.6 s in
# its sweep against 1.4 to 1.6 s for `--j 300 --n 1000000` in fast mode,
# while `--j 1 --n 1..1000 --mode cross` took 0.02 to 0.04 s and `1..1030`
# is above the bound. One point at N = MAX_N, j = MAX_J in fast mode, and
# the benchmark and CI grids in every mode, are inside the bound
# (measurements in README).
MAX_GRID = 2**40
BRUTE_FORCE_WEIGHT = 1000
# A map count sums 3g 2F1 series of j+1 terms each, every weight included,
# and a term's time grows with the bits of the argument 1/(1-nu), about as
# 8 + bit_length(nu). The value carries (2nu(nu-1)C(2nu-1, nu-1))^j: j
# factors of at most 2nu + 2 bit_length(nu) bits, printed in time quadratic
# in their bits. b counts two factors more, which covers math.comb building
# C(2nu-1, nu-1) in time quadratic in nu. The sum's denominator divides the
# lcm of the weights' denominators, of d + 1 bits, and adding and printing
# take time quadratic in it. So a spec's cost is
# 3g(j+1)(8 + bit_length(nu)) + (b // 2^8)^2 + (d // 2^6)^2,
# b = (j+2)(2nu + 2 bit_length(nu)), all parts in units of about 0.1 us.
# The bound is 3 * 2^18 terms at the weight 10 of nu <= 3; a spec at it
# takes one to two seconds (measurements in README).
MAX_MAPCOUNT_COST = 30 * 2**18

__all__ = ["SweepConfig", "entrypoint", "main", "run_sweep"]


class SweepConfig(
    namedtuple("SweepConfig", "j_min j_max n_min n_max mode parallelism fmt timings",
               defaults=("fast", 1, "plain", False))
):
    """A verification sweep: inclusive j/N ranges, mode, worker count, and
    the report format and timings flag its cells are rendered with. Every
    field is checked here, so a bad config fails before a sweep writes
    anything; j_min, n_min and n_max as a point's run, by ``_check_run``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SweepConfig:
        self = super().__new__(cls, *args, **kwargs)
        j_min, j_max, n_min, n_max, mode, parallelism, fmt, timings = self
        for name in ("j_min", "j_max", "n_min", "n_max", "parallelism"):
            _check_int(name, getattr(self, name))
        _check_run(j_min, n_min, n_max)
        if j_min > j_max:
            raise ValueError(f"bad j range {j_min}..{j_max}")
        if n_min > n_max:
            raise ValueError(f"bad N range {n_min}..{n_max}")
        _check_int("parallelism", parallelism, 1)
        _check_mode(mode)
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}; expected plain, json or csv")
        if not isinstance(timings, bool):
            raise TypeError(f"timings must be a bool, got {type(timings).__name__}")
        return self


def _sweep_cell(cell: tuple[int, int, int, str]) -> CellReport:
    return check_cell(*cell)


def _sweep_task(config: SweepConfig, j: int) -> tuple[str, list[str]]:
    """Cell j of config, checked, timed and rendered where it runs: the
    cell's rows in config.fmt and the FAIL line of each failing point. So
    a worker sends back text, not reports. With timings, each row's micros
    is its equal share of the time the cell took to check, else 0."""
    start = time.perf_counter()
    cell = _sweep_cell((j, config.n_min, config.n_max, config.mode))
    micros = int((time.perf_counter() - start) * 1e6 / len(cell.lhs)) if config.timings else 0
    failed = compress(zip(count(cell.n_min), cell.lhs, cell.rhs), map(not_, cell.equal))
    return _render_reports(cell, config.fmt, micros), [
        f"FAIL j={cell.j} N={N} lhs={lhs} rhs={rhs}" for N, lhs, rhs in failed
    ]


def run_sweep(config: SweepConfig, out: TextIO) -> list[str]:
    """Run the grid, one cell per j by workers.run_tasks, and write its
    report to out by render.report, each cell's rows (ordered by N) in j
    order as soon as the cell is checked. Return the FAIL line of every
    failing point, in (j, N) order; keep no cell's values after its rows.
    A cell that raises ends it with run_tasks' RuntimeError at every K."""
    failures: list[str] = []

    def rows(cells: Iterator[tuple[str, list[str]]]) -> Iterator[str]:
        for text, failed in cells:
            failures.extend(failed)
            yield text

    js = range(config.j_min, config.j_max + 1)
    task = functools.partial(_sweep_task, config)
    with contextlib.closing(run_tasks(task, js, config.parallelism)) as cells:
        out.writelines(report(config.fmt, rows(cells)))
    return failures


def _open_out(path: str | None) -> contextlib.AbstractContextManager[TextIO]:
    """The report destination: stdout, or the file at path. Callers open
    it before the work that fills it, so an unwritable path fails at once."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _int(text: str) -> int:
    """An optional sign and ASCII digits, as an int. int() also reads
    surrounding spaces, "_" separators and non-ASCII digits, which are
    usage errors here, as they are in a coefficient file's weights."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
    except ValueError:  # past the 4300-digit limit, not yet lifted
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _span(text: str) -> tuple[int, int]:
    """Parse 'a..b' (inclusive) or a single integer 'a' as (a, a)."""
    lo_s, hi_s = text.split("..", 1) if ".." in text else (text, text)
    try:
        lo, hi = _int(lo_s), _int(hi_s)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expected INT or INT..INT, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _points(config: SweepConfig) -> int:
    return (config.j_max - config.j_min + 1) * (config.n_max - config.n_min + 1)


def _grid_size(config: SweepConfig) -> int:
    bits = config.n_max + config.j_max * (2 * config.n_max + 4 * config.j_max).bit_length()
    per_point = bits * bits
    if config.mode != "fast":
        per_point += BRUTE_FORCE_WEIGHT * (config.n_max + 1) * bits
    return _points(config) * per_point


def cmd_verify(args: argparse.Namespace) -> int:
    _check_int("N", args.n[1], high=MAX_N)
    _check_int("j", args.j[1], high=MAX_J)
    config = SweepConfig(*args.j, *args.n, args.mode, args.parallelism, args.format, args.timings)
    _check_int("grid size", _grid_size(config), high=MAX_GRID)
    with _open_out(args.out) as out:
        start = time.perf_counter()
        failures = run_sweep(config, out)
        # The report is out before the summary says it is verified.
        out.flush()
        wall = time.perf_counter() - start
    points = _points(config)
    print(
        f"verify j={config.j_min}..{config.j_max} N={config.n_min}..{config.n_max} "
        f"mode={config.mode}: {points - len(failures)}/{points} points "
        f"verified in {wall:.3f}s",
        file=sys.stderr,
    )
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


def cmd_table(args: argparse.Namespace) -> int:
    jmax = _check_int("--jmax", args.jmax, 1, MAX_J)
    with _open_out(args.out) as out:
        out.writelines(table_pieces(args.kind, jmax, args.format))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    N, j = _check_int("N", args.N, high=MAX_N), _check_int("j", args.j, high=MAX_J)
    if args.side == "both":
        cell = _sweep_cell((j, N, N, "fast"))
        sys.stdout.write(_render_reports(cell, "plain", 0).removeprefix(f"j={j} N={N} "))
        return 0 if cell.equal[0] else 1
    print(lhs_fast(N, j) if args.side == "lhs" else rhs_fast(N, j))
    return 0


def cmd_mapcount(args: argparse.Namespace) -> int:
    spec = mapcount_spec_from_file(args.coeff_file, _check_int("--j", args.j, 1, MAX_J))
    nu_bits = spec.nu.bit_length()
    bits = (spec.j + 2) * (2 * spec.nu + 2 * nu_bits)
    # At cap bits the d term alone is above the bound, so the lcm stops growing
    # there, and d is at most cap whatever order the denominators come in.
    cap, lcm = (math.isqrt(MAX_MAPCOUNT_COST) + 1) << 6, 1
    for q in {w.denominator for w in spec.a}:
        if (lcm := math.lcm(lcm, q)).bit_length() > cap:
            break
    den_bits = min(lcm.bit_length() - 1, cap)
    cost = 3 * spec.g * (spec.j + 1) * (8 + nu_bits) + (bits >> 8) ** 2 + (den_bits >> 6) ** 2
    _check_int("map-count cost", cost, high=MAX_MAPCOUNT_COST)
    print(map_count(spec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypident",
        description="Exact verification and evaluation of the hypergeometric/"
        "binomial-sum identity and its coefficient triangles.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="sweep the identity over a (j, N) grid")
    p_verify.add_argument("--j", type=_span, default=(1, 10), metavar="A..B",
                          help=f"inclusive j range (default 1..10; 0 <= j <= {MAX_J})")
    p_verify.add_argument("--n", type=_span, default=(1, 50), metavar="A..B",
                          help=f"inclusive N range (default 1..50; 1 <= N <= {MAX_N})")
    p_verify.add_argument("--mode", choices=MODES, default="fast",
                          help="comparison mode (default fast; cross checks all four routes)")
    p_verify.add_argument("--format", choices=FORMATS, default="plain",
                          help="report format (default plain)")
    p_verify.add_argument("--out", metavar="FILE", default=None,
                          help="write reports to FILE instead of stdout")
    p_verify.add_argument("--parallelism", type=_int, default=1, metavar="K",
                          help="worker processes, partitioned by j (default 1)")
    p_verify.add_argument("--timings", action="store_true",
                          help="report each point's share of its j cell's time in micros "
                               "(off by default so identical sweeps are byte-identical)")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="dump triangle rows")
    p_table.add_argument("kind", choices=KINDS, help="which triangle")
    p_table.add_argument("--jmax", type=_int, required=True,
                         help=f"top level to dump (1 <= jmax <= {MAX_J})")
    p_table.add_argument("--format", choices=TABLE_FORMATS, default="csv")
    p_table.add_argument("--out", metavar="FILE", default=None)
    p_table.set_defaults(func=cmd_table)

    p_eval = sub.add_parser("eval", help="evaluate one point of the identity")
    p_eval.add_argument("side", choices=("lhs", "rhs", "both"))
    p_eval.add_argument("N", type=_int)
    p_eval.add_argument("j", type=_int)
    p_eval.set_defaults(func=cmd_eval)

    p_map = sub.add_parser("mapcount", help="evaluate the map-count formula")
    p_map.add_argument("coeff_file", help='JSON file {"nu": int, "g": int, "a": [...]}')
    p_map.add_argument("--j", type=_int, required=True,
                       help=f"number of vertices (1 <= j <= {MAX_J})")
    p_map.set_defaults(func=cmd_mapcount)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Exact values pass CPython's default 4300-digit limit on str(int), so
    # main lifts it and gives the caller's limit back however it returns.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        # A report that cannot be written fails here, not at exit.
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Any other exception is a fault of the program, never a disagreement
        # of the identity (exit 1), whatever the parallelism: a sweep cell
        # that raised or whose worker died (the sweep raises RuntimeError
        # naming its j), a failed integrality check (ArithmeticError), or a
        # bug here, which is named TYPE: MESSAGE, as a failed cell names its
        # exception.
        if not isinstance(exc, (ArithmeticError, RuntimeError)):
            exc = f"{type(exc).__name__}: {exc}"
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def entrypoint() -> NoReturn:
    """The hypident script and python -m hypident: run main() and end the
    process with os._exit once stdout and stderr are flushed, so no run
    pays for the interpreter's teardown. On exit 2, what they still buffer
    is dropped. Embedding code calls main(argv), which returns its code,
    never this."""
    code = 2
    try:
        if sys.stderr is None:
            # fd 2 is closed: an error line has nowhere to go, and print would
            # send it to stdout (file=None is stdout).
            pass
        elif sys.stdout is None:
            print("error: stdout is closed", file=sys.stderr)
        else:
            if not isinstance(sys.stdout.buffer, io.BufferedWriter):
                # Under python -u, stdout writes straight to the raw file and
                # drops the rest of a short write (a full disk, a reader gone);
                # a BufferedWriter writes the rest, or raises.
                buffered = io.BufferedWriter(sys.stdout.buffer)
                sys.stdout = io.TextIOWrapper(buffered, sys.stdout.encoding,
                                              line_buffering=True)
            try:
                code = main()
            except SystemExit as exc:
                # argparse exits by itself: 0 after --help or --version, 2 on
                # a usage error. It ignores a failed write, so the text of
                # --help or --version may still sit in stdout's buffer.
                code = exc.code
            if code != 2:
                sys.stdout.flush()
                sys.stderr.flush()
    except OSError:
        # stdout or stderr cannot be written (its reader went away), so
        # main's own error line failed too.
        code = 2
    os._exit(code)
