"""Command-line front end: verification sweeps, table dumps, point
evaluation, and map counts.

Subcommands:

  verify    sweep check_identity over a (j, N) grid; exit 0 iff every
            point verifies, 1 if any fails, 2 on usage/domain errors,
            3 on an internal error, 130 when interrupted
  table     dump triangle rows as CSV or JSON
  eval      evaluate one side (or both) of the identity at a single point
  mapcount  evaluate the map-count formula from a JSON coefficient file

Reports go to stdout (or --out FILE); the human summary goes to stderr, so
JSON/CSV report streams stay machine-clean. Report rows are always ordered
by (j, N) and, with timings off (the default), identical configs produce
byte-identical output no matter the parallelism.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TextIO

from . import __version__
from .identity import (
    IdentityPoint,
    VerifyReport,
    check_identity,
    lhs_fast,
    map_count,
    mapcount_spec_from_file,
    rhs_fast,
)
from .triangles import export_csv, export_json

PARALLELISM_ENV = "HYPIDENT_PARALLELISM"

__all__ = ["SweepConfig", "entrypoint", "main", "run_sweep"]


@dataclass(frozen=True)
class SweepConfig:
    """A verification sweep: inclusive j/N ranges, mode and worker count."""

    j_min: int
    j_max: int
    n_min: int
    n_max: int
    mode: str = "fast"
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.j_min < 0 or self.j_min > self.j_max:
            raise ValueError(f"bad j range {self.j_min}..{self.j_max}")
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValueError(f"bad N range {self.n_min}..{self.n_max} (N starts at 1)")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


def _sweep_cell(cell: tuple[int, int, int, str]) -> list[VerifyReport]:
    j, n_min, n_max, mode = cell
    return [check_identity(IdentityPoint(N, j), mode) for N in range(n_min, n_max + 1)]


def run_sweep(config: SweepConfig) -> list[VerifyReport]:
    """Run the grid, one cell per j value, and return reports ordered by (j, N).

    The pool never has more workers than cells or than CPUs, whatever
    parallelism asks for; the reports do not depend on the worker count.
    """
    cells = [
        (j, config.n_min, config.n_max, config.mode)
        for j in range(config.j_min, config.j_max + 1)
    ]
    workers = min(config.parallelism, len(cells), os.cpu_count() or 1)
    if workers <= 1:
        chunks = [_sweep_cell(cell) for cell in cells]
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            chunks = list(pool.map(_sweep_cell, cells))
        finally:
            # A failed or interrupted sweep drops the cells not yet started.
            pool.shutdown(cancel_futures=True)
    return [report for chunk in chunks for report in chunk]


def _micros(report: VerifyReport, timings: bool) -> int:
    return int(report.elapsed * 1_000_000) if timings else 0


def _render_reports(reports: list[VerifyReport], fmt: str, timings: bool) -> str:
    if fmt == "json":
        rows = [
            {
                "N": r.point.N,
                "j": r.point.j,
                "lhs": str(r.lhs),
                "rhs": str(r.rhs),
                "equal": r.equal,
                "micros": _micros(r, timings),
            }
            for r in reports
        ]
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        lines = ["N,j,lhs,rhs,equal,micros"]
        lines.extend(
            f"{r.point.N},{r.point.j},{r.lhs},{r.rhs},"
            f"{'true' if r.equal else 'false'},{_micros(r, timings)}"
            for r in reports
        )
        return "\n".join(lines) + "\n"
    lines = [
        f"j={r.point.j} N={r.point.N} lhs={r.lhs} rhs={r.rhs} "
        f"equal={'true' if r.equal else 'false'}"
        for r in reports
    ]
    return "\n".join(lines) + "\n"


def _open_out(path: str | None) -> contextlib.AbstractContextManager[TextIO]:
    """The report destination: stdout, or the file at path.

    Callers open it before doing the work that fills it, so an unwritable
    path fails at once instead of after a sweep.
    """
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _span(text: str) -> tuple[int, int]:
    """Parse 'a..b' (inclusive) or a single integer 'a' as (a, a)."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected INT or INT..INT, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def cmd_verify(args: argparse.Namespace) -> int:
    parallelism = args.parallelism
    if parallelism is None:
        raw = os.environ.get(PARALLELISM_ENV) or "1"
        try:
            parallelism = int(raw)
        except ValueError:
            raise ValueError(f"${PARALLELISM_ENV} must be an integer, got {raw!r}") from None
    config = SweepConfig(
        j_min=args.j[0],
        j_max=args.j[1],
        n_min=args.n[0],
        n_max=args.n[1],
        mode=args.mode,
        parallelism=parallelism,
    )
    with _open_out(args.out) as out:
        start = time.perf_counter()
        reports = run_sweep(config)
        wall = time.perf_counter() - start
        out.write(_render_reports(reports, args.format, args.timings))
    failures = [r for r in reports if not r.equal]
    print(
        f"verify j={config.j_min}..{config.j_max} N={config.n_min}..{config.n_max} "
        f"mode={config.mode}: {len(reports) - len(failures)}/{len(reports)} points "
        f"verified in {wall:.3f}s",
        file=sys.stderr,
    )
    for r in failures:
        print(
            f"FAIL j={r.point.j} N={r.point.N} lhs={r.lhs} rhs={r.rhs}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.jmax < 1:
        raise ValueError(f"--jmax must be >= 1, got {args.jmax}")
    export = export_json if args.format == "json" else export_csv
    with _open_out(args.out) as out:
        out.write(export(args.kind, args.jmax))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    point = IdentityPoint(args.N, args.j)
    if args.side == "both":
        report = check_identity(point, "fast")
        print(
            f"lhs={report.lhs} rhs={report.rhs} "
            f"equal={'true' if report.equal else 'false'}"
        )
    elif args.side == "lhs":
        print(lhs_fast(point.N, point.j))
    else:
        print(rhs_fast(point.N, point.j))
    return 0


def cmd_mapcount(args: argparse.Namespace) -> int:
    spec = mapcount_spec_from_file(args.coeff_file, args.j)
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
                          help="inclusive j range (default 1..10; j=0 allowed)")
    p_verify.add_argument("--n", type=_span, default=(1, 50), metavar="A..B",
                          help="inclusive N range (default 1..50; N >= 1)")
    p_verify.add_argument("--mode", choices=("direct", "fast", "cross"), default="fast",
                          help="comparison mode (default fast; cross checks all four routes)")
    p_verify.add_argument("--format", choices=("plain", "json", "csv"), default="plain",
                          help="report format (default plain)")
    p_verify.add_argument("--out", metavar="FILE", default=None,
                          help="write reports to FILE instead of stdout")
    p_verify.add_argument("--parallelism", type=int, default=None, metavar="K",
                          help=f"worker processes, partitioned by j "
                               f"(default ${PARALLELISM_ENV} or 1)")
    p_verify.add_argument("--timings", action="store_true",
                          help="report real per-point micros (off by default so "
                               "identical sweeps are byte-identical)")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="dump triangle rows")
    p_table.add_argument("kind", choices=("C", "R", "L"), help="which triangle")
    p_table.add_argument("--jmax", type=int, required=True, help="top level to dump")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", metavar="FILE", default=None)
    p_table.set_defaults(func=cmd_table)

    p_eval = sub.add_parser("eval", help="evaluate one point of the identity")
    p_eval.add_argument("side", choices=("lhs", "rhs", "both"))
    p_eval.add_argument("N", type=int)
    p_eval.add_argument("j", type=int)
    p_eval.set_defaults(func=cmd_eval)

    p_map = sub.add_parser("mapcount", help="evaluate the map-count formula")
    p_map.add_argument("coeff_file", help='JSON file {"nu": int, "g": int, "a": [...]}')
    p_map.add_argument("--j", type=int, required=True, help="number of vertices (>= 1)")
    p_map.set_defaults(func=cmd_mapcount)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        # Exact values pass CPython's default 4300-digit limit on str(int).
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, BrokenProcessPool) as exc:
        # A failed integrality check or a dead worker is a fault of the
        # program, not a disagreement of the identity (exit 1).
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
