"""The two documents the package writes, a verify report and a triangle
dump: their layout, and ``pieces``, the one join that writes either.

A document is a head, its rows with a separator between each two, and a
tail; it has at least one row. Per format, ``_FORMATS`` gives these for a
verify report, whose row is built from (N, j, lhs, rhs, verdict, micros)
and whose separator between two rows is also the one between two j cells,
and ``_TABLE_FORMATS`` for a dump, whose head is a template of kind and
j_max. Plain and CSV are a header line, if any, and one line per row. JSON
gives the bytes of json.dumps(rows, indent=2) + "\\n" for a report, and of
json.dumps({"kind", "max_level", "rows"}, indent=2) + "\\n" for a dump,
built by hand: json.dumps with an indent runs CPython's pure-Python
encoder, and every field is an int, a bool or a decimal digit string,
which needs no escaping. ``import hypident`` loads this module, so it
imports nothing from the package, and not ``typing``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import count

# Per report format: head, row, separator, tail.
_FORMATS = {
    "plain": ("", lambda N, j, lhs, rhs, verdict, micros:
              f"j={j} N={N} lhs={lhs} rhs={rhs} equal={verdict}\n", "", ""),
    "json": ("[\n", lambda N, j, lhs, rhs, verdict, micros: (
        f'  {{\n    "N": {N},\n    "j": {j},\n    "lhs": "{lhs}",\n    "rhs": "{rhs}",\n'
        f'    "equal": {verdict},\n    "micros": {micros}\n  }}'), ",\n", "\n]\n"),
    "csv": ("N,j,lhs,rhs,equal,micros\n", lambda N, j, lhs, rhs, verdict, micros:
            f"{N},{j},{lhs},{rhs},{verdict},{micros}\n", "", ""),
}
# The report formats, for the command line to offer and check.
FORMATS = tuple(_FORMATS)

# Per dump format: head, row, separator, tail.
_TABLE_FORMATS = {
    "csv": ("", lambda row: ",".join(map(str, row)) + "\n", "", ""),
    "json": ('{{\n  "kind": "{kind}",\n  "max_level": {j_max},\n  "rows": [\n',
             lambda row: '    [\n      "' + '",\n      "'.join(map(str, row)) + '"\n    ]',
             ",\n", "\n  ]\n}\n"),
}
# The dump formats, for the command line to offer.
TABLE_FORMATS = tuple(_TABLE_FORMATS)


def pieces(head: str, sep: str, tail: str, texts: Iterable[str]) -> Iterator[str]:
    """A document as pieces, each as soon as texts gives it: head, each
    text with sep before all but the first, then tail."""
    yield head
    yield from (sep * (i > 0) + text for i, text in enumerate(texts))
    yield tail


def report(fmt: str, cells: Iterable[str]) -> Iterator[str]:
    """A verify report in fmt, one piece per cell's rows, in cells' order."""
    head, _, sep, tail = _FORMATS[fmt]
    return pieces(head, sep, tail, cells)


def dump(kind: str, j_max: int, fmt: str, rows: Iterable[tuple[int, ...]]) -> Iterator[str]:
    """Rows 1..j_max of triangle kind in fmt, one piece per row."""
    head, row, sep, tail = _TABLE_FORMATS[fmt]
    return pieces(head.format(kind=kind, j_max=j_max), sep, tail, map(row, rows))


def _render_reports(cell: tuple, fmt: str, micros: int) -> str:
    """The rows of cell, an ``identity.CellReport``, in fmt, each with
    micros, joined by the format's separator, built in one pass over the
    cell's columns. Each value is printed once: a row's rhs reuses lhs's
    decimal string when the two ints are equal, whatever the verdict."""
    _, row, sep, _ = _FORMATS[fmt]
    j, micros = str(cell.j), str(micros)
    return sep.join([
        row(N, j, text := str(lhs), text if lhs == rhs else str(rhs),
            "true" if verdict else "false", micros)
        for N, lhs, rhs, verdict in zip(count(cell.n_min), cell.lhs, cell.rhs, cell.equal)
    ])
