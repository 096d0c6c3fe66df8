"""Run one benchmark step in a fresh interpreter, with layer hooks installed.

    python3 perfbench/tracer.py MODE STEP OUT

MODE is one of
  plain   no hooks but a timer around cli.run_sweep (one call per sweep);
          the untraced reference for tracing overhead and pool efficiency
  spans   a span around every call at each layer boundary; a span records
          its name, start, end and parent, and a layer's self time is its
          spans' duration minus the time their child spans cover
  counts  counters at the same boundaries, plus call counters for the
          exact_arith scalars and a leaf timer on binomial; those scalars
          are called millions of times, so they are kept out of the spans
          pass, where they would inflate every caller's self time. The
          binomial time has the timer's own cost per call, measured on a
          no-op function first, taken out
STEP is JSON: {"cli": [ARG, ...]} runs hypident.cli.main(ARGS) in-process,
{"routes": true} runs the route checks of routes.py.

The step's standard output goes to the file OUT. The tracer prints one JSON
object: the import time, and per layer the span totals and the counters. Hooks are installed by rebinding the names that hypident's
modules hold, so the program itself is not modified.
"""

from __future__ import annotations

import io
import json
import sys
import time
from collections import defaultdict
from contextlib import redirect_stdout

perf_counter = time.perf_counter


class Spans:
    """Spans kept in memory as parallel lists, summarised once at the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open = [-1]

    def wrap(self, name_of, fn, before=None, after=None):
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open)

        def span(*args, **kwargs):
            state = before(args) if before else None
            idx = len(names)
            names.append(name_of(args))
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                open_.pop()
            if after:
                after(state, args, result)
            return result

        return span

    def summary(self) -> dict[str, dict[str, float]]:
        covered = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            duration = self.ends[idx] - self.starts[idx]
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += duration
            agg["self_s"] += duration - covered[idx]
            agg["max_s"] = max(agg["max_s"], duration)
        return out


class Counts:
    """Call counters with the same hook signature as Spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)

    def wrap(self, name_of, fn, before=None, after=None):
        calls = self.calls

        def counted(*args, **kwargs):
            state = before(args) if before else None
            calls[name_of(args)] += 1
            result = fn(*args, **kwargs)
            if after:
                after(state, args, result)
            return result

        return counted

    def summary(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": n} for name, n in self.calls.items()}


def rebind(original, replacement) -> int:
    """Replace every name a hypident module holds for ``original``."""
    hits = 0
    for modname, module in list(sys.modules.items()):
        if modname == "hypident" or modname.startswith("hypident."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    hits += 1
    return hits


def install_layer_hooks(recorder, counters: dict[str, int]) -> list[str]:
    """Hook every layer boundary; return the hook targets that were not found."""
    from hypident import cli, factorial_basis, hypergeom, identity, triangles

    def add(key):
        return lambda state, args, result: counters.__setitem__(key, counters[key] + len(result))

    def note_bits(row):
        bits = max(v.bit_length() for v in row)
        counters["triangles.max_entry_bits"] = max(counters["triangles.max_entry_bits"], bits)

    def hyp_terms(state, args, result):
        counters["hypergeom.hyp2f1.terms"] += args[0].termination_index + 1

    def rhs_terms(state, args, result):
        counters["identity.rhs_direct.terms"] += args[0] + 1

    l_closed = getattr(triangles, "_l_closed_row", None)

    def l_closed_misses(args):
        return l_closed.cache_info().misses

    def l_closed_rows(misses, args, result):
        if l_closed.cache_info().misses > misses:
            counters["triangles.l_closed.rows"] += 1
            note_bits(result)

    rec_names = {"R": "triangles.r_rec", "L": "triangles.l_rec", "C": "triangles.c_rec"}

    def triangle_name(args):
        return rec_names[args[0].kind]

    def triangle_level(args):
        return args[0].max_level

    def triangle_rows(level, args, result):
        tri = args[0]
        counters[triangle_name(args) + ".rows"] += tri.max_level - level
        for j in range(level + 1, tri.max_level + 1):
            note_bits(tri.row(j))

    def stirling_level(args):
        return len(args[0]._rows)

    def stirling_rows(level, args, result):
        counters["factorial_basis.stirling2.rows"] += len(args[0]._rows) - level

    functions = [
        ("cli.run_sweep", cli, "run_sweep", None, None),
        ("cli.render", cli, "_render_reports", None, add("cli.render.bytes")),
        ("identity.cell", cli, "_sweep_cell", None, None),
        ("identity.check_identity", identity, "check_identity", None, None),
        ("identity.rhs_direct", identity, "rhs_direct", None, rhs_terms),
        ("identity.map_count", identity, "map_count", None, None),
        ("hypergeom.lhs_direct", hypergeom, "lhs_direct", None, None),
        ("hypergeom.hyp2f1", hypergeom, "hyp2f1_terminating", None, hyp_terms),
        ("factorial_basis.poly_eval", factorial_basis, "poly_eval", None, None),
        ("factorial_basis.rising_to_falling", factorial_basis, "rising_to_falling", None, None),
        ("triangles.l_closed", triangles, "_l_closed_row", l_closed_misses, l_closed_rows),
        ("triangles.r_closed", triangles, "r_entry_closed", None, None),
        ("triangles.l_series", triangles, "l_poly_from_series", None, None),
        ("triangles.vanishing_sum", triangles, "vanishing_sum", None, None),
        ("triangles.export", triangles, "export_csv", None, add("triangles.export.bytes")),
        ("triangles.export", triangles, "export_json", None, add("triangles.export.bytes")),
    ]
    methods = [
        (triangle_name, triangles.Triangle, triangle_level, triangle_rows),
        (lambda args: "factorial_basis.stirling2", factorial_basis._StirlingTable,
         stirling_level, stirling_rows),
    ]
    missing = []
    for name, module, attr, before, after in functions:
        original = getattr(module, attr, None)
        if original is None or rebind(
                original, recorder.wrap(lambda args, name=name: name, original, before, after)) == 0:
            missing.append(f"{module.__name__}.{attr}")
    for name_of, cls, before, after in methods:
        original = getattr(cls, "_grow_to", None)
        if original is None:
            missing.append(f"{cls.__qualname__}._grow_to")
            continue
        setattr(cls, "_grow_to", recorder.wrap(name_of, original, before, after))
    return missing


def install_scalar_counters(counters: dict[str, int],
                            times: dict[str, float]) -> tuple[list[str], float]:
    """Count calls of the exact_arith scalars and time binomial as a leaf.

    Returns the hook targets not found and the timer's own cost per call.
    """
    from hypident import exact_arith

    def counter(name, fn):
        key = f"exact_arith.{name}.calls"

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def timed_leaf(fn, key, counters, times):
        def timed(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            times[key] += perf_counter() - start
            counters[key + ".calls"] += 1
            return result

        return timed

    def timer_cost(calls=100_000) -> float:
        cost: dict[str, float] = defaultdict(float)
        noop = timed_leaf(lambda n, k: 0, "noop", defaultdict(int), cost)
        for _ in range(calls):
            noop(7, 3)
        return cost["noop"] / calls

    missing = []
    for name in ("binomial", "factorial", "pow2"):
        original = getattr(exact_arith, name)
        wrapped = (timed_leaf(original, "exact_arith.binomial", counters, times)
                   if name == "binomial" else counter(name, original))
        if rebind(original, wrapped) == 0:
            missing.append(f"hypident.exact_arith.{name}")
    return missing, timer_cost()


def run_step(step: dict) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        if "routes" in step:
            import routes

            print(json.dumps(routes.run()))
            code = 0
        else:
            import hypident.cli

            try:
                code = hypident.cli.main(step["cli"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    return code, buffer.getvalue()


def main(argv: list[str]) -> int:
    mode, step_json, out_path = argv
    step = json.loads(step_json)
    start = perf_counter()
    import hypident.cli  # noqa: F401  (the import is what is timed)

    import_s = perf_counter() - start
    counters: dict[str, int] = defaultdict(int)
    times: dict[str, float] = defaultdict(float)
    if mode == "plain":
        recorder = Spans()
        from hypident import cli

        missing = [] if rebind(cli.run_sweep, recorder.wrap(
            lambda args: "cli.run_sweep", cli.run_sweep)) else ["hypident.cli.run_sweep"]
    elif mode in ("spans", "counts"):
        recorder = Spans() if mode == "spans" else Counts()
        missing = install_layer_hooks(recorder, counters)
        if mode == "counts":
            scalars_missing, timer_cost = install_scalar_counters(counters, times)
            missing += scalars_missing
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    code, output = run_step(step)
    if mode == "counts":
        times["exact_arith.binomial"] -= timer_cost * counters["exact_arith.binomial.calls"]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(output)
    print(json.dumps({
        "module_file": sys.modules["hypident"].__file__,
        "exit": code,
        "import_s": import_s,
        "spans": recorder.summary(),
        "counters": dict(counters),
        "times": dict(times),
        "missing": missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
