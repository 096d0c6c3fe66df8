"""The hypident benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a hypident checkout. The program under test is the
checkout's ``src`` tree: every command runs in a child interpreter with
only that directory on PYTHONPATH and with $HYPIDENT_PARALLELISM removed,
so neither an installed copy nor a stray setting is measured. Without
``src/hypident`` the benchmark exits with code 2.

Workloads (the reason for each is in BENCHMARK.json):
  fast_sweep       verify --j 1..120 --n 1..100 --mode fast --format csv, K=1
  cross_sweep      verify --j 1..40 --n 1..100 --mode cross --format json, K=2
  oneshot          table L/R/C to level 150, four eval points and one
                   mapcount, each in a fresh process
  route_agreement  routes.py in a fresh process: the library's five triangle
                   routes, the vanishing sum and the summand check
  all              every workload in turn, with a table of the results

With ``--trace 0`` the workload is repeated, each repetition in fresh
processes, until the next one would end after ``--seconds``; at least
three repetitions run. The end-to-end metrics are medians over them:
wall_s (time of one repetition, measured by spawn.py), points_per_s
(results the oracle checked per second of wall_s), cpu_s (user + system
time of the commands, pool workers included) and peak_rss_mb (the largest
resident set of any process in the repetition). setup_s is the median time
of a fresh process that runs ``hypident --version`` (``import hypident``
on route_agreement). Single-process repetitions are pinned to each CPU in
turn and their median is taken per CPU, then averaged (see ``cpu_strata``).

The shared host's CPU speed drifts by up to a factor of two over seconds
to minutes, so wall_s, cpu_s and setup_s are given in reference seconds:
spawn.py times a fixed probe computation on the same CPUs right before and
after each repetition, and the measured times are multiplied by
PROBE_REF_S over the probe's mean time. The unscaled times are in the
details line as raw_*.

With ``--trace 1`` each command runs once more in-process through
``tracer.py``, at K=1, in three fresh interpreters: plain (untraced
reference), spans (per-layer self times) and counts (exact call counts).
A sweep run with K > 1 also runs plain at its own K to give the pool
efficiency. The counts of the spans and counts passes must agree.

Every output is checked by ``oracle.py``, which never imports hypident.
A non-zero exit, a timeout, a malformed or missing row, equal=false, an
oracle mismatch or output that differs between repetitions counts as one
failed operation; nothing is retried. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it holds the run's details: metadata, sample counts, the raw
samples and any notes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle
import routes

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 15
MIN_REPETITIONS = 3
SAMPLE_ROWS = 16
STEP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0
# Times are reported as if spawn.probe_work took this long: a round figure
# near its time on one vCPU of the 2-vCPU machine the benchmark was tuned on.
PROBE_REF_S = 0.005

CLI_SETUP = [sys.executable, "-m", "hypident", "--version"]
IMPORT_SETUP = [sys.executable, "-c", "import hypident; print('hypident', hypident.__version__)"]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "HYPIDENT_PARALLELISM"}
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class Step:
    """One command of a workload and the oracle check of its output."""

    label: str
    args: list[str] | None  # hypident CLI arguments; None runs routes.py
    check: Callable[[str], list[str]]

    def command(self) -> list[str]:
        if self.args is None:
            return [sys.executable, os.path.join(HERE, "routes.py")]
        return [sys.executable, "-m", "hypident", *self.args]

    def tracer_spec(self, parallelism: int) -> dict:
        if self.args is None:
            return {"routes": True}
        args = list(self.args)
        if "--parallelism" in args:
            args[args.index("--parallelism") + 1] = str(parallelism)
        return {"cli": args}


@dataclass
class Plan:
    steps: list[Step]
    points: int  # results the oracle checks in one repetition
    parallelism: int = 1
    setup: tuple[str, ...] = tuple(CLI_SETUP)  # the fresh process setup_s times


def sweep_plan(rng: random.Random, j: tuple[int, int], n: tuple[int, int],
               mode: str, fmt: str, parallelism: int) -> Plan:
    args = ["verify", "--j", f"{j[0]}..{j[1]}", "--n", f"{n[0]}..{n[1]}",
            "--mode", mode, "--format", fmt, "--parallelism", str(parallelism)]
    points = (j[1] - j[0] + 1) * (n[1] - n[0] + 1)

    def check(text: str) -> list[str]:
        return oracle.check_sweep(text, fmt, j, n, rng.sample(range(points), SAMPLE_ROWS))

    return Plan([Step("verify", args, check)], points, parallelism)


def oneshot_plan(rng: random.Random, work: str) -> Plan:
    levels = 150
    rows = oracle.l_rows(levels)
    c_rows = oracle.c_rows(levels)
    steps = [
        Step("table L", ["table", "L", "--jmax", str(levels), "--format", "json"],
             lambda text: oracle.check_table_json(text, "L", rows)),
        Step("table R", ["table", "R", "--jmax", str(levels), "--format", "json"],
             lambda text: oracle.check_table_json(text, "R", rows)),
        Step("table C", ["table", "C", "--jmax", str(levels), "--format", "csv"],
             lambda text: oracle.check_table_csv(text, "C", c_rows)),
    ]
    for _ in range(4):
        N, j = rng.randint(1, 5000), rng.randint(1, levels)
        expected = oracle.rhs_binomial_sum(N, j)
        steps.append(Step(f"eval {N} {j}", ["eval", "both", str(N), str(j)],
                          lambda text, expected=expected: oracle.check_eval(text, expected)))
    nu, g, j = 3, 4, 300
    weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3 * g)]
    path = os.path.join(work, "weights.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"nu": nu, "g": g, "a": [str(w) for w in weights]}, fh)
    count = oracle.map_count(nu, g, j, weights)
    steps.append(Step("mapcount", ["mapcount", path, "--j", str(j)],
                      lambda text: oracle.check_mapcount(text, count)))
    return Plan(steps, 3 * levels + 4 + 1)


def routes_plan(rng: random.Random, work: str) -> Plan:
    """routes.py, checked against the oracle's rows 1..routes.ROW_LEVELS.

    Its inputs are fixed; the seed has nothing to pick here.
    """
    digest = oracle.rows_digest(oracle.l_rows(routes.ROW_LEVELS))
    checks = routes.expected_checks()

    def check(text: str) -> list[str]:
        try:
            result = json.loads(text)
        except ValueError:
            return [f"not JSON: {text[:60]!r}"]
        if not isinstance(result, dict):
            return ["result is not a JSON object"]
        problems = list(result.get("disagreements", ["no disagreements list"]))[:oracle.MAX_PROBLEMS]
        if result.get("rows_digest") != digest:
            problems.append("triangle rows differ from the oracle's closed form")
        if result.get("checks") != checks:
            problems.append(f"{result.get('checks')} checks made, expected {checks}")
        return problems

    return Plan([Step("routes", None, check)], checks, setup=tuple(IMPORT_SETUP))


WORKLOADS: dict[str, Callable[[random.Random, str], Plan]] = {
    "fast_sweep": lambda rng, work: sweep_plan(rng, (1, 120), (1, 100), "fast", "csv", 1),
    "cross_sweep": lambda rng, work: sweep_plan(rng, (1, 40), (1, 100), "cross", "json", 2),
    "oneshot": oneshot_plan,
    "route_agreement": routes_plan,
}


@dataclass
class Proc:
    exit_code: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr_tail: str = ""


class Spawner:
    """The spawn.py process, which starts every command and times it.

    Start it before the benchmark holds much memory: a command's peak
    resident set includes the spawner's.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawn.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def run(self, argv: list[str], env: dict[str, str], out: str, timeout: float,
            cpus: list[int] | None) -> dict:
        request = {"argv": argv, "cwd": ROOT, "env": env, "out": out, "timeout": timeout,
                   "cpus": cpus}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        return self._reply()

    def probe(self, cpus: list[int]) -> float:
        self._proc.stdin.write(json.dumps({"probe": cpus}) + "\n")
        self._proc.stdin.flush()
        return self._reply()["probe_s"]

    def _reply(self) -> dict:
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawn.py exited")
        return json.loads(reply)


class Runner:
    """Runs commands through the spawner and judges their output."""

    def __init__(self, work: str, deadline: float, spawner: Spawner | None) -> None:
        self.work = work
        self.deadline = deadline
        self.spawner = spawner
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: set[str] = set()
        self._digests: dict[str, str] = {}

    def run(self, argv: list[str], cpus: list[int] | None = None) -> Proc:
        out_path = os.path.join(self.work, "stdout")
        timeout = min(STEP_TIMEOUT_S, self.deadline - time.perf_counter())
        reply = self.spawner.run(argv, self.env, out_path, timeout, cpus)
        with open(out_path, "rb") as fh:
            stdout = fh.read().decode("utf-8", "replace")
        with open(out_path + ".err", "rb") as fh:
            stderr_lines = fh.read().decode("utf-8", "replace").strip().splitlines()
        return Proc(reply["exit"], reply["timed_out"], reply["wall_s"], reply["cpu_s"],
                    reply["rss_kb"] / 1024, stdout, stderr_lines[-1] if stderr_lines else "")

    def speed_scale(self, cpus: list[int] | None) -> float:
        """PROBE_REF_S over the speed probe's time now on these CPUs (all if None)."""
        return PROBE_REF_S / self.spawner.probe(cpus or sorted(os.sched_getaffinity(0)))

    def judge(self, step: Step, proc: Proc, extra: list[str] = ()) -> bool:
        """Count one operation; record its problems and return True if it passed."""
        self.attempted += 1
        problems = gate(step, proc, self._digests) + list(extra)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for problem in problems:
                print(f"FAIL {problem}", file=sys.stderr)
        return not problems


def gate(step: Step, proc: Proc, digests: dict[str, str]) -> list[str]:
    """The problems of one operation: exit, timeout, oracle check, stable output."""
    if proc.timed_out:
        return [f"{step.label}: timed out"]
    if proc.exit_code != 0:
        return [f"{step.label}: exit code {proc.exit_code} {proc.stderr_tail}".rstrip()]
    problems = step.check(proc.stdout)
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    if digests.setdefault(step.label, digest) != digest:
        problems.append("output differs from its first run")
    return [f"{step.label}: {problem}" for problem in problems]


def cpu_strata(parallelism: int) -> list[list[int] | None]:
    """The CPU sets that successive repetitions run on.

    On a shared machine one CPU can run persistently slower than another,
    so a single-process command's time depends on where the scheduler puts
    it. Such commands are pinned to each CPU in turn, and their metrics are
    the mean over CPUs of the median on each. Commands with K > 1 need
    every CPU and are not pinned.
    """
    if parallelism > 1:
        return [None]
    return [[cpu] for cpu in sorted(os.sched_getaffinity(0))]


def stratified_median(values: list[float], strata: list[int]) -> float:
    """Mean over strata of the median of each stratum's values."""
    groups: dict[int, list[float]] = {}
    for value, stratum in zip(values, strata):
        groups.setdefault(stratum, []).append(value)
    return statistics.fmean(statistics.median(group) for group in groups.values())


def measure_setup(plan: Plan, runner: Runner, repeats: int) -> dict[str, list[float]]:
    """Time fresh-process set-up; the first, warm-up run is not kept."""
    step = Step("setup", None, lambda text: [] if text.startswith("hypident ")
                else [f"unexpected version text {text[:40]!r}"])
    strata = cpu_strata(1)
    samples: dict[str, list[float]] = {"setup_s": [], "raw_setup_s": [], "stratum": []}
    for rep in range(repeats + 1):
        stratum = rep % len(strata)
        before = runner.speed_scale(strata[stratum])
        proc = runner.run(list(plan.setup), strata[stratum])
        scale = (before + runner.speed_scale(strata[stratum])) / 2
        runner.judge(step, proc)
        if rep:
            samples["setup_s"].append(proc.wall_s * scale)
            samples["raw_setup_s"].append(proc.wall_s)
            samples["stratum"].append(stratum)
    return samples


def measure_untraced(plan: Plan, runner: Runner, seconds: float) -> dict[str, list[float]]:
    """Repeat the plan; each repetition's times are scaled to the probe's
    speed before and after it (see speed_scale), and kept unscaled as raw_*."""
    samples: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [],
                                       "raw_wall_s": [], "raw_cpu_s": [], "scale": [], "stratum": []}
    strata = cpu_strata(plan.parallelism)
    start = time.perf_counter()
    after = None
    while time.perf_counter() < runner.deadline:
        began = time.perf_counter()
        raw_wall = raw_cpu = rss = 0.0
        stratum = len(samples["wall_s"]) % len(strata)
        # With one CPU set, the probe after a repetition is the next one's before.
        before = after if after and len(strata) == 1 else runner.speed_scale(strata[stratum])
        for step in plan.steps:
            proc = runner.run(step.command(), strata[stratum])
            runner.judge(step, proc)
            raw_wall += proc.wall_s
            raw_cpu += proc.cpu_s
            rss = max(rss, proc.rss_mb)
        after = runner.speed_scale(strata[stratum])
        scale = (before + after) / 2
        for key, value in (("wall_s", raw_wall * scale), ("cpu_s", raw_cpu * scale),
                           ("peak_rss_mb", rss), ("raw_wall_s", raw_wall),
                           ("raw_cpu_s", raw_cpu), ("scale", scale), ("stratum", stratum)):
            samples[key].append(value)
        elapsed = time.perf_counter() - start
        took = time.perf_counter() - began
        if len(samples["wall_s"]) >= MIN_REPETITIONS and elapsed + took > seconds:
            break
    return samples


def end_to_end_metrics(plan: Plan, samples: dict[str, list[float]],
                       setup: dict[str, list[float]]) -> dict:
    wall = stratified_median(samples["wall_s"], samples["stratum"])
    return {
        "wall_s": wall,
        "points_per_s": plan.points / wall,
        "cpu_s": stratified_median(samples["cpu_s"], samples["stratum"]),
        "peak_rss_mb": stratified_median(samples["peak_rss_mb"], samples["stratum"]),
        "setup_s": stratified_median(setup["setup_s"], setup["stratum"]),
    }


def run_tracer_pass(plan: Plan, runner: Runner, mode: str, parallelism: int) -> dict:
    """Run every step of the plan once through tracer.py; merge the results."""
    merged = {"wall_s": 0.0, "import_s": [], "spans": {}, "counters": {}, "times": {}}
    for index, step in enumerate(plan.steps):
        out_path = os.path.join(runner.work, f"traced-{index}")
        spec = json.dumps(step.tracer_spec(parallelism))
        proc = runner.run([sys.executable, os.path.join(HERE, "tracer.py"), mode, spec, out_path])
        merged["wall_s"] += proc.wall_s
        result = _tracer_result(proc)
        if result is not None:
            proc.exit_code = result["exit"]
            with open(out_path, encoding="utf-8") as fh:
                proc.stdout = fh.read()
        foreign = result is not None and not os.path.abspath(
            result["module_file"]).startswith(SRC + os.sep)
        runner.judge(step, proc, [f"{step.label}: hypident imported from outside {SRC}"] * foreign)
        if result is None:
            continue
        runner.notes.update(f"hook target {target} not found" for target in result["missing"])
        merged["import_s"].append(result["import_s"])
        for name, agg in result["spans"].items():
            into = merged["spans"].setdefault(name, dict.fromkeys(agg, 0))
            for key, value in agg.items():
                into[key] = max(into[key], value) if key == "max_s" else into[key] + value
        for key, value in result["counters"].items():
            before = merged["counters"].get(key, 0)
            merged["counters"][key] = max(before, value) if key.endswith("_bits") else before + value
        for key, value in result["times"].items():
            merged["times"][key] = merged["times"].get(key, 0.0) + value
    return merged


def _tracer_result(proc: Proc) -> dict | None:
    if proc.timed_out or proc.exit_code != 0:
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        proc.exit_code = -1
        return None


def compare_counts(spans: dict, counts: dict, runner: Runner) -> None:
    """Exact counts must repeat: the spans and counts passes are two traced runs."""
    pairs = [(f"{name}.calls", agg["calls"], counts["spans"].get(name, {}).get("calls"))
             for name, agg in spans["spans"].items()]
    pairs += [(key, value, counts["counters"].get(key)) for key, value in spans["counters"].items()]
    mismatches = [f"count {key} differs between traced runs: {first} vs {second}"
                  for key, first, second in pairs if first != second]
    runner.attempted += 1
    if mismatches:
        runner.failed += 1
        runner.problems.extend(mismatches)


def layer_metrics(names: list[str], plan: Plan, passes: dict[str, dict]) -> dict[str, float]:
    spans, counts, plain = passes["spans"], passes["counts"], passes["plain"]
    pool = passes.get("pool")

    def span(name: str, key: str) -> float:
        return spans["spans"].get(name, {}).get(key, 0)

    special = {
        "exact_arith.binomial.s": counts["times"].get("exact_arith.binomial", 0.0),
        "identity.cell.max_s": span("identity.cell", "max_s"),
        "cli.import.s": statistics.median(plain["import_s"]) if plain["import_s"] else 0.0,
        "cli.pool_efficiency": (
            plain["spans"]["cli.run_sweep"]["total_s"]
            / (plan.parallelism * pool["spans"]["cli.run_sweep"]["total_s"])
            if pool and "cli.run_sweep" in pool["spans"] and "cli.run_sweep" in plain["spans"]
            else 0.0),
        "trace.overhead_s": spans["wall_s"] - plain["wall_s"],
    }
    values = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif kind == "s":
            values[name] = span(layer, "self_s")
        elif name.startswith("exact_arith."):
            values[name] = counts["counters"].get(name, 0)
        elif kind == "calls":
            values[name] = span(layer, "calls")
        else:
            values[name] = spans["counters"].get(name, 0)
    return values


def profile_notes(workload: str, values: dict[str, float]) -> list[str]:
    """Where the time should go at the parent commit; a miss is reported, not hidden."""
    times = {k: v for k, v in values.items()
             if k.endswith(".s") and not k.startswith(("cli.import", "exact_arith", "trace"))}
    total = sum(times.values())
    notes = []
    if workload == "fast_sweep":
        top = max(times, key=times.get)
        notes.append(f"largest self time: {top} ({times[top]:.3f} s of {total:.3f} s)"
                     + ("" if top == "triangles.l_closed.s" else "; expected triangles.l_closed.s"))
    if workload == "cross_sweep" and total > 0:
        brute = ("identity.rhs_direct.s", "hypergeom.lhs_direct.s", "hypergeom.hyp2f1.s")
        share = sum(values[name] for name in brute) / total
        notes.append(f"rhs_direct + lhs_direct (with its 2F1 series): {share:.1%} of traced self time"
                     + ("" if share > 0.5 else "; expected them to dominate"))
    return notes


def measure_traced(plan: Plan, runner: Runner, names: list[str]) -> tuple[dict, dict]:
    passes = {mode: run_tracer_pass(plan, runner, mode, 1) for mode in ("plain", "spans", "counts")}
    if plan.parallelism > 1:
        passes["pool"] = run_tracer_pass(plan, runner, "plain", plan.parallelism)
    compare_counts(passes["spans"], passes["counts"], runner)
    return layer_metrics(names, plan, passes), {
        mode: {"wall_s": p["wall_s"], "counters": p["counters"]} for mode, p in passes.items()}


def run_metadata() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
                 spawner: Spawner) -> dict:
    start = time.perf_counter()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        rng = random.Random(f"{workload}:{seed}")
        plan = WORKLOADS[workload](rng, work)
        runner = Runner(work, start + RUN_BUDGET_S, spawner)
        setup = measure_setup(plan, runner, 0 if trace else SETUP_REPEATS)
        listed = spec["per_layer"] if trace else spec["end_to_end"]
        names = [m["name"] for m in listed]
        if trace:
            values, samples = measure_traced(plan, runner, names)
            counts = {"operations": runner.attempted}
            notes = profile_notes(workload, values) + sorted(runner.notes)
        else:
            samples = measure_untraced(plan, runner, seconds)
            values = end_to_end_metrics(plan, samples, setup)
            counts = {"setup_s": len(setup["setup_s"]),
                      **{k: len(samples[k]) for k in ("wall_s", "cpu_s", "peak_rss_mb")}}
            samples["setup"] = setup
            notes = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    details = {
        "workload": workload, "seed": seed, "trace": int(trace), "meta": run_metadata(),
        "sample_counts": counts, "samples": samples, "notes": notes,
        "problems": runner.problems, "elapsed_s": time.perf_counter() - start,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    return {"details": details, "result": result}


def print_table(outcomes: dict[str, dict]) -> None:
    print(f"{'workload':<16} {'metric':<14} {'value':>14} {'unit':<6} samples")
    for workload, outcome in outcomes.items():
        counts = outcome["details"]["sample_counts"]
        for name, metric in outcome["result"]["metrics"].items():
            samples = counts.get(name, counts.get("wall_s", counts.get("operations")))
            print(f"{workload:<16} {name:<14} {metric['value']:>14.6g} {metric['unit']:<6} {samples}")
        result = outcome["result"]
        print(f"{workload:<16} {'failed':<14} {result['failed']:>14} of {result['attempted']} operations")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypident", "__init__.py")):
        print(f"error: no hypident source under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    with Spawner() as spawner:
        for workload in workloads:
            outcomes[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), spec, spawner)
            if args.workload == "all":
                print(json.dumps(outcomes[workload]))
    if args.workload == "all":
        print_table(outcomes)
        results = [o["result"] for o in outcomes.values()]
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{name}": metric for w, o in outcomes.items()
                        for name, metric in o["result"]["metrics"].items()},
        }
    else:
        print(json.dumps({"details": outcomes[args.workload]["details"]}))
        final = outcomes[args.workload]["result"]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
