"""Self-test of the benchmark's correctness gate; needs no hypident.

    python3 perfbench/selftest.py

Builds small verify reports from the oracle, then corrupts them the way a
defect would (one flipped digit, a lost row, equal=false, output that
changes between repetitions) and checks that the gate counts each as one
failed operation. Exits non-zero on the first expectation that fails.
"""

from __future__ import annotations

import json
import math
import sys

import oracle
import run

J_RANGE, N_RANGE = (1, 4), (1, 6)


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def report(fmt: str) -> str:
    rows = [(N, j, oracle.rhs_binomial_sum(N, j)) for j in range(J_RANGE[0], J_RANGE[1] + 1)
            for N in range(N_RANGE[0], N_RANGE[1] + 1)]
    if fmt == "csv":
        return "\n".join([oracle.CSV_HEADER] + [f"{N},{j},{v},{v},true,0" for N, j, v in rows]) + "\n"
    return json.dumps([{"N": N, "j": j, "lhs": str(v), "rhs": str(v), "equal": True, "micros": 0}
                       for N, j, v in rows], indent=2) + "\n"


def flip_digit(text: str, row: int, column: str) -> str:
    """Change the last digit of one lhs or rhs value of a CSV report."""
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    index = {"lhs": 2, "rhs": 3}[column]
    fields[index] = fields[index][:-1] + str((int(fields[index][-1]) + 1) % 10)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def failures(fmt: str, texts: list[str], sample: list[int]) -> int:
    """Judge each text as one repetition of one step; return the failure count."""
    step = run.Step("verify", [], lambda text: oracle.check_sweep(text, fmt, J_RANGE, N_RANGE, sample))
    runner = run.Runner(work="", deadline=0.0, spawner=None)
    for text in texts:
        runner.judge(step, run.Proc(0, False, 1.0, 1.0, 1.0, text))
    expect(runner.attempted == len(texts), f"{len(texts)} operations attempted")
    return runner.failed


def main() -> int:
    expect(all(oracle.rhs_binomial_sum(N, j) == sum(
        math.comb(N, l) * math.prod(2 * (2 * i + 1 + l) for i in range(j)) for l in range(N + 1))
        for N in range(1, 25) for j in range(0, 20)), "binomial-sum oracle matches its definition")
    csv, js = report("csv"), report("json")
    rows = len(csv.split("\n")) - 2
    expect(failures("csv", [csv, csv], []) == 0, "correct CSV reports pass")
    expect(failures("json", [js, js], [0, rows - 1]) == 0, "correct JSON reports pass, oracle sample included")
    expect(failures("csv", [flip_digit(csv, 5, "lhs")], []) == 1, "a flipped lhs digit counts as one failure")
    both = flip_digit(flip_digit(csv, 7, "lhs"), 7, "rhs")
    expect(failures("csv", [both], []) == 0, "a consistent flip outside the oracle sample passes the row checks")
    expect(failures("csv", [both], [7]) == 1, "the same flip inside the oracle sample counts as one failure")
    lost = "\n".join(line for n, line in enumerate(csv.split("\n")) if n != 3)
    expect(failures("csv", [lost], []) == 1, "a missing row counts as one failure")
    unequal = csv.replace(",true,", ",false,", 1)
    expect(failures("csv", [unequal], []) == 1, "equal=false counts as one failure")
    expect(failures("json", [js[:-3]], []) == 1, "malformed JSON counts as one failure")
    expect(failures("csv", [csv, both, csv], []) == 1, "output that changes between repetitions counts once")
    runner = run.Runner(work="", deadline=0.0, spawner=None)
    runner.judge(run.Step("verify", [], lambda text: []), run.Proc(1, False, 1.0, 1.0, 1.0, csv))
    runner.judge(run.Step("verify", [], lambda text: []), run.Proc(-9, True, 1.0, 1.0, 1.0, ""))
    expect(runner.failed == 2, "a non-zero exit and a timeout each count as one failure")
    return 0


if __name__ == "__main__":
    sys.exit(main())
