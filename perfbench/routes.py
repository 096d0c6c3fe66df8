"""The route_agreement workload: one fresh interpreter that calls only the
public hypident API and checks that its independent routes agree.

- Rows 1..100 of the triangle by R recurrence, L closed form, L recurrence,
  R closed form and L series; all five must be equal.
- vanishing_sum(i, j) == 0 for 1 <= i <= j <= 80.
- summand_equivalence(g, l, j) for g <= 4, every l and j <= 20.

Prints one JSON object: the SHA-256 of the agreed rows (the benchmark
compares it with its own oracle), the number of checks made and every
disagreement found. Every call goes through the ``hypident`` package
attributes at call time, so layer hooks installed by ``tracer.py`` see it.

Run with the program's ``src`` directory on PYTHONPATH:
    python3 perfbench/routes.py
"""

from __future__ import annotations

import json

from oracle import rows_digest

ROW_LEVELS = 100
VANISHING_LEVELS = 80
SUMMAND_GENERA = 4
SUMMAND_LEVELS = 20


def expected_checks() -> int:
    rows = 4 * ROW_LEVELS
    vanishing = VANISHING_LEVELS * (VANISHING_LEVELS + 1) // 2
    summands = sum(3 * g for g in range(1, SUMMAND_GENERA + 1)) * SUMMAND_LEVELS
    return rows + vanishing + summands


def run() -> dict:
    import hypident  # imported here so the benchmark can read the constants without it

    checks = 0
    disagreements = []
    rows = []
    for j in range(1, ROW_LEVELS + 1):
        r_rec = hypident.triangle_row("R", j)
        routes = {
            "L closed form": hypident.triangle_row("L", j),
            "L recurrence": tuple(hypident.l_entry_recurrence(i, j) for i in range(j + 1)),
            "R closed form": tuple(hypident.r_entry_closed(i, j) for i in range(j + 1)),
            "L series": hypident.l_poly_from_series(j).coeffs,
        }
        for name, row in routes.items():
            checks += 1
            if row != r_rec:
                disagreements.append(f"row {j}: {name} differs from R recurrence")
        rows.append(r_rec)
    for j in range(1, VANISHING_LEVELS + 1):
        for i in range(1, j + 1):
            checks += 1
            if hypident.vanishing_sum(i, j) != 0:
                disagreements.append(f"vanishing_sum({i}, {j}) != 0")
    for g in range(1, SUMMAND_GENERA + 1):
        for l in range(3 * g):
            for j in range(1, SUMMAND_LEVELS + 1):
                checks += 1
                if not hypident.summand_equivalence(g, l, j):
                    disagreements.append(f"summand_equivalence({g}, {l}, {j}) is false")
    return {"rows_digest": rows_digest(rows), "checks": checks, "disagreements": disagreements}


if __name__ == "__main__":
    print(json.dumps(run()))
