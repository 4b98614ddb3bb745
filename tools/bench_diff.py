#!/usr/bin/env python3
"""Gate a fresh BENCH_solver.json against the committed baseline.

Usage: bench_diff.py FRESH BASELINE

Compares per-bench (matched by name) and exits nonzero when

  * wall_ms regresses by more than the wall tolerance (default +25%,
    override with TESSEL_BENCH_WALL_TOL, a fraction: 0.25 = +25%).
    Wall clock is noisy on shared runners, so CI sets a generous
    tolerance; the real regression signal is the counter gate below.
  * either deterministic period-kernel effort counter -- value_sweeps
    or policy_improvements -- regresses by more than
    TESSEL_BENCH_COUNTER_TOL (default 0.10), or `nodes` changes at all
    (the search tree is deterministic; any drift is a behavior change,
    not noise).

Benches present on only one side are reported but never fail the gate,
so adding or retiring a bench does not require a lockstep baseline
update.
"""

import json
import os
import sys

# Counters gated by TESSEL_BENCH_COUNTER_TOL: (JSON key, printed label).
COUNTERS = (
    ("value_sweeps", "value sweeps"),
    ("policy_improvements", "policy improvements"),
)


def load_rows(path):
    with open(path) as f:
        rows = json.load(f)
    return {row["bench"]: row for row in rows}


def tolerance(env, default):
    try:
        return float(os.environ.get(env, ""))
    except ValueError:
        return default


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh = load_rows(sys.argv[1])
    base = load_rows(sys.argv[2])
    wall_tol = tolerance("TESSEL_BENCH_WALL_TOL", 0.25)
    counter_tol = tolerance("TESSEL_BENCH_COUNTER_TOL", 0.10)

    failures = []
    for name in sorted(set(fresh) | set(base)):
        if name not in base:
            print(f"  new bench (no baseline): {name}")
            continue
        if name not in fresh:
            print(f"  baseline bench missing from fresh run: {name}")
            continue
        f, b = fresh[name], base[name]

        wall_f, wall_b = f["wall_ms"], b["wall_ms"]
        wall_ok = wall_f <= wall_b * (1.0 + wall_tol)
        counters_over = [
            (label, b.get(key, 0), f.get(key, 0))
            for key, label in COUNTERS
            if f.get(key, 0) > b.get(key, 0) * (1.0 + counter_tol)
        ]
        nodes_ok = f.get("nodes", 0) == b.get("nodes", 0)

        ok = wall_ok and not counters_over and nodes_ok
        status = "ok" if ok else "FAIL"
        counts = ", ".join(
            f"{label} {b.get(key, 0)} -> {f.get(key, 0)}"
            for key, label in COUNTERS + (("nodes", "nodes"),)
        )
        print(
            f"  {status:4s} {name}: wall {wall_b:.1f} -> {wall_f:.1f} ms, "
            f"{counts}"
        )
        if not wall_ok:
            failures.append(
                f"{name}: wall_ms {wall_f:.1f} > {wall_b:.1f} "
                f"* (1 + {wall_tol})"
            )
        for label, base_count, fresh_count in counters_over:
            failures.append(
                f"{name}: {label} {fresh_count} > {base_count} "
                f"* (1 + {counter_tol})"
            )
        if not nodes_ok:
            failures.append(
                f"{name}: nodes {f.get('nodes', 0)} != baseline "
                f"{b.get('nodes', 0)} (deterministic; must match)"
            )

    if failures:
        print("bench_diff: REGRESSION", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print("bench_diff: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
