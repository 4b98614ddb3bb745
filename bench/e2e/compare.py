#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs (parent vs change).

Usage:
  python3 bench/e2e/compare.py --parent RUN... --change RUN...

Each RUN is a run record written by run.py (under
$CARGO_TARGET_DIR/e2e/runs/, default .bench_build/e2e/runs/) or a
directory of them. Bounds and directions come from BENCHMARK.json.

For every (end-to-end metric, workload) it prints each side's median and
quartiles, the pair win fraction, and a verdict:

  worse       the change's median is worse than the parent's by more
              than the metric's bound
  better      the change wins at least 0.9 of the run pairs and its
              median differs by more than the parent's IQR
  unresolved  the parent's IQR is wider than the bound, so "same" could
              hide a regression -- unless every change run beats every
              parent run (then "better")
  same        otherwise

Pairs are matched by seed when both sides ran the same seeds, else in
the order given; ties count for neither side. Per-layer metrics from
traced runs are listed without a verdict (they have no bound).

Each run also records how long a fixed, library-independent CPU kernel
took on the host. When its median differs between the two sets by more
than 10%, a warning says so: the verdicts then reflect the host as much
as the change.

Exit status: 1 when any verdict is "worse" or a workload's failed share
(failed / attempted answers) rose, else 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_records(paths):
    recs = []
    for p in paths:
        files = [p]
        if os.path.isdir(p):
            files = sorted(os.path.join(p, f) for f in os.listdir(p)
                           if f.endswith(".json"))
        for f in files:
            with open(f) as fh:
                rec = json.load(fh)
            if "workload" not in rec or "metrics" not in rec:
                sys.exit(f"compare.py: {f} is not a run record")
            recs.append(rec)
    return recs


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], statistics.median(vals), q[2]


def series(recs, workload, trace, name):
    """(seed, value) pairs of one metric, in record order."""
    return [(r["seed"], r["metrics"][name]["value"]) for r in recs
            if r["workload"] == workload and r["trace"] == trace
            and name in r["metrics"]]


def pairs(parent, change):
    pseeds = [s for s, _ in parent]
    cseeds = [s for s, _ in change]
    if sorted(pseeds) == sorted(cseeds) and len(set(pseeds)) == len(pseeds):
        cmap = dict(change)
        return [(v, cmap[s]) for s, v in parent]
    return list(zip([v for _, v in parent], [v for _, v in change]))


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    p_q1, p_med, p_q3 = quartiles(pv)
    c_q1, c_med, c_q3 = quartiles(cv)
    scale = abs(p_med) if p_med else 1.0
    delta = (c_med - p_med) / scale
    # Positive = the change is worse, as a share of the parent median.
    worse_by = delta if lower else -delta
    spread = (p_q3 - p_q1) / scale
    matched = pairs(parent, change)
    wins = sum(1 for p, c in matched if (c < p if lower else c > p))
    win_frac = wins / len(matched) if matched else 0.0
    all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
    if spread > bound:
        v = "better" if all_better else "unresolved"
    elif worse_by > bound:
        v = "worse"
    elif -worse_by > spread and win_frac >= 0.9:
        v = "better"
    else:
        v = "same"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "delta": delta, "spread": spread,
            "wins": win_frac, "verdict": v}


def failed_share(recs, workload):
    att = sum(r["attempted"] for r in recs if r["workload"] == workload)
    bad = sum(r["failed"] for r in recs if r["workload"] == workload)
    return bad / att if att else 0.0


def host_calibration(recs):
    vals = [r["result"]["info"]["host_calibration_ms"] for r in recs
            if "host_calibration_ms" in r.get("result", {}).get("info", {})]
    return statistics.median(vals) if vals else None


def fmt3(t):
    return f"{t[1]:.5g} [{t[0]:.5g}, {t[2]:.5g}]"


def main():
    ap = argparse.ArgumentParser(
        description="Compare parent and change benchmark runs.")
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(ROOT,
                                                        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent = load_records(args.parent)
    change = load_records(args.change)

    regress = False
    print(f"{'workload':<13} {'metric':<18} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'delta':>7} {'p-iqr':>6} "
          f"{'bound':>6} {'wins':>5}  verdict")
    for w in bench["workloads"]:
        wn = w["name"]
        for m in bench["end_to_end"]:
            p = series(parent, wn, 0, m["name"])
            c = series(change, wn, 0, m["name"])
            if not p or not c:
                continue
            r = verdict(m, p, c)
            regress |= r["verdict"] == "worse"
            print(f"{wn:<13} {m['name']:<18} {fmt3(r['parent']):<34} "
                  f"{fmt3(r['change']):<34} {r['delta']*100:+6.1f}% "
                  f"{r['spread']*100:5.1f}% {m['bound']*100:5.1f}% "
                  f"{r['wins']:5.2f}  {r['verdict']}")
        pf, cf = failed_share(parent, wn), failed_share(change, wn)
        if cf > pf:
            regress = True
            print(f"{wn:<13} failed_share rose: {pf:.4g} -> {cf:.4g}")

    pc, cc = host_calibration(parent), host_calibration(change)
    if pc and cc:
        drift = cc / pc - 1.0
        print(f"\nhost calibration kernel: parent {pc:.4g} ms, change "
              f"{cc:.4g} ms ({drift * 100:+.1f}%)")
        if abs(drift) > 0.1:
            print("warning: the host ran at a different speed for the two "
                  "sets; the verdicts reflect the host as much as the change")

    layer_rows = []
    for w in bench["workloads"]:
        for m in bench["per_layer"]:
            p = [v for _, v in series(parent, w["name"], 1, m["name"])]
            c = [v for _, v in series(change, w["name"], 1, m["name"])]
            if p and c and (any(p) or any(c)):
                layer_rows.append((w["name"], m, statistics.median(p),
                                   statistics.median(c)))
    if layer_rows:
        print("\nper-layer medians (traced runs; no bound)")
        for wn, m, pm, cm in layer_rows:
            print(f"{wn:<13} {m['name']:<32} {pm:>14.6g} {cm:>14.6g} "
                  f"{m['unit']}")
    sys.exit(1 if regress else 0)


if __name__ == "__main__":
    main()
