#!/usr/bin/env python3
"""End-to-end planner benchmark: build, run, check, report.

Usage (from the repository root):

  python3 bench/e2e/run.py [--seed N]
      build tessel_e2e, run every workload in its own process, print
      every end-to-end metric by name with its unit
  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      one workload; --trace 1 prints the per-layer metrics instead and
      writes a Perfetto-loadable trace of the traced pass
  python3 bench/e2e/run.py --check [RECORD.json ...]
      validate BENCHMARK.json, and run records against it

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything the run builds or
writes stays under $CARGO_TARGET_DIR (default .bench_build) in the
repository: the CMake build, the fixture store, scratch stores, traces
and one run record per run (runs/*.json, the input of compare.py).

Exit status: 0 when every answer checked out, 1 otherwise (failed
checks, build failure, or sources missing).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A workload process must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def bench_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e")


def build(out_dir):
    """Configure and build tessel_e2e (Release, LTO). Returns the binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("tessel sources not found next to bench/e2e; cannot build")
    build_dir = os.path.join(out_dir, "build")
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "tessel_e2e",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "tessel_e2e")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest():
    """Content digest of the planner sources (the checkout may not be a
    git repository)."""
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def ensure_fixture(binary, out_dir):
    """The fixture store (the reference batch, searched cold) is built
    once per tessel_e2e binary and only ever copied afterwards."""
    key = file_digest(binary)[:16]
    fixture = os.path.join(out_dir, f"fixture-{key}")
    info_path = os.path.join(fixture, "info.json")
    if not os.path.isfile(info_path):
        tmp = f"{fixture}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        start = time.monotonic()
        rc = subprocess.call([binary, "--build-fixture", tmp, "--out",
                              os.path.join(tmp, "info.json")],
                             timeout=RUN_TIMEOUT_S)
        if rc != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            fail("fixture build failed")
        with open(os.path.join(tmp, "info.json")) as f:
            info = json.load(f)
        info["fixture_build_s"] = time.monotonic() - start
        with open(os.path.join(tmp, "info.json"), "w") as f:
            json.dump(info, f)
        for old in os.listdir(out_dir):
            if old.startswith("fixture-") and ".tmp-" not in old:
                shutil.rmtree(os.path.join(out_dir, old), ignore_errors=True)
        os.rename(tmp, fixture)
    with open(info_path) as f:
        return fixture, json.load(f)


def environment(build_dir, seed):
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        commit = commit.stdout.strip() if commit.returncode == 0 else ""
    except OSError:
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_commit": commit or "unknown",
        "source_digest": source_digest(),
        "seed": seed,
        "tessel_mcr": os.environ.get("TESSEL_MCR"),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_workload(args, bench, binary, out_dir, fixture, fixture_info):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (one of {names})")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    result_path = os.path.join(work, "result.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--fixture", fixture, "--out", result_path]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(out_dir, "traces", f"{tag}.json")
        cmd += ["--trace-out", trace_path]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    try:
        with open(result_path) as f:
            result = json.load(f)
    except (OSError, ValueError):
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{args.workload} exited {proc.returncode} without a result")
    shutil.rmtree(work, ignore_errors=True)

    key = "per_layer" if args.trace else "end_to_end"
    source = result["layers"] if args.trace else result["e2e"]
    metrics = {}
    for m in bench[key]:
        value = source.get(m["name"], 0.0 if args.trace else None)
        if value is None or not math.isfinite(value):
            fail(f"{args.workload} did not report {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = bool(result["correct"]) and proc.returncode == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": metrics,
        "result": result,
        "wall_s": time.monotonic() - start,
        "fixture": fixture_info,
        "trace_file": trace_path,
        "env": environment(os.path.dirname(binary), args.seed),
    }
    with open(os.path.join(out_dir, "runs", f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    return record


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        print(f"  {workload:<13} {name:<34} {m['value']:>16.6g} {m['unit']}")


def check(bench, records):
    """Validate BENCHMARK.json and each run record against it."""
    problems = []
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != want:
        problems.append(f"BENCHMARK.json keys {sorted(bench)} != "
                        f"{sorted(want)}")
    rs = bench.get("run_seconds")
    if not isinstance(rs, int) or not 1 <= rs <= 60:
        problems.append("run_seconds must be a whole number in [1, 60]")
    if not 2 <= len(bench.get("workloads", [])) <= 8:
        problems.append("2 to 8 workloads required")
    seen = set()
    for w in bench.get("workloads", []):
        if set(w) != {"name", "why"} or not NAME_RE.match(w["name"]):
            problems.append(f"bad workload entry {w}")
        if len(w.get("why", "")) > 200 or "\n" in w.get("why", ""):
            problems.append(f"workload {w.get('name')}: why too long")
        seen.add(w.get("name"))
    for key, lo, hi, fields in (
            ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
            ("per_layer", 1, 128, {"name", "unit", "better"})):
        entries = bench.get(key, [])
        if not lo <= len(entries) <= hi:
            problems.append(f"{key}: {len(entries)} metrics, want {lo}-{hi}")
        for m in entries:
            if set(m) != fields:
                problems.append(f"{key}: {m.get('name')} keys {sorted(m)}")
            if not NAME_RE.match(m.get("name", "")):
                problems.append(f"{key}: bad name {m.get('name')!r}")
            if m.get("name") in seen:
                problems.append(f"{key}: name {m['name']} used twice")
            seen.add(m.get("name"))
            if not UNIT_RE.match(m.get("unit", "")):
                problems.append(f"{key}: {m.get('name')} bad unit")
            if m.get("better") not in ("lower", "higher"):
                problems.append(f"{key}: {m.get('name')} bad direction")
            if key == "end_to_end" and not 0 <= m.get("bound", -1) <= 0.25:
                problems.append(f"{m.get('name')}: bound outside [0, 0.25]")
    setup = [m for m in bench.get("end_to_end", [])
             if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s (unit s, lower)")

    for path in records:
        with open(path) as f:
            rec = json.load(f)
        key = "per_layer" if rec.get("trace") else "end_to_end"
        metrics = rec.get("metrics", {})
        for m in bench.get(key, []):
            got = metrics.get(m["name"])
            if got is None:
                problems.append(f"{path}: {rec.get('workload')} lacks "
                                f"{m['name']}")
            elif got.get("unit") != m["unit"] or not isinstance(
                    got.get("value"), (int, float)):
                problems.append(f"{path}: {m['name']} unit/value invalid")
        for name in metrics:
            if not NAME_RE.match(name):
                problems.append(f"{path}: bad metric name {name!r}")
    for p in problems:
        print(f"check: {p}")
    print(f"check: {len(records)} run record(s), {len(problems)} problem(s)")
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", nargs="*", metavar="RECORD")
    args = ap.parse_args()

    if "TESSEL_MCR" in os.environ:
        fail("TESSEL_MCR must be unset: the benchmark measures the default "
             "period core")
    if not os.path.isfile(BENCHMARK):
        fail(f"{BENCHMARK} not found")
    bench = load_benchmark()
    if args.check is not None:
        sys.exit(0 if check(bench, args.check) else 1)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    out_dir = bench_dir()
    os.makedirs(out_dir, exist_ok=True)
    binary = build(out_dir)
    fixture, fixture_info = ensure_fixture(binary, out_dir)

    if args.workload:
        rec = run_workload(args, bench, binary, out_dir, fixture,
                           fixture_info)
        print_metrics(args.workload, rec["metrics"])
        for f in rec["failures"]:
            print(f"  FAIL: {f}")
        print(json.dumps({"correct": rec["correct"],
                          "attempted": rec["attempted"],
                          "failed": rec["failed"],
                          "metrics": rec["metrics"]}))
        sys.exit(0 if rec["correct"] else 1)

    # Every workload, each in its own process.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             w["name"], "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {"correct": False, "attempted": 0, "failed": 1,
                   "metrics": {}}
        summary["correct"] &= bool(res["correct"]) and proc.returncode == 0
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            summary["metrics"][f"{w['name']}/{name}"] = m
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
