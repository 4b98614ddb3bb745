#!/usr/bin/env python3
"""Lint a tessel_service metrics snapshot.

Checks, against the Prometheus text exposition written by
``tessel_service --metrics-out FILE`` (and the JSON twin at FILE.json):

  1. The exposition parses and every series (name + label set) is
     unique.
  2. Every exported dotted metric name appears in the README
     "Observability" catalog (exported-but-undocumented is an error;
     documented-but-absent is a warning, since some series only
     materialise under load, e.g. ``loop.tenant_throttled``).
  3. Counter-family samples (``*_total``, histogram ``_count`` and
     cumulative ``_bucket``) are monotonically non-decreasing versus an
     earlier same-process snapshot (FILE.prev, kept by the daemon's
     periodic writer), when one exists.

Usage:
  tools/metrics_lint.py METRICS_FILE [--prev FILE] [--json FILE]
                        [--readme README.md]

Exits 0 when clean (warnings allowed), 1 on any error.
"""

import argparse
import json
import os
import re
import sys

SERIES_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
DOTTED_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")


def parse_prometheus(path):
    """Return ({series_key: float_value}, [errors]). series_key is the
    raw 'name{labels}' string."""
    series = {}
    errors = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            m = SERIES_RE.match(line)
            if not m:
                errors.append(f"{path}:{lineno}: unparsable line: {line!r}")
                continue
            labels = m.group("labels") or ""
            key = m.group("name") + ("{" + labels + "}" if labels else "")
            if key in series:
                errors.append(f"{path}:{lineno}: duplicate series {key}")
                continue
            try:
                series[key] = float(m.group("value"))
            except ValueError:
                errors.append(
                    f"{path}:{lineno}: bad sample value {m.group('value')!r}"
                )
    return series, errors


def exported_names(json_path):
    """Dotted metric names from the JSON snapshot twin."""
    with open(json_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return sorted({m["name"] for m in doc.get("metrics", [])})


def documented_names(readme_path):
    """Backticked dotted names inside the README Observability section."""
    with open(readme_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    m = re.search(r"^##\s+Observability\s*$(.*?)(?=^##\s|\Z)", text,
                  re.MULTILINE | re.DOTALL)
    if not m:
        return None
    return sorted(set(DOTTED_RE.findall(m.group(1))))


def is_counter_sample(key):
    name = key.split("{", 1)[0]
    return (name.endswith("_total") or name.endswith("_count")
            or name.endswith("_bucket") or name.endswith("_sum"))


def check_monotonic(prev, cur):
    errors = []
    for key, prev_value in prev.items():
        if not is_counter_sample(key):
            continue
        cur_value = cur.get(key)
        if cur_value is None:
            errors.append(f"counter series {key} vanished vs .prev")
        elif cur_value < prev_value:
            errors.append(
                f"counter series {key} went backwards: "
                f"{prev_value} -> {cur_value}"
            )
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("metrics", help="Prometheus text snapshot")
    ap.add_argument("--prev", help="earlier same-process snapshot "
                    "(default: METRICS.prev when present)")
    ap.add_argument("--json", dest="json_path",
                    help="JSON snapshot twin (default: METRICS.json)")
    ap.add_argument("--readme", default=None,
                    help="README with the Observability catalog "
                    "(default: README.md next to the repo root)")
    args = ap.parse_args()

    errors = []
    warnings = []

    series, parse_errors = parse_prometheus(args.metrics)
    errors += parse_errors
    if not series:
        errors.append(f"{args.metrics}: no series found")

    prev_path = args.prev or args.metrics + ".prev"
    if os.path.exists(prev_path):
        prev_series, prev_errors = parse_prometheus(prev_path)
        errors += prev_errors
        errors += check_monotonic(prev_series, series)
    elif args.prev:
        errors.append(f"--prev {args.prev}: no such file")
    else:
        warnings.append(f"no {prev_path}; monotonicity not checked")

    json_path = args.json_path or args.metrics + ".json"
    readme = args.readme
    if readme is None:
        here = os.path.dirname(os.path.abspath(__file__))
        readme = os.path.join(here, os.pardir, "README.md")
    if os.path.exists(json_path):
        try:
            exported = exported_names(json_path)
        except (ValueError, KeyError) as e:
            errors.append(f"{json_path}: bad JSON snapshot: {e}")
            exported = []
        if os.path.exists(readme):
            documented = documented_names(readme)
            if documented is None:
                errors.append(f"{readme}: no '## Observability' section")
            else:
                for name in exported:
                    if name not in documented:
                        errors.append(
                            f"exported metric {name} not documented in "
                            f"the README Observability catalog"
                        )
                for name in documented:
                    if name not in exported:
                        warnings.append(
                            f"documented metric {name} absent from this "
                            f"snapshot (fine if it only appears under "
                            f"load)"
                        )
        else:
            errors.append(f"README not found at {readme}")
    else:
        errors.append(f"JSON snapshot twin {json_path} missing")

    for w in warnings:
        print(f"metrics_lint: warning: {w}")
    for e in errors:
        print(f"metrics_lint: error: {e}")
    print(f"metrics_lint: {len(series)} series, {len(errors)} errors, "
          f"{len(warnings)} warnings")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
