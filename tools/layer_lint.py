#!/usr/bin/env python3
"""Check that no source file includes a header from a higher layer.

The layer order is the row order of the "Layer map" table in README.md
(lowest first). A row may name several directories (``src/sim/``,
``src/runtime/``); they form one layer and may include each other.
Every ``#include "<dir>/..."`` in a file under ``src/<dir>/`` must name
a directory of the same or a lower layer, and every directory under
``src/`` must appear in the table.

Usage:
  tools/layer_lint.py [--readme README.md] [--src src]

Exits 0 when clean, 1 on any violation.
"""

import argparse
import os
import re
import sys

ROW_RE = re.compile(r"^\|\s*([^|]+?)\s*\|\s*([^|]+?)\s*\|")
DIR_RE = re.compile(r"`src/([a-z_]+)/`")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([a-z_]+)/[^"]+"')


def read_layers(readme):
    """Return {directory: rank} from the README's layer table."""
    ranks = {}
    in_section = False
    rank = 0
    with open(readme, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("## "):
                in_section = line.strip() == "## Layer map"
                continue
            if not in_section:
                continue
            m = ROW_RE.match(line)
            if not m:
                continue
            dirs = DIR_RE.findall(m.group(2))
            if not dirs:
                continue  # header or separator row
            for d in dirs:
                ranks[d] = rank
            rank += 1
    return ranks


def lint(src, ranks):
    """Return a list of violation messages."""
    errors = []
    for layer in sorted(os.listdir(src)):
        path = os.path.relpath(os.path.join(src, layer))
        if not os.path.isdir(path):
            continue
        if layer not in ranks:
            errors.append(f"{path}/: directory missing from the layer map")
            continue
        for name in sorted(os.listdir(path)):
            if not name.endswith((".h", ".cc")):
                continue
            file = os.path.join(path, name)
            with open(file, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    m = INCLUDE_RE.match(line)
                    if not m:
                        continue
                    target = m.group(1)
                    if target not in ranks:
                        errors.append(f"{file}:{lineno}: includes unknown "
                                      f"layer {target}/")
                    elif ranks[target] > ranks[layer]:
                        errors.append(f"{file}:{lineno}: {layer}/ includes "
                                      f"higher layer {target}/")
    return errors


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--readme", default=os.path.join(root, "README.md"))
    ap.add_argument("--src", default=os.path.join(root, "src"))
    args = ap.parse_args()

    ranks = read_layers(args.readme)
    if not ranks:
        print(f"{args.readme}: no layer map table found", file=sys.stderr)
        return 1
    errors = lint(args.src, ranks)
    for e in errors:
        print(e, file=sys.stderr)
    layers = {}
    for d in sorted(ranks):
        layers.setdefault(ranks[d], []).append(d)
    order = " < ".join("/".join(layers[r]) for r in sorted(layers))
    print(f"layer_lint: {order}; {len(errors)} violation(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
