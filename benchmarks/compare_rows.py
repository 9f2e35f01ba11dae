#!/usr/bin/env python
"""Check that two scenario runs produced the same figure rows.

Usage::

    PYTHONPATH=src python benchmarks/compare_rows.py RESULTS_A RESULTS_B

Each argument is a ``ResultsStore`` directory (``python -m repro run --out``).
For every scenario found in either, the latest artifact's ``rows`` are
compared; the scenarios that differ, or that only one side ran, are listed
and the exit status is non-zero.  A host-cost-only change (a faster kernel,
table or index) must leave every row identical: this is that check.
"""

from __future__ import annotations

import sys

from repro.scenarios import ResultsStore


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    stores = [ResultsStore(root) for root in argv]
    names = sorted(
        {
            path.name
            for store in stores
            if store.root.is_dir()
            for path in store.root.iterdir()
            if path.is_dir()
        }
    )
    if not names:
        print(f"no scenario artifacts under {argv[0]} or {argv[1]}", file=sys.stderr)
        return 2
    differing = []
    for name in names:
        a, b = (store.latest(name) for store in stores)
        if a is None or b is None:
            differing.append(f"{name}: only in {argv[1] if a is None else argv[0]}")
        elif a.rows != b.rows:
            differing.append(f"{name}: rows differ")
    for line in differing:
        print(line)
    print(f"{len(names) - len(differing)} of {len(names)} scenarios have identical rows")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
