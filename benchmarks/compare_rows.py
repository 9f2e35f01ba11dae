#!/usr/bin/env python
"""Check that two scenario runs produced the same figure rows.

Usage::

    PYTHONPATH=src python benchmarks/compare_rows.py [--allow NAME,...] RESULTS_A RESULTS_B

Each argument is a ``ResultsStore`` directory (``python -m repro run --out``).
For every scenario found in either, the latest artifact's ``rows`` are
compared; the scenarios that differ, or that only one side ran, are listed
and the exit status is non-zero.  A host-cost-only change (a faster kernel,
table or index) must leave every row identical: this is that check.

``--allow`` names the scenarios a change means to move (CI takes them from a
``[rows-change: fig9, flash-crowd]`` commit tag).  Their rows may differ,
and a scenario the change adds or deletes may run on one side only; every
other scenario is still checked.  A name that matches no scenario is an
error, so a typo cannot switch the check off.
"""

from __future__ import annotations

import argparse
import sys

from repro.scenarios import ResultsStore


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Check that two scenario runs produced the same rows."
    )
    parser.add_argument("--allow", default="", help="comma-separated scenario names")
    parser.add_argument("results", nargs=2)
    args = parser.parse_args(argv)
    allowed = {name.strip() for name in args.allow.split(",") if name.strip()}
    stores = [ResultsStore(root) for root in args.results]
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
        print(f"no scenario artifacts under {' or '.join(args.results)}", file=sys.stderr)
        return 2
    unknown = sorted(allowed - set(names))
    if unknown:
        print(f"--allow names no scenario that ran: {', '.join(unknown)}", file=sys.stderr)
        return 2
    differing, moved = [], 0
    for name in names:
        a, b = (store.latest(name) for store in stores)
        if a is None or b is None:
            where = f"only in {args.results[1 if a is None else 0]}"
            if name in allowed:
                print(f"{name}: {where} (allowed)")
                moved += 1
            else:
                differing.append(f"{name}: {where}")
        elif a.rows != b.rows:
            if name in allowed:
                print(f"{name}: rows differ (allowed)")
                moved += 1
            else:
                differing.append(f"{name}: rows differ")
    for line in differing:
        print(line)
    identical = len(names) - len(differing) - moved
    print(f"{identical} of {len(names)} scenarios have identical rows")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
