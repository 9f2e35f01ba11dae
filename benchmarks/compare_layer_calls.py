#!/usr/bin/env python
"""Check that no layer does more work than it did at the parent commit.

Usage::

    python benchmarks/compare_layer_calls.py PARENT/bench.json CHANGE/bench.json

Each argument is the file written by ``python3 bench/run.py --scale smoke
--trace 1 --seed 7 --out DIR``.  For every workload, each ``<layer>.calls``
(function activations the traced rep attributed to that layer) and
``sim.events`` is compared; a count that rose by more than 5 % is listed and
the exit status is non-zero.  For a fixed seed the counts repeat exactly on
any host, so no timing enters: a per-message cost that creeps back in shows
here as calls, whatever the runner's speed.
"""

from __future__ import annotations

import json
import sys

#: a count may grow this much before the check fails.
TOLERANCE = 0.05


def _counts(path: str) -> dict[str, dict[str, float]]:
    with open(path) as handle:
        session = json.load(handle)
    return {
        name: {
            metric: value
            for metric, value in workload["per_layer"].items()
            if metric.endswith(".calls") or metric == "sim.events"
        }
        for name, workload in session["workloads"].items()
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (_counts(path) for path in argv)
    if not parent or parent.keys() != change.keys():
        print(
            f"workloads differ: {sorted(parent)} vs {sorted(change)}", file=sys.stderr
        )
        return 2
    compared = 0
    risen = []
    for workload, before in parent.items():
        after = change[workload]
        for metric in sorted(before.keys() | after.keys()):
            old, new = before.get(metric), after.get(metric)
            compared += 1
            if old is None or new is None:
                risen.append(f"{workload} {metric}: only on one side")
                continue
            # A layer idle at the parent (0 calls) may not wake up either.
            if new > old * (1 + TOLERANCE):
                growth = f"{new / old - 1:+.1%}" if old else "from zero"
                risen.append(f"{workload} {metric}: {old:.0f} -> {new:.0f} ({growth})")
    for line in risen:
        print(line)
    print(
        f"{compared - len(risen)} of {compared} counts within "
        f"{TOLERANCE:.0%} of the parent's"
    )
    return 1 if risen else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
