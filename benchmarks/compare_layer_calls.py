#!/usr/bin/env python
"""Check that no layer does more work than it did at the parent commit.

Usage::

    python benchmarks/compare_layer_calls.py [--allow "WORKLOAD METRIC,..."] PARENT/bench.json CHANGE/bench.json

Each argument is the file written by ``python3 bench/run.py --scale smoke
--trace 1 --seed 7 --out DIR``.  For every workload, each ``<layer>.calls``
(function activations the traced rep attributed to that layer) and
``sim.events`` is compared; a count that rose by more than 5 % is listed and
the exit status is non-zero.  For a fixed seed the counts repeat exactly on
any host, so no timing enters: a per-message cost that creeps back in shows
here as calls, whatever the runner's speed.

``--allow`` names the counts a change means to raise, each as a workload and
a metric (CI takes them from a ``[calls-change: steady-backlog
core.replication.calls]`` commit tag).  Those may rise; every other count is
still checked.  An entry that matches no compared count is an error, so a
typo cannot switch the check off.
"""

from __future__ import annotations

import argparse
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
    parser = argparse.ArgumentParser(
        description="Check that no layer does more work than at the parent."
    )
    parser.add_argument(
        "--allow", default="", help='comma-separated "WORKLOAD METRIC" entries'
    )
    parser.add_argument("bench", nargs=2)
    args = parser.parse_args(argv)
    allowed = {
        tuple(entry.split()) for entry in args.allow.split(",") if entry.strip()
    }
    parent, change = (_counts(path) for path in args.bench)
    if not parent or parent.keys() != change.keys():
        print(
            f"workloads differ: {sorted(parent)} vs {sorted(change)}", file=sys.stderr
        )
        return 2
    names = {
        (workload, metric)
        for workload in parent
        for metric in parent[workload].keys() | change[workload].keys()
    }
    unknown = sorted(" ".join(entry) for entry in allowed - names)
    if unknown:
        print(f"--allow names no compared count: {', '.join(unknown)}", file=sys.stderr)
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
                line = f"{workload} {metric}: {old:.0f} -> {new:.0f} ({growth})"
                if (workload, metric) in allowed:
                    print(f"{line} (allowed)")
                else:
                    risen.append(line)
    for line in risen:
        print(line)
    print(
        f"{compared - len(risen)} of {compared} counts within "
        f"{TOLERANCE:.0%} of the parent's or allowed to rise"
    )
    return 1 if risen else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
