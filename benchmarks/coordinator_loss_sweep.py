#!/usr/bin/env python
"""Kill two of four coordinators for good and list the runs that lose calls.

Usage::

    PYTHONPATH=src python benchmarks/coordinator_loss_sweep.py [--expect RUNS]

RPC-V promises that no submitted call is lost while any coordinator
survives.  This sweep probes that promise on Fig. 7's grid (16 servers,
4 coordinators, 96 calls of 10 s, horizon 2000 s): for seeds 7 and 11, for
every pair of the four coordinators, and for kill times 5, 10, ..., 60 s, an
``inject.script`` kills the pair permanently at the same instant.  That is
144 runs, about 20 s on a 2-core host.

Each run that completes fewer than 96 calls is printed as
``SEED/PAIR/TIME=COMPLETED`` (``7/k0+k1/20=64``: seed 7, ``cluster-k0`` and
``cluster-k1`` killed at 20 s, 64 calls completed).  The exit status is 0
only when the set of lossy runs, completed counts included, equals
``--expect`` (a comma-separated list of such labels; empty by default, which
is the promise itself).  A lossy run that is not expected, or an expected one
that no longer loses calls or now loses a different number, fails.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from repro.scenarios.engine import GridTopology, WorkloadSpec, execute_benchmark

SEEDS = (7, 11)
COORDINATORS = ("k0", "k1", "k2", "k3")
KILL_TIMES = tuple(range(5, 61, 5))
N_CALLS = 96
HORIZON = 2000.0


def run_one(seed: int, pair: tuple[str, str], kill_at: float) -> int:
    """Completed calls of one run that kills ``pair`` at ``kill_at``."""
    events = [
        {"time": kill_at, "action": "kill", "target": f"cluster-{name}"}
        for name in pair
    ]
    report = execute_benchmark(
        GridTopology(n_servers=16, n_coordinators=4),
        WorkloadSpec(n_calls=N_CALLS, exec_time=10.0),
        seed=seed,
        horizon=HORIZON,
        components=[{"name": "inject.script", "params": {"events": events}}],
    )
    return report.completed


def sweep() -> dict[str, int]:
    """``label -> completed`` for every run that lost calls."""
    lossy: dict[str, int] = {}
    for seed in SEEDS:
        for pair in itertools.combinations(COORDINATORS, 2):
            for kill_at in KILL_TIMES:
                completed = run_one(seed, pair, float(kill_at))
                if completed < N_CALLS:
                    lossy[f"{seed}/{'+'.join(pair)}/{kill_at}"] = completed
    return lossy


def parse_expect(text: str) -> dict[str, int]:
    """``"7/k0+k1/20=64,..."`` -> ``{"7/k0+k1/20": 64, ...}``."""
    expected: dict[str, int] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        label, sep, completed = entry.partition("=")
        if not sep or not completed.strip().isdigit():
            raise SystemExit(f"--expect entry {entry!r} is not SEED/PAIR/TIME=COMPLETED")
        expected[label.strip()] = int(completed)
    return expected


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="List the two-coordinator kills that lose calls."
    )
    parser.add_argument(
        "--expect",
        default="",
        help="comma-separated SEED/PAIR/TIME=COMPLETED labels of the lossy runs",
    )
    args = parser.parse_args(argv)
    expected = parse_expect(args.expect)
    lossy = sweep()
    runs = len(SEEDS) * len(KILL_TIMES) * len(COORDINATORS) * (len(COORDINATORS) - 1) // 2
    for label, completed in lossy.items():
        print(f"lossy {label}={completed}  ({completed}/{N_CALLS} completed)")
    print(f"{len(lossy)} of {runs} runs lost calls")
    if lossy == expected:
        return 0
    for label in sorted(lossy.keys() - expected.keys()):
        print(f"unexpected loss: {label}={lossy[label]}")
    for label in sorted(expected.keys() - lossy.keys()):
        print(f"expected loss did not happen: {label}={expected[label]}")
    for label in sorted(lossy.keys() & expected.keys()):
        if lossy[label] != expected[label]:
            print(f"loss changed: {label} completed {lossy[label]}, expected {expected[label]}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
