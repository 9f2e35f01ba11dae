#!/usr/bin/env python
"""Kill two or three of four coordinators for good and list the runs that
lose calls.

Usage::

    PYTHONPATH=src python benchmarks/coordinator_loss_sweep.py

RPC-V promises that no submitted call is lost while any coordinator
survives.  This sweep probes that promise on Fig. 7's grid (16 servers,
4 coordinators, 96 calls of 10 s, horizon 2000 s): for seeds 7, 11 and 23,
for every pair and every trio of the four coordinators, and for kill times
5, 10, ..., 60 s, an ``inject.script`` kills them permanently at the same
instant.  That is 360 runs, about 25 s on a 2-core host.

Each run that completes fewer than 96 calls is printed as
``SEED/KILLED/TIME=COMPLETED`` (``7/k0+k1/20=64``: seed 7, ``cluster-k0``
and ``cluster-k1`` killed at 20 s, 64 calls completed).  The exit status is
0 only when no run lost a call.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from repro.scenarios.engine import GridTopology, WorkloadSpec, execute_benchmark

SEEDS = (7, 11, 23)
COORDINATORS = ("k0", "k1", "k2", "k3")
KILL_TIMES = tuple(range(5, 61, 5))
#: how many coordinators one run kills: every pair, then every trio.
KILLED = (2, 3)
N_CALLS = 96
HORIZON = 2000.0


def run_one(seed: int, killed: tuple[str, ...], kill_at: float) -> int:
    """Completed calls of one run that kills ``killed`` at ``kill_at``."""
    events = [
        {"time": kill_at, "action": "kill", "target": f"cluster-{name}"}
        for name in killed
    ]
    report = execute_benchmark(
        GridTopology(n_servers=16, n_coordinators=4),
        WorkloadSpec(n_calls=N_CALLS, exec_time=10.0),
        seed=seed,
        horizon=HORIZON,
        components=[{"name": "inject.script", "params": {"events": events}}],
    )
    return report.completed


def victims() -> list[tuple[str, ...]]:
    """Every set of coordinators one run kills, pairs first."""
    return [
        killed
        for size in KILLED
        for killed in itertools.combinations(COORDINATORS, size)
    ]


def sweep() -> dict[str, int]:
    """``label -> completed`` for every run that lost calls."""
    lossy: dict[str, int] = {}
    for seed in SEEDS:
        for killed in victims():
            for kill_at in KILL_TIMES:
                completed = run_one(seed, killed, float(kill_at))
                if completed < N_CALLS:
                    lossy[f"{seed}/{'+'.join(killed)}/{kill_at}"] = completed
    return lossy


def main(argv: list[str]) -> int:
    argparse.ArgumentParser(
        description="List the two- and three-coordinator kills that lose calls."
    ).parse_args(argv)
    lossy = sweep()
    runs = len(SEEDS) * len(victims()) * len(KILL_TIMES)
    for label, completed in lossy.items():
        print(f"lossy {label}={completed}  ({completed}/{N_CALLS} completed)")
    print(f"{len(lossy)} of {runs} runs lost calls")
    return 1 if lossy else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
