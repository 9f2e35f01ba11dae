#!/usr/bin/env python3
"""Drive a scenario in (scaled) real time with the RealTimeDriver.

The exact same components that run in virtual time for the experiments are
paced against the wall clock here (speedup 20x so the demo takes ~2 s), with
a live progress line — the "engine-agnostic" property described in DESIGN.md.
Exits non-zero unless every call completed.
"""

import sys

from repro.grid import build_confined_cluster
from repro.runtime import RealTimeDriver
from repro.workloads import SyntheticWorkload


def main() -> None:
    grid = build_confined_cluster(n_servers=4, n_coordinators=2)
    grid.start()
    workload = SyntheticWorkload(n_calls=12, exec_time=5.0, params_bytes=2048)
    grid.run_process(workload.run(grid.client), name="live-workload")

    driver = RealTimeDriver(grid.env, speedup=20.0)
    last = {"printed": -1.0}

    def tick(now: float) -> None:
        if now - last["printed"] >= 5.0:
            last["printed"] = now
            done = workload.completed_count()
            sys.stdout.write(f"\r virtual t={now:6.1f}s  completed {done:2d}/12")
            sys.stdout.flush()

    driver.run(until=60.0, tick=tick)
    done = workload.completed_count()
    print(f"\nfinal: {done}/12 completed, {driver.events_processed} events processed")
    if done != 12:
        sys.exit(f"only {done}/12 calls completed")


if __name__ == "__main__":
    main()
