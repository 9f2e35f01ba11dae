#!/usr/bin/env python3
"""Quickstart: submit a handful of RPCs to a simulated desktop grid.

Builds the paper's confined cluster (16 servers, 4 coordinators, 1 client),
issues blocking and non-blocking calls through the GridRPC-compatible API and
prints what happened.
"""

from repro.core.api import GridRpc
from repro.grid import build_confined_cluster
from repro.sim import SimulationError


def main() -> None:
    grid = build_confined_cluster()
    grid.start()
    api = GridRpc(grid.client)
    api.initialize()
    outcome = {}

    def application():
        # One blocking call...
        result = yield from api.call("sleep", exec_time=3.0, params_bytes=4096)
        outcome["blocking"] = result
        # ...then a batch of non-blocking calls collected with wait_all.
        handle_ids = []
        for _ in range(8):
            handle_id = yield from api.call_async("sleep", exec_time=2.0, params_bytes=1024)
            handle_ids.append(handle_id)
        outcome["batch"] = yield from api.wait_all(handle_ids)

    horizon = 600.0
    process = grid.run_process(application(), name="quickstart")
    if not grid.run_until(process, timeout=horizon):
        raise SimulationError(f"quickstart: unfinished at {horizon:g} s")

    print(f"virtual time elapsed : {grid.env.now:.1f} s")
    print(f"blocking call result : {outcome['blocking'].identity} "
          f"({outcome['blocking'].size_bytes} B, from {outcome['blocking'].produced_by})")
    print(f"batch completed      : {len(outcome['batch'])} calls")
    print("client statistics    :", grid.client.stats())
    print("network statistics   :", grid.network.stats())


if __name__ == "__main__":
    main()
