#!/usr/bin/env python3
"""Quickstart: submit a handful of RPCs to a simulated desktop grid.

Builds the paper's confined cluster (16 servers, 4 coordinators, 1 client),
issues blocking and non-blocking calls through the GridRPC-compatible API and
prints what happened; then checks the rest of that API (probe, wait,
wait_any, cancel, result_of, handles, finalize).
"""

from repro.core.api import GridRpc
from repro.grid import build_confined_cluster
from repro.sim import SimulationError
from repro.types import RPCStatus


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

    def rest_of_the_api():
        # ``echo`` runs a real callable and returns its argument.
        echo = yield from api.call_async("echo", exec_time=1.0, args=("hello",))
        slow = yield from api.call_async("sleep", exec_time=5.0)
        dropped = yield from api.call_async("sleep", exec_time=5.0)
        assert api.probe(echo) is RPCStatus.SUBMITTED
        api.cancel(dropped)
        assert api.handles()[-2:] == [echo, slow]
        first, result = yield from api.wait_any([slow, echo])
        assert (first, result.value) == (echo, "hello"), (first, result)
        assert api.probe(echo) is RPCStatus.COMPLETED
        waited = yield from api.wait(slow)
        assert api.result_of(slow) is waited

    process = grid.run_process(rest_of_the_api(), name="quickstart-api")
    if not grid.run_until(process, timeout=horizon):
        raise SimulationError(f"quickstart: API checks unfinished at {horizon:g} s")
    assert api.initialized
    api.finalize()
    assert not api.initialized and api.handles() == []


if __name__ == "__main__":
    main()
