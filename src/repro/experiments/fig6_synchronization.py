"""EXP-F6 — Figure 6: client/coordinator synchronization time.

Compares the two directions of the crash-recovery synchronization:

* **using client logs only** — the coordinator lost its registrations (fresh
  coordinator); the client rebuilds the coordinator's state by reading its
  local log list and pushing the missing submissions;
* **using coordinator logs only** — the client lost its log (optimistic crash
  window, or a re-launched client on another machine); it must first retrieve
  the list of registered calls from the coordinator (an extra round trip) and
  then pull back their data.

Expected shape: rebuilding from the client's logs is several times faster at
small sizes/counts (one local disk access versus an extra request/reply on
the loaded coordinator); the gap narrows as the data volume grows and the
transfer time dominates both directions.

Both panels are registered as scenarios (``fig6-size``, ``fig6-calls``).
"""

from __future__ import annotations

from typing import Any

from repro.config import ProtocolConfig
from repro.core.protocol import CallDescription
from repro.experiments.common import finish
from repro.grid.builder import Grid, build_confined_cluster
from repro.net.message import Message, MessageType
from repro.scenarios.reducers import grouped
from repro.scenarios.registry import scenario
from repro.scenarios.spec import Axis, CellResult, ScenarioSpec
from repro.workloads.sweep import geometric_counts, geometric_sizes
from repro.workloads.synthetic import SyntheticWorkload

__all__ = ["measure_sync_time", "sync_cell"]

_DIRECTIONS = ("client-logs", "coordinator-logs")

#: Simulated seconds the warm-up and the timed driver each get to finish; a
#: run that needs longer raises instead of yielding a figure point.
SYNC_HORIZON = 100_000.0


def _build(seed: int = 0, quiet: bool = True) -> Grid:
    protocol = ProtocolConfig()
    protocol.policy.replication = "policy.repl.none"
    if quiet:
        # The client-logs direction is measured in isolation: silence the
        # periodic result polls (issued explicitly by the driver instead) and
        # the idle servers' work requests.  The coordinator-logs direction
        # needs both to run its warm-up workload.
        protocol.client.result_poll_period = 10_000.0
        protocol.server.work_poll_period = 10_000.0
    grid = build_confined_cluster(
        n_servers=2, n_coordinators=1, protocol=protocol, seed=seed
    )
    grid.start()
    return grid


def _populate_client_logs(grid: Grid, n_calls: int, params_bytes: int) -> None:
    """Give the client N durable, unregistered submissions (logs client-side).

    The submissions are written straight into the client's durable log,
    bypassing the coordinator entirely — exactly the state a client is in
    when the coordinator restarted from scratch.
    """
    client = grid.client
    for _ in range(n_calls):
        identity = client.session.allocate()
        description = CallDescription(
            identity=identity,
            service="sleep",
            params_bytes=params_bytes,
            result_bytes=32,
            exec_time=0.0,
        )
        client.log.append(identity, {"call": description}, description.wire_bytes)
        client.log.mark_durable(identity)


def measure_sync_time(
    direction: str, n_calls: int, params_bytes: int, seed: int = 0
) -> float:
    """One synchronization, timed at the client.

    ``direction`` is ``"client-logs"`` or ``"coordinator-logs"``.
    """
    grid = _build(seed=seed, quiet=(direction == "client-logs"))
    client = grid.client
    coordinator = grid.coordinators[0]
    timings: dict[str, float] = {}
    size = f"({n_calls} calls of {params_bytes} B)"

    if direction == "client-logs":
        _populate_client_logs(grid, n_calls, params_bytes)
        # Let the start-up traffic (initial server synchronisations) drain so
        # only the synchronization exchange itself is timed.
        grid.run(until=5.0)
        delivered = {"count": 0}

        def hook(message: Message) -> None:
            if (
                message.mtype is MessageType.RPC_SUBMIT
                and message.dest == coordinator.address
            ):
                delivered["count"] += 1

        grid.network.add_delivery_hook(hook)

        def driver():
            timings["start"] = grid.env.now
            yield from client.synchronize()
            # The coordinator's state is rebuilt once every pushed log record
            # has reached it (the "actual logs exchange" of the paper).
            while delivered["count"] < n_calls:
                yield grid.env.timeout(0.02)
            timings["end"] = grid.env.now

    elif direction == "coordinator-logs":
        # Register + finish N calls on the coordinator, then wipe the client's
        # view (fresh client instance after a crash that lost its logs).
        workload = SyntheticWorkload(
            n_calls=n_calls, exec_time=0.0, params_bytes=params_bytes,
            result_bytes=params_bytes,
        )
        warmup = grid.run_process(workload.run(client), name="fig6-warmup")
        finish(grid, warmup, SYNC_HORIZON, f"fig6: the {direction} warm-up {size}")
        # Simulate losing the client-side logs and handles.
        client.log.wipe()
        client.forget_handles()

        def driver():
            timings["start"] = grid.env.now
            plan = yield from client.synchronize()
            # The client now knows which timestamps it lost; pull their data
            # back from the coordinator (results archive transfer).
            lost = list(plan.client_lost) if plan is not None else []
            if lost:
                arrived = {"done": False}

                def hook(message: Message) -> None:
                    if (
                        message.mtype is MessageType.RESULT_REPLY
                        and message.dest == client.address
                        and len(message.payload.get("results", [])) >= len(lost)
                    ):
                        arrived["done"] = True

                grid.network.add_delivery_hook(hook)
                reply_sizes = sum(
                    coordinator.results[key].size_bytes
                    for key in coordinator.results
                    if key[2] in set(lost)
                )
                client.host.send(
                    Message(
                        mtype=MessageType.RESULT_PULL,
                        source=client.address,
                        dest=coordinator.address,
                        payload={
                            "session": (client.session.user, client.session.session_id),
                            "pending": lost,
                        },
                        size_bytes=64 + 8 * len(lost),
                    )
                )
                # Wait until the full reply has been delivered back to the
                # client, or a generous deadline passes.
                deadline = grid.env.now + 1000.0 + reply_sizes / 1e6
                while grid.env.now < deadline and not arrived["done"]:
                    yield grid.env.timeout(0.02)
            timings["end"] = grid.env.now

    else:
        raise ValueError(f"unknown direction {direction!r}")

    process = grid.host_of(client).spawn(driver(), name="fig6-driver")
    finish(grid, process, SYNC_HORIZON, f"fig6: the {direction} driver {size}")
    return timings["end"] - timings["start"]


def sync_cell(
    direction: str, n_calls: int, params_bytes: int, seed: int = 0
) -> dict[str, Any]:
    """Scenario cell: one timed synchronization in one direction."""
    seconds = measure_sync_time(direction, n_calls, params_bytes, seed=seed)
    return {"sync_seconds": seconds}


def _pivot_directions(group_key: str, fixed_key: str):
    """Rows keyed by ``group_key`` with one column per sync direction."""

    def reduce(results: list[CellResult]) -> list[dict[str, Any]]:
        rows: list[dict[str, Any]] = []
        for (value,), cells in grouped(results, (group_key,)).items():
            by_direction = {
                cell.params["direction"]: cell.outputs["sync_seconds"]
                for cell in cells
            }
            client_logs = by_direction.get("client-logs", float("nan"))
            coord_logs = by_direction.get("coordinator-logs", float("nan"))
            rows.append(
                {
                    group_key: value,
                    fixed_key: cells[0].params[fixed_key],
                    "client_logs": client_logs,
                    "coordinator_logs": coord_logs,
                    "coordinator_over_client": (
                        coord_logs / client_logs if client_logs > 0 else float("nan")
                    ),
                }
            )
        return rows

    return reduce


@scenario("fig6-size")
def _fig6_size() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig6-size",
        title="Client/coordinator synchronization time vs data size",
        figure="6 (left)",
        cell=sync_cell,
        base=dict(n_calls=16),
        axes=(
            # The paper's axis runs to 100 MB, but that warm-up does not
            # finish within SYNC_HORIZON (README: Figure 6 at 100 MB).
            Axis("params_bytes", tuple(geometric_sizes(maximum=10_000_000))),
            Axis("direction", _DIRECTIONS),
        ),
        seeds=(0,),
        outputs=("sync_seconds",),
        scales={"tiny": {"params_bytes": (1_000, 1_000_000), "n_calls": 8}},
        reduce=_pivot_directions("params_bytes", "n_calls"),
    )


@scenario("fig6-calls")
def _fig6_calls() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig6-calls",
        title="Client/coordinator synchronization time vs number of calls",
        figure="6 (right)",
        cell=sync_cell,
        base=dict(params_bytes=300),
        axes=(
            Axis("n_calls", tuple(geometric_counts())),
            Axis("direction", _DIRECTIONS),
        ),
        seeds=(0,),
        outputs=("sync_seconds",),
        scales={"tiny": {"n_calls": (8, 64)}},
        reduce=_pivot_directions("n_calls", "params_bytes"),
    )
