"""EXP-F11 — Figure 11: execution under a suspected partitioned environment.

The components are forced into mutually inconsistent views of the system:

* the servers do not know the Lille coordinator exists (they only ever talk
  to LRI/Orsay);
* the client is forced to submit its calls to Lille only;
* the two coordinators still see each other and keep replicating.

Tasks therefore have to flow client → Lille → (replication) → LRI → servers,
and results flow back the other way.  The paper's point — reproduced here —
is that the campaign still completes as long as a client→coordinator→server
path exists through the coordinator overlay (the progress condition), at the
cost of the extra replication-period latency on every hop.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.fig9_reference import campaign, completion_curve_rows
from repro.platform.component import BaseComponent
from repro.platform.registry import create_component
from repro.scenarios.registry import scenario
from repro.scenarios.spec import ScenarioSpec
from repro.types import Address, ComponentKind

__all__ = ["PartitionedViews", "partition_cell"]


class PartitionedViews(BaseComponent):
    """Force the mutually inconsistent registry views of Figure 11.

    Servers only know (and prefer) one coordinator; clients only know the
    other.  The network-level isolation is *not* this component's job — a
    ``net.partition-schedule`` entry carries the hide rules — this one only
    rewrites the components' local coordinator lists, the paper's "finite
    list of known coordinators" each party downloaded.

    An experiment-local component resolved by dotted path
    (``repro.experiments.fig11_partition:PartitionedViews``): one-off pieces
    ship with their experiment instead of joining the platform library.
    """

    def __init__(
        self,
        client_coordinator: str = "lille",
        server_coordinator: str = "orsay",
        name: str | None = None,
    ) -> None:
        super().__init__(name or "partitioned-views")
        self.client_coordinator = client_coordinator
        self.server_coordinator = server_coordinator
        #: the paper's progress condition, evaluated once the views (and any
        #: partition rules registered before this component) are in force.
        self.progress_condition_held: bool | None = None

    def setup(self, grid) -> None:
        for_servers = Address(ComponentKind.COORDINATOR.value, self.server_coordinator)
        for_clients = Address(ComponentKind.COORDINATOR.value, self.client_coordinator)
        for server in grid.servers:
            server.registry.coordinators = [for_servers]
            server.registry.suspected.clear()
            server.registry.set_preferred(for_servers)
        for client in grid.clients:
            client.registry.coordinators = [for_clients]
            client.registry.suspected.clear()
            client.registry.set_preferred(for_clients)
        self._grid = grid

    def start(self) -> None:
        # Components start in the order they join, so the partition schedule ahead
        # of this component has installed its hide rules by now; nothing has
        # run yet (the engine adds its components before time advances).
        self.progress_condition_held = self._grid.progress_condition_holds()


def partition_cell(
    n_tasks: int = 300,
    servers_per_site: dict[str, int] | None = None,
    seed: int = 0,
) -> dict[str, Any]:
    """Run the partitioned-views scenario and compare against the reference.

    The inconsistent views are two component entries: the registries are
    rewritten by :class:`PartitionedViews`, resolved via its dotted path
    exactly as a spec's ``components:`` entry would, and a
    ``net.partition-schedule`` hides server↔Lille and client↔Orsay
    (bidirectional hide rules).  In this run the hide rules drop no
    message: the rewritten views already send every client message to
    Lille and every server message to Orsay, so nothing crosses a hidden
    link.  They count in ``faults_injected`` and decide
    ``progress_condition_held``, which reads the reachability they leave.
    """
    isolation = create_component(
        "net.partition-schedule",
        {
            "events": [
                {"time": 0, "action": "hide", "dest": "coordinator:lille",
                 "source": "servers", "bidirectional": True},
                {"time": 0, "action": "hide", "dest": "coordinator:orsay",
                 "source": "clients", "bidirectional": True},
            ]
        },
    )
    views = create_component(
        "repro.experiments.fig11_partition:PartitionedViews",
        {"client_coordinator": "lille", "server_coordinator": "orsay"},
    )
    result = campaign(n_tasks, servers_per_site, seed, components=[isolation, views])
    result["progress_condition_held"] = bool(views.progress_condition_held)
    result["completed_under_partition"] = (
        result["finished_in_time"] and result["completed"] >= result["submitted"]
    )
    return result


@scenario("fig11")
def _fig11() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig11",
        title="Alcatel campaign under mutually inconsistent (partitioned) views",
        figure="11",
        cell=partition_cell,
        base=dict(n_tasks=300, servers_per_site=None),
        seeds=(0,),
        outputs=(
            "makespan",
            "completed",
            "progress_condition_held",
            "completed_under_partition",
        ),
        scales={
            "tiny": dict(
                n_tasks=120,
                servers_per_site={"lille": 8, "wisconsin": 8, "orsay": 8},
                seeds=(3,),
            ),
        },
        reduce=completion_curve_rows,
    )
