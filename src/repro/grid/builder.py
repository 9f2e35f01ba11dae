"""Scenario builder: from a :class:`DeploymentSpec` to live components.

The :class:`Grid` object owns the simulation environment, the network, every
host and every protocol component of one scenario, plus the monitor that the
experiments read their curves from.  Builders wire the preferred-coordinator
assignments the way the paper's experiments do (the client submits to the
first coordinator — Lille in the real-life runs — and servers are spread over
the coordinators round-robin on the cluster, or attached to their site's
coordinator on the Internet testbed).

The grid is also the component platform (:mod:`repro.platform`): it holds
every component of the scenario by name, hands itself to each component's
``setup``, and starts them in order (coordinators, then servers, then
clients, then extra components; teardown in reverse).  Extra components —
injectors, partition schedules, experiment-local pieces — join through
:meth:`Grid.add_component`, as an instance or as a registered name or dotted
path with parameters, with **zero edits to this module** (see
``examples/custom_component.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping

from repro.config import ProtocolConfig
from repro.core.client import ClientComponent
from repro.core.coordinator import CoordinatorComponent
from repro.core.registry import CoordinatorRegistry
from repro.core.server import ServerComponent
from repro.core.services import ServiceRegistry, default_registry
from repro.core.session import Session
from repro.errors import ConfigurationError
from repro.grid.deployment import DeploymentSpec, confined_cluster_spec, internet_testbed_spec
from repro.net.partition import PartitionManager
from repro.net.transport import Network
from repro.nodes.node import Host
from repro.platform import Component, create_component
from repro.platform.component import missing_component_attrs
from repro.sim.core import Environment, Process
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomStreams
from repro.types import Address, ComponentKind

__all__ = ["Grid", "build_confined_cluster", "build_internet_testbed", "build_grid"]

#: tier selectors accepted by :meth:`Grid.hosts_of`.
_TIERS = ("servers", "coordinators", "clients")


@dataclass
class Grid:
    """One fully-wired scenario, assembled on the component platform."""

    spec: DeploymentSpec
    env: Environment
    rng: RandomStreams
    monitor: Monitor
    network: Network
    partitions: PartitionManager
    services: ServiceRegistry
    clients: list[ClientComponent] = field(default_factory=list)
    coordinators: list[CoordinatorComponent] = field(default_factory=list)
    servers: list[ServerComponent] = field(default_factory=list)
    hosts: dict[Address, Host] = field(default_factory=dict)
    #: every component by name, in start order: the protocol tiers, then
    #: the extra components in the order they joined.
    components: dict[str, Component] = field(default_factory=dict, init=False)
    #: ``"built"`` (set up, not started), ``"running"`` or ``"stopped"``.
    phase: str = field(default="built", init=False)

    # ------------------------------------------------------------------ access
    @property
    def client(self) -> ClientComponent:
        """The first (usually only) client."""
        return self.clients[0]

    def coordinator_by_name(self, name: str) -> CoordinatorComponent:
        """Coordinator whose address name (e.g. ``'lille'``) matches ``name``."""
        for coordinator in self.coordinators:
            if coordinator.address.name == name:
                return coordinator
        raise ConfigurationError(f"no coordinator named {name!r}")

    def hosts_of(self, tier: str) -> list[Host]:
        """Hosts of one tier: ``servers``, ``coordinators`` or ``clients``."""
        if tier not in _TIERS:
            raise ConfigurationError(
                f"unknown host tier {tier!r} (one of: {', '.join(_TIERS)})"
            )
        return [component.host for component in getattr(self, tier)]

    def host(self, address: Address | str) -> Host:
        """One host by :class:`~repro.types.Address`, its string form or bare name."""
        wanted = str(address)
        for addr, host in self.hosts.items():
            if str(addr) == wanted or addr.name == wanted:
                return host
        known = ", ".join(str(a) for a in self.hosts)
        raise ConfigurationError(f"no host {wanted!r} (known: {known})")

    # ------------------------------------------------------------------ control
    def start(self) -> None:
        """Start every component in order (idempotent).

        Coordinators come up first, then servers, then clients, then the
        extra components in the order they joined.
        """
        if self.phase == "stopped":
            raise ConfigurationError("a stopped grid cannot start again")
        if self.phase == "running":
            return
        self.phase = "running"
        for component in list(self.components.values()):
            component.start()

    def stop(self) -> None:
        """Stop every started component, in reverse start order (idempotent)."""
        if self.phase == "running":
            for component in reversed(list(self.components.values())):
                component.stop()
        self.phase = "stopped"

    def add_component(self, entry: "Component | Mapping[str, Any]") -> Component:
        """Join one more component: a live instance or a ``{"name", "params"}`` entry.

        The entry form names a registered component or a dotted path, as a
        scenario spec's ``components:`` list does.  The component is set up
        at once; on a running grid it also starts at once, so
        workload-relative injectors join without disturbing anything already
        scheduled.  A component it adds from its own ``setup`` starts after
        it.
        """
        if isinstance(entry, Mapping):
            component = create_component(entry["name"], entry.get("params"))
        else:
            component = entry
            missing = missing_component_attrs(component)
            if missing:
                raise ConfigurationError(
                    f"{type(component).__name__} does not satisfy the Component "
                    f"protocol (missing: {', '.join(missing)})"
                )
        name = component.name
        if name in self.components:
            raise ConfigurationError(
                f"a component named {name!r} is already registered"
            )
        if self.phase == "stopped":
            raise ConfigurationError(f"cannot add component {name!r} to a stopped grid")
        self.components[name] = component
        component.setup(self)
        if self.phase == "running":
            component.start()
        return component

    def run(self, until: float | None = None) -> None:
        """Advance the simulation (forever / until a time / until an event)."""
        self.env.run(until=until)

    def run_process(self, generator: Generator, on_client: int = 0, name: str | None = None) -> Process:
        """Spawn an application process on a client host (the workload)."""
        host = self.hosts[self.clients[on_client].address]
        return host.spawn(generator, name=name or "workload")

    def run_until(self, process: Process, timeout: float) -> bool:
        """Run until ``process`` terminates or ``timeout`` virtual seconds pass.

        Returns True when the process finished in time.  The race runs
        through :meth:`Environment.wait_any` (in a small watcher process), so
        the losing side — the expiry timer, or the stale wait on a process
        that outlived the deadline — is always cancelled and detached.
        """
        deadline = self.env.now + timeout
        watcher = self.env.process(
            self.env.wait_any([process], timeout=timeout), name="run-until"
        )
        self.env.run(until=watcher)
        return not process.is_alive and self.env.now <= deadline

    # ------------------------------------------------------------- observations
    def progress_condition_holds(self) -> bool:
        """Check the paper's progress condition on the current system state.

        True when at least one *live* client can reach a *live* coordinator
        that a *live* server can also reach, taking the partition rules into
        account (coordinator-to-coordinator forwarding counts as a path).
        """
        import networkx as nx

        live = [a for a, h in self.hosts.items() if h.up]
        graph = self.partitions.reachability_graph(live)
        live_set = set(live)
        coordinators = [c.address for c in self.coordinators if c.address in live_set]
        clients = [c.address for c in self.clients if c.address in live_set]
        servers = [s.address for s in self.servers if s.address in live_set]
        if not (coordinators and clients and servers):
            return False
        undirected = nx.Graph()
        undirected.add_nodes_from(graph.nodes)
        undirected.add_edges_from(graph.edges)
        for client in clients:
            for server in servers:
                for start in coordinators:
                    if not undirected.has_edge(client, start):
                        continue
                    # The server must reach some coordinator connected to the
                    # client's coordinator through the coordinator overlay.
                    for end in coordinators:
                        if not undirected.has_edge(server, end):
                            continue
                        if start == end:
                            return True
                        coord_graph = undirected.subgraph(coordinators)
                        if nx.has_path(coord_graph, start, end):
                            return True
        return False

    def kernel_stats(self) -> dict:
        """Kernel load snapshot: the environment's :meth:`queue_stats`.

        Heap occupancy, tombstones, compactions and events processed, so
        benchmark rows can record kernel load alongside protocol counters.
        """
        stats = dict(self.env.queue_stats())
        # Zeroed placeholders for keys bench/rep.py reads: the kernel has no
        # timer wheel and messages no free list.  Drop with the ROADMAP's
        # "[benchmark] PR to fix what the frozen harness is blocking".
        stats["wheel_flushes"] = stats["wheel_overflows"] = 0
        stats["pool_hit_rate"] = 0.0
        return stats


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_grid(
    spec: DeploymentSpec,
    services: ServiceRegistry | None = None,
    user: str = "user0",
    client_preferred: str | None = None,
    server_preferred: Callable[[int, str], str] | None = None,
) -> Grid:
    """Instantiate every substrate and component described by ``spec``.

    ``client_preferred`` names the coordinator the client(s) initially submit
    to (defaults to the first coordinator).  ``server_preferred`` maps
    ``(server_index, server_site)`` to a coordinator name for the initial
    attachment (defaults to the coordinator at the same site when one exists,
    round-robin otherwise).  The grid comes back set up, not started.
    """
    env = Environment()
    rng = RandomStreams(spec.seed)
    monitor = Monitor()
    partitions = PartitionManager()
    services = services or default_registry()

    # -- coordinator addresses come first: everybody needs the list ------------
    coordinator_names: list[str] = []
    site_of_coordinator: dict[str, str] = {}
    for index, site in enumerate(spec.coordinator_sites):
        name = site if spec.coordinator_sites.count(site) == 1 else f"{site}-k{index}"
        coordinator_names.append(name)
        site_of_coordinator[name] = site
    coordinator_addresses = [
        Address(ComponentKind.COORDINATOR.value, name) for name in coordinator_names
    ]

    # -- site placement ----------------------------------------------------------
    site_map = spec.site_map
    for address, name in zip(coordinator_addresses, coordinator_names):
        site_map.place(address, site_of_coordinator[name])

    server_addresses: list[Address] = []
    server_sites: list[str] = []
    index = 0
    for site, count in spec.servers_per_site.items():
        for _ in range(count):
            address = Address(ComponentKind.SERVER.value, f"s{index:03d}")
            server_addresses.append(address)
            server_sites.append(site)
            site_map.place(address, site)
            index += 1

    client_addresses = []
    for index, site in enumerate(spec.client_sites):
        address = Address(ComponentKind.CLIENT.value, f"c{index}")
        client_addresses.append(address)
        site_map.place(address, site)

    network = Network(
        env,
        link_model=site_map.link_model(),
        rng=rng,
        monitor=monitor,
        partitions=partitions,
    )

    grid = Grid(
        spec=spec,
        env=env,
        rng=rng,
        monitor=monitor,
        network=network,
        partitions=partitions,
        services=services,
    )

    # -- coordinators ----------------------------------------------------------
    for address in coordinator_addresses:
        host = Host(
            env, network, address, disk=spec.coordinator_disk, rng=rng.spawn(str(address)),
            monitor=monitor,
        )
        registry = CoordinatorRegistry(coordinators=list(coordinator_addresses))
        component = CoordinatorComponent(
            host,
            registry,
            config=spec.protocol.coordinator,
            monitor=monitor,
            database_model=spec.coordinator_database,
            policies=spec.protocol.policy,
        )
        grid.hosts[address] = host
        grid.coordinators.append(component)

    # -- servers ----------------------------------------------------------------
    for idx, (address, site) in enumerate(zip(server_addresses, server_sites)):
        host = Host(
            env, network, address, disk=spec.server_disk, rng=rng.spawn(str(address)),
            monitor=monitor,
        )
        registry = CoordinatorRegistry(coordinators=list(coordinator_addresses))
        # By default every server initially pulls work from the same
        # coordinator the client submits to (the paper's reference runs: "all
        # servers get their jobs and send their results at Lille"); scenarios
        # that want site-local or spread attachments pass ``server_preferred``.
        if server_preferred is not None:
            preferred_name = server_preferred(idx, site)
        else:
            preferred_name = client_preferred or coordinator_names[0]
        registry.set_preferred(
            Address(ComponentKind.COORDINATOR.value, preferred_name)
        )
        component = ServerComponent(
            host,
            registry,
            config=spec.protocol.server,
            services=services,
            monitor=monitor,
            policies=spec.protocol.policy,
        )
        grid.hosts[address] = host
        grid.servers.append(component)

    # -- clients ----------------------------------------------------------------
    preferred_client_name = client_preferred or coordinator_names[0]
    for index, address in enumerate(client_addresses):
        host = Host(
            env, network, address, disk=spec.client_disk, rng=rng.spawn(str(address)),
            monitor=monitor,
        )
        registry = CoordinatorRegistry(coordinators=list(coordinator_addresses))
        registry.set_preferred(
            Address(ComponentKind.COORDINATOR.value, preferred_client_name)
        )
        # Deterministic per-grid label: the process-global session counter
        # would make session ids depend on how many grids were built earlier,
        # breaking run-to-run reproducibility of sweep cells.
        session = Session.open(
            user=f"{user}" if index == 0 else f"{user}-{index}", label=f"g{index}"
        )
        component = ClientComponent(
            host,
            session,
            registry,
            config=spec.protocol.client,
            monitor=monitor,
            policies=spec.protocol.policy,
        )
        grid.hosts[address] = host
        grid.clients.append(component)

    # -- set up once every tier is in place: a coordinator meets its peers ----
    for component in (*grid.coordinators, *grid.servers, *grid.clients):
        grid.components[component.name] = component
        component.setup(grid)
    return grid


def build_confined_cluster(
    n_servers: int = 16,
    n_coordinators: int = 4,
    n_clients: int = 1,
    protocol: ProtocolConfig | None = None,
    seed: int = 0,
    services: ServiceRegistry | None = None,
    spread_servers: bool = True,
) -> Grid:
    """Build the confined-cluster platform of §5.1 (started lazily).

    ``spread_servers`` attaches the 16 servers round-robin over the 4
    coordinators ("several server partitions are connected to different
    coordinators"), which is the §5.1 setup; the client always submits to the
    first coordinator.
    """
    spec = confined_cluster_spec(
        n_servers=n_servers,
        n_coordinators=n_coordinators,
        n_clients=n_clients,
        protocol=protocol,
        seed=seed,
    )
    coordinator_names = [
        site if spec.coordinator_sites.count(site) == 1 else f"{site}-k{i}"
        for i, site in enumerate(spec.coordinator_sites)
    ]
    server_preferred = None
    if spread_servers and len(coordinator_names) > 1:
        server_preferred = lambda idx, _site: coordinator_names[idx % len(coordinator_names)]
    return build_grid(spec, services=services, server_preferred=server_preferred)


def build_internet_testbed(
    servers_per_site: dict[str, int] | None = None,
    coordinator_sites: tuple[str, ...] = ("lille", "orsay"),
    protocol: ProtocolConfig | None = None,
    seed: int = 0,
    services: ServiceRegistry | None = None,
    client_preferred: str = "lille",
    wan_loss: float | None = None,
) -> Grid:
    """Build the Internet testbed of §5.2 (client submits to Lille by default)."""
    spec = internet_testbed_spec(
        servers_per_site=servers_per_site,
        coordinator_sites=coordinator_sites,
        protocol=protocol,
        seed=seed,
        wan_loss=wan_loss,
    )
    return build_grid(spec, services=services, client_preferred=client_preferred)
