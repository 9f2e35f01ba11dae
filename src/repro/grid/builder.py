"""Scenario builder: from a :class:`DeploymentSpec` to live components.

The :class:`Grid` object owns the simulation environment, the network, every
host and every protocol component of one scenario, plus the monitor that the
experiments read their curves from.  Builders wire the preferred-coordinator
assignments the way the paper's experiments do (the client submits to the
first coordinator — Lille in the real-life runs — and servers are spread over
the coordinators round-robin on the cluster, or attached to their site's
coordinator on the Internet testbed).

Since the platform redesign the grid is assembled on the component platform
(:mod:`repro.platform`): every protocol component is registered with a
:class:`~repro.platform.manager.ComponentManager` that owns setup, start and
stop ordering (coordinators, then servers, then clients — teardown in
reverse), and extra components — injectors, partition schedules, custom
policies — join by instance, registered name or dotted path through
``build_grid(components=...)`` or :meth:`Grid.add_component`, with **zero
edits to this module** (see ``examples/custom_component.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping, Sequence

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
from repro.platform import Builder, Component, ComponentManager, create_component
from repro.sim.core import Environment, Process
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomStreams
from repro.types import Address, ComponentKind

__all__ = ["Grid", "build_confined_cluster", "build_internet_testbed", "build_grid"]


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
    manager: ComponentManager
    builder: Builder
    clients: list[ClientComponent] = field(default_factory=list)
    coordinators: list[CoordinatorComponent] = field(default_factory=list)
    servers: list[ServerComponent] = field(default_factory=list)
    hosts: dict[Address, Host] = field(default_factory=dict)

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

    def host_of(self, component) -> Host:
        """Host of a client/coordinator/server component."""
        return self.hosts[component.address]

    def coordinator_hosts(self) -> list[Host]:
        """Hosts of every coordinator."""
        return [self.hosts[c.address] for c in self.coordinators]

    def server_hosts(self) -> list[Host]:
        """Hosts of every server."""
        return [self.hosts[s.address] for s in self.servers]

    def client_hosts(self) -> list[Host]:
        """Hosts of every client."""
        return [self.hosts[c.address] for c in self.clients]

    # ------------------------------------------------------------------ control
    def start(self) -> None:
        """Start every component in registration order (idempotent).

        The manager preserves the historical tier order: coordinators come
        up first, then servers, then clients, then any extra components.
        """
        self.manager.start_all()

    def stop(self) -> None:
        """Stop every component, in reverse start order (idempotent)."""
        self.manager.stop_all()

    def add_component(
        self,
        entry: "Component | str | tuple | Mapping[str, Any]",
        params: Mapping[str, Any] | None = None,
    ) -> Component:
        """Register one more component (instance, name, or name + params).

        Accepted shapes: a live :class:`~repro.platform.component.Component`,
        a registered name / dotted path (optionally with ``params``), a
        ``(name, params)`` pair, or a ``{"name": ..., "params": {...}}``
        mapping — the declarative form scenario specs use.  A component added
        to a running grid is set up and started immediately, so
        workload-relative injectors can join without disturbing anything
        already scheduled.
        """
        component = _resolve_entry(entry, params)
        self.manager.add(component)
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


def _resolve_entry(
    entry: "Component | str | tuple | Mapping[str, Any]",
    params: Mapping[str, Any] | None = None,
) -> Component:
    """Normalise one ``components=`` entry into a live component instance."""
    if isinstance(entry, str):
        return create_component(entry, params)
    if isinstance(entry, tuple):
        name, entry_params = entry
        return create_component(name, {**dict(entry_params or {}), **dict(params or {})})
    if isinstance(entry, Mapping):
        return create_component(
            entry["name"], {**dict(entry.get("params") or {}), **dict(params or {})}
        )
    if params:
        raise ConfigurationError(
            "params only apply when the component is given by name"
        )
    return entry


def build_grid(
    spec: DeploymentSpec,
    services: ServiceRegistry | None = None,
    user: str = "user0",
    client_preferred: str | None = None,
    server_preferred: Callable[[int, str], str] | None = None,
    components: Sequence["Component | str | tuple | Mapping[str, Any]"] = (),
) -> Grid:
    """Instantiate every substrate and component described by ``spec``.

    ``client_preferred`` names the coordinator the client(s) initially submit
    to (defaults to the first coordinator).  ``server_preferred`` maps
    ``(server_index, server_site)`` to a coordinator name for the initial
    attachment (defaults to the coordinator at the same site when one exists,
    round-robin otherwise).  ``components`` are extra platform components
    (instances, registered names, ``(name, params)`` pairs or ``{"name":
    ..., "params": ...}`` mappings) registered after the protocol tiers and
    set up alongside them.
    """
    env = Environment()
    rng = RandomStreams(spec.seed)
    monitor = Monitor()
    partitions = PartitionManager()
    services = services or default_registry()
    manager = ComponentManager()

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

    builder = Builder(
        env=env,
        network=network,
        rng=rng,
        monitor=monitor,
        services=services,
        config=spec.protocol,
        partitions=partitions,
        spec=spec,
    )
    grid = Grid(
        spec=spec,
        env=env,
        rng=rng,
        monitor=monitor,
        network=network,
        partitions=partitions,
        services=services,
        manager=manager,
        builder=builder,
    )
    builder.attach_grid(grid)

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
        manager.add(component)

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
        manager.add(component)

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
        manager.add(component)

    # -- extra components ------------------------------------------------------
    for entry in components:
        grid.add_component(entry)

    manager.setup_all(builder)
    return grid


def build_confined_cluster(
    n_servers: int = 16,
    n_coordinators: int = 4,
    n_clients: int = 1,
    protocol: ProtocolConfig | None = None,
    seed: int = 0,
    services: ServiceRegistry | None = None,
    spread_servers: bool = True,
    components: Sequence["Component | str | tuple | Mapping[str, Any]"] = (),
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
    return build_grid(
        spec,
        services=services,
        server_preferred=server_preferred,
        components=components,
    )


def build_internet_testbed(
    servers_per_site: dict[str, int] | None = None,
    coordinator_sites: tuple[str, ...] = ("lille", "orsay"),
    protocol: ProtocolConfig | None = None,
    seed: int = 0,
    services: ServiceRegistry | None = None,
    client_preferred: str = "lille",
) -> Grid:
    """Build the Internet testbed of §5.2 (client submits to Lille by default)."""
    spec = internet_testbed_spec(
        servers_per_site=servers_per_site,
        coordinator_sites=coordinator_sites,
        protocol=protocol,
        seed=seed,
    )
    return build_grid(spec, services=services, client_preferred=client_preferred)
