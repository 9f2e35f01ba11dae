"""The Builder facade components see during ``setup``.

One object exposing every cross-cutting capability a component may need,
so components never reach into the grid's wiring code:

==========================  ====================================================
``builder.env``             the simulation :class:`~repro.sim.core.Environment`
``builder.network``         the :class:`~repro.net.transport.Network`
``builder.rng``             the scenario's :class:`~repro.sim.rng.RandomStreams`
                            (``builder.rng.stream("my.component")`` for a
                            deterministic private stream)
``builder.monitor``         the shared :class:`~repro.sim.monitor.Monitor`
``builder.services``        the :class:`~repro.core.services.ServiceRegistry`
``builder.config``          the scenario's :class:`~repro.config.ProtocolConfig`
``builder.partitions``      the :class:`~repro.net.partition.PartitionManager`
``builder.spec``            the :class:`~repro.grid.deployment.DeploymentSpec`
``builder.hosts(tier)``     live :class:`~repro.nodes.node.Host` lists by tier
``builder.host(address)``   one host by address (or its string form)
``builder.grid``            the grid under construction
                            (``builder.grid.add_component(...)`` registers a
                            sub-component)
==========================  ====================================================

The facade is deliberately read-mostly: components *pull* capabilities during
``setup`` and keep references; they do not mutate the builder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ProtocolConfig
    from repro.core.services import ServiceRegistry
    from repro.grid.builder import Grid
    from repro.grid.deployment import DeploymentSpec
    from repro.net.partition import PartitionManager
    from repro.net.transport import Network
    from repro.nodes.node import Host
    from repro.sim.core import Environment
    from repro.sim.monitor import Monitor
    from repro.sim.rng import RandomStreams
    from repro.types import Address

__all__ = ["Builder"]

#: tier selectors accepted by :meth:`Builder.hosts`.
_TIERS = ("servers", "coordinators", "clients", "all")


class Builder:
    """Capability facade handed to every component's ``setup``."""

    def __init__(
        self,
        env: "Environment",
        network: "Network",
        rng: "RandomStreams",
        monitor: "Monitor",
        services: "ServiceRegistry",
        config: "ProtocolConfig",
        partitions: "PartitionManager",
        spec: "DeploymentSpec",
    ) -> None:
        self.env = env
        self.network = network
        self.rng = rng
        self.monitor = monitor
        self.services = services
        self.config = config
        self.partitions = partitions
        self.spec = spec
        #: the grid under construction; set by build_grid before setup runs.
        self._grid: "Grid | None" = None

    # ------------------------------------------------------------------- grid
    def attach_grid(self, grid: "Grid") -> None:
        """Bind the grid under construction (called once by build_grid)."""
        self._grid = grid

    @property
    def grid(self) -> "Grid":
        """The grid being built (available from setup onwards)."""
        if self._grid is None:
            raise ConfigurationError("the builder is not attached to a grid yet")
        return self._grid

    def hosts(self, tier: str = "all") -> "list[Host]":
        """Hosts of one tier: ``servers`` / ``coordinators`` / ``clients`` / ``all``."""
        grid = self.grid
        if tier == "servers":
            return grid.server_hosts()
        if tier == "coordinators":
            return grid.coordinator_hosts()
        if tier == "clients":
            return grid.client_hosts()
        if tier == "all":
            return list(grid.hosts.values())
        raise ConfigurationError(
            f"unknown host tier {tier!r} (one of: {', '.join(_TIERS)})"
        )

    def host(self, address: "Address | str") -> "Host":
        """One host by :class:`~repro.types.Address` or its string form."""
        grid = self.grid
        if address in grid.hosts:
            return grid.hosts[address]  # type: ignore[index]
        wanted = str(address)
        for addr, host in grid.hosts.items():
            if str(addr) == wanted or addr.name == wanted:
                return host
        known = ", ".join(str(a) for a in grid.hosts)
        raise ConfigurationError(f"no host {wanted!r} (known: {known})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Builder spec={self.spec.name!r}>"
