"""Deployment presets.

Two presets mirror the paper's evaluation platforms:

* :func:`confined_cluster_spec` — 16 servers, 4 coordinators, 1 client on a
  100 Mbit/s switched LAN (Athlon XP nodes with IDE disks); heart-beat 5 s,
  suspicion after 30 s; fully controllable, used for Figures 4-7;
* :func:`internet_testbed_spec` — ~300 desktop PCs across Lille, Wisconsin and
  Orsay, two dedicated coordinators (Lille and LRI/Orsay, ~300 km apart) with
  faster database machines, 60 s replication period, best-effort Internet
  links; used for Figures 8-11.

A :class:`DeploymentSpec` is pure data; :mod:`repro.grid.builder` turns it
into live components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ProtocolConfig
from repro.errors import ConfigurationError
from repro.net.latency import InternetLinkModel, LanLinkModel
from repro.net.topology import Site, SiteMap
from repro.nodes.database import DatabaseModel
from repro.nodes.disk import DiskModel

__all__ = ["DeploymentSpec", "confined_cluster_spec", "internet_testbed_spec"]


@dataclass
class DeploymentSpec:
    """Everything the builder needs to instantiate a platform."""

    name: str
    #: site name -> number of servers placed there.
    servers_per_site: dict[str, int]
    #: site name of each coordinator, in coordinator index order.
    coordinator_sites: list[str]
    #: site name of each client, in client index order.
    client_sites: list[str]
    site_map: SiteMap
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    server_disk: DiskModel = field(default_factory=DiskModel)
    client_disk: DiskModel = field(default_factory=DiskModel)
    coordinator_disk: DiskModel = field(default_factory=DiskModel)
    coordinator_database: DatabaseModel = field(default_factory=DatabaseModel)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.coordinator_sites:
            raise ConfigurationError("at least one coordinator is required")
        if not self.client_sites:
            raise ConfigurationError("at least one client is required")
        if sum(self.servers_per_site.values()) < 1:
            raise ConfigurationError("at least one server is required")
        known_sites = set(self.site_map.sites)
        for site in (
            set(self.servers_per_site)
            | set(self.coordinator_sites)
            | set(self.client_sites)
        ):
            if site not in known_sites:
                raise ConfigurationError(f"site {site!r} missing from the site map")


def confined_cluster_spec(
    n_servers: int = 16,
    n_coordinators: int = 4,
    n_clients: int = 1,
    protocol: ProtocolConfig | None = None,
    seed: int = 0,
) -> DeploymentSpec:
    """The paper's confined cluster (§5.1)."""
    site_map = SiteMap.single_site("cluster", model=LanLinkModel())
    if protocol is None:
        protocol = ProtocolConfig()
        # On the cluster the replication piggy-backs on the heart-beat signal.
        protocol.coordinator.replication.period = 5.0
    protocol.validate()
    return DeploymentSpec(
        name="confined-cluster",
        servers_per_site={"cluster": n_servers},
        coordinator_sites=["cluster"] * n_coordinators,
        client_sites=["cluster"] * n_clients,
        site_map=site_map,
        protocol=protocol,
        # Athlon XP nodes with IDE disks and a 2004 MySQL.
        server_disk=DiskModel(),
        client_disk=DiskModel(),
        coordinator_disk=DiskModel(),
        coordinator_database=DatabaseModel(),
        seed=seed,
    )


def internet_testbed_spec(
    servers_per_site: dict[str, int] | None = None,
    coordinator_sites: tuple[str, ...] = ("lille", "orsay"),
    n_clients: int = 1,
    client_site: str = "orsay",
    protocol: ProtocolConfig | None = None,
    seed: int = 0,
    wan_loss: float | None = None,
) -> DeploymentSpec:
    """The paper's real-life Internet testbed (§5.2).

    Defaults scale the server count down to 120 (40 per site) so simulations
    stay fast; the full ~280-node population can be requested explicitly.
    ``wan_loss`` sets the inter-site loss probability (``None`` keeps
    :class:`InternetLinkModel`'s 0.2 %).
    """
    if servers_per_site is None:
        servers_per_site = {"lille": 40, "wisconsin": 40, "orsay": 40}
    site_map = SiteMap(
        intra_site_model=LanLinkModel(),
        inter_site_model=InternetLinkModel()
        if wan_loss is None
        else InternetLinkModel(loss=wan_loss),
    )
    site_map.add_site(Site(name="lille", location="Polytech Lille, France"))
    site_map.add_site(Site(name="orsay", location="LRI, Paris Sud, France"))
    # One inter-site model for every pair: Wisconsin gets no extra
    # transatlantic latency (ROADMAP: "model the transatlantic hop").
    site_map.add_site(Site(name="wisconsin", location="University of Wisconsin, USA"))
    if protocol is None:
        protocol = ProtocolConfig()
        # "For all the following tests, the coordinator replication period is
        # set to 60 seconds."
        protocol.coordinator.replication.period = 60.0
    protocol.validate()
    return DeploymentSpec(
        name="internet-testbed",
        servers_per_site=dict(servers_per_site),
        coordinator_sites=list(coordinator_sites),
        client_sites=[client_site] * n_clients,
        site_map=site_map,
        protocol=protocol,
        server_disk=DiskModel(),
        client_disk=DiskModel(),
        # Dedicated Xeon coordinators: "better performance on database
        # operations" than the confined cluster's nodes.
        coordinator_disk=DiskModel(write_latency=0.005, write_bandwidth_bps=50e6),
        coordinator_database=DatabaseModel(write_op_latency=0.0015),
        seed=seed,
    )
