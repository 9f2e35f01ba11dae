"""Sites and site maps.

The Internet testbed of the paper places machines at three sites (Orsay/LRI,
Lille, Wisconsin) plus the client; the confined cluster is a single site.  A
:class:`SiteMap` records which endpoint lives where and derives the composite
link model used by the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.net.latency import (
    CompositeLinkModel,
    InternetLinkModel,
    LanLinkModel,
    LinkModel,
)
from repro.types import Address

__all__ = ["Site", "SiteMap"]


@dataclass
class Site:
    """One administrative site of the testbed."""

    name: str
    #: human-readable location, purely documentary.
    location: str = ""


@dataclass
class SiteMap:
    """Assignment of endpoints to sites plus the derived link model."""

    sites: dict[str, Site] = field(default_factory=dict)
    membership: dict[Address, str] = field(default_factory=dict)
    intra_site_model: LinkModel = field(default_factory=LanLinkModel)
    inter_site_model: LinkModel = field(default_factory=InternetLinkModel)

    def add_site(self, site: Site) -> Site:
        """Register a site (idempotent by name)."""
        self.sites[site.name] = site
        return site

    def place(self, address: Address, site_name: str) -> None:
        """Place an endpoint at a site."""
        if site_name not in self.sites:
            raise ConfigurationError(f"unknown site {site_name!r}")
        self.membership[address] = site_name

    def site_of(self, address: Address) -> str:
        """Site of an endpoint (raises if never placed)."""
        try:
            return self.membership[address]
        except KeyError:
            raise ConfigurationError(f"{address} was never placed on a site") from None

    def same_site(self, a: Address, b: Address) -> bool:
        """True when both endpoints are placed at the same site."""
        return self.site_of(a) == self.site_of(b)

    def link_model(self) -> CompositeLinkModel:
        """Composite link model choosing intra- or inter-site costs per message."""
        return CompositeLinkModel(
            site_of=dict(self.membership),
            intra_site=self.intra_site_model,
            inter_site=self.inter_site_model,
        )

    def addresses_at(self, site_name: str) -> list[Address]:
        """All endpoints placed at ``site_name``."""
        return [a for a, s in self.membership.items() if s == site_name]

    @classmethod
    def single_site(cls, name: str = "cluster", model: LinkModel | None = None) -> "SiteMap":
        """A one-site map (the confined cluster): every link uses the LAN model."""
        site_map = cls(intra_site_model=model or LanLinkModel())
        site_map.add_site(Site(name=name, location="confined cluster"))
        # With a single site the inter-site model is never used, but keep it
        # identical to the intra-site one for safety.
        site_map.inter_site_model = site_map.intra_site_model
        return site_map
