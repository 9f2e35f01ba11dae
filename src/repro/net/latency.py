"""Link cost models: latency, bandwidth, jitter and loss.

A :class:`LinkModel` answers one question — *how long does it take to move N
bytes from A to B, and does the message get lost?* — so that the confined
cluster and the Internet testbed of the paper are just two parameter sets:

* :class:`LanLinkModel` — the 100 Mbit/s switched Ethernet of the confined
  cluster (16 servers + 4 coordinators + 1 client on a single 48-port switch);
* :class:`InternetLinkModel` — the best-effort WAN between Orsay, Lille and
  Wisconsin, with fluctuating latency/bandwidth and a small loss probability;
* :class:`CompositeLinkModel` — picks LAN or WAN per message depending on
  whether the two endpoints are in the same site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import jitter_factor
from repro.types import Address

__all__ = [
    "LinkModel",
    "LanLinkModel",
    "InternetLinkModel",
    "CompositeLinkModel",
]


class LinkModel(Protocol):
    """Protocol implemented by every link cost model.

    Caching contract: the transport resolves each (source, dest) pair once —
    through ``resolve_link(source, dest)`` when the model defines it (see
    :class:`CompositeLinkModel`), identity otherwise — and caches the
    resulting ``transfer_time`` / ``loss_probability`` for the network's
    lifetime.  A model's per-pair answers must therefore not change once the
    network is built.
    """

    def transfer_time(
        self, source: Address, dest: Address, size_bytes: int, rng: np.random.Generator
    ) -> float:
        """Seconds needed to deliver ``size_bytes`` from ``source`` to ``dest``."""
        ...

    def loss_probability(self, source: Address, dest: Address) -> float:
        """Probability that the message is silently lost."""
        ...


@dataclass
class LanLinkModel:
    """Switched-Ethernet model for the confined cluster.

    Defaults correspond to the paper's platform: 100 Mbit/s links, sub-
    millisecond base latency, negligible loss.
    """

    #: one-way base latency in seconds.
    latency: float = 0.0005
    #: usable bandwidth in bytes per second (100 Mbit/s ~ 11.5 MB/s usable).
    bandwidth_bps: float = 11.5e6
    #: relative jitter applied to the transfer time (uniform +/- jitter).
    jitter: float = 0.05
    #: loss probability (a switched LAN essentially never drops).
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if not 0 <= self.loss < 1:
            raise ConfigurationError("loss must be in [0, 1)")

    def transfer_time(
        self, source: Address, dest: Address, size_bytes: int, rng: np.random.Generator
    ) -> float:
        base = self.latency + size_bytes / self.bandwidth_bps
        if self.jitter:
            base *= jitter_factor(rng, self.jitter)
        return max(base, 0.0)

    def loss_probability(self, source: Address, dest: Address) -> float:
        return self.loss


@dataclass
class InternetLinkModel:
    """Best-effort WAN model for the Internet testbed.

    Latency is drawn per message around ``latency`` with a heavy right tail
    (log-normal), reproducing the "wide performance fluctuations" that make
    wrong suspicions unavoidable; bandwidth is far below the LAN's.
    """

    #: median one-way latency in seconds (Orsay<->Lille ~ 15 ms).  Every
    #: inter-site pair draws around the same median: the transatlantic hop
    #: to Wisconsin is not modelled.
    latency: float = 0.015
    #: usable bandwidth in bytes per second (the paper observes Internet
    #: transfers an order of magnitude slower than the confined cluster).
    bandwidth_bps: float = 1.0e6
    #: sigma of the log-normal latency multiplier (tail heaviness).
    latency_sigma: float = 0.45
    #: relative bandwidth fluctuation (uniform +/-).
    bandwidth_fluctuation: float = 0.35
    #: probability that a message is silently lost.
    loss: float = 0.002
    #: probability of a long stall (congestion episode) and its mean duration.
    stall_probability: float = 0.005
    stall_mean: float = 3.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if not 0 <= self.loss < 1:
            raise ConfigurationError("loss must be in [0, 1)")
        if not 0 <= self.stall_probability < 1:
            raise ConfigurationError("stall_probability must be in [0, 1)")

    def transfer_time(
        self, source: Address, dest: Address, size_bytes: int, rng: np.random.Generator
    ) -> float:
        latency = self.latency * float(rng.lognormal(0.0, self.latency_sigma))
        bandwidth = self.bandwidth_bps * jitter_factor(rng, self.bandwidth_fluctuation)
        duration = latency + size_bytes / max(bandwidth, 1.0)
        if self.stall_probability and float(rng.random()) < self.stall_probability:
            duration += float(rng.exponential(self.stall_mean))
        return duration

    def loss_probability(self, source: Address, dest: Address) -> float:
        return self.loss


class CompositeLinkModel:
    """Chooses between an intra-site and an inter-site model per message.

    The site assignment is fixed at construction, so consumers that cache
    per-pair routes (the transport does) resolve the concrete leaf model once
    via :meth:`resolve_link`.
    """

    def __init__(
        self,
        site_of: "dict[Address, str]",
        intra_site: LinkModel,
        inter_site: LinkModel,
        default_site: str = "default",
    ) -> None:
        self._site_of = dict(site_of)
        self._intra = intra_site
        self._inter = inter_site
        self._default_site = default_site

    def resolve_link(self, source: Address, dest: Address) -> LinkModel:
        """The concrete leaf model governing the ``source`` → ``dest`` pair."""
        return self._intra if self._same_site(source, dest) else self._inter

    def site_of(self, address: Address) -> str:
        """Site an endpoint belongs to (``default_site`` when unknown)."""
        return self._site_of.get(address, self._default_site)

    def _same_site(self, source: Address, dest: Address) -> bool:
        return self.site_of(source) == self.site_of(dest)
