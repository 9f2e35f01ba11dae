"""Simulated best-effort network substrate.

This package models the two platforms of the paper's evaluation:

* the **confined cluster** — a single 100 Mbit/s switched LAN with small,
  stable latencies;
* the **Internet testbed** — sites in Orsay, Lille and Wisconsin connected by
  a best-effort WAN with widely fluctuating latency and bandwidth and a
  non-zero loss probability.

Interactions are *connection-less*: every send is an independent datagram-like
exchange (a connection opened, used and closed immediately), so a broken
connection can never serve as a fault detector — exactly the design constraint
that forces RPC-V to rely on heart-beats.
"""

from repro.net.latency import (
    CompositeLinkModel,
    InternetLinkModel,
    LanLinkModel,
    LinkModel,
)
from repro.net.message import Message, MessageType
from repro.net.partition import PartitionManager
from repro.net.topology import Site, SiteMap
from repro.net.transport import Endpoint, Network

__all__ = [
    "CompositeLinkModel",
    "Endpoint",
    "InternetLinkModel",
    "LanLinkModel",
    "LinkModel",
    "Message",
    "MessageType",
    "Network",
    "PartitionManager",
    "Site",
    "SiteMap",
]
