"""Exception hierarchy of the RPC-V reproduction.

Two families are kept strictly apart:

* :class:`ReproError` and its subclasses signal *misuse of the library*
  (bad configuration, calling an API out of order, ...).  They propagate.
* Modelled faults (node crashes, dropped messages, suspicions) never raise:
  they are events of the simulated world and are handled by the protocol.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "SchedulingError",
    "RPCError",
    "ServiceNotRegistered",
    "SessionError",
    "LogCorruption",
]


class ReproError(Exception):
    """Base class of all library errors."""


class ConfigurationError(ReproError):
    """A scenario or component was configured with invalid parameters."""


class ProtocolError(ReproError):
    """A protocol component received a message it cannot interpret."""


class SchedulingError(ReproError):
    """The coordinator scheduler was asked to do something impossible."""


class RPCError(ReproError):
    """Base class of errors surfaced through the GridRPC-like client API."""


class ServiceNotRegistered(RPCError):
    """An RPC named a service unknown to every reachable server."""


class SessionError(RPCError):
    """The client API was used without (or with a stale) session."""


class LogCorruption(ReproError):
    """A message log replay found records violating its integrity rules."""
