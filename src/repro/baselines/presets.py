"""Protocol presets for the baseline systems, as declarative policy bundles.

Each baseline of the paper's comparison is a *bundle*: one ``policy.*``
registry entry per decision axis (scheduling, replication, client logging).
:func:`protocol_from_bundle` turns a bundle into a ready
:class:`~repro.config.ProtocolConfig` by recording the entries on
``protocol.policy``, the one selection the components resolve through
:mod:`repro.policies`; axes a bundle leaves out keep their defaults.

Bundles are plain data: copy one, swap an entry (or add ``params``), and a
new protocol ablation needs no code — ``--set policy.scheduler=...`` on the
CLI edits the same entries per run.
"""

from __future__ import annotations

from copy import deepcopy
from typing import Any, Mapping

from repro.config import POLICY_AXES, ProtocolConfig
from repro.errors import ConfigurationError

__all__ = [
    "POLICY_BUNDLES",
    "protocol_from_bundle",
    "rpcv_protocol",
    "no_fault_tolerance_protocol",
    "netsolve_style_protocol",
]

#: the three baseline systems of the paper's comparison, one bundle each.
POLICY_BUNDLES: dict[str, dict[str, Any]] = {
    # The full RPC-V configuration used throughout the experiments.
    "rpc-v": {
        "scheduler": {
            "name": "policy.sched.fifo-reschedule",
            "params": {"reschedule": True},
        },
        "replication": {
            "name": "policy.repl.passive-periodic",
            "params": {"period": 5.0},
        },
        "logging": {"name": "policy.log.pessimistic-nonblocking"},
    },
    # Ninf/RCS-style: no replication, no rescheduling, no durable client
    # logs.  Submissions still reach the middle tier (the architecture is
    # shared), but nothing protects the execution: a lost coordinator or
    # server simply loses whatever it was holding until the application
    # notices by itself.
    "no-fault-tolerance": {
        "scheduler": {
            "name": "policy.sched.fifo-reschedule",
            "params": {"reschedule": False},
        },
        "replication": {"name": "policy.repl.none"},
        "logging": {"name": "policy.log.optimistic"},
    },
    # NetSolve-style: server fault tolerance only.  The agent (coordinator)
    # reschedules RPCs when it suspects a server, but it is a single point
    # of failure (no passive replication) and the client keeps no durable
    # logs — "agent and client fault tolerance is not supported".
    "netsolve-style": {
        "scheduler": {
            "name": "policy.sched.fifo-reschedule",
            "params": {"reschedule": True},
        },
        "replication": {"name": "policy.repl.none"},
        "logging": {"name": "policy.log.optimistic"},
    },
}


def protocol_from_bundle(
    bundle: Mapping[str, Any] | str, protocol: ProtocolConfig | None = None
) -> ProtocolConfig:
    """Build (or extend) a :class:`ProtocolConfig` from a policy bundle.

    ``bundle`` is a mapping of ``scheduler`` / ``replication`` / ``logging``
    to policy entries (name string or ``{"name", "params"}``), or the name
    of a bundle in :data:`POLICY_BUNDLES`.
    """
    if isinstance(bundle, str):
        try:
            bundle = POLICY_BUNDLES[bundle]
        except KeyError:
            known = ", ".join(sorted(POLICY_BUNDLES))
            raise ConfigurationError(
                f"unknown policy bundle {bundle!r} (known: {known})"
            ) from None
    unknown = set(bundle) - set(POLICY_AXES)
    if unknown:
        # Checked before anything is applied, so a typoed axis never leaves
        # a passed-in protocol half-mutated.
        raise ConfigurationError(
            f"unknown policy bundle axes: {sorted(unknown)} "
            f"(expected {'/'.join(POLICY_AXES)})"
        )
    protocol = protocol or ProtocolConfig()
    for axis, entry in bundle.items():
        # Copied: the bundles are module-level data every caller shares.
        setattr(protocol.policy, axis, deepcopy(entry))
    return protocol.validate()


def rpcv_protocol() -> ProtocolConfig:
    """The full RPC-V configuration used throughout the experiments."""
    return protocol_from_bundle("rpc-v")


def no_fault_tolerance_protocol() -> ProtocolConfig:
    """Ninf/RCS-style: no replication, no rescheduling, no durable client logs."""
    return protocol_from_bundle("no-fault-tolerance")


def netsolve_style_protocol() -> ProtocolConfig:
    """NetSolve-style: server fault tolerance only."""
    return protocol_from_bundle("netsolve-style")
