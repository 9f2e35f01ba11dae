"""Turning a ``policy.*`` entry into a policy instance.

:class:`~repro.config.PolicyConfig` says *which* strategy runs on each
decision axis — a registry key string (``"policy.sched.random"``) or a
``{"name": ..., "params": {...}}`` mapping, resolved through
:mod:`repro.platform.registry` so custom policies plug in by dotted path
exactly like custom injectors.  :func:`resolve_policy` reads one entry (it is
what ``PolicyConfig.validate()`` runs on each axis) and :func:`make_policy`
is the one function the protocol components call to get their own instance.

Numeric tunables shared by every policy of an axis (``coordinator.
replication.period``, ``*.detection.suspicion_timeout``) stay on the tier
configs: a policy whose own ``period=`` / ``timeout=`` parameter is unset
reads them from its owner at run time, so nothing is copied here.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.platform.registry import resolve_component
from repro.policies.base import PolicyBase
from repro.policies.detection import DetectionPolicy
from repro.policies.logging import LoggingPolicy
from repro.policies.replication import ReplicationPolicy
from repro.policies.scheduling import SchedulerPolicy

__all__ = ["make_policy", "resolve_policy"]

#: axis (a :class:`~repro.config.PolicyConfig` field) -> the contract an
#: entry on that axis must resolve to.
_AXIS_CONTRACTS: dict[str, type[PolicyBase]] = {
    "scheduler": SchedulerPolicy,
    "replication": ReplicationPolicy,
    "logging": LoggingPolicy,
    "detection": DetectionPolicy,
}


def resolve_policy(axis: str, entry: Any) -> tuple[Callable[..., Any], dict[str, Any]]:
    """``entry`` -> ``(factory, params)``; nothing is instantiated.

    Accepted shapes: a registry key / dotted-path string, or a mapping with
    a ``"name"`` key and optional ``"params"``.  An unknown name fails here,
    with the registry's "unknown component" error.
    """
    if isinstance(entry, str) and entry:
        name, params = entry, {}
    elif isinstance(entry, Mapping) and entry.get("name"):
        name, params = str(entry["name"]), dict(entry.get("params") or {})
    else:
        raise ConfigurationError(
            f"policy.{axis} must be a non-empty name or a {{'name', 'params'}} "
            f"mapping with a 'name' key, got {entry!r}"
        )
    return resolve_component(name), params


def make_policy(axis: str, entry: Any) -> PolicyBase:
    """A fresh, unbound policy instance for ``entry`` on ``axis``.

    An entry is taken whole: parameters it does not spell out get the policy
    class's own defaults, whatever entry the axis held before.
    """
    factory, params = resolve_policy(axis, entry)
    try:
        instance = factory(**params)
    except TypeError as error:
        raise ConfigurationError(
            f"policy.{axis} entry {entry!r} rejected its parameters: {error}"
        ) from None
    expected = _AXIS_CONTRACTS[axis]
    if not isinstance(instance, expected):
        raise ConfigurationError(
            f"{axis} policy {entry!r} resolved to {type(instance).__name__}, "
            f"which is not a {expected.__name__}"
        )
    return instance
