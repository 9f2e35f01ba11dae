"""Stateless service registry.

Section 2 of the paper restricts the application scope of Internet connected
Desktop Grids to *stateless* services with at-least-once semantics: a service
is a pure function of its parameters, so re-executing it (after a suspicion,
a duplication or a lost result) is always safe.  The registry enforces that
discipline: a service is a name bound to a callable plus a cost model, with no
mutable state allowed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError, ServiceNotRegistered

__all__ = ["ServiceSpec", "ServiceRegistry", "default_registry"]


@dataclass
class ServiceSpec:
    """Definition of one stateless service."""

    name: str
    #: the actual computation (used by the live runtime and the examples);
    #: simulations may leave it None and rely on ``exec_time`` instead.
    fn: Callable[..., Any] | None = None
    #: default simulated execution time (seconds) when a call does not
    #: specify one.
    default_exec_time: float = 1.0
    #: default simulated result size (bytes).
    default_result_bytes: int = 128
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("service name must be non-empty")
        if self.default_exec_time < 0:
            raise ConfigurationError("default_exec_time must be non-negative")

    def execute(self, args: Any) -> Any:
        """Run the real callable (live runtime); identity when none is bound.

        ``args`` is a dict of keywords, a sequence of positionals or ``None``.
        """
        if self.fn is None:
            return args
        if isinstance(args, dict):
            return self.fn(**args)
        if args is None:
            return self.fn()
        return self.fn(*args)


class ServiceRegistry:
    """Name -> :class:`ServiceSpec` mapping shared by servers of a scenario."""

    def __init__(self) -> None:
        self._services: dict[str, ServiceSpec] = {}

    def register(self, spec: ServiceSpec) -> ServiceSpec:
        """Register (or replace) a service definition."""
        self._services[spec.name] = spec
        return spec

    def get(self, name: str) -> ServiceSpec:
        """Look a service up; raises :class:`ServiceNotRegistered` if unknown."""
        try:
            return self._services[name]
        except KeyError:
            raise ServiceNotRegistered(f"service {name!r} is not registered") from None

    def has(self, name: str) -> bool:
        """Whether ``name`` is registered."""
        return name in self._services

    def __len__(self) -> int:
        return len(self._services)


def default_registry() -> ServiceRegistry:
    """A registry pre-loaded with the synthetic services used by experiments.

    * ``sleep`` — the synthetic benchmark service: does nothing for the
      requested time; every experiment of §5.1 uses it.
    * ``echo`` — returns its arguments unchanged (quickstart example).
    * ``network-validation`` — stands in for the Alcatel commutation-network
      validation tool of §5.2 (the duration distribution is the workload's
      business, not the service's).
    """
    registry = ServiceRegistry()
    registry.register(
        ServiceSpec(
            name="sleep",
            fn=None,
            default_exec_time=1.0,
            default_result_bytes=64,
            description="synthetic benchmark service (configurable duration)",
        )
    )
    registry.register(
        ServiceSpec(
            name="echo",
            fn=lambda *args, **kwargs: args[0] if args else kwargs or None,
            default_exec_time=0.0,
            default_result_bytes=64,
            description="returns its first argument",
        )
    )
    registry.register(
        ServiceSpec(
            name="network-validation",
            fn=None,
            default_exec_time=30.0,
            default_result_bytes=2048,
            description="stand-in for the Alcatel commutation-network validation tool",
        )
    )
    return registry
