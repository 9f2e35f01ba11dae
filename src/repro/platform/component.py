"""The component lifecycle contract.

Everything that takes part in a scenario — protocol tiers, fault injectors,
partition schedules, experiment-local pieces — is a *component*: an object
with a stable ``name`` and a three-phase lifecycle driven by the
:class:`~repro.grid.builder.Grid` it joins:

1. **setup(grid)** — the component binds what it needs off the grid
   (``grid.env``, ``grid.network``, ``grid.rng.stream(...)``,
   ``grid.monitor``, ``grid.hosts_of(...)``, ``grid.host(...)``, ...).  No
   simulation activity happens here; the component may also add
   sub-components through ``grid.add_component``.
2. **start()** — arm timers, spawn processes, begin injecting.  The grid
   starts coordinators, then servers, then clients, then the extra
   components in the order they joined; one that joins a running grid
   starts at once.
3. **stop()** — retire timers and stop injecting; called in reverse start
   order and must be idempotent.

:class:`Component` is a structural (duck-typed) protocol: any object with
those three methods and a ``name`` qualifies — the existing protocol
components (:class:`~repro.core.client.ClientComponent` and friends) and the
``inject.*`` fault injectors of :mod:`repro.nodes.faultgen` implement it
directly.  :class:`BaseComponent` is an optional convenience base class with
no-op defaults for authors who only care about one or two phases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.builder import Grid

__all__ = ["Component", "BaseComponent", "missing_component_attrs"]

#: the attributes the structural Component contract requires.
_CONTRACT = ("name", "setup", "start", "stop")


def missing_component_attrs(candidate: object) -> list[str]:
    """The contract attributes ``candidate`` lacks (empty = conformant)."""
    return [attr for attr in _CONTRACT if not hasattr(candidate, attr)]


@runtime_checkable
class Component(Protocol):
    """Structural contract every managed component satisfies."""

    @property
    def name(self) -> str:
        """Stable identifier the grid holds the component under."""
        ...

    def setup(self, grid: "Grid") -> None:
        """Bind to the grid's substrate (no activity)."""
        ...

    def start(self) -> None:
        """Begin operating (spawn processes, arm timers, inject faults)."""
        ...

    def stop(self) -> None:
        """Cease operating; idempotent, called in reverse start order."""
        ...


class BaseComponent:
    """Convenience base: a named component with no-op lifecycle defaults.

    Subclasses override the phases they care about::

        @component("example.noisy-neighbour")
        class NoisyNeighbour(BaseComponent):
            def setup(self, grid):
                self.env = grid.env
                self.hosts = grid.hosts_of("servers")
            def start(self):
                ...
    """

    def __init__(self, name: str | None = None) -> None:
        self._name = name or type(self).__name__

    @property
    def name(self) -> str:
        return self._name

    def setup(self, grid: "Grid") -> None:  # noqa: B027 - intentional no-op
        """Default: nothing to bind."""

    def start(self) -> None:  # noqa: B027 - intentional no-op
        """Default: nothing to start."""

    def stop(self) -> None:  # noqa: B027 - intentional no-op
        """Default: nothing to stop."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
