"""Component registration, ordering and lifecycle driving.

The :class:`ComponentManager` owns the authoritative list of a scenario's
components.  Registration order is meaningful: it is the setup order and the
start order (the grid registers coordinators, then servers, then clients —
exactly the order :meth:`~repro.grid.builder.Grid.start` has always used),
and teardown runs in reverse.

Components may be added at any lifecycle phase:

* before :meth:`setup_all` — the normal case; the component is set up and
  started with everybody else;
* during another component's ``setup`` (via ``builder.grid.add_component``) —
  the new component is appended and set up in the same pass;
* after :meth:`start_all` — the component is set up and started immediately.
  This is how workload-relative injectors join a running scenario without
  perturbing the start order of everything that came before (the fault plan
  of :func:`~repro.scenarios.engine.execute_benchmark` arms *after* the
  workload process is spawned, which event-ordering determinism relies on).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.platform.component import Component, missing_component_attrs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.builder import Builder

__all__ = ["ComponentManager"]

#: lifecycle phases, in order.
_PHASES = ("registration", "setup", "running", "stopped")


class ComponentManager:
    """Owns a scenario's components and drives their lifecycle in order."""

    def __init__(self) -> None:
        self._components: list[Component] = []
        self._by_name: dict[str, Component] = {}
        self._started: list[Component] = []
        self._setup_done: set[int] = set()
        self.phase: str = "registration"
        self._builder: "Builder | None" = None

    # ------------------------------------------------------------ registration
    def add(self, component: Component) -> Component:
        """Register ``component``; its lifecycle catches up with the manager's.

        Added before setup: queued.  Added during/after setup: set up now.
        Added after start: set up and started now (late-joining injectors).
        """
        self._check_contract(component)
        name = component.name
        existing = self._by_name.get(name)
        if existing is not None:
            if existing is component:
                return component
            raise ConfigurationError(
                f"a component named {name!r} is already registered"
            )
        if self.phase == "stopped":
            raise ConfigurationError(
                f"cannot add component {name!r} to a stopped scenario"
            )
        self._components.append(component)
        self._by_name[name] = component
        if self.phase in ("setup", "running"):
            self._setup_one(component)
        if self.phase == "running":
            component.start()
            self._started.append(component)
        return component

    @staticmethod
    def _check_contract(component: Component) -> None:
        missing = missing_component_attrs(component)
        if missing:
            raise ConfigurationError(
                f"{type(component).__name__} does not satisfy the Component "
                f"protocol (missing: {', '.join(missing)})"
            )

    # --------------------------------------------------------------- lifecycle
    def setup_all(self, builder: "Builder") -> None:
        """Run ``setup(builder)`` over every component, in registration order.

        Components registered *during* the pass (by other components, through
        ``builder.grid.add_component``) are picked up by the same pass.
        """
        if self.phase != "registration":
            raise ConfigurationError(f"setup_all called in phase {self.phase!r}")
        self._builder = builder
        self.phase = "setup"
        index = 0
        while index < len(self._components):
            self._setup_one(self._components[index])
            index += 1

    def _setup_one(self, component: Component) -> None:
        if id(component) in self._setup_done:
            return
        if self._builder is None:
            raise ConfigurationError(
                f"component {component.name!r} cannot be set up before setup_all"
            )
        self._setup_done.add(id(component))
        component.setup(self._builder)

    def start_all(self) -> None:
        """Start every component in registration order (idempotent)."""
        if self.phase == "running":
            return
        if self.phase != "setup":
            raise ConfigurationError(f"start_all called in phase {self.phase!r}")
        self.phase = "running"
        for component in list(self._components):
            if component not in self._started:
                component.start()
                self._started.append(component)

    def stop_all(self) -> None:
        """Stop every started component, in reverse start order (idempotent)."""
        if self.phase == "stopped":
            return
        while self._started:
            self._started.pop().stop()
        self.phase = "stopped"
