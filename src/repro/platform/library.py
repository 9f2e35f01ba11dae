"""The built-in registered component beyond fault injection.

``net.partition-schedule`` — one-way visibility rules over the partition
manager, in force from the start — is a declarative
building block a :class:`~repro.scenarios.spec.ScenarioSpec` can name in its
``components:`` list (or code can pass to ``grid.add_component(...)``)
without touching any wiring code.

The fault injectors (``inject.rate``, ``inject.churn``, ``inject.script``)
live with the hosts they kill, in :mod:`repro.nodes.faultgen`.

Every component has the same shape: a constructor taking only plain
(JSON-able) parameters, a ``setup(grid)`` binding the substrate off the
:class:`~repro.grid.builder.Grid`, and ``start``/``stop`` driving the
underlying mechanism.  The schedule doubles as a reference implementation
for custom components (see ``examples/custom_component.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.platform.component import BaseComponent
from repro.platform.registry import component

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.builder import Grid

__all__ = ["PartitionSchedule"]


@component("net.partition-schedule")
class PartitionSchedule(BaseComponent):
    """One-way visibility rules over the partition manager, in force at start.

    Each ``events`` entry is ``{"time": 0, "action": "hide", "dest": "x",
    "source": "y"}``: messages from ``source`` to ``dest`` are refused.
    ``dest`` and ``source`` may each be one host name or a tier selector
    (``"servers"`` / ``"coordinators"`` / ``"clients"``), expanding to the
    cross product; ``"bidirectional": true`` hides each pair both ways (the
    mutually inconsistent views of Figure 11).  The rules apply synchronously
    at start, before the first message is ever routed.
    """

    def __init__(
        self,
        events: Sequence[Mapping[str, Any]] = (),
        name: str | None = None,
    ) -> None:
        super().__init__(name or "partition-schedule")
        for event in events:
            if event.get("action") != "hide":
                raise ConfigurationError(
                    f"unknown partition action {event.get('action')!r} "
                    "(one of: hide)"
                )
            if event.get("time") != 0:
                raise ConfigurationError(
                    f"partition event {dict(event)!r} must have 'time': 0 "
                    "(rules are in force from the start)"
                )
        self.events = [dict(event) for event in events]
        #: rules applied so far (the ``faults_injected`` output): a run
        #: under a partition schedule is a faulted run.
        self.injected = 0
        self._grid: "Grid | None" = None

    def setup(self, grid: "Grid") -> None:
        self._grid = grid

    def _addresses(self, group: str) -> list:
        """A group spec -> addresses: a tier selector or one host name."""
        grid = self._grid
        assert grid is not None
        try:
            return [host.address for host in grid.hosts_of(group)]
        except ConfigurationError:
            return [grid.host(group).address]

    def start(self) -> None:
        grid = self._grid
        assert grid is not None, "setup() must run before start()"
        hide = grid.partitions.hide
        for event in self.events:
            for dest in self._addresses(event["dest"]):
                for source in self._addresses(event["source"]):
                    if dest == source:
                        continue
                    hide(dest, from_source=source)
                    if event.get("bidirectional"):
                        hide(source, from_source=dest)
            self.injected += 1
