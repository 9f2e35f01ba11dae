"""The per-run report :func:`~repro.scenarios.engine.execute_benchmark` returns.

A dependency-free module: the report is plain data, and
:meth:`RunReport.outputs` is the JSON-able dict a sweep cell stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["RunReport"]


@dataclass
class RunReport:
    """Outcome of one benchmark run."""

    makespan: float
    submitted: int
    completed: int
    faults_injected: int = 0
    finished_in_time: bool = True
    overhead_vs_ideal: float = 0.0
    ideal_time: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    #: the monitor's ``TimeSeries`` by name (shared, not copied, and not
    #: part of :meth:`outputs`): Figures 9–11 sample their curves from it.
    series: dict[str, Any] = field(default_factory=dict)
    #: optional extras (stamped only when the engine was asked to record
    #: them, so historical cells keep their exact output shape).
    fault_streams: dict[str, str] | None = None
    #: kernel load snapshot (heap occupancy, compactions, events processed);
    #: stamped when the engine runs with ``record_kernel=True``.
    kernel: dict[str, Any] | None = None
    #: aggregated crowd-tier counters, flattened into the outputs as
    #: ``crowd_*`` when a ``tier="crowd"`` component took part in the run.
    crowd: dict[str, Any] | None = None
    #: each coordinator's service-queue load, by coordinator name
    #: (:meth:`~repro.core.coordinator.CoordinatorComponent.load` over the
    #: run's simulated span).
    coordinators: dict[str, dict[str, Any]] = field(default_factory=dict)

    def outputs(self) -> dict[str, Any]:
        """The JSON-able measured outputs stored per sweep cell."""
        out = {
            "makespan": self.makespan,
            "submitted": self.submitted,
            "completed": self.completed,
            "faults_injected": self.faults_injected,
            "finished_in_time": self.finished_in_time,
            "overhead_vs_ideal": self.overhead_vs_ideal,
            "ideal_time": self.ideal_time,
            "coordinators": self.coordinators,
        }
        if self.fault_streams is not None:
            out["fault_streams"] = self.fault_streams
        if self.kernel is not None:
            out["kernel"] = self.kernel
        if self.crowd is not None:
            for key, value in self.crowd.items():
                out[f"crowd_{key}"] = value
        return out
