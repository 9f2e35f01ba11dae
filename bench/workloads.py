"""The four benchmark workloads, generated from ``--seed``.

Every workload is a closed loop driven from one single-threaded process
(``jobs=1``): each caller waits for its reply, and the crowd tier draws its
arrival schedule inside the run from its CRN lanes.  The seed feeds only this
generator — cell seeds, ``crn_seed`` and hence every fault stream derive from
it; the simulator receives the generated parameters.

A workload object exposes ``grids()`` (what the build-only set-up pass
constructs) and ``run(tap)`` (the timed call, returning one record per cell).
"""

from __future__ import annotations

import random
from typing import Any, Iterator, Mapping

from repro.platform.component import BaseComponent
from repro.platform.registry import resolve_component
from repro.scenarios import (
    FaultPlan,
    GridTopology,
    SweepRunner,
    WorkloadSpec,
    execute_benchmark,
    get_scenario,
    load_all,
)
from repro.scenarios.engine import apply_protocol_overrides

__all__ = ["WORKLOADS", "MonitorTap"]


class MonitorTap(BaseComponent):
    """Inert component: keeps each grid's Monitor so its counters can be read.

    ``benchmark_cell`` returns outputs without ``RunReport.counters``; joining
    every cell's grid through the public component API is how the benchmark
    reads the same counters for scenario sweeps and direct runs alike.  It
    schedules nothing, so the simulated run is unchanged.
    """

    def __init__(self) -> None:
        super().__init__("bench.monitor-tap")
        self.monitors: list[Any] = []

    def setup(self, builder) -> None:
        self.monitors.append(builder.monitor)


def _seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(n)]


class ScenarioWorkload:
    """A registered scenario swept sequentially through ``SweepRunner``."""

    def __init__(
        self,
        scenario: str,
        scale: str | None,
        seeds: tuple[int, ...],
        params: Mapping[str, Any],
    ) -> None:
        load_all()
        self.spec = get_scenario(scenario)
        # resolving the names now keeps the registry's lazy import of its
        # built-in modules out of the timed call
        for entry in self.spec.components:
            resolve_component(entry["name"])
        self.scale = scale
        self.seeds = seeds
        self.params = dict(params, record_kernel=True)

    def _runner(self, extra: tuple = ()) -> SweepRunner:
        params = dict(self.params)
        if extra:
            params["components"] = [*self.spec.components, *extra]
        return SweepRunner(
            self.spec, scale=self.scale, jobs=1, seeds=self.seeds, params=params
        )

    def grids(self) -> Iterator[tuple[GridTopology, None, int]]:
        for cell in self._runner().plan.cells():
            p = cell.params
            topology = GridTopology(
                n_servers=p["n_servers"],
                n_coordinators=p["n_coordinators"],
                spread_servers=p.get("spread_servers", False),
            )
            yield topology, None, cell.seed

    def run(self, tap: MonitorTap) -> list[dict[str, Any]]:
        return self._runner((tap,)).run().cells


class DirectWorkload:
    """One ``execute_benchmark`` call: a single long cell."""

    def __init__(
        self,
        seed: int,
        n_servers: int,
        n_calls: int,
        exec_time: float,
        faults: FaultPlan = FaultPlan(),
        overrides: Mapping[str, Any] | None = None,
        components: tuple = (),
    ) -> None:
        self.seed = seed
        self.topology = GridTopology(n_servers=n_servers, spread_servers=True)
        self.workload = WorkloadSpec(n_calls=n_calls, exec_time=exec_time)
        self.faults = faults
        self.overrides = overrides
        self.components = components

    def grids(self) -> Iterator[tuple[GridTopology, Mapping[str, Any] | None, int]]:
        yield self.topology, self.overrides, self.seed

    def run(self, tap: MonitorTap) -> list[dict[str, Any]]:
        report = execute_benchmark(
            self.topology,
            self.workload,
            self.faults,
            protocol_overrides=self.overrides,
            seed=self.seed,
            horizon=50_000.0,
            components=[*self.components, tap],
            record_kernel=True,
        )
        return [{"outputs": report.outputs(), "wall_seconds": None}]


def build_only(workload) -> None:
    """Construct and start (never run) every grid ``workload`` will use."""
    for topology, overrides, seed in workload.grids():
        protocol = (
            apply_protocol_overrides(topology.default_protocol(), overrides)
            if overrides
            else None
        )
        topology.build(protocol, seed).start()


def fig7_sweep(seed: int, scale: str) -> ScenarioWorkload:
    return ScenarioWorkload(
        "fig7",
        "tiny" if scale == "smoke" else None,
        tuple(_seeds(seed, 2 if scale == "smoke" else 3)),
        {},
    )


def steady_backlog(seed: int, scale: str) -> DirectWorkload:
    (cell_seed,) = _seeds(seed, 1)
    n_calls = 200 if scale == "smoke" else 2000
    return DirectWorkload(cell_seed, n_servers=64, n_calls=n_calls, exec_time=1.0)


def churn_storm(seed: int, scale: str) -> DirectWorkload:
    (cell_seed,) = _seeds(seed, 1)
    smoke = scale == "smoke"
    return DirectWorkload(
        cell_seed,
        n_servers=16 if smoke else 64,
        n_calls=150 if smoke else 1400,
        exec_time=20.0,
        # mttr above the 30 s suspicion timeout, so departed servers really
        # are suspected and their tasks rescheduled.
        faults=FaultPlan(kind="churn", mtbf=100.0, mttr=60.0),
        overrides={
            "policy.replication": {
                "name": "policy.repl.quorum",
                "params": {"successors": 2},
            }
        },
        components=(
            {
                "name": "inject.rate",
                "params": {"target": "coordinators", "faults_per_minute": 1.0},
            },
        ),
    )


def flash_crowd_1m(seed: int, scale: str) -> ScenarioWorkload:
    cell_seed, crn_seed = _seeds(seed, 2)
    smoke = scale == "smoke"
    return ScenarioWorkload(
        "flash-crowd",
        "tiny" if smoke else None,
        (cell_seed,),
        {"crowd_clients": 20_000 if smoke else 1_000_000, "crn_seed": crn_seed},
    )


WORKLOADS = {
    "fig7-sweep": fig7_sweep,
    "steady-backlog": steady_backlog,
    "churn-storm": churn_storm,
    "flash-crowd-1m": flash_crowd_1m,
}
