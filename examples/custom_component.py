#!/usr/bin/env python3
"""A new fault injector in ~30 lines, with zero edits to the grid wiring.

An injector is a *component*: a class with a ``setup(grid)/start()/stop()``
lifecycle, registered under a string key.  This example adds a **rolling blackout** — servers are taken
down one at a time, round-robin, each for a fixed outage — and drives a
scenario sweep that references it purely by name from the spec's
``components:`` list.  Neither ``repro/grid/builder.py`` nor the engine is
touched.
"""

from repro.platform import BaseComponent, component
from repro.scenarios import Axis, ScenarioSpec, SweepRunner, benchmark_cell


@component("example.rolling-blackout")
class RollingBlackout(BaseComponent):
    """Kill one server at a time, round-robin, each down for ``outage`` s."""

    def __init__(self, period: float = 60.0, outage: float = 10.0):
        super().__init__("rolling-blackout")
        self.period, self.outage = period, outage
        self.injected = 0  # read back as the cell's faults_injected output

    def setup(self, grid):
        self.env = grid.env
        self.hosts = grid.hosts_of("servers")
        self.monitor = grid.monitor

    def start(self):
        self._running = True
        self.env.process(self._run(), name=self.name)

    def stop(self):
        self._running = False

    def _run(self):
        index = 0
        while self._running:
            yield self.env.timeout(self.period)
            victim = self.hosts[index % len(self.hosts)]
            index += 1
            if self._running and victim.up:
                self.injected += 1
                self.monitor.incr("blackout.kills")
                victim.crash(cause=self.name)
                self.env.process(self._restore(victim), name=f"{self.name}:restore")

    def _restore(self, victim):
        yield self.env.timeout(self.outage)
        if not victim.up:
            victim.restart()


BLACKOUT_SWEEP = ScenarioSpec(
    name="blackout-sweep",
    title="Synthetic benchmark under a rolling blackout",
    cell=benchmark_cell,
    base=dict(n_calls=24, exec_time=5.0, n_servers=4, n_coordinators=2,
              horizon=2500.0),
    axes=(Axis("blackout_period", (25.0, 8.0)),),
    seeds=(3,),
    # The injector is referenced by its registered name; "$blackout_period"
    # interpolates the swept axis into the component's parameters.
    components=(
        {"name": "example.rolling-blackout",
         "params": {"period": "$blackout_period", "outage": 15.0}},
    ),
)


def main() -> None:
    result = SweepRunner(BLACKOUT_SWEEP, jobs=1).run()
    for row in result.rows:
        print(
            f"period {row['blackout_period']:6.1f} s -> makespan "
            f"{row['makespan']:7.1f} s, completed {row['completed']}/"
            f"{row['submitted']}, blackouts {row['faults_injected']}"
        )


if __name__ == "__main__":
    main()
