"""The coordinator's replication change log: no update is lost in flight.

A replication round ships every logged change and, once acknowledged,
retires only the changes whose stamp is not newer than the abstract it
built.  A record changed again while the round is in flight (an assignment
sent as ``ONGOING`` whose result lands before the ack) must go out with the
next round, or a coordinator keeps the stale state for ever and a client
pulling from it never gets its result.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import PolicyConfig, ProtocolConfig
from repro.core.protocol import CallDescription
from repro.grid.builder import build_confined_cluster
from repro.scenarios import GridTopology, WorkloadSpec, execute_benchmark, run_scenario
from repro.scenarios.engine import apply_protocol_overrides
from repro.sim.core import SimulationError
from repro.types import CallIdentity, TaskState
from repro.workloads.alcatel import AlcatelSpec
from repro.workloads.synthetic import SyntheticWorkload

REPLICATION_POLICIES = (
    "policy.repl.passive-periodic",
    "policy.repl.quorum",
)


def _calls(n: int) -> list[CallDescription]:
    return [
        CallDescription(
            identity=CallIdentity("log", "s", index + 1),
            service="sleep",
            params_bytes=64,
            exec_time=1.0,
        )
        for index in range(n)
    ]


class TestRetireOnAck:
    def test_a_change_made_while_the_round_is_in_flight_survives_the_ack(self):
        protocol = ProtocolConfig()
        protocol.policy = PolicyConfig(replication="policy.repl.none")
        grid = build_confined_cluster(
            n_servers=1, n_coordinators=2, protocol=protocol, seed=1
        )
        grid.start()
        coordinator = grid.coordinators[0]
        keys = coordinator.preload_tasks(_calls(3))
        host = grid.host_of(coordinator)
        outcome = {}

        def round_():
            outcome["acked"] = yield from coordinator.replicate_once()

        def remark():
            # After the abstract is built, long before the ack is back.
            yield host.sleep(1e-6)
            coordinator._mark_dirty(keys[1])

        process = host.spawn(round_())
        host.spawn(remark())
        assert grid.run_until(process, timeout=60.0)
        assert outcome["acked"]
        assert list(coordinator._changes) == [keys[1]]

    def test_an_unacknowledged_round_retires_nothing(self):
        protocol = ProtocolConfig()
        protocol.policy = PolicyConfig(replication="policy.repl.none")
        grid = build_confined_cluster(
            n_servers=1, n_coordinators=2, protocol=protocol, seed=1
        )
        grid.start()
        coordinator = grid.coordinators[0]
        keys = coordinator.preload_tasks(_calls(3))
        backup = grid.host_of(grid.coordinators[1])
        backup.crash()
        host = grid.host_of(coordinator)
        outcome = {}

        def round_():
            outcome["acked"] = yield from coordinator.replicate_once()

        assert grid.run_until(host.spawn(round_()), timeout=600.0)
        assert not outcome["acked"]
        assert list(coordinator._changes) == keys


class TestNoCallLostFaultFree:
    """16 spread servers, 1 s calls, seed 3: the grids that used to stall."""

    @pytest.mark.parametrize("n_calls", [200, 300])
    def test_every_call_completes(self, n_calls):
        report = execute_benchmark(
            GridTopology(n_servers=16, spread_servers=True),
            WorkloadSpec(n_calls=n_calls, exec_time=1.0),
            seed=3,
        )
        assert report.faults_injected == 0
        assert report.completed == report.submitted == n_calls
        assert report.finished_in_time
        assert report.makespan < 200.0


class TestExecutionsPerCall:
    """Fault-free, each call should run about once (ROADMAP: "Whenever a
    queue builds on a spread grid, calls run more than once").

    ``server.tasks_executed`` counts every execution a server started; seed 3,
    1 s calls, the platform's defaults otherwise.
    """

    @staticmethod
    def _executions_per_call(n_calls: int, spread: bool) -> float:
        report = execute_benchmark(
            GridTopology(n_servers=16, spread_servers=spread),
            WorkloadSpec(n_calls=n_calls, exec_time=1.0),
            seed=3,
        )
        assert report.completed == report.submitted == n_calls
        return report.counters["server.tasks_executed"] / n_calls

    def test_an_unspread_grid_runs_each_call_once(self):
        assert self._executions_per_call(200, spread=False) <= 1.05

    @pytest.mark.xfail(
        strict=True,
        reason="a queue on a spread grid runs each call ~3 times (456 "
        "executions for 150 calls; ROADMAP: \"Whenever a queue builds on a "
        "spread grid, calls run more than once\")",
    )
    def test_a_spread_grid_runs_each_call_once(self):
        assert self._executions_per_call(150, spread=True) <= 1.05


class TestMultiClientSpreadRun:
    """8 clients on 64 spread servers, 60 calls each: a grid that used to stall."""

    def test_every_call_completes_and_every_coordinator_converges(self):
        grid = build_confined_cluster(n_servers=64, spread_servers=True, n_clients=8)
        grid.start()
        workloads = [SyntheticWorkload(n_calls=60, exec_time=1.0) for _ in grid.clients]
        processes = [
            grid.run_process(workload.run(client), on_client=i)
            for i, (workload, client) in enumerate(zip(workloads, grid.clients))
        ]
        horizon = 2_000.0
        for process in processes:
            assert grid.run_until(process, timeout=horizon - grid.env.now)
        assert sum(w.completed_count() for w in workloads) == 480
        # A change travels one ring hop per round (see the property below).
        period = grid.coordinators[0].config.replication.period
        grid.run(until=grid.env.now + (len(grid.coordinators) + 1) * period)
        for coordinator in grid.coordinators:
            assert len(coordinator.tasks) == 480
            assert {task.state for task in coordinator.tasks.values()} == {
                TaskState.FINISHED
            }


class TestReplicaConvergence:
    """After a quiet period, every coordinator holds the same state per key."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_coordinators=st.sampled_from((2, 4)),
        n_servers=st.integers(min_value=1, max_value=16),
        spread_servers=st.booleans(),
        n_calls=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
        policy=st.sampled_from(REPLICATION_POLICIES),
    )
    @example(
        n_coordinators=4,
        n_servers=16,
        spread_servers=True,
        n_calls=200,
        seed=3,
        policy="policy.repl.passive-periodic",
    )
    def test_fault_free_grids_converge(
        self, n_coordinators, n_servers, spread_servers, n_calls, seed, policy
    ):
        topology = GridTopology(
            n_servers=n_servers,
            n_coordinators=n_coordinators,
            spread_servers=spread_servers,
        )
        protocol = apply_protocol_overrides(
            topology.default_protocol(), {"policy.replication": policy}
        )
        grid = topology.build(protocol, seed)
        grid.start()
        bench = WorkloadSpec(n_calls=n_calls, exec_time=1.0).build()
        process = grid.run_process(bench.run(grid.client))
        assert grid.run_until(process, timeout=4000.0)
        # A change travels one ring hop per round: up to n - 1 hops, one
        # period each, after waiting up to one period for the first round.
        period = protocol.coordinator.replication.period
        grid.run(until=grid.env.now + (n_coordinators + 1) * period)
        views = [
            {key: task.state for key, task in coordinator.tasks.items()}
            for coordinator in grid.coordinators
        ]
        assert len(views[0]) == n_calls
        for view in views[1:]:
            assert view == views[0]


class TestFaultFreeRunMustFinish:
    def test_a_fault_free_run_cut_short_by_its_horizon_is_an_error(self):
        with pytest.raises(SimulationError, match="0/10 completed"):
            execute_benchmark(
                GridTopology(n_servers=2, n_coordinators=2),
                WorkloadSpec(n_calls=10, exec_time=10.0),
                seed=1,
                horizon=5.0,
            )

    def test_run_full_horizon_reports_the_stall_instead(self):
        report = execute_benchmark(
            GridTopology(n_servers=2, n_coordinators=2),
            WorkloadSpec(n_calls=10, exec_time=10.0),
            seed=1,
            horizon=5.0,
            run_full_horizon=True,
        )
        assert not report.finished_in_time
        assert report.completed < report.submitted


class TestAlcatelCampaignGates:
    """Figs. 9–11 run the campaign through the engine, gates included."""

    def test_sixty_tasks_on_150_servers_complete(self):
        report = execute_benchmark(
            GridTopology(
                kind="internet",
                servers_per_site={"lille": 50, "wisconsin": 50, "orsay": 50},
            ),
            AlcatelSpec(n_tasks=60, seed=1),
            horizon=600.0,
        )
        assert report.completed == 60

    def test_a_partition_schedule_counts_as_injected_faults(self):
        injected = {
            name: run_scenario(name, scale="tiny", jobs=1).cells[0]["outputs"][
                "faults_injected"
            ]
            for name in ("fig9", "fig11")
        }
        assert injected == {"fig9": 0, "fig11": 2}


def _fault_cell(entry: dict):
    """The 8 x 4 s cell on 2 coordinators and 2 servers, with one injector."""
    return execute_benchmark(
        GridTopology(n_servers=2, n_coordinators=2),
        WorkloadSpec(n_calls=8, exec_time=4.0),
        seed=3,
        components=[entry],
    )


class TestClientCrashIsAnError:
    """The benchmark process dies with its client host: no row, an error."""

    def test_a_rate_injector_on_the_clients(self):
        with pytest.raises(SimulationError, match="died with its client host at .* 0/8"):
            _fault_cell(
                {"name": "inject.rate", "params": {"target": "clients", "faults_per_minute": 20.0}}
            )

    def test_a_scripted_client_kill(self):
        kill = {"time": 5.0, "action": "kill", "target": "client:c0"}
        with pytest.raises(SimulationError, match="died with its client host at 5 s"):
            _fault_cell({"name": "inject.script", "params": {"events": [kill]}})


def test_a_scripted_coordinator_kill_is_a_counted_fault():
    events = [
        {"time": 5.0, "action": "kill", "target": "coordinator:cluster-k0"},
        {"time": 15.0, "action": "restart", "target": "coordinator:cluster-k0"},
    ]
    report = _fault_cell({"name": "inject.script", "params": {"events": events}})
    assert (report.completed, report.faults_injected) == (8, 1)


class TestNoCallLostWhileACoordinatorSurvives:
    """No submitted call is lost while any coordinator survives.

    Killing ``cluster-k0`` and ``cluster-k1`` for good at 20 s used to
    complete 64 / 96 calls: a sync reply from ``cluster-k2`` resumed the
    client's sync with dead ``cluster-k1``, which then got the 32 missing
    calls.  ``benchmarks/coordinator_loss_sweep.py`` runs the whole probe:
    every pair and every trio of the four coordinators killed for good at
    5, 10, ..., 60 s.
    """

    def test_two_of_four_coordinators_killed_for_good(self):
        events = [
            {"time": 20.0, "action": "kill", "target": f"cluster-{name}"}
            for name in ("k0", "k1")
        ]
        report = execute_benchmark(
            GridTopology(n_servers=16, n_coordinators=4),
            WorkloadSpec(n_calls=96, exec_time=10.0),
            seed=7,
            horizon=2000.0,
            components=[{"name": "inject.script", "params": {"events": events}}],
        )
        assert report.completed == 96
