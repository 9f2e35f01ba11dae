"""Integration tests: full scenarios on the assembled grid."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines import netsolve_style_protocol, no_fault_tolerance_protocol
from repro.config import ProtocolConfig
from repro.core.api import GridRpc
from repro.core.coordinator import PAID_REQUESTS_PER_TASK
from repro.core.protocol import TASK_DESCRIPTION_BYTES, CallDescription, ResultRecord
from repro.errors import ConfigurationError
from repro.grid.builder import build_confined_cluster, build_internet_testbed
from repro.grid.deployment import confined_cluster_spec, internet_testbed_spec
from repro.net.message import Message, MessageType
from repro.nodes.node import Host
from repro.policies import (
    OptimisticLogging,
    PessimisticBlockingLogging,
    PessimisticNonBlockingLogging,
)
from repro.scenarios.engine import (
    GridTopology,
    WorkloadSpec,
    execute_benchmark,
)
from repro.types import Address, CallIdentity, LoggingStrategy, RPCStatus, TaskState
from repro.workloads.synthetic import SyntheticWorkload


def small_grid(**kwargs):
    defaults = dict(n_servers=4, n_coordinators=2, seed=1, spread_servers=False)
    defaults.update(kwargs)
    grid = build_confined_cluster(**defaults)
    grid.start()
    return grid


class TestDeploymentSpecs:
    def test_confined_spec_defaults_match_paper(self):
        spec = confined_cluster_spec()
        assert sum(spec.servers_per_site.values()) == 16
        assert len(spec.coordinator_sites) == 4
        assert len(spec.client_sites) == 1

    def test_internet_spec_sites(self):
        spec = internet_testbed_spec()
        assert set(spec.servers_per_site) == {"lille", "wisconsin", "orsay"}
        assert spec.protocol.coordinator.replication.period == 60.0

    def test_internet_wan_loss_defaults_to_the_link_model_s(self):
        assert internet_testbed_spec().site_map.inter_site_model.loss == 0.002
        lossy = GridTopology(kind="internet", wan_loss=0.05).build(None, seed=1)
        lille, orsay = (c.address for c in lossy.coordinators)
        assert lossy.network.link_model.resolve_link(lille, orsay).loss == 0.05

    def test_spec_validation_rejects_unknown_site(self):
        spec = internet_testbed_spec()
        with pytest.raises(ConfigurationError):
            type(spec)(
                name="broken",
                servers_per_site={"mars": 1},
                coordinator_sites=["lille"],
                client_sites=["lille"],
                site_map=spec.site_map,
            )


class TestBasicExecution:
    def test_all_calls_complete(self, ):
        grid = small_grid()
        workload = SyntheticWorkload(n_calls=8, exec_time=1.0, params_bytes=256)
        process = grid.run_process(workload.run(grid.client))
        assert grid.run_until(process, timeout=500.0)
        assert workload.completed_count() == 8
        assert workload.makespan > 0

    def test_results_reach_every_handle_with_identity_match(self):
        grid = small_grid()
        workload = SyntheticWorkload(n_calls=5, exec_time=0.5)
        process = grid.run_process(workload.run(grid.client))
        grid.run_until(process, timeout=300.0)
        for handle in workload.handles:
            assert handle.done
            assert handle.result.identity == handle.description.identity

    def test_makespan_roughly_matches_ideal(self):
        grid = small_grid(n_servers=4)
        workload = SyntheticWorkload(n_calls=8, exec_time=5.0)
        process = grid.run_process(workload.run(grid.client))
        grid.run_until(process, timeout=600.0)
        ideal = 8 * 5.0 / 4
        assert ideal <= workload.makespan < 4 * ideal

    def test_client_stats_reflect_run(self):
        grid = small_grid()
        workload = SyntheticWorkload(n_calls=4, exec_time=0.5)
        process = grid.run_process(workload.run(grid.client))
        grid.run_until(process, timeout=300.0)
        stats = grid.client.stats()
        assert stats["submitted"] == 4
        assert stats["completed"] == 4
        assert stats["pending"] == 0

    def test_kernel_stats_extend_queue_stats_with_zeroed_wheel_keys(self):
        grid = small_grid()
        workload = SyntheticWorkload(n_calls=4, exec_time=0.5)
        process = grid.run_process(workload.run(grid.client))
        grid.run_until(process, timeout=300.0)
        kernel = grid.kernel_stats()
        queue = grid.env.queue_stats()
        assert {key: kernel[key] for key in queue} == queue
        # The kernel has no timer wheel: the two legacy keys are honest zeros.
        assert kernel["wheel_flushes"] == kernel["wheel_overflows"] == 0
        # Messages have no free list: the one pool key bench/rep.py reads is
        # a zeroed placeholder too.
        assert kernel["pool_hit_rate"] == 0.0
        assert not {"pool_hits", "pool_releases"} & set(kernel)
        assert kernel["events_processed"] > 0

    def test_coordinator_state_is_consistent_at_the_end(self):
        grid = small_grid()
        workload = SyntheticWorkload(n_calls=6, exec_time=0.5)
        process = grid.run_process(workload.run(grid.client))
        grid.run_until(process, timeout=300.0)
        primary = grid.coordinators[0]
        assert primary.index.finished == 6
        assert len(primary.results) == 6

    def test_task_activity_map_drains_with_the_tasks(self):
        grid = small_grid(spread_servers=True)
        # Long enough that servers report ``working_on`` between assignment
        # and result, so both writers of the map have run.
        period = grid.spec.protocol.server.detection.heartbeat_period
        workload = SyntheticWorkload(n_calls=12, exec_time=3 * period)
        process = grid.run_process(workload.run(grid.client))
        assert grid.run_until(process, timeout=2000.0)
        grid.run(until=grid.env.now + 3 * period)  # let trailing heart-beats land
        assert sum(c.index.finished for c in grid.coordinators) >= 12
        assert [c._task_activity for c in grid.coordinators] == [{}, {}]

    def test_replication_propagates_to_replica(self):
        grid = small_grid()
        workload = SyntheticWorkload(n_calls=6, exec_time=0.5)
        process = grid.run_process(workload.run(grid.client))
        grid.run_until(process, timeout=300.0)
        grid.run(until=grid.env.now + 3 * grid.spec.protocol.coordinator.replication.period)
        replica = grid.coordinators[1]
        assert replica.finished_count() == 6

    def test_progress_condition_holds_on_healthy_grid(self):
        grid = small_grid()
        assert grid.progress_condition_holds()

    def test_progress_condition_fails_without_coordinators(self):
        grid = small_grid()
        for host in grid.hosts_of("coordinators"):
            host.crash()
        assert not grid.progress_condition_holds()

    def test_internet_testbed_builds_and_runs(self):
        grid = build_internet_testbed(
            servers_per_site={"lille": 2, "orsay": 2}, seed=2
        )
        grid.start()
        workload = SyntheticWorkload(n_calls=4, exec_time=1.0)
        process = grid.run_process(workload.run(grid.client))
        assert grid.run_until(process, timeout=2000.0)
        assert workload.completed_count() == 4


def idle_waits(grid, server):
    """Seconds ``server`` waits after each NO_WORK before asking again."""
    waits = []
    no_work_at = None

    def hook(message):
        nonlocal no_work_at
        if message.mtype is MessageType.NO_WORK and message.dest == server.address:
            no_work_at = grid.env.now
        elif (
            message.mtype is MessageType.WORK_REQUEST
            and message.source == server.address
            and no_work_at is not None
        ):
            waits.append(round(message.sent_at - no_work_at, 9))
            no_work_at = None

    grid.network.add_delivery_hook(hook)
    return waits


def work_exchanges(grid, server):
    """``[delivered_at, answer type, answer sent_at]`` for each of
    ``server``'s work requests, in order (the answer ``None`` until sent)."""
    exchanges = []

    def hook(message):
        if message.mtype is MessageType.WORK_REQUEST and message.source == server.address:
            exchanges.append([message.delivered_at, None, None])
        elif (
            message.mtype in (MessageType.NO_WORK, MessageType.TASK_ASSIGN)
            and message.dest == server.address
        ):
            exchanges[-1][1:] = [message.mtype, message.sent_at]

    grid.network.add_delivery_hook(hook)
    return exchanges


def busy_coordinator_grid():
    """One server pulling from one coordinator whose queue never empties.

    A second client keeps twelve result pulls queued at the coordinator
    (each answer sends the next), and a pull does work: the overhead plus a
    scan, ~0.08 s.  Holding a work request is free, but the request waits
    its turn behind ~0.9 s of pulls.
    """
    grid = small_grid(n_servers=1, n_coordinators=1)
    (coordinator,) = grid.coordinators
    loader = Host(
        grid.env,
        grid.network,
        Address("client", "loader"),
        rng=grid.rng.spawn("loader"),
        monitor=grid.monitor,
    )

    def pull(_reply=None):
        loader.send(
            Message(
                MessageType.RESULT_PULL,
                loader.address,
                coordinator.address,
                payload={"session": ("loader", "s"), "pending": None},
            )
        )

    loader.on_message(pull)
    for _ in range(12):
        pull()
    return grid, loader


class TestServiceBound:
    """``bound_s``: no run can beat its work over its servers, nor its
    busiest coordinator's unavoidable request overheads."""

    def _outputs(self, n_servers, n_calls, exec_time):
        return execute_benchmark(
            GridTopology(n_servers=n_servers, spread_servers=True),
            WorkloadSpec(n_calls=n_calls, exec_time=exec_time),
            seed=7,
            horizon=50_000.0,
        ).outputs()

    def test_a_backlog_is_bound_by_its_submitting_coordinator(self):
        out = self._outputs(n_servers=64, n_calls=200, exec_time=1.0)
        registered = [load["registered"] for load in out["coordinators"].values()]
        assert sorted(registered) == [0, 0, 0, 200]
        overhead = confined_cluster_spec(
            n_servers=1, n_coordinators=1
        ).protocol.coordinator.request_processing_overhead
        # 200 submissions at one coordinator, the other paid requests of
        # each task spread over all four.
        expected = overhead * (200 + PAID_REQUESTS_PER_TASK * 200 / 4)
        assert out["bound_s"] == pytest.approx(expected)
        assert out["ideal_time"] < out["bound_s"] <= out["makespan"]
        assert out["makespan_over_bound"] == pytest.approx(
            out["makespan"] / out["bound_s"]
        )

    def test_long_tasks_are_bound_by_their_work(self):
        out = self._outputs(n_servers=2, n_calls=8, exec_time=10.0)
        assert out["bound_s"] == out["ideal_time"] == 40.0
        assert out["makespan_over_bound"] >= 1.0


class TestIdlePolling:
    """An idle server's work request is held for one poll period: answered
    by the next submission, else by NO_WORK at the window's end, after
    which the server asks again at once."""

    def test_an_idle_coordinator_answers_no_work_at_the_window(self):
        grid = small_grid(n_servers=1, n_coordinators=1)
        server = grid.servers[0]
        exchanges = work_exchanges(grid, server)
        waits = idle_waits(grid, server)
        grid.run(until=30.0)
        window = server.config.work_poll_period
        answered = [e for e in exchanges if e[1] is not None]
        assert len(answered) >= 13
        for delivered_at, answer, sent_at in answered:
            assert answer is MessageType.NO_WORK
            # Held from its handler's start, behind at most a client pull.
            assert window - 1e-9 <= sent_at - delivered_at < window + 0.1
        assert set(waits) == {0.0}

    def test_a_busy_coordinator_still_answers_once_per_window(self):
        grid, _loader = busy_coordinator_grid()
        server = grid.servers[0]
        exchanges = work_exchanges(grid, server)
        waits = idle_waits(grid, server)
        grid.run(until=200.0)
        window = server.config.work_poll_period
        answered = [e for e in exchanges if e[1] is not None]
        assert len(answered) >= 60
        # Each request waits its turn behind ~0.9 s of pulls, then is held.
        assert all(window < sent_at - at < window + 1.2 for at, _a, sent_at in answered)
        assert set(waits) == {0.0}
        assert "server.request_timeouts" not in grid.monitor.counters

    def test_a_submission_answers_the_held_request(self):
        grid = small_grid(n_servers=1, n_coordinators=1)
        server = grid.servers[0]
        exchanges = work_exchanges(grid, server)
        acks = []

        def hook(message):
            if message.mtype is MessageType.SUBMIT_ACK:
                acks.append(message.sent_at)

        grid.network.add_delivery_hook(hook)
        window = server.config.work_poll_period
        grid.run(until=10.0)
        # Submit while a request is held, some way into its window.
        grid.run(until=exchanges[-1][0] + 1.5 * window)
        held_since, answer, _sent_at = exchanges[-1]
        assert answer is None and grid.env.now < held_since + window
        workload = SyntheticWorkload(n_calls=1, exec_time=1.0)
        process = grid.run_process(workload.run(grid.client))
        assert grid.run_until(process, timeout=100.0)
        ((delivered_at, answer, sent_at),) = [
            e for e in exchanges if e[1] is MessageType.TASK_ASSIGN
        ]
        # The submission's own handler answers the request it found held,
        # before the request's window was over.
        assert acks == [sent_at]
        assert delivered_at == held_since

    def test_idle_polls_cost_an_idle_coordinator_nothing(self):
        grid = small_grid(n_servers=1, n_coordinators=1)
        grid.run(until=30.0)
        (coordinator,) = grid.coordinators
        load = coordinator.load(30.0)
        requests = load["requests"]
        assert requests["work-request"] == 15
        # Only the client's pulls do work: the server's start-up sync
        # carries no result and finds nothing ongoing, so it is free too.
        per_request = (
            coordinator.config.request_processing_overhead
            + coordinator.database.model.scan_time(0)
        )
        assert requests["server-sync"] == 1
        assert load["busy_s"] == pytest.approx(requests["result-pull"] * per_request)

    def test_the_drivers_quiet_poll_period_keeps_servers_silent(self):
        protocol = ProtocolConfig()
        protocol.coordinator.request_processing_overhead = 0.01
        protocol.server.work_poll_period = 10_000.0
        grid = small_grid(protocol=protocol, n_servers=2, n_coordinators=1)
        requests = []

        def hook(message):
            if message.mtype is MessageType.WORK_REQUEST:
                requests.append(message.source)

        grid.network.add_delivery_hook(hook)
        grid.run(until=9_000.0)
        # One request each, held all along: a server waits out the hold
        # before its request times out.
        assert sorted(requests) == sorted(s.address for s in grid.servers)
        assert "server.request_timeouts" not in grid.monitor.counters


def changed_after_delivery(grid, faults=()):
    """Run ``grid`` to 120 s keeping every delivered message; list the changed.

    Each kept message is checked at the end against a copy of its
    ``(mtype, source, dest, payload)`` taken at delivery.  ``faults`` are
    ``(time, callable)`` pairs run on the way.
    """
    kept = []

    def keep(message):
        fields = (message.mtype, message.source, message.dest, dict(message.payload))
        kept.append((message, fields))

    grid.network.add_delivery_hook(keep)
    grid.start()
    for at, fault in faults:
        grid.env.call_at(at, lambda _arg, fault=fault: fault())
    grid.run(until=120.0)
    assert any(m.mtype is MessageType.SERVER_HEARTBEAT for m, _ in kept)
    return [
        fields
        for message, fields in kept
        if (message.mtype, message.source, message.dest, message.payload) != fields
    ]


class TestDeliveredMessages:
    """A delivery hook may keep messages: nothing rewrites them later."""

    def test_a_kept_message_never_changes_after_delivery(self):
        grid = GridTopology(n_servers=4, n_coordinators=2).build(None, 3)
        assert changed_after_delivery(grid) == []

    def test_crashes_leave_kept_messages_unchanged(self):
        """Messages a crashed mailbox drops are not reused for later sends."""
        grid = GridTopology(n_servers=4, n_coordinators=2).build(None, 3)
        coordinator = grid.coordinators[1].host
        server = grid.servers[0].host
        faults = [
            (30.0, coordinator.crash),
            (40.0, server.crash),
            (60.0, coordinator.restart),
            (70.0, server.restart),
        ]
        assert changed_after_delivery(grid, faults) == []
        assert grid.network.stats()["net.dropped.endpoint_down"] > 0


class TestGridRpcApi:
    def test_blocking_and_async_calls(self):
        grid = small_grid()
        api = GridRpc(grid.client)
        api.initialize()
        outcome = {}

        def app():
            result = yield from api.call("sleep", exec_time=1.0, params_bytes=64)
            outcome["blocking"] = result
            handle_id = yield from api.call_async("sleep", exec_time=1.0)
            outcome["status_before"] = api.probe(handle_id)
            outcome["async"] = yield from api.wait(handle_id)
            outcome["status_after"] = api.probe(handle_id)

        process = grid.run_process(app())
        grid.run_until(process, timeout=300.0)
        assert outcome["blocking"] is not None
        assert outcome["async"] is not None
        assert outcome["status_before"] in (RPCStatus.SUBMITTED, RPCStatus.RUNNING)
        assert outcome["status_after"] is RPCStatus.COMPLETED

    def test_wait_all_and_wait_any(self):
        grid = small_grid()
        api = GridRpc(grid.client)
        api.initialize()
        outcome = {}

        def app():
            ids = []
            for _ in range(3):
                handle_id = yield from api.call_async("sleep", exec_time=0.5)
                ids.append(handle_id)
            first_id, _result = yield from api.wait_any(ids)
            outcome["first"] = first_id
            outcome["all"] = yield from api.wait_all(ids)

        process = grid.run_process(app())
        grid.run_until(process, timeout=300.0)
        assert outcome["first"] in api.handles()
        assert len(outcome["all"]) == 3

    def test_initialize_required(self):
        grid = small_grid()
        api = GridRpc(grid.client)
        with pytest.raises(Exception):
            list(api.call_async("sleep"))

    def test_cancel_stops_tracking(self):
        grid = small_grid()
        api = GridRpc(grid.client)
        api.initialize()
        collected = {}

        def app():
            handle_id = yield from api.call_async("sleep", exec_time=0.5)
            collected["id"] = handle_id
            api.cancel(handle_id)

        process = grid.run_process(app())
        grid.run_until(process, timeout=100.0)
        assert collected["id"] not in api.handles()


class TestFaultTolerance:
    def test_server_crash_mid_execution_still_completes(self):
        grid = small_grid(n_servers=2, n_coordinators=1)
        workload = SyntheticWorkload(n_calls=4, exec_time=10.0)
        process = grid.run_process(workload.run(grid.client))
        victim = grid.hosts_of("servers")[0]

        def killer():
            yield grid.env.timeout(15.0)
            victim.crash()
            yield grid.env.timeout(10.0)
            victim.restart()

        grid.env.process(killer())
        assert grid.run_until(process, timeout=3000.0)
        assert workload.completed_count() == 4
        assert grid.monitor.count("faults.server") == 1

    def test_permanent_server_loss_recovered_by_other_server(self):
        grid = small_grid(n_servers=2, n_coordinators=1)
        workload = SyntheticWorkload(n_calls=4, exec_time=10.0)
        process = grid.run_process(workload.run(grid.client))
        victim = grid.hosts_of("servers")[0]

        def killer():
            yield grid.env.timeout(12.0)
            victim.crash()   # never restarted

        grid.env.process(killer())
        assert grid.run_until(process, timeout=3000.0)
        assert workload.completed_count() == 4

    def test_coordinator_crash_and_restart_preserves_tasks(self):
        grid = small_grid(n_servers=2, n_coordinators=2)
        workload = SyntheticWorkload(n_calls=6, exec_time=5.0)
        process = grid.run_process(workload.run(grid.client))
        primary_host = grid.hosts_of("coordinators")[0]

        def killer():
            yield grid.env.timeout(8.0)
            primary_host.crash()
            yield grid.env.timeout(10.0)
            primary_host.restart()

        grid.env.process(killer())
        assert grid.run_until(process, timeout=3000.0)
        assert workload.completed_count() == 6
        assert grid.coordinators[0].finished_count() >= 1

    def test_primary_coordinator_permanent_failure_fails_over(self):
        grid = small_grid(n_servers=2, n_coordinators=2)
        workload = SyntheticWorkload(n_calls=6, exec_time=5.0)
        process = grid.run_process(workload.run(grid.client))
        primary_host = grid.hosts_of("coordinators")[0]

        def killer():
            # Let some state replicate first (period is 5 s on the cluster).
            yield grid.env.timeout(12.0)
            primary_host.crash()  # permanent

        grid.env.process(killer())
        assert grid.run_until(process, timeout=4000.0)
        assert workload.completed_count() == 6
        assert grid.monitor.count("server.coordinator_switches") >= 1

    def test_fig7_style_run_with_server_faults_completes(self):
        report = execute_benchmark(
            GridTopology(n_servers=4, n_coordinators=2),
            WorkloadSpec(n_calls=16, exec_time=2.0),
            seed=3,
            horizon=3000.0,
            components=[{
                "name": "inject.rate",
                "params": {"target": "servers", "faults_per_minute": 6.0},
            }],
        )
        assert report.completed >= report.submitted
        assert report.makespan >= report.ideal_time

    def test_faults_increase_makespan_on_average(self):
        topology = GridTopology(n_servers=8, n_coordinators=2)
        workload = WorkloadSpec(n_calls=32, exec_time=5.0)
        quiet = execute_benchmark(topology, workload, seed=5)
        noisy = execute_benchmark(
            topology,
            workload,
            seed=5,
            horizon=6000.0,
            components=[{
                "name": "inject.rate",
                "params": {
                    "target": "servers", "faults_per_minute": 10.0,
                    "restart_delay": 20.0,
                },
            }],
        )
        assert noisy.makespan > quiet.makespan
        assert noisy.faults_injected > 0


def record_sends(grid, host, mtypes):
    """``(time, mtype, dest)`` of each ``mtypes`` message ``host`` sends."""
    sent = []
    send = host.send

    def recording(message):
        if message.mtype in mtypes:
            sent.append((round(grid.env.now, 3), message.mtype, message.dest))
        return send(message)

    host.send = recording
    return sent


def timed_results(grid, coordinator):
    """``(seconds, scans)``: how long each ``TASK_RESULT`` handler of
    ``coordinator`` runs, its request overhead included, and the scans it
    charges."""
    spans = []
    handle = coordinator._handle
    database = coordinator.database

    def timed(message):
        handling = handle(message)
        if handling is None or message.mtype is not MessageType.TASK_RESULT:
            return handling

        def run():
            start, scans = grid.env.now, database.scans
            yield from handling
            spans.append((grid.env.now - start, database.scans - scans))

        return run()

    coordinator._handle = timed
    return spans


def sent_payloads(host, mtype):
    """The payload of each ``mtype`` message ``host`` sends."""
    payloads = []
    send = host.send

    def recording(message):
        if message.mtype is mtype:
            payloads.append(message.payload)
        return send(message)

    host.send = recording
    return payloads


class TestResultAckCarriesNextTask:
    """A server's result upload also asks for its next task: one paid
    request per task instead of an upload and a work request."""

    def test_an_ack_carries_the_next_pending_task_for_one_overhead(self):
        grid = small_grid(n_servers=1, n_coordinators=1)
        (coordinator,) = grid.coordinators
        spans = timed_results(grid, coordinator)
        acks = sent_payloads(coordinator.host, MessageType.TASK_RESULT_ACK)
        assigns = sent_payloads(coordinator.host, MessageType.TASK_ASSIGN)
        workload = SyntheticWorkload(n_calls=3, exec_time=1.0)
        process = grid.run_process(workload.run(grid.client))
        assert grid.run_until(process, timeout=500.0)
        assert workload.completed_count() == 3
        # The first task answers a work request, the next two ride on acks.
        assert [a["call"].identity.rpc for a in assigns] == [1]
        assert [(a["identity"].rpc, a["call"] and a["call"].identity.rpc) for a in acks] == [
            (1, 2), (2, 3), (3, None)
        ]
        assert coordinator.handled[MessageType.TASK_RESULT] == 3
        # One overhead, the result's write and disk write, then one scan
        # and one write to assign: milliseconds, not a second overhead.
        model = coordinator.database.model
        overhead = coordinator.config.request_processing_overhead
        commit = (
            overhead
            + model.write_time(TASK_DESCRIPTION_BYTES)
            + coordinator.host.disk.sync_write_time(64)
        )
        assert len(spans) == 3
        for span, scans in spans[:2]:
            assert scans == 1
            assert commit < span < commit + overhead / 4

    def test_an_ack_with_nothing_eligible_charges_no_scan(self):
        grid = small_grid(n_servers=1, n_coordinators=1)
        (coordinator,) = grid.coordinators
        spans = timed_results(grid, coordinator)
        workload = SyntheticWorkload(n_calls=1, exec_time=1.0)
        process = grid.run_process(workload.run(grid.client))
        assert grid.run_until(process, timeout=500.0)
        commit = (
            coordinator.config.request_processing_overhead
            + coordinator.database.model.write_time(TASK_DESCRIPTION_BYTES)
            + coordinator.host.disk.sync_write_time(64)
        )
        assert spans == [(pytest.approx(commit), 0)]

    def test_a_lost_ack_s_task_is_re_queued_and_run(self):
        grid = small_grid(n_servers=1, n_coordinators=1)
        (coordinator,) = grid.coordinators
        uploads = sent_payloads(grid.servers[0].host, MessageType.TASK_RESULT)
        lost = []
        send = coordinator.host.send

        def lose_first_task_ack(message):
            if message.mtype is MessageType.TASK_RESULT_ACK and message.payload["call"] and not lost:
                lost.append(message.payload["call"].identity)
                return None
            return send(message)

        coordinator.host.send = lose_first_task_ack
        workload = SyntheticWorkload(n_calls=2, exec_time=1.0)
        process = grid.run_process(workload.run(grid.client))
        assert grid.run_until(process, timeout=500.0)
        assert workload.completed_count() == 2
        assert [key.rpc for key in lost] == [2]
        # The re-sent upload asks for no work; the lost ack's task waits
        # out the activity time-out, then runs once.
        assert [u["next_task"] for u in uploads] == [True, False, True]
        counters = grid.monitor.counters
        assert counters["coordinator.requeued_on_activity_timeout"] == 1
        assert counters["server.tasks_executed"] == 2
        assert counters["server.result_upload_retries"] == 1

    def test_a_sync_re_upload_asks_for_no_work(self):
        protocol = ProtocolConfig()
        protocol.server.work_poll_period = 10_000.0
        grid = small_grid(protocol=protocol, n_servers=1, n_coordinators=1)
        (coordinator,) = grid.coordinators
        server = grid.servers[0]
        grid.run(until=1.0)
        # Pending work the ack could carry, and a result the coordinator
        # has never seen, archived but not acknowledged.
        (pending,) = coordinator.preload_tasks(
            [CallDescription(CallIdentity("u", "s", 1), "sleep", 64, exec_time=1.0)]
        )
        result = ResultRecord(CallIdentity("u", "s", 2), 64, server.address, 1.0)
        server.result_log.append(result.identity, result, 64)
        server.result_log.mark_durable(result.identity)
        uploads = sent_payloads(server.host, MessageType.TASK_RESULT)
        acks = sent_payloads(coordinator.host, MessageType.TASK_RESULT_ACK)
        process = grid.run_process(server.synchronize())
        assert grid.run_until(process, timeout=100.0)
        assert [u["next_task"] for u in uploads] == [False]
        assert [a["call"] for a in acks] == [None]
        assert coordinator.tasks[pending].state is TaskState.PENDING
        assert not server.result_log.unacked_durable()


class TestCoordinatorRequests:
    """Every exchange with a coordinator: re-send, switch, resync."""

    def test_a_client_re_sends_then_switches_once_its_coordinator_is_suspected(self):
        # An 8 s retry times out at 32 s, past the 30 s suspicion timeout
        # and before the client's 5 s watch loop looks again at 35 s: the
        # time-out itself makes the switch.
        protocol = ProtocolConfig()
        protocol.client.request_retry = 8.0
        grid = small_grid(protocol=protocol, n_servers=2, n_coordinators=2)
        first, second = (host.address for host in grid.hosts_of("coordinators"))
        sent = record_sends(
            grid, grid.client.host, {MessageType.RPC_SUBMIT, MessageType.CLIENT_SYNC}
        )
        grid.hosts_of("coordinators")[0].crash()
        workload = SyntheticWorkload(n_calls=4, exec_time=5.0)
        process = grid.run_process(workload.run(grid.client))
        assert grid.run_until(process, timeout=3000.0)
        assert workload.completed_count() == 4
        # Re-sent every 8 s to the dead coordinator; the time-out at 32 s
        # switches, the round goes to the other one and a sync follows.
        assert sent[:4] == [
            (at, MessageType.RPC_SUBMIT, first) for at in (0.0, 8.0, 16.0, 24.0)
        ]
        assert sent[4] == (32.0, MessageType.RPC_SUBMIT, second)
        assert sent[5][1:] == (MessageType.CLIENT_SYNC, second)
        assert all(dest == second for _at, _mtype, dest in sent[4:])
        counters = grid.monitor.counters
        assert counters["client.submission_retries"] == 4
        assert counters["client.coordinator_switches"] == 1
        assert counters["client.syncs"] == 1
        assert "client.coordinator_suspicions" not in counters

    def test_a_late_submit_ack_answers_the_live_round_not_the_abandoned_one(self):
        grid = small_grid(n_servers=1, n_coordinators=1)
        coordinator = grid.hosts_of("coordinators")[0]
        held = []
        send = coordinator.send

        def hold_early_acks(message):
            if message.mtype is MessageType.SUBMIT_ACK and grid.env.now < 25.0:
                held.append(message)
                return None
            return send(message)

        coordinator.send = hold_early_acks
        # Rounds go out at 0, 10 and 20 s; the first round's ack turns up at
        # 25 s, long after that round timed out.
        grid.env.call_at(25.0, lambda _arg: grid.client._dispatch(held[0]))
        submitted = []

        def one_call():
            handle = yield from grid.client.call_async("sleep", exec_time=1.0)
            submitted.append(grid.env.now)
            yield from grid.client.wait(handle)

        process = grid.run_process(one_call())
        assert grid.run_until(process, timeout=500.0)
        assert len(held) == 3
        # The live third round takes the ack at once: no fourth round at 30 s.
        assert submitted == [25.0]
        assert grid.monitor.count("client.submission_retries") == 2
        assert grid.monitor.count("client.submissions_sent") == 3

    def test_a_submit_ack_from_another_coordinator_answers_the_round(self):
        # After a switch the new coordinator acks the calls a sync re-sent;
        # a round still waiting on the old one takes that ack, since any
        # ack means the call is registered.
        grid = small_grid(n_servers=1, n_coordinators=2)
        first, second = grid.hosts_of("coordinators")
        held = []
        send = first.send

        def hold_acks(message):
            if message.mtype is MessageType.SUBMIT_ACK:
                held.append(message)
                return None
            return send(message)

        first.send = hold_acks
        grid.env.call_at(
            4.0,
            lambda _arg: grid.client._dispatch(replace(held[0], source=second.address)),
        )
        submitted = []

        def one_call():
            handle = yield from grid.client.call_async("sleep", exec_time=1.0)
            submitted.append(grid.env.now)
            yield from grid.client.wait(handle)

        process = grid.run_process(one_call())
        assert grid.run_until(process, timeout=500.0)
        assert len(held) == 1
        assert submitted == [4.0]
        assert grid.monitor.count("client.submissions_sent") == 1
        assert "client.submission_retries" not in grid.monitor.counters

    def test_a_result_upload_to_a_killed_coordinator_is_acked_once_elsewhere(self):
        grid = small_grid(n_servers=1, n_coordinators=2)
        server = grid.servers[0]
        second = grid.hosts_of("coordinators")[1].address
        sent = record_sends(grid, server.host, {MessageType.TASK_RESULT})
        workload = SyntheticWorkload(n_calls=1, exec_time=20.0)
        process = grid.run_process(workload.run(grid.client))
        # Killed while the server executes: its upload at ~20 s goes nowhere.
        grid.env.call_at(8.0, lambda _arg: grid.hosts_of("coordinators")[0].crash())
        assert grid.run_until(process, timeout=3000.0)
        assert workload.completed_count() == 1
        counters = grid.monitor.counters
        assert counters["server.result_upload_retries"] == 1
        assert counters["server.coordinator_switches"] == 1
        assert counters["server.syncs"] == 2  # at start, then after the switch
        assert counters["server.results_uploaded"] == 1
        assert counters["coordinator.duplicate_results"] == 0
        assert [dest for _at, _mtype, dest in sent][1:] == [second]
        assert not server.result_log.unacked_durable()

    def test_a_sync_with_a_dead_coordinator_times_out_with_none(self):
        grid = small_grid(n_servers=1, n_coordinators=2)
        dead = grid.hosts_of("coordinators")[1]
        dead.crash()
        outcome = []

        def sync():
            started = grid.env.now
            plan = yield from grid.client.synchronize(dead.address)
            outcome.append((plan, grid.env.now - started))

        process = grid.run_process(sync())
        assert grid.run_until(process, timeout=100.0)
        [(plan, waited)] = outcome
        assert plan is None
        # One attempt: a log read, then one request_retry of silence.
        assert waited == pytest.approx(grid.client.config.request_retry, abs=0.05)
        assert grid.monitor.count("client.sync_timeouts") == 1
        assert "client.syncs" not in grid.monitor.counters


    def test_a_late_time_out_from_an_abandoned_coordinator_switches_nothing(self):
        # A 12 s retry sends rounds to the dead coordinator at 0, 12 and
        # 24 s.  The 5 s watch loop suspects it first and moves the client
        # on; the round of 24 s times out afterwards, at 36 s.  The new
        # coordinator's sync reply is lost, so no re-send of the call draws
        # an ack that would answer that round first.
        protocol = ProtocolConfig()
        protocol.client.request_retry = 12.0
        grid = small_grid(protocol=protocol, n_servers=2, n_coordinators=3)
        dead, new, _third = grid.hosts_of("coordinators")
        first, second = dead.address, new.address
        sent = record_sends(
            grid, grid.client.host, {MessageType.RPC_SUBMIT, MessageType.CLIENT_SYNC}
        )
        send = new.send
        new.send = lambda message: (
            None if message.mtype is MessageType.COORD_SYNC_REPLY
            and message.dest == grid.client.address else send(message)
        )
        dead.crash()
        workload = SyntheticWorkload(n_calls=1, exec_time=5.0)
        process = grid.run_process(workload.run(grid.client))
        assert grid.run_until(process, timeout=3000.0)
        assert workload.completed_count() == 1
        assert [at for at, _mtype, dest in sent if dest == first] == [0.0, 12.0, 24.0]
        # The late time-out counts a retry, then the round goes to the
        # coordinator the client already moved to: no second switch or sync.
        assert all(dest == second for _at, _mtype, dest in sent[3:])
        assert (36.0, MessageType.RPC_SUBMIT, second) in sent
        counters = grid.monitor.counters
        assert counters["client.submission_retries"] == 3
        assert counters["client.coordinator_suspicions"] == 1
        assert counters["client.coordinator_switches"] == 1
        assert "client.syncs" not in counters

    def test_a_sync_reply_resumes_only_the_sync_sent_to_its_sender(self):
        grid = small_grid(n_servers=1, n_coordinators=2)
        live, dead = grid.hosts_of("coordinators")
        dead.crash()
        outcome = {}

        def sync(coordinator):
            started = grid.env.now
            plan = yield from grid.client.synchronize(coordinator)
            outcome[coordinator] = (plan, grid.env.now - started)

        # The sync to the dead coordinator waits first; the live one's reply
        # must not resume it.
        to_dead = grid.run_process(sync(dead.address))
        to_live = grid.run_process(sync(live.address))
        assert grid.run_until(to_dead, timeout=100.0)
        assert grid.run_until(to_live, timeout=100.0)
        dead_plan, dead_waited = outcome[dead.address]
        live_plan, live_waited = outcome[live.address]
        assert dead_plan is None
        assert dead_waited == pytest.approx(grid.client.config.request_retry, abs=0.05)
        assert live_plan is not None
        assert live_waited < 1.0
        assert grid.monitor.count("client.sync_timeouts") == 1

    def test_a_client_that_lost_its_handles_recovers_its_calls_from_the_log(self):
        # No replication: only the first coordinator ever holds the calls.
        protocol = ProtocolConfig()
        protocol.coordinator.replication.period = 1e6
        grid = small_grid(protocol=protocol, n_servers=1, n_coordinators=2)
        first, second = grid.hosts_of("coordinators")
        client = grid.client
        plans = []

        def crash_and_recover():
            handles = []
            for _ in range(3):
                handle = yield from client.call_async("sleep", exec_time=50.0)
                handles.append(handle)
            first.crash()
            client.forget_handles()
            client.registry.set_preferred(second.address)
            plans.append((yield from client.recover()))
            # Once re-sent, the calls are registered: nothing is missing.
            plans.append((yield from client.recover()))
            return [handle.description.identity.rpc for handle in handles]

        process = grid.run_process(crash_and_recover())
        assert grid.run_until(process, timeout=100.0)
        submitted = process.value
        recovered, again = plans
        assert recovered.client_must_resend == submitted
        assert recovered.client_lost == []
        assert again.client_must_resend == []
        assert again.coordinator_max_timestamp == max(submitted)
        assert grid.monitor.count("client.sync_resends") == len(submitted)
        assert grid.monitor.count("client.syncs") == 2


#: Fig. 4's strategies -> the ``policy.log.*`` entry implementing each.
LOGGING_POLICIES = {
    policy.strategy: policy.key
    for policy in (
        OptimisticLogging, PessimisticNonBlockingLogging, PessimisticBlockingLogging,
    )
}


class TestLoggingStrategiesEndToEnd:
    @pytest.mark.parametrize("strategy", list(LoggingStrategy))
    def test_every_strategy_completes_the_workload(self, strategy):
        protocol = ProtocolConfig()
        protocol.policy.logging = LOGGING_POLICIES[strategy]
        protocol.coordinator.replication.period = 5.0
        grid = small_grid(protocol=protocol)
        assert grid.client.logging.policy.strategy is strategy
        workload = SyntheticWorkload(n_calls=4, exec_time=1.0, params_bytes=2048)
        process = grid.run_process(workload.run(grid.client))
        assert grid.run_until(process, timeout=500.0)
        assert workload.completed_count() == 4

    def test_blocking_strategy_is_slowest_to_submit(self):
        times = {}
        for strategy in LoggingStrategy:
            protocol = ProtocolConfig()
            protocol.policy.logging = LOGGING_POLICIES[strategy]
            protocol.coordinator.replication.period = 5.0
            protocol.server.work_poll_period = 10_000.0
            grid = small_grid(protocol=protocol, n_servers=1, n_coordinators=1)
            workload = SyntheticWorkload(
                n_calls=8, exec_time=1.0e6, params_bytes=2_000_000
            )
            process = grid.run_process(workload.submit_only(grid.client))
            grid.run_until(process, timeout=5000.0)
            times[strategy] = workload.submission_time
        assert times[LoggingStrategy.PESSIMISTIC_BLOCKING] > times[LoggingStrategy.OPTIMISTIC]


class TestBaselines:
    def test_presets_validate(self):
        assert netsolve_style_protocol().policy.replication["name"] == "policy.repl.none"
        assert no_fault_tolerance_protocol().policy.scheduler["params"] == {
            "reschedule": False
        }

    def test_baseline_still_completes_without_faults(self):
        report = execute_benchmark(
            GridTopology(n_servers=4, n_coordinators=2),
            WorkloadSpec(n_calls=8, exec_time=1.0),
            protocol=netsolve_style_protocol(),
            seed=2,
        )
        assert report.completed >= report.submitted
