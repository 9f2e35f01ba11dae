"""Structural counts of the kernel, transport and coordinator hot paths.

Each test drives one hot path at the smallest scale where its assertion
binds and checks counts, never time, so it gives the same answer on any
host: the schedule holds no more than a small multiple of its live entries,
lossless links deliver everything, a same-tick fan-in resumes nothing, live
coordinators schedule a preloaded backlog, and a suspicion storm requeues
exactly what the suspected servers held.  A delta round's entries and their
order are checked in ``tests/test_taskindex.py::TestDeltaBuild``.
"""

from __future__ import annotations

from repro.config import ProtocolConfig
from repro.core.taskindex import TaskIndex
from repro.grid.builder import build_grid
from repro.grid.deployment import confined_cluster_spec
from repro.net.latency import CompositeLinkModel, LanLinkModel
from repro.net.message import Message, MessageType
from repro.net.transport import Network
from repro.policies.scheduling import FifoReschedulePolicy
from repro.sim.core import AnyOf, Environment, Timeout
from repro.sim.rng import RandomStreams
from repro.types import Address, TaskState
from tests.support import PerfectLinkModel

from test_perf_scaling import calls, pending_table


def _join(processes):
    """Process that ends once every one of ``processes`` has ended."""
    for process in processes:
        yield process


# ------------------------------------------------------------------ kernel
def test_heart_beat_watchdogs_are_compacted():
    """1 s heart-beats, each re-arming a 30 s watchdog, on ``Environment()``.

    Every beat tombstones the previous watchdog, so the heap holds 200 live
    entries throughout and only the compactor keeps tombstones from piling
    up beside them.
    """
    nodes, beats_per_node = 100, 20
    env = Environment()
    watchdogs: list = [None] * nodes

    def suspect(_arg) -> None:  # pragma: no cover - never fires
        raise AssertionError("watchdog fired while beats kept arriving")

    def beat(index: int) -> None:
        if watchdogs[index] is not None:
            watchdogs[index].cancel()
        watchdogs[index] = env.call_at_cancellable(env.now + 30.0, suspect, None)

    for index in range(nodes):
        env.call_periodic(1.0, beat, index, first_delay=(index + 1) / nodes)
    env.run(until=float(beats_per_node))

    stats = env.queue_stats()
    assert stats["compactions"] >= 1, stats
    assert stats["dead_entries"] <= stats["live_entries"], stats
    limit = 2 * stats["live_entries"] + Environment._COMPACTION_MIN_DEAD
    assert stats["peak_heap_size"] <= limit, stats


def test_a_lost_timer_ladder_leaves_no_residue():
    """Every round a reply races six protocol timers and wins."""
    nodes, rounds = 100, 20
    env = Environment()

    def node():
        for _ in range(rounds):
            race = [Timeout(env, 0.05)]
            race += [Timeout(env, delay) for delay in (5.0, 5.0, 5.0, 10.0, 30.0, 60.0)]
            yield AnyOf(env, race)

    samples: list[dict] = []

    def sampler():
        while True:
            yield Timeout(env, 1.0)
            samples.append(env.queue_stats())

    workers = [env.process(node()) for _ in range(nodes)]
    env.process(sampler())
    env.run(until=env.process(_join(workers)))

    stats = env.queue_stats()
    assert stats["peak_heap_size"] < 16 * nodes, stats
    max_live = max(s["live_entries"] for s in samples)
    max_dead = max(s["dead_entries"] for s in samples)
    # Compaction starts once tombstones reach the live population.
    assert max_dead < 1.5 * max_live, (max_dead, max_live)


# --------------------------------------------------------------- transport
def test_every_message_is_delivered_and_the_heap_holds_only_flight():
    """Nodes alternate a zero-delay same-site and a jittered cross-site send."""
    nodes, messages = 100, 10
    env = Environment()
    addresses = [Address("node", f"n{index:05d}") for index in range(nodes)]
    half = nodes // 2
    network = Network(
        env,
        link_model=CompositeLinkModel(
            site_of={a: ("east" if i < half else "west") for i, a in enumerate(addresses)},
            intra_site=PerfectLinkModel(latency=0.0),
            inter_site=LanLinkModel(jitter=0.05),
        ),
        rng=RandomStreams(7),
    )

    def sender(index: int):
        offset = 0 if index < half else half
        targets = (offset + (index - offset + 1) % half, (index + half) % nodes)
        for round_index in range(messages):
            network.send(Message(
                mtype=MessageType.PING,
                source=addresses[index],
                dest=addresses[targets[round_index % 2]],
                size_bytes=128,
            ))
            yield env.timeout(0.001)

    samples: list[int] = []

    def sampler():
        while True:
            yield env.timeout(0.001)
            samples.append(env.queue_stats()["heap_size"])

    for address in addresses:
        network.register(address).handler = lambda message: None
    senders = [env.process(sender(index)) for index in range(nodes)]
    watcher = env.process(sampler())
    env.run(until=env.process(_join(senders)))
    watcher.kill()
    env.run()

    stats = network.stats()
    assert stats["net.sent"] == nodes * messages, stats
    assert stats["net.delivered"] == stats["net.sent"], stats
    assert env.queue_stats()["dead_entries"] == 0
    assert max(samples) < 4 * nodes, (max(samples), nodes)


def test_heart_beat_fan_in_is_one_resume_per_tick():
    """100 servers per coordinator beat in phase over a zero-delay link.

    Each coordinator handles its beats in the delivery callback: no process
    is resumed, and a delivered beat costs its delivery's one kernel event.
    """
    senders, beats, per_coordinator = 200, 5, 100
    env = Environment()
    network = Network(env, link_model=PerfectLinkModel(latency=0.0))
    n_coordinators = senders // per_coordinator
    coordinators = [
        network.register(Address("coordinator", f"c{i:04d}"))
        for i in range(n_coordinators)
    ]
    servers = [Address("server", f"s{i:05d}") for i in range(senders)]
    for address in servers:
        network.register(address)
    handled = [0]

    def handle(message) -> None:
        handled[0] += 1

    def beat_all(_arg) -> None:
        for index, source in enumerate(servers):
            network.send(Message(
                MessageType.SERVER_HEARTBEAT,
                source,
                coordinators[index % n_coordinators].address,
                {"working_on": None},
                size_bytes=128,
            ))

    for endpoint in coordinators:
        endpoint.handler = handle
    env.call_periodic(1.0, beat_all, None)
    env.run(until=beats + 0.5)

    stats = network.stats()
    assert stats["net.sent"] == senders * beats, stats
    assert stats["net.delivered"] == handled[0] == stats["net.sent"], (handled, stats)
    # One event per delivered beat plus the beat timer's firings: no resume.
    assert env.queue_stats()["events_processed"] == handled[0] + beats


# ------------------------------------------------------------- coordinator
def test_live_coordinators_schedule_and_commit_from_a_preloaded_backlog():
    """4 coordinators, 16 servers, 1k pending tasks seeded as replicated."""
    protocol = ProtocolConfig()
    protocol.coordinator.replication.period = 10.0
    spec = confined_cluster_spec(
        n_servers=16, n_coordinators=4, n_clients=1, protocol=protocol, seed=11
    )
    names = [f"cluster-k{i}" for i in range(4)]
    grid = build_grid(spec, server_preferred=lambda idx, _site: names[idx % 4])
    grid.start()
    for owner, coordinator in enumerate(grid.coordinators):
        coordinator.preload_tasks(calls(f"bench{owner}", 250), mark_dirty=False)
    assignments = grid.monitor.counter("coordinator.assignments")
    while assignments.value < 64 and grid.env.now < 4000.0:
        grid.env.run(until=grid.env.now + 0.5)
    assert assignments.value >= 64, grid.env.now
    assert grid.monitor.counter("coordinator.results").value > 0


def test_a_suspicion_storm_requeues_exactly_what_the_servers_held():
    """1,000 one-task servers are suspected in turn."""
    servers = [Address("server", f"s{i:04d}") for i in range(1_000)]
    policy = FifoReschedulePolicy()
    index = TaskIndex(pending_table(2_000))
    for server in servers:
        index.note(policy.pick(index, server, "k0", lambda _owner: False, now=0.0).task)
    assert index._counts[TaskState.ONGOING] == len(servers) and index.pending == 1_000
    for server in servers:
        requeued = policy.reschedule_for_suspected_server(index, server, "k0")
        assert len(requeued) == 1
        for record in requeued:
            index.note(record)
    assert index.pending == 2_000 and index._counts[TaskState.ONGOING] == 0
