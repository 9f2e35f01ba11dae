"""Transport performance benchmark: the zero-allocation delivery pipeline.

``Network.send`` used to allocate a full ``Timeout`` event plus a closure per
message and pay two stream-registry lookups and three string-keyed counter
increments; deliveries now ride the kernel's bare ``call_at`` callback lane
(one heap tuple per in-flight message, zero event allocation), the loss/delay
streams and monitor counters are pre-resolved handles, and the link model is
resolved once per (source, dest) pair through the route cache.

The scenario exercises exactly that pipeline at grid scale: *n* nodes split
over two sites exchange messages alternating between a **zero-delay**
same-site link (a ``PerfectLinkModel`` with zero latency — deliveries join
the same-tick lane and never touch the heap) and a **nonzero-delay**
cross-site LAN link (deliveries become future heap callbacks).  Every node
runs a receive loop, so each delivery also wakes a blocked mailbox getter —
the full send → route → deliver → resume path.

Running this file writes ``BENCH_transport.json`` under ``--bench-out`` with
transport events/sec (sends + deliveries per wall second) at 1k, 5k and 10k
nodes; CI diffs it against the committed baseline and fails on a >20%
events/sec regression (see ``benchmarks/check_bench_regression.py``).
"""

from __future__ import annotations

import json
import time

from repro.net.latency import CompositeLinkModel, LanLinkModel, PerfectLinkModel
from repro.net.message import Message, MessageType
from repro.net.transport import Network
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams
from repro.types import Address

BENCH_NAME = "BENCH_transport.json"

#: nodes -> messages per node (messages shrink at scale to bound runtime).
SCALES = {1000: 40, 5000: 16, 10000: 10}
#: think time between two sends of one node (keeps traffic interleaved).
SEND_GAP = 0.001
#: payload bytes per message.
MESSAGE_BYTES = 128

#: fan-in workload: servers per coordinator (the grid's natural shape).
FANIN_RATIO = 100
#: fan-in scales: senders -> beats per sender.
FANIN_SCALES = {1000: 40, 5000: 16, 10000: 10}
#: heart-beat period of the fan-in senders (all in phase, so every tick
#: lands FANIN_RATIO same-tick deliveries per coordinator mailbox).
FANIN_BEAT = 1.0
#: best-of runs per scale (same rationale as the kernel benchmark: host
#: scheduling noise only ever slows a run down, so the best of a few
#: interleaved reps is the unbiased estimate of the pipeline's actual cost,
#: and the committed baseline inherits that robustness).
REPS = 3


def _addresses(nodes: int) -> list[Address]:
    return [Address("node", f"n{index:05d}") for index in range(nodes)]


def _build_network(env: Environment, addresses: list[Address]) -> Network:
    half = len(addresses) // 2
    site_of = {
        address: ("east" if index < half else "west")
        for index, address in enumerate(addresses)
    }
    link_model = CompositeLinkModel(
        site_of=site_of,
        # Same-site messages are zero-delay: they exercise the same-tick lane.
        intra_site=PerfectLinkModel(latency=0.0),
        # Cross-site messages pay a jittered LAN delay: future heap callbacks.
        inter_site=LanLinkModel(jitter=0.05),
    )
    return Network(env, link_model=link_model, rng=RandomStreams(7))


def _sender(env: Environment, network: Network, addresses, index: int, messages: int):
    nodes = len(addresses)
    half = nodes // 2
    offset = 0 if index < half else half
    same_site = offset + (index - offset + 1) % half
    cross_site = (index + half) % nodes
    source = addresses[index]
    for round_index in range(messages):
        dest = addresses[same_site if round_index % 2 == 0 else cross_site]
        network.send(
            Message(
                mtype=MessageType.PING,
                source=source,
                dest=dest,
                size_bytes=MESSAGE_BYTES,
            )
        )
        yield env.timeout(SEND_GAP)


def _receiver(endpoint):
    while True:
        yield endpoint.recv()


def _heap_sampler(env: Environment, samples: list[dict]):
    while True:
        yield env.timeout(SEND_GAP)
        samples.append(env.queue_stats())


def _run_scenario(nodes: int, messages: int) -> dict:
    env = Environment()
    addresses = _addresses(nodes)
    network = _build_network(env, addresses)
    endpoints = [network.register(address) for address in addresses]
    for endpoint in endpoints:
        env.process(_receiver(endpoint))
    senders = [
        env.process(_sender(env, network, addresses, index, messages))
        for index in range(nodes)
    ]
    samples: list[dict] = []
    sampler = env.process(_heap_sampler(env, samples))

    start = time.perf_counter()
    # Run until every sender finished, then let the in-flight deliveries land
    # (receivers end up blocked on empty mailboxes, which is unscheduled).
    env.run(until=env.all_of(senders))
    sampler.kill()
    env.run()
    wall = time.perf_counter() - start

    stats = network.stats()
    queue_stats = env.queue_stats()
    sent = int(stats["net.sent"])
    delivered = int(stats["net.delivered"])
    peak_heap = max((s["heap_size"] for s in samples), default=0)

    # Determinism and pipeline invariants: lossless links deliver everything,
    # nothing is left tombstoned, and the heap never held more than the
    # in-flight cross-site messages plus the senders' pacing timers.
    assert sent == nodes * messages, stats
    assert delivered == sent, stats
    assert queue_stats["dead_entries"] == 0, queue_stats
    assert peak_heap < 4 * nodes, (peak_heap, nodes)

    return {
        "nodes": nodes,
        "messages_per_node": messages,
        "wall_seconds": round(wall, 4),
        "messages_sent": sent,
        "messages_delivered": delivered,
        "events_processed": queue_stats["events_processed"],
        "sampled_max_heap_size": peak_heap,
        "useful_events": sent + delivered,
        "events_per_sec": round((sent + delivered) / wall, 1),
    }


def _run_fanin(senders: int, beats: int) -> dict:
    """Heart-beat fan-in: pooled envelopes, batched coordinator wakeups.

    ``senders`` servers beat in phase at every tick toward
    ``senders / FANIN_RATIO`` coordinators over a zero-delay link, so each
    coordinator mailbox receives ``FANIN_RATIO`` same-tick deliveries.  The
    coordinators drain with ``recv_many`` — one resume per tick for the
    whole batch — and release every pooled envelope back to the free list.
    """
    from repro.net.message import MessagePool

    env = Environment()
    network = Network(env, link_model=PerfectLinkModel(latency=0.0))
    # Every sender's envelope is in flight at once each tick, so the free
    # list must hold one bucket entry per sender to serve the next beat.
    pool = MessagePool(max_per_bucket=senders)
    n_coordinators = max(senders // FANIN_RATIO, 1)
    coordinators = [
        network.register(Address("coordinator", f"c{i:04d}"))
        for i in range(n_coordinators)
    ]
    server_addresses = [
        Address("server", f"s{i:05d}") for i in range(senders)
    ]
    for address in server_addresses:
        network.register(address)

    drained = [0]
    resumes = [0]

    def _drain(endpoint):
        while True:
            batch = yield endpoint.recv_many()
            resumes[0] += 1
            drained[0] += len(batch)
            for message in batch:
                message.release()

    for endpoint in coordinators:
        env.process(_drain(endpoint))

    def _beat_all(_arg) -> None:
        for index, source in enumerate(server_addresses):
            network.send(
                pool.acquire(
                    MessageType.SERVER_HEARTBEAT,
                    source,
                    coordinators[index % n_coordinators].address,
                    {"working_on": None},
                    size_bytes=MESSAGE_BYTES,
                )
            )

    env.call_periodic(FANIN_BEAT, _beat_all, None)

    start = time.perf_counter()
    env.run(until=beats * FANIN_BEAT + 0.5)
    wall = time.perf_counter() - start

    stats = network.stats()
    sent = int(stats["net.sent"])
    delivered = int(stats["net.delivered"])
    pool_stats = pool.stats()

    # Lossless zero-delay fan-in: everything sent is delivered, drained in
    # one resume per coordinator per tick, and only the first beat allocates
    # fresh envelopes — every later beat is served from the free list.
    assert sent == senders * beats, stats
    assert delivered == sent, stats
    assert drained[0] == delivered, (drained, stats)
    assert resumes[0] == n_coordinators * beats, (resumes, n_coordinators)
    assert pool_stats["misses"] == senders, pool_stats
    assert pool_stats["dropped"] == 0, pool_stats

    useful = sent + delivered
    return {
        "senders": senders,
        "coordinators": n_coordinators,
        "beats_per_sender": beats,
        "wall_seconds": round(wall, 4),
        "messages_sent": sent,
        "messages_delivered": delivered,
        "receiver_resumes": resumes[0],
        "batch_size_mean": round(delivered / resumes[0], 2),
        "pool_hit_rate": round(pool_stats["hit_rate"], 6),
        "useful_events": useful,
        "events_per_sec": round(useful / wall, 1),
    }


def _pick_best(runs_by_scale: dict[int, list[dict]]) -> dict[str, dict]:
    """Best events/sec row per scale; all observed throughputs recorded."""
    results = {}
    for scale, runs in runs_by_scale.items():
        result = max(runs, key=lambda r: r["events_per_sec"])
        result["events_per_sec_runs"] = [r["events_per_sec"] for r in runs]
        results[str(scale)] = result
    return results


def test_transport_benchmark_writes_bench_json(bench_out):
    # Reps are interleaved across every scale of BOTH workloads (1k, 5k, 10k
    # point-to-point, then 1k, 5k, 10k fan-in, then the next rep of each)
    # rather than run in per-scale or per-workload blocks: host slow phases
    # last several seconds, so a block design lets one phase sink all of a
    # scale's reps at once — spreading the reps across the full benchmark
    # window keeps at least one rep per scale clear of any single phase.
    scenario_runs: dict[int, list[dict]] = {scale: [] for scale in SCALES}
    fanin_runs: dict[int, list[dict]] = {scale: [] for scale in FANIN_SCALES}
    for _ in range(REPS):
        for nodes, messages in SCALES.items():
            scenario_runs[nodes].append(_run_scenario(nodes, messages))
        for senders, beats in FANIN_SCALES.items():
            fanin_runs[senders].append(_run_fanin(senders, beats))
    scales = _pick_best(scenario_runs)
    fanin = _pick_best(fanin_runs)

    payload = {
        "benchmark": "transport-zero-allocation-delivery",
        "send_gap": SEND_GAP,
        "message_bytes": MESSAGE_BYTES,
        "metric": (
            "events_per_sec = transport events (sends + deliveries) / wall "
            "seconds; every message alternates a zero-delay same-site link "
            "(same-tick lane) and a jittered cross-site LAN link (heap "
            "callback lane); fanin_scales exercise pooled heart-beat "
            "envelopes drained through batched recv_many wakeups"
        ),
        "scales": scales,
        "fanin_scales": fanin,
    }
    (bench_out / BENCH_NAME).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nBENCH_transport.json: {json.dumps(scales, indent=2)}")
    print(f"fan-in: {json.dumps(fanin, indent=2)}")
