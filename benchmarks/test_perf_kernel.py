"""Kernel performance benchmarks: the four-lane scheduler at grid scale.

Two workloads, written to ``BENCH_kernel.json``:

**Periodic-heavy** (the headline ``scales`` section, flatness-gated in CI):
every node runs the RPC-V cadence pattern — a 1 s heart-beat driven by
``call_periodic`` (re-armed in place on the timer wheel, no per-beat event
allocation) that acquires and releases one pooled protocol envelope per beat
and re-arms a 30 s failure-detector watchdog (``call_at_cancellable`` →
O(1) wheel cancel on the next beat).  This is the load shape that used to
collapse with node count: per-beat heap pushes at O(log n) plus a fresh
``Message`` per heart-beat.  With the wheel lane and envelope pooling the
per-event cost is scale-independent, and CI enforces it: 10k-node events/sec
must stay ≥ 90% of the 1k-node number (``check_bench_regression.py
--flatness``).

**Cancel-heavy ladder** (the ``ladder_scales`` section): the reply-vs-
timer-ladder race workload, kept for continuity with earlier baselines; its
leak-freedom asserts (peak heap, dead-to-live ratio) hold the abandon
cascade to its promise.

Throughput is measured with the cycle collector off (the kernel's abandon
cascade keeps the event graph acyclic, so gen-0 rescans of live timers are
pure measurement noise); the committed numbers say so here so regenerated
baselines compare like with like.  CI diffs the json against the committed
baseline and fails on a >20% events/sec drop at any scale or a periodic
flatness ratio below 0.9.
"""

from __future__ import annotations

import gc
import json
import time

from repro.net.message import MessagePool, MessageType
from repro.sim.core import AnyOf, Environment, Timeout
from repro.types import Address

BENCH_NAME = "BENCH_kernel.json"

# --------------------------------------------------------------------------
# Periodic-heavy workload (headline): heart-beats + detector re-arms.
# --------------------------------------------------------------------------

#: nodes -> total beats (sim seconds shrink with scale to bound runtime).
PERIODIC_SCALES = {1000: 500_000, 5000: 500_000, 10000: 500_000}
#: heart-beat cadence per node (the protocol's detection-period order).
BEAT_PERIOD = 1.0
#: failure-detector suspicion horizon re-armed on every beat.
WATCHDOG_DELAY = 30.0
#: wheel geometry for the periodic scenario: fine-grained windows keep each
#: flush batch (and therefore the heap) small; 4096 slots cover 204.8 s,
#: comfortably past the 30 s watchdog horizon (overflows recorded anyway).
PERIODIC_WHEEL = {"wheel_granularity": 0.05, "wheel_slots": 4096}
#: CI floor for 10k-node ev/s as a fraction of 1k-node ev/s.
FLATNESS_FLOOR = 0.9
#: best-of runs per periodic scale: the flatness gate compares two absolute
#: throughputs, so scheduler noise on a loaded runner must not masquerade as
#: a scaling regression (noise only ever slows a run down — taking the best
#: of a few runs is the unbiased estimate of the kernel's actual cost).
PERIODIC_REPS = 3

# --------------------------------------------------------------------------
# Cancel-heavy ladder workload (continuity with pre-wheel baselines).
# --------------------------------------------------------------------------

#: virtual time until the reply wins each race.
REPLY_DELAY = 0.05
#: one abandoned timer per protocol tier for every end-to-end RPC
#: (submission retry, work-request retry, upload retry, poll period,
#: replication-ack suspicion, client-side result wait).
TIMER_LADDER = (5.0, 5.0, 5.0, 10.0, 30.0, 60.0)
#: nodes -> rounds per node (rounds shrink at the top scales to bound runtime).
LADDER_SCALES = {100: 100, 1000: 100, 5000: 40, 10000: 20}
#: sampling period (virtual seconds) for schedule-occupancy snapshots.
SAMPLE_PERIOD = 1.0


def _no_gc():
    """Context: cycle collector off for the timed region (see module doc)."""
    class _NoGC:
        def __enter__(self):
            self.was_enabled = gc.isenabled()
            gc.disable()

        def __exit__(self, *exc):
            if self.was_enabled:
                gc.enable()
            return False

    return _NoGC()


# -- periodic-heavy ---------------------------------------------------------


def _run_periodic(nodes: int, beats_target: int) -> dict:
    env = Environment(**PERIODIC_WHEEL)
    pool = MessagePool()
    address = Address("bench", 0)
    beats = [0]
    watchdogs: list = [None] * nodes

    def _suspect(_arg) -> None:  # pragma: no cover - never fires in-bench
        raise AssertionError("watchdog fired while beats kept arriving")

    def _make_beat(index: int):
        def _beat(_arg) -> None:
            # One pooled protocol envelope per beat (acquire -> release is
            # the emit -> consume path of heart-beat traffic).
            message = pool.acquire(
                MessageType.SERVER_HEARTBEAT, address, address,
                {"working_on": None},
            )
            beats[0] += 1
            handle = watchdogs[index]
            if handle is not None:
                handle.cancel()
            watchdogs[index] = env.call_at_cancellable(
                env.now + WATCHDOG_DELAY, _suspect, None
            )
            message.release()

        return _beat

    for index in range(nodes):
        env.call_periodic(
            BEAT_PERIOD,
            _make_beat(index),
            None,
            # Spread first beats uniformly across one period, like the
            # emitters' jittered start.
            first_delay=BEAT_PERIOD * (index + 1) / nodes,
        )

    sim_seconds = beats_target / nodes * BEAT_PERIOD
    with _no_gc():
        start = time.perf_counter()
        env.run(until=sim_seconds)
        wall = time.perf_counter() - start

    stats = env.queue_stats()
    pool_stats = pool.stats()
    # Useful events: every beat and every watchdog re-arm it performs.
    useful = 2 * beats[0]
    return {
        "nodes": nodes,
        "beats": beats[0],
        "wall_seconds": round(wall, 4),
        "useful_events": useful,
        "events_per_sec": round(useful / wall, 1),
        "events_processed": stats["events_processed"],
        "wheel_entries_end": stats["wheel_entries"],
        "peak_wheel_size": stats["peak_wheel_size"],
        "wheel_flushes": stats["wheel_flushes"],
        "wheel_overflows": stats["wheel_overflows"],
        "peak_heap_size": stats["peak_heap_size"],
        "compactions": stats["compactions"],
        "pool_hit_rate": round(pool_stats["hit_rate"], 6),
        "pool_pooled": pool_stats["pooled"],
    }


# -- cancel-heavy ladder ----------------------------------------------------


def _ladder_node(env: Environment, rounds: int):
    for _ in range(rounds):
        race = [Timeout(env, REPLY_DELAY)]
        race += [Timeout(env, delay) for delay in TIMER_LADDER]
        # The reply wins; AnyOf detaches from the ladder, whose timers are
        # then cancelled through the abandon cascade.
        yield AnyOf(env, race)


def _heap_sampler(env: Environment, samples: list[dict]):
    while True:
        yield Timeout(env, SAMPLE_PERIOD)
        samples.append(env.queue_stats())


def _run_ladder(nodes: int, rounds: int) -> dict:
    env = Environment()
    workers = [env.process(_ladder_node(env, rounds)) for _ in range(nodes)]
    samples: list[dict] = []
    sampler = env.process(_heap_sampler(env, samples))

    with _no_gc():
        start = time.perf_counter()
        # Run until every worker finished, then let the sampler's pending tick
        # drain on the same clock.
        env.run(until=env.all_of(workers))
        sampler.kill()
        env.run()
        wall = time.perf_counter() - start

    end_stats = env.queue_stats()
    max_live = max((s["live_entries"] for s in samples), default=0)
    max_dead = max((s["dead_entries"] for s in samples), default=0)
    max_heap = max((s["heap_size"] for s in samples), default=0)
    return {
        "nodes": nodes,
        "rounds_per_node": rounds,
        "wall_seconds": round(wall, 4),
        "events_processed": end_stats["events_processed"],
        "peak_heap_size": end_stats["peak_heap_size"],
        "peak_wheel_size": end_stats["peak_wheel_size"],
        "wheel_flushes": end_stats["wheel_flushes"],
        "wheel_overflows": end_stats["wheel_overflows"],
        "compactions": end_stats["compactions"],
        "sampled_max_live_entries": max_live,
        "sampled_max_dead_entries": max_dead,
        "sampled_max_heap_size": max_heap,
        # dead entries relative to live ones while the workload was running:
        # ~0 while the abandon cascade works, >>1 for a leaky kernel.
        "dead_to_live_ratio": round(max_dead / max_live, 4) if max_live else 0.0,
    }


def _useful_ladder_events(nodes: int, rounds: int) -> int:
    """Events a leak-free kernel must process for the ladder workload.

    Per round: the reply timeout plus the condition it triggers.  Per node:
    the initialisation event and the process-termination event.  (The heap
    sampler's ticks are excluded — they are measurement overhead, negligible
    at these scales.)
    """
    return nodes * (2 * rounds + 2)


def test_kernel_benchmark_writes_bench_json(bench_out):
    # ---- periodic-heavy scales (flatness-gated) --------------------------
    # Reps are interleaved across scales (1k, 5k, 10k, 1k, ...) rather than
    # run in per-scale blocks: host-scheduling slow phases last seconds, so
    # a block design would let one phase slow a single scale's whole block
    # and masquerade as a scaling trend in the flatness ratio.
    runs_by_scale: dict[int, list[dict]] = {nodes: [] for nodes in PERIODIC_SCALES}
    for _ in range(PERIODIC_REPS):
        for nodes, beats_target in PERIODIC_SCALES.items():
            runs_by_scale[nodes].append(_run_periodic(nodes, beats_target))
    periodic = {}
    for nodes, runs in runs_by_scale.items():
        result = max(runs, key=lambda run: run["events_per_sec"])
        result["events_per_sec_runs"] = [run["events_per_sec"] for run in runs]
        periodic[str(nodes)] = result
        # The wheel must absorb the whole cadence: nothing past the horizon,
        # and the pool must be serving (almost) every beat from the free list.
        assert result["wheel_overflows"] == 0, result
        assert result["pool_hit_rate"] > 0.99, result

    # ---- cancel-heavy ladder scales --------------------------------------
    ladder = {}
    for nodes, rounds in LADDER_SCALES.items():
        result = _run_ladder(nodes, rounds)
        useful = _useful_ladder_events(nodes, rounds)
        result["useful_events"] = useful
        result["events_per_sec"] = round(useful / result["wall_seconds"], 1)
        ladder[str(nodes)] = result

        # Leak-freedom invariants: the schedule never grows past a small
        # multiple of the live population, and tombstones never dominate.
        assert result["peak_heap_size"] < 16 * nodes, result
        # Compaction triggers once tombstones reach the live population, so
        # sampled dead can brush against live but never dominate it.
        assert result["dead_to_live_ratio"] < 1.5, result

    payload = {
        "benchmark": "kernel-four-lane-scheduler",
        "metric": (
            "scales: events_per_sec = periodic useful events (one beat + one "
            "watchdog re-arm per heart-beat) / wall seconds; ladder_scales: "
            "useful events (reply + condition per round, init + termination "
            "per node) / wall seconds"
        ),
        "beat_period": BEAT_PERIOD,
        "watchdog_delay": WATCHDOG_DELAY,
        "periodic_wheel": PERIODIC_WHEEL,
        "flatness_floor": FLATNESS_FLOOR,
        "reply_delay": REPLY_DELAY,
        "timer_ladder": list(TIMER_LADDER),
        "scales": periodic,
        "ladder_scales": ladder,
    }
    (bench_out / BENCH_NAME).write_text(json.dumps(payload, indent=2) + "\n")
    summary = {
        scale: row["events_per_sec"] for scale, row in periodic.items()
    }
    print(f"\nBENCH_kernel.json periodic ev/s: {summary}")
