"""Crowd-tier tests: sharding, the population table, and shard handoff.

The table answers its per-tick questions from an event-time schedule; the
full-column mask implementation it replaced is kept here as the reference
(``_MaskTable``) and the two are compared after every step of seeded random
and Hypothesis-generated op sequences, in the ``tests/test_dataplane.py``
style.

The integration tests drive a real grid — live coordinators and servers —
with the statistical crowd riding the aggregated batch envelopes, including
the ISSUE's headline fault: kill one of k sharded coordinators mid-surge
and prove the ring successor adopts the shard with no client ever committed
twice.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crowd.sharding import ShardMap
from repro.crowd.table import DONE, IDLE, INFLIGHT, PENDING, CrowdTable
from repro.errors import ConfigurationError
from repro.net.message import Message, MessageType
from repro.scenarios.engine import GridTopology
from repro.scenarios.runner import run_scenario
from repro.types import Address, TaskState


def _coordinators(k: int) -> list[Address]:
    return [Address("coordinator", f"cluster-k{i}") for i in range(k)]


class TestShardMap:
    def test_ring_order_and_dedup(self):
        shards = ShardMap.over(reversed(_coordinators(3)), 9)
        assert [a.name for a in shards.coordinators] == [
            "cluster-k0", "cluster-k1", "cluster-k2",
        ]
        assert ShardMap.over(_coordinators(2) * 3, 4).shard_count == 2
        with pytest.raises(ConfigurationError):
            ShardMap.over([], 4)
        with pytest.raises(ConfigurationError):
            ShardMap.over(_coordinators(2), -1)

    @pytest.mark.parametrize("n,k", [(9, 3), (10, 3), (11, 3), (1, 4), (100, 7)])
    def test_bounds_partition_exactly(self, n, k):
        shards = ShardMap.over(_coordinators(k), n)
        covered = []
        for shard in range(k):
            lo, hi = shards.shard_bounds(shard)
            covered.extend(range(lo, hi))
            # Blocks differ in size by at most one.
            assert hi - lo in (n // k, n // k + 1)
        assert covered == list(range(n))

    def test_owner_walks_ring_past_suspected(self):
        shards = ShardMap.over(_coordinators(3), 9)
        k0, k1, k2 = shards.coordinators
        assert shards.owner(1) == k1
        assert shards.owner(1, {k1}) == k2
        assert shards.owner(2, {k2}) == k0
        assert shards.owner(1, {k1, k2}) == k0
        assert shards.owner(0, {k0, k1, k2}) is None

    def test_out_of_range_raises(self):
        shards = ShardMap.over(_coordinators(2), 4)
        with pytest.raises(ConfigurationError):
            shards.shard_bounds(2)


class TestCrowdTable:
    def _table(self, n=100, window=50.0, seed=3):
        np = pytest.importorskip("numpy")
        from repro.crowd.table import CrowdTable

        return CrowdTable(n, np.random.default_rng(seed), think_window=window)

    def test_arrivals_within_window_and_lifecycle(self):
        np = pytest.importorskip("numpy")
        from repro.crowd import table as t

        tab = self._table()
        due_at = _due_times(tab)
        assert (due_at >= 0).all() and (due_at < 50.0).all()
        assert tab.due(25.0) == int(np.count_nonzero(due_at <= 25.0))
        ids = tab.claim(0, 100)
        assert (tab.state[ids] == t.INFLIGHT).all()
        assert tab.queue_depth() == ids.size
        new = tab.mark_done(ids)
        assert new == ids.size and tab.completed == ids.size
        # A duplicate completion is counted, never double-committed.
        assert tab.mark_done(ids) == 0
        assert tab.duplicate_completions == ids.size
        assert tab.completed == ids.size

    def test_surge_compresses_preserving_order(self):
        np = pytest.importorskip("numpy")
        tab = self._table()
        before = _due_times(tab)
        future = (tab.state == 0) & (before > 10.0)
        accelerated = tab.surge(10.0, 100.0)
        after = _due_times(tab)
        assert accelerated == int(np.count_nonzero(future))
        assert (after[future] <= 10.0 + 40.0 / 100.0 + 1e-9).all()
        order_before = np.argsort(before[future], kind="stable")
        order_after = np.argsort(after[future], kind="stable")
        assert (order_before == order_after).all()

    def test_lanes_are_deterministic_per_seed(self):
        np = pytest.importorskip("numpy")
        a, b = self._table(seed=9), self._table(seed=9)
        assert np.array_equal(a._order, b._order)
        assert np.array_equal(a._times, b._times)

    def test_claimed_and_pending_ids_are_int32(self):
        tab = self._table()
        tab.due(25.0)
        assert tab._pending.dtype == np.int32
        ids = tab.claim(0, 50)
        assert ids.size and ids.dtype == np.int32
        assert tab._pending.dtype == np.int32

    @pytest.mark.parametrize(
        "think_window, now",
        [(float("nan"), 0.0), (float("inf"), 0.0), (0.0, 0.0), (-1.0, 0.0),
         (10.0, float("nan")), (10.0, float("inf"))],
    )
    def test_non_finite_or_non_positive_window_or_start_raises(self, think_window, now):
        with pytest.raises(ValueError):
            CrowdTable(10, np.random.default_rng(0), think_window=think_window, now=now)

    def test_id_ranges_counts_contiguous_runs(self):
        np = pytest.importorskip("numpy")
        from repro.crowd.table import id_ranges

        assert id_ranges(np.array([], dtype=np.int64)) == 0
        assert id_ranges(np.array([4])) == 1
        assert id_ranges(np.array([1, 2, 3, 7, 8, 11])) == 3


def _due_times(table):
    """Every client's due time, scattered back from the table's schedule.

    Exact for IDLE clients; a promoted or completed client's slot keeps
    whatever a later surge wrote there, which nothing reads.
    """
    due_at = np.empty(table.n_clients)
    due_at[table._order] = table._times
    return due_at


def _lane_uniform(lane, salt):
    """Uniform [0, 1) per lane: the splitmix64 finalizer of ``lane + salt * gamma``,
    written out of place, one expression per step."""
    with np.errstate(over="ignore"):
        z = lane + np.uint64(salt) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


class _MaskTable:
    """The scan implementation the schedule replaced: the reference model.

    Every question is answered by a mask over the full ``state`` /
    ``submit_at`` columns, which is obviously right and O(population).
    """

    def __init__(self, submit_at):
        self.submit_at = submit_at.copy()
        self.state = np.zeros(submit_at.size, dtype=np.int8)
        self.completed = 0
        self.duplicate_completions = 0

    def due(self, now):
        mask = (self.state == IDLE) & (self.submit_at <= now)
        self.state[mask] = PENDING
        return int(np.count_nonzero(mask))

    def claim(self, lo, hi):
        ids = np.flatnonzero(self.state[lo:hi] == PENDING) + lo
        self.state[ids] = INFLIGHT
        return ids

    def mark_done(self, ids):
        new = int(np.count_nonzero(self.state[ids] != DONE))
        self.state[ids] = DONE
        self.completed += new
        self.duplicate_completions += int(ids.size) - new
        return new

    def surge(self, now, factor):
        if factor <= 1.0:
            return 0
        mask = (self.state == IDLE) & (self.submit_at > now)
        self.submit_at[mask] = now + (self.submit_at[mask] - now) / factor
        return int(np.count_nonzero(mask))

    def counts(self):
        histogram = np.bincount(self.state, minlength=4)
        return dict(zip(("idle", "pending", "inflight", "done"), map(int, histogram)))

    def queue_depth(self):
        return int(np.count_nonzero((self.state == PENDING) | (self.state == INFLIGHT)))


#: ``base`` 2**53 with an 8 s window leaves five representable due times, so
#: nearly every client ties with others; base 0 gives distinct times.
_TIE_BASE = 2.0**53
_WINDOW = 8.0
#: surge factors: the no-op ones (<= 1) included.
_FACTORS = (0.5, 1.0, 1.5, 7.0, 100.0)


class _Pair:
    """A :class:`CrowdTable` and its reference, driven in lockstep."""

    def __init__(self, n, seed, base):
        self.n = n
        self.base = base
        self.fast = CrowdTable(
            n, np.random.default_rng(seed), think_window=_WINDOW, now=base
        )
        self.slow = _MaskTable(_due_times(self.fast))
        #: every batch ever claimed (in flight or since completed).
        self.batches = []

    def apply(self, op):
        """Run one op on both tables and compare everything observable.

        Times are fractions of the think window (so they can fall before,
        inside and after it), id bounds fractions of the population.
        """
        fast, slow = self.fast, self.slow
        kind = op[0]
        if kind == "due":
            now = self.base + op[1] * _WINDOW
            assert fast.due(now) == slow.due(now), op
        elif kind == "claim":
            lo, hi = sorted(int(f * self.n) for f in op[1:])
            ids = fast.claim(lo, hi)
            assert np.array_equal(ids, slow.claim(lo, hi)), op
            if ids.size:
                self.batches.append(ids)
        elif kind == "done_batch":
            # An in-flight batch the first time, a duplicate afterwards.
            if self.batches:
                ids = self.batches[op[1] % len(self.batches)]
                assert fast.mark_done(ids) == slow.mark_done(ids), op
        elif kind == "done_range":
            # Any ids at all: idle, pending (never claimed), in flight, done.
            lo, hi = sorted(int(f * self.n) for f in op[1:3])
            ids = np.arange(lo, hi, op[3])
            assert fast.mark_done(ids) == slow.mark_done(ids), op
        elif kind == "surge":
            now = self.base + op[1] * _WINDOW
            assert fast.surge(now, op[2]) == slow.surge(now, op[2]), op
        else:  # pragma: no cover - generator bug
            raise AssertionError(op)
        assert np.array_equal(fast.state, slow.state), op
        idle = slow.state == IDLE
        assert np.array_equal(_due_times(fast)[idle], slow.submit_at[idle]), op
        assert fast.queue_depth() == slow.queue_depth(), op
        assert fast.counts() == slow.counts(), op
        assert fast.completed == slow.completed, op
        assert fast.duplicate_completions == slow.duplicate_completions, op


def _random_op(rng):
    kind = rng.choice(
        ["due"] * 4 + ["claim"] * 4 + ["done_batch"] * 2 + ["done_range", "surge"]
    )
    if kind == "due":
        # Unordered on purpose: repeated and decreasing ``now`` included.
        return ("due", rng.choice([rng.uniform(-0.1, 1.2), 0.25, 0.5]))
    if kind == "claim":
        return ("claim", rng.random(), rng.random())
    if kind == "done_batch":
        return ("done_batch", rng.randrange(1 << 16))
    if kind == "done_range":
        return ("done_range", rng.random(), rng.random(), rng.randint(1, 5))
    return ("surge", rng.uniform(-0.1, 1.1), rng.choice(_FACTORS))


_FRACTION = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_TIME = st.floats(min_value=-0.1, max_value=1.2, allow_nan=False)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("due"), _TIME),
        st.tuples(st.just("claim"), _FRACTION, _FRACTION),
        st.tuples(st.just("done_batch"), st.integers(0, 1 << 16)),
        st.tuples(st.just("done_range"), _FRACTION, _FRACTION, st.integers(1, 5)),
        st.tuples(st.just("surge"), _TIME, st.sampled_from(_FACTORS)),
    ),
    max_size=30,
)


class TestScheduleMatchesMaskScan:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_random_op_sequences(self, seed):
        rng = random.Random(seed)
        n = rng.choice([1, 7, 64, 257])
        pair = _Pair(n, seed, _TIE_BASE if seed % 3 == 0 else 0.0)
        # Per-shard claims over uneven bounds, the way the component ticks.
        shards = ShardMap.over(_coordinators(rng.choice([1, 3, 5])), n)
        for _ in range(120):
            op = _random_op(rng)
            pair.apply(op)
            if op[0] == "due" and rng.random() < 0.5:
                for shard in range(shards.shard_count):
                    lo, hi = shards.shard_bounds(shard)
                    pair.apply(("claim", lo / n, hi / n))
        # Drain: every client ends DONE exactly once through either table.
        pair.apply(("due", 2.0))
        pair.apply(("claim", 0.0, 1.0))
        # Claimed ids leave the pending set (else claim cost grows with
        # everyone ever due, not with the batch).
        assert pair.fast._pending.size == 0
        for index in range(len(pair.batches)):
            pair.apply(("done_batch", index))
        assert pair.fast.completed == pair.fast.n_clients and pair.fast.queue_depth() == 0

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 1 << 16),
        base=st.sampled_from([0.0, _TIE_BASE]),
        ops=_OPS,
    )
    # Tied due times straddling a promotion, a surge and a second promotion
    # at an *earlier* clock reading.
    @example(
        n=16,
        seed=1,
        base=_TIE_BASE,
        ops=[
            ("due", 0.5),
            ("claim", 0.0, 0.5),
            ("surge", 0.25, 100.0),
            ("due", 0.3),
            ("claim", 0.0, 1.0),
            ("done_batch", 0),
            ("done_batch", 0),
            ("due", 1.0),
        ],
    )
    # Completed before ever due or claimed, then surged and promoted.
    @example(
        n=16,
        seed=2,
        base=_TIE_BASE,
        ops=[
            ("done_range", 0.0, 1.0, 3),
            ("due", 0.25),
            ("done_range", 0.0, 1.0, 2),
            ("surge", 0.25, 7.0),
            ("claim", 0.25, 1.0),
            ("due", 0.5),
            ("claim", 0.0, 1.0),
        ],
    )
    def test_property_any_op_sequence(self, n, seed, base, ops):
        pair = _Pair(n, seed, base)
        if base:
            assert np.unique(_due_times(pair.fast)).size <= 5
        for op in ops:
            pair.apply(op)

    def test_tick_allocates_for_the_due_not_the_population(self):
        """``due`` + per-shard ``claim`` + ``queue_depth`` are O(clients due).

        numpy reports its buffers to ``tracemalloc``, so the peak traced
        during one tick bounds every temporary the tick created: a full-
        column mask over 1M rows alone is 1 MB.
        """
        n, k = 1_000_000, 500
        fast = CrowdTable(n, np.random.default_rng(5), think_window=600.0)
        due_at = _due_times(fast)
        slow = _MaskTable(due_at)
        now = float(np.partition(due_at, k - 1)[k - 1])
        bounds = [(i * n // 4, (i + 1) * n // 4) for i in range(4)]

        def tick(table):
            tracemalloc.reset_peak()
            floor = tracemalloc.get_traced_memory()[0]
            promoted = table.due(now)
            claimed = sum(table.claim(lo, hi).size for lo, hi in bounds)
            depth = table.queue_depth()
            return promoted, claimed, depth, tracemalloc.get_traced_memory()[1] - floor

        tracemalloc.start()
        try:
            *fast_result, fast_peak = tick(fast)
            *slow_result, slow_peak = tick(slow)
        finally:
            tracemalloc.stop()
        assert fast_result == slow_result == [k, k, k]
        assert fast_peak < 64 * 1024, fast_peak
        assert slow_peak >= 2_000_000, slow_peak

    def test_table_bytes_per_client(self):
        """state 1 + order 4 + sorted times 8 = 13 B."""
        n = 1000
        table = CrowdTable(n, np.random.default_rng(0), think_window=10.0)
        columns = {
            name: value
            for name, value in vars(table).items()
            if isinstance(value, np.ndarray) and value.size == n
        }
        assert sum(column.nbytes for column in columns.values()) == 13 * n, columns
        assert not {"lane", "submit_at", "retry_at", "batch", "backoff"} & set(
            vars(table)
        )

    @pytest.mark.parametrize(
        "n, base, window",
        [
            (5000, 0.0, _WINDOW),
            (5000, _TIE_BASE, _WINDOW),
            # Past 64 Ki clients the build works in chunks.  At 1M some
            # keys tie on their kept bits (~40 adjacent pairs at this seed);
            # a base of 2**50 leaves 13 distinct due times in a 3 s window.
            (1_000_000, 0.0, 600.0),
            (70_000, 2.0**50, 3.0),
        ],
    )
    def test_due_times_are_the_lane_formula_bit_for_bit(self, n, base, window):
        """The in-place build keeps every due time of ``now + window *
        u(lane, 1)``, recomputed here from a fresh draw of the same stream,
        and the order breaks ties by id: the sort key keeps only the top
        bits of each due time, and what it ties is re-sorted."""
        seed = 11
        stream = np.random.default_rng(seed)
        table = CrowdTable(n, stream, think_window=window, now=base)
        plain = np.random.default_rng(seed)
        lane = plain.integers(
            0, np.iinfo(np.uint64).max, size=n, dtype=np.uint64, endpoint=False
        )
        expected = base + window * _lane_uniform(lane, 1)
        assert np.array_equal(_due_times(table), expected)
        assert np.array_equal(table._order, np.argsort(expected, kind="stable"))
        # Drawn in chunks and twice, yet the stream ends where one plain draw
        # of n lanes leaves it.
        assert stream.bit_generator.state == plain.bit_generator.state

    def test_build_peak_is_the_schedule_and_its_argsort(self):
        """Building 1M clients holds at most ``state``, the order and the due
        times (or the sort key and the order it yields) plus one chunk's
        temporaries: ~13 B/client at the peak, where a stable argsort of the
        times took ~21."""
        tracemalloc.start()
        try:
            CrowdTable(1_000_000, np.random.default_rng(5), think_window=600.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20, peak

    def test_surge_allocates_only_the_idle_count(self):
        """``surge`` rewrites the tail in place; its only temporaries are the
        tail's ``state`` gather and mask, 2 B per unpromoted client."""
        n = 1_000_000
        table = CrowdTable(n, np.random.default_rng(5), think_window=600.0)
        table.due(100.0)
        tracemalloc.start()
        try:
            accelerated = table.surge(100.0, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert accelerated > 0.8 * n
        assert peak < 2.5 * 2**20, peak

    def test_counts_allocates_a_mask_not_a_cast_column(self):
        """The report counts one state at a time through a 1 B/client bool
        mask; a ``bincount`` of the int8 column would copy it to 8 B/client."""
        table = CrowdTable(1_000_000, np.random.default_rng(5), think_window=600.0)
        table.due(300.0)
        table.mark_done(table.claim(0, 500_000))
        tracemalloc.start()
        try:
            counts = table.counts()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(counts.values()) == 1_000_000 and counts["done"] > 0
        assert peak < 2 * 2**20, peak


class TestNumpyGate:
    def test_missing_numpy_is_a_configuration_error(self, monkeypatch):
        import sys

        import repro.crowd
        from repro.crowd.component import CrowdComponent, _require_table

        # Simulate the import failing (numpy absent): None in sys.modules
        # makes the submodule import raise ImportError.
        monkeypatch.delattr(repro.crowd, "table", raising=False)
        monkeypatch.setitem(sys.modules, "repro.crowd.table", None)
        with pytest.raises(ConfigurationError, match="requires numpy"):
            _require_table()
        # The component gate fires before any builder wiring is touched.
        with pytest.raises(ConfigurationError, match="requires numpy"):
            CrowdComponent(n_clients=10).setup(None)

    def test_invalid_parameters_raise(self):
        from repro.crowd.component import CrowdComponent

        with pytest.raises(ConfigurationError):
            CrowdComponent(tick_period=0.0)
        with pytest.raises(ConfigurationError):
            CrowdComponent(retry_timeout=-1.0)


def _run_crowd_grid(
    n_clients: int,
    *,
    n_coordinators: int = 3,
    surge_at: float | None = None,
    surge_factor: float = 1.0,
    kill: tuple[float, str] | None = None,
    think_window: float = 60.0,
    exec_time_per_call: float = 0.002,
    horizon: float = 400.0,
    delivery_hook=None,
):
    """A live grid serving a crowd; returns (grid, crowd) after the run."""
    pytest.importorskip("numpy")
    grid = GridTopology(
        n_servers=4, n_coordinators=n_coordinators, spread_servers=True
    ).build(None, seed=2)
    if delivery_hook is not None:
        grid.network.add_delivery_hook(delivery_hook)
    grid.start()
    crowd = grid.add_component(
        {
            "name": "tier.crowd",
            "params": {
                "n_clients": n_clients,
                "think_window": think_window,
                "exec_time_per_call": exec_time_per_call,
                "retry_timeout": 8.0,
                "result_patience": 30.0,
                "surge_at": surge_at,
                "surge_factor": surge_factor,
            },
        }
    )
    if kill is not None:
        at, target = kill
        grid.add_component(
            {
                "name": "inject.script",
                "params": {
                    "events": [{"time": at, "action": "kill", "target": target}]
                },
            }
        )
    grid.env.run(until=horizon)
    grid.stop()
    return grid, crowd


class TestCrowdIntegration:
    def test_crowd_completes_against_live_core(self):
        grid, crowd = _run_crowd_grid(500)
        stats = crowd.stats()
        assert stats["completed"] == 500
        assert stats["duplicate_completions"] == 0
        assert stats["batches_sent"] > 0
        kernel = grid.kernel_stats()
        assert kernel["events_processed"] > 0
        assert "pool_hit_rate" in kernel and "compactions" in kernel

    def test_a_coordinator_is_suspected_on_its_second_consecutive_miss(self):
        _, crowd = _run_crowd_grid(50, horizon=60.0)
        target = Address("coordinator", "cluster-k2")
        before = crowd.suspicions
        assert target not in crowd.registry.suspected
        crowd._strike(target)
        assert target not in crowd.registry.suspected
        # Any message from the coordinator clears its strikes, so two misses
        # separated by a reply are not consecutive.
        crowd._dispatch(
            Message(MessageType.CROWD_SUBMIT_ACK, target, crowd.host.address,
                    payload={"batch": -1})
        )
        crowd._strike(target)
        assert target not in crowd.registry.suspected
        crowd._strike(target)
        assert target in crowd.registry.suspected
        crowd._strike(target)
        assert crowd.suspicions == before + 1

    @pytest.mark.parametrize(
        "kill",
        [None, (100.0, "coordinator:cluster-k1"), (201.0, "coordinator:cluster-k1")],
    )
    def test_a_slow_result_is_not_a_dead_coordinator(self, kill):
        # 5 s of work per client against 4 servers: the backlog grows, so
        # acked batches wait well past result_patience (30 s) for results.
        _, crowd = _run_crowd_grid(
            300, think_window=200.0, exec_time_per_call=5.0, horizon=900.0, kill=kill
        )
        stats = crowd.stats()
        assert stats["completed"] == 300
        assert stats["duplicate_completions"] == 0
        assert stats["batch_resends"] > 0
        if kill is None:
            # Every coordinator acks: none is ever suspected.
            assert stats["suspicions"] == 0
            assert crowd.registry.suspected == set()
        else:
            # At 100 s the killed one stops acking its shard's new batches;
            # at 201 s, after the think window, no new batch goes to it, and
            # the re-sends of batches it acked before dying (held by no
            # replica yet) go unacked.  Either way unacked batches suspect it
            # (SUSPECT_AFTER strikes) and its shard is handed off.
            assert stats["suspicions"] == 1
            assert stats["handoffs"] >= 1
            assert crowd.registry.suspected == {Address("coordinator", "cluster-k1")}

    def test_heart_beats_go_to_every_coordinator_every_fifth_tick(self):
        grid, crowd = _run_crowd_grid(50, horizon=60.0)
        assert crowd.ticks >= 50
        assert grid.monitor.count("crowd.heartbeats") == 3 * (crowd.ticks // 5)

    def test_kept_crowd_messages_stay_as_delivered(self):
        kept = []

        def keep(message):
            if message.mtype.value.startswith("crowd-"):
                kept.append((message, (message.mtype, message.dest, dict(message.payload))))

        _run_crowd_grid(200, kill=(100.0, "coordinator:cluster-k1"), horizon=200.0,
                        delivery_hook=keep)
        assert any(m.mtype is MessageType.CROWD_HEARTBEAT for m, _ in kept)
        changed = [
            fields
            for message, fields in kept
            if (message.mtype, message.dest, message.payload) != fields
        ]
        assert changed == []

    def test_shard_handoff_on_coordinator_kill_mid_surge(self):
        # A wide think window keeps most of the population idle until the
        # surge compresses it, so the kill (2 s into the surge) catches the
        # dead coordinator's shard with batches still in flight.
        grid, crowd = _run_crowd_grid(
            1500,
            think_window=300.0,
            surge_at=30.0,
            surge_factor=100.0,
            kill=(32.0, "coordinator:cluster-k1"),
        )
        stats = crowd.stats()
        # The whole crowd still completes, exactly once per client.
        assert stats["completed"] == 1500
        assert stats["duplicate_completions"] == 0
        # The dead coordinator was suspected and its shard re-routed to the
        # ring successor, which acknowledged (completing the handoff).
        dead = Address("coordinator", "cluster-k1")
        assert dead in crowd.registry.suspected
        assert stats["suspicions"] >= 1
        assert stats["reroutes"] >= 1
        assert stats["handoffs"] >= 1
        assert stats["handoff_latency_max"] > 0.0
        assert crowd.shards.owner(1, crowd.registry.suspected) == Address(
            "coordinator", "cluster-k2"
        )
        # No batch double-commit: every batch key known anywhere finished on
        # at least one coordinator (a stale ONGOING replica on the dead
        # coordinator or behind replication lag is fine), every finished
        # record of a key agrees on its member count, and the distinct
        # batches partition the population exactly — the same client ids
        # never commit under two different batch keys.
        seen: set[tuple] = set()
        finished_counts: dict[tuple, set] = {}
        for coordinator in grid.coordinators:
            for key, task in coordinator.tasks.items():
                if not str(key[0]).startswith("crowd:"):
                    continue
                seen.add(key)
                if task.state is TaskState.FINISHED:
                    args = task.call.args or {}
                    finished_counts.setdefault(key, set()).add(args.get("count"))
        assert seen and seen == set(finished_counts), (
            seen - set(finished_counts)
        )
        assert all(len(sizes) == 1 for sizes in finished_counts.values())
        assert sum(next(iter(s)) for s in finished_counts.values()) == 1500

    def test_flash_crowd_rows_deterministic_across_jobs(self):
        pytest.importorskip("numpy")
        sequential = run_scenario("flash-crowd", scale="tiny", jobs=1)
        parallel = run_scenario("flash-crowd", scale="tiny", jobs=4)
        # The reduce selects only protocol/crowd fields, so rows are exactly
        # reproducible whatever the worker layout (the per-cell kernel
        # snapshot is scheduler bookkeeping and deliberately stays out of rows).
        assert sequential.rows == parallel.rows
        assert sequential.rows[0]["crowd_completion_ratio"] == 1.0
        assert all(row["double_committed"] == 0 for row in sequential.rows)
        assert any(row["handoffs"] >= 1 for row in sequential.rows)
        # Paired CRN arms saw identical fault-stream draws (the runner
        # enforces this; assert it survived the store round-trip too).
        fingerprints = {
            tuple(sorted(cell["outputs"]["fault_streams"].items()))
            for cell in sequential.cells
        }
        assert len(fingerprints) == 1
