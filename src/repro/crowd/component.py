"""The ``tier.crowd`` platform component: a statistical client population.

One :class:`CrowdComponent` drives a :class:`~repro.crowd.table.CrowdTable`
of 100k-1M statistical clients from a single kernel callback-lane timer
(:meth:`Environment.call_periodic`): every tick it promotes due clients,
claims them into per-shard batches and emits **aggregated** RPC envelopes —
``CROWD_SUBMIT_BATCH`` messages carrying counts and id ranges — to the
coordinator owning each shard (see :class:`~repro.crowd.sharding.ShardMap`).
Real coordinators expand a batch into one task record and real servers
execute it unmodified; completions come back as ``CROWD_RESULT_BATCH``
pushes that are marked off vectorized.

Fault tolerance mirrors the full-protocol client: an unacknowledged or
unresulted batch is re-sent **under the same batch id** (so the coordinator
side de-duplicates on the task key and no client is ever committed twice);
after :data:`SUSPECT_AFTER` consecutive timeouts the silent coordinator is
suspected and the shard's traffic hands off deterministically to its ring
successor, whose replicated state already carries the shard's tasks.

numpy is required only here (lazily, at ``setup``): grids without a crowd
component never import it, and a missing numpy surfaces as a clear
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from typing import Any

from repro.core.registry import CoordinatorRegistry
from repro.crowd.sharding import ShardMap
from repro.errors import ConfigurationError
from repro.net.message import Message, MessageType
from repro.nodes.node import Host
from repro.platform.component import BaseComponent
from repro.platform.registry import component
from repro.types import Address

__all__ = ["CrowdComponent"]

#: per-batch envelope payload bytes: fixed header plus one (lo, hi, count)
#: triple per contiguous id range — the honest cost of range encoding.
_BATCH_HEADER_BYTES = 64
_BATCH_RANGE_BYTES = 12
#: consecutive unanswered batch deadlines before a coordinator is suspected.
SUSPECT_AFTER = 2
#: ticks between two aggregate heart-beats to every unsuspected coordinator.
HEARTBEAT_EVERY = 5


def _require_table():
    """Import the numpy-backed table, or explain what is missing."""
    try:
        from repro.crowd import table
    except ImportError as error:
        raise ConfigurationError(
            "crowd tier requires numpy: the struct-of-arrays population "
            "table is vectorized (pip install numpy, or drop the tier.crowd "
            f"component) [{error}]"
        ) from None
    return table


@component("tier.crowd")
class CrowdComponent(BaseComponent):
    """A crowd of ``n_clients`` statistical clients on one grid host."""

    #: marks this component as the aggregate tier for engines/reducers.
    tier = "crowd"

    def __init__(
        self,
        n_clients: int = 100_000,
        label: str = "crowd0",
        tick_period: float = 1.0,
        think_window: float = 600.0,
        surge_at: float | None = None,
        surge_factor: float = 1.0,
        exec_time_per_call: float = 0.001,
        result_bytes: int = 64,
        service: str = "crowd",
        retry_timeout: float = 15.0,
        result_patience: float = 60.0,
        name: str | None = None,
    ) -> None:
        super().__init__(name or f"tier.crowd:{label}")
        if tick_period <= 0:
            raise ConfigurationError("crowd tick_period must be positive")
        if retry_timeout <= 0 or result_patience <= 0:
            raise ConfigurationError("crowd retry deadlines must be positive")
        self.n_clients = int(n_clients)
        self.label = str(label)
        self.tick_period = float(tick_period)
        self.think_window = float(think_window)
        self.surge_at = None if surge_at is None else float(surge_at)
        self.surge_factor = float(surge_factor)
        self.exec_time_per_call = float(exec_time_per_call)
        self.result_bytes = int(result_bytes)
        self.service = str(service)
        self.retry_timeout = float(retry_timeout)
        self.result_patience = float(result_patience)

        # Populated by setup().
        self.env = None
        self.monitor = None
        self.host: Host | None = None
        self.table = None
        #: the table's tallies, kept by stop() when it drops the table.
        self._final_tallies: dict[str, int] = {}
        self.shards: ShardMap | None = None
        self.registry: CoordinatorRegistry | None = None
        # Resolved once by setup(): per-send / per-tick paths pay no
        # import, counter-name or series-name lookup.
        self._id_ranges = None
        self._ctr_batches_sent = None
        self._ctr_calls_batched = None
        self._queue_depth_series = None

        #: batch id -> {"ids", "shard", "dest", "acked", "retry_at", "resends"}
        self._batches: dict[int, dict[str, Any]] = {}
        self._batch_seq = 0
        #: consecutive unanswered deadlines per coordinator.
        self._strikes: dict[Address, int] = {}
        #: shard -> reroute time, until the successor first answers.
        self._handoff_pending: dict[int, float] = {}
        self._tick_handle = None
        self.started = False

        # Counters (also surfaced by stats()).
        self.ticks = 0
        self.client_ticks = 0
        self.batches_sent = 0
        self.batch_resends = 0
        self.reroutes = 0
        self.suspicions = 0
        self.handoffs_completed = 0
        self.handoff_latency_max = 0.0
        self.stale_results = 0
        self.max_queue_depth = 0
        self.surged_clients = 0

    # ------------------------------------------------------------------ setup
    @property
    def address(self) -> Address:
        return Address("crowd", self.label)

    def setup(self, grid) -> None:
        table = _require_table()
        self.env = grid.env
        self.monitor = grid.monitor
        coordinators = [c.address for c in grid.coordinators]
        if not coordinators:
            raise ConfigurationError("crowd tier needs at least one coordinator")
        address = self.address
        self.host = Host(
            grid.env,
            grid.network,
            address,
            rng=grid.rng.spawn(str(address)),
            monitor=grid.monitor,
        )
        grid.hosts[address] = self.host
        self.shards = ShardMap.over(coordinators, self.n_clients)
        self.registry = CoordinatorRegistry(coordinators=list(self.shards.coordinators))
        # Per-client lanes come from a crn.-prefixed stream: paired-CRN sweep
        # arms (same crn_seed) give every client identical think times, so a
        # policy axis never perturbs the crowd's arrival schedule.
        self.table = table.CrowdTable(
            self.n_clients,
            grid.rng.stream(f"crn.crowd.{self.label}"),
            think_window=self.think_window,
            now=grid.env.now,
        )
        self._id_ranges = table.id_ranges
        self._ctr_batches_sent = self.monitor.counter("crowd.batches_sent")
        self._ctr_calls_batched = self.monitor.counter("crowd.calls_batched")
        self._queue_depth_series = self.monitor.timeseries(
            f"crowd.queue_depth.{self.label}"
        )

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self.host is None:
            raise ConfigurationError(f"{self.name} started before setup")
        self.started = True
        self.host.on_message(self._dispatch)
        self._tick_handle = self.env.call_periodic(
            self.tick_period, self._tick, first_delay=self.tick_period
        )
        if self.surge_at is not None and self.surge_factor > 1.0:
            self.env.call_at(self.surge_at, self._apply_surge)

    def stop(self) -> None:
        """Stop ticking, and drop the population table once its tallies are
        kept: it is the tier's one large object, and stats() reads nothing
        else of it."""
        self.started = False
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        if self.table is not None:
            self._final_tallies = self._tallies()
            self.table = None

    def _apply_surge(self, _arg=None) -> None:
        if not self.started:
            return
        accelerated = self.table.surge(self.env.now, self.surge_factor)
        self.surged_clients += accelerated
        self.monitor.incr("crowd.surged_clients", accelerated)

    # ------------------------------------------------------------------ tick
    def _tick(self, _arg=None) -> None:
        """One vectorized advance of the whole population (callback lane)."""
        if not self.started:
            return
        now = self.env.now
        table = self.table
        self.ticks += 1
        self.client_ticks += table.n_clients
        table.due(now)
        suspected = self.registry.suspected

        # Claim every due client, one batch per shard per tick.
        for shard in range(self.shards.shard_count):
            lo, hi = self.shards.shard_bounds(shard)
            if hi <= lo:
                continue
            ids = table.claim(lo, hi)
            if ids.size == 0:
                continue
            batch_id = self._batch_seq
            self._batch_seq += 1
            dest = self.shards.owner(shard, suspected)
            if dest is None:
                # Everyone suspected: forgive and retry the primary (the same
                # all-suspected reset rule the full client uses).
                suspected.clear()
                dest = self.shards.coordinators[shard]
            record = {
                "ids": ids,
                "shard": shard,
                "dest": dest,
                "acked": False,
                "retry_at": now + self.retry_timeout,
                "resends": 0,
            }
            self._batches[batch_id] = record
            self._send_batch(batch_id, record)

        # Re-send every overdue batch (same batch id: the coordinator side
        # de-duplicates on the task key, so duplicates are counted, not
        # double-committed).  Only an unacked batch strikes its coordinator:
        # an acked one waited past ``result_patience`` on a coordinator that
        # answered.  Its re-send must draw a fresh ack: a live coordinator
        # re-acks the duplicate (and pushes a finished result again), a dead
        # one leaves it unacked, and the next deadline strikes it.
        for batch_id, record in list(self._batches.items()):
            if now < record["retry_at"]:
                continue
            if not record["acked"]:
                self._strike(record["dest"])
            self._resend(batch_id, record, now)

        if self.ticks % HEARTBEAT_EVERY == 0:
            self._send_heartbeats()

        depth = table.queue_depth()
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self._queue_depth_series.record(now, depth)

    # ------------------------------------------------------------- messaging
    def _send_batch(self, batch_id: int, record: dict[str, Any]) -> None:
        ids = record["ids"]
        ranges = self._id_ranges(ids)
        count = int(ids.size)
        payload = {
            "crowd": self.label,
            "shard": record["shard"],
            "batch": batch_id,
            "count": count,
            "id_lo": int(ids[0]),
            "id_hi": int(ids[-1]),
            "ranges": ranges,
            "service": self.service,
            "exec_time": count * self.exec_time_per_call,
            "result_bytes": self.result_bytes,
        }
        self.host.send(
            Message(
                mtype=MessageType.CROWD_SUBMIT_BATCH,
                source=self.host.address,
                dest=record["dest"],
                payload=payload,
                size_bytes=_BATCH_HEADER_BYTES + _BATCH_RANGE_BYTES * ranges,
            )
        )
        self.batches_sent += 1
        self._ctr_batches_sent.value += 1
        self._ctr_calls_batched.value += count

    def _resend(self, batch_id: int, record: dict[str, Any], now: float) -> None:
        record["resends"] += 1
        self.batch_resends += 1
        self.monitor.incr("crowd.batch_resends")
        dest = self.shards.owner(record["shard"], self.registry.suspected)
        if dest is None:
            self.registry.suspected.clear()
            dest = self.shards.coordinators[record["shard"]]
        if dest != record["dest"]:
            # Deterministic handoff: the shard's traffic moves to the ring
            # successor of the suspected owner.
            record["dest"] = dest
            self.reroutes += 1
            self.monitor.incr("crowd.reroutes")
            self._handoff_pending.setdefault(record["shard"], now)
        record["acked"] = False
        record["retry_at"] = now + self.retry_timeout * (1 + record["resends"])
        self._send_batch(batch_id, record)

    def _strike(self, dest: Address) -> None:
        strikes = self._strikes.get(dest, 0) + 1
        self._strikes[dest] = strikes
        if strikes >= SUSPECT_AFTER and dest not in self.registry.suspected:
            self.registry.suspect(dest)
            self.suspicions += 1
            self.monitor.incr("crowd.suspicions")

    def _send_heartbeats(self) -> None:
        """Aggregate heart-beat summaries, one per unsuspected coordinator."""
        table = self.table
        for dest in self.registry.unsuspected():
            self.host.send(
                Message(
                    MessageType.CROWD_HEARTBEAT,
                    self.host.address,
                    dest,
                    payload={
                        "crowd": self.label,
                        "alive": table.n_clients,
                        "completed": table.completed,
                    },
                    size_bytes=24,
                )
            )
            self.monitor.incr("crowd.heartbeats")

    # ---------------------------------------------------------------- receive
    def _dispatch(self, message: Message) -> None:
        source = message.source
        self.registry.rehabilitate(source)
        self._strikes.pop(source, None)
        mtype = message.mtype
        if mtype is MessageType.CROWD_SUBMIT_ACK:
            record = self._batches.get(int(message.payload.get("batch", -1)))
            if record is not None and source == record["dest"]:
                if not record["acked"]:
                    record["acked"] = True
                    record["retry_at"] = self.env.now + self.result_patience * (
                        1 + record["resends"]
                    )
                self._complete_handoff(record["shard"])
        elif mtype is MessageType.CROWD_RESULT_BATCH:
            record = self._batches.pop(int(message.payload.get("batch", -1)), None)
            if record is None:
                self.stale_results += 1
                self.monitor.incr("crowd.stale_results")
            else:
                new = self.table.mark_done(record["ids"])
                self.monitor.incr("crowd.completions", new)
                self._complete_handoff(record["shard"])

    def _complete_handoff(self, shard: int) -> None:
        started = self._handoff_pending.pop(shard, None)
        if started is None:
            return
        latency = self.env.now - started
        self.handoffs_completed += 1
        if latency > self.handoff_latency_max:
            self.handoff_latency_max = latency
        self.monitor.incr("crowd.handoffs")
        self.monitor.sample(f"crowd.handoff_latency.{self.label}", self.env.now, latency)

    # --------------------------------------------------------------- reporting
    def _tallies(self) -> dict[str, int]:
        """The population table's completion and per-state tallies."""
        table = self.table
        if table is None:
            return self._final_tallies
        return {
            "completed": table.completed,
            "duplicate_completions": table.duplicate_completions,
            **table.counts(),
        }

    def stats(self) -> dict[str, Any]:
        """Flat numeric snapshot (stamped into RunReport as ``crowd_*``)."""
        tallies = self._tallies()
        return {
            "clients": self.n_clients,
            "completed": tallies.get("completed", 0),
            "duplicate_completions": tallies.get("duplicate_completions", 0),
            "idle": tallies.get("idle", 0),
            "pending": tallies.get("pending", 0),
            "inflight": tallies.get("inflight", 0),
            "ticks": self.ticks,
            "client_ticks": self.client_ticks,
            "batches_sent": self.batches_sent,
            "batch_resends": self.batch_resends,
            "reroutes": self.reroutes,
            "suspicions": self.suspicions,
            "handoffs": self.handoffs_completed,
            "handoff_latency_max": self.handoff_latency_max,
            "stale_results": self.stale_results,
            "surged_clients": self.surged_clients,
            "max_queue_depth": self.max_queue_depth,
        }
