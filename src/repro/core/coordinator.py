"""The RPC-V coordinator (middle tier).

The Coordinator service virtualises the servers for the clients: clients never
talk to servers directly.  Each coordinator component:

* registers client submissions as tasks in its **database** (descriptions) and
  keeps result archives in its file store — both persistent across crashes;
* answers server *work requests* with the FCFS scheduler, applying the replica
  de-duplication policy (finished: never; ongoing: only if the owner is
  suspected; pending: yes); a result upload asks for work too, and its ack
  carries the server's next task.  A request that finds nothing eligible is
  held for the window it carries: the next submission registered here
  answers it with a task, else the window's end answers it ``NO_WORK``;
* suspects servers through a heart-beat fault detector and reschedules their
  ongoing tasks ("on suspicion" replication);
* propagates a state abstract to its **ring successor** at every replication
  period (passive replication), suspecting the successor and recomputing the
  virtual ring when the acknowledgement does not come back;
* answers client result pulls and synchronisation requests, fetching result
  archives from the coordinator that holds them when it only learned of a
  completion through replication (archives themselves are never replicated).

Every request handled is charged the middleware processing overhead plus the
database costs, which is where the paper's infrastructure overhead and the
database-dominated replication times come from.
"""

from __future__ import annotations

from dataclasses import replace
from math import ceil, exp, log
from typing import Any

from repro.config import CoordinatorConfig, PolicyConfig
from repro.core.protocol import (
    CallDescription,
    ResultRecord,
    TASK_DESCRIPTION_BYTES,
    TaskRecord,
)
from repro.core.registry import CoordinatorRegistry
from repro.core.replication import ReplicaState, build_state, merge_state
from repro.core.synchronization import (
    ServerSyncPlan,
    plan_client_sync,
    plan_server_sync,
)
from repro.core.taskindex import TaskIndex
from repro.policies.resolve import make_policy
from repro.detect import FailureDetector, HeartbeatEmitter
from repro.net.message import Message, MessageType
from repro.nodes.database import Database, DatabaseModel
from repro.nodes.node import Host
from repro.sim.core import ProcessKilled
from repro.sim.monitor import Monitor
from repro.types import Address, CallIdentity, TaskState

__all__ = ["CoordinatorComponent"]

#: a queue wait up to this many seconds counts as none.
WAIT_FLOOR = 1e-6
#: queue-wait histogram buckets per factor of e: each is 1 % wide, so the
#: histogram stays small and a quantile read from it is at most 1 % high.
WAIT_BUCKETS_PER_E = 100
#: paid requests a task costs once registered, whichever coordinator serves
#: them: its result upload, whose ack also carries the server's next task.
PAID_REQUESTS_PER_TASK = 1


class CoordinatorComponent:
    """One coordinator replica of the Coordinator service."""

    def __init__(
        self,
        host: Host,
        registry: CoordinatorRegistry,
        config: CoordinatorConfig | None = None,
        monitor: Monitor | None = None,
        database_model: DatabaseModel | None = None,
        policies: PolicyConfig | None = None,
    ) -> None:
        self.host = host
        self.env = host.env
        self.registry = registry
        self.config = config or CoordinatorConfig()
        self.config.validate()
        self.monitor = monitor or host.monitor
        self.name = str(host.address)
        #: the ``policy.*`` selection this coordinator's strategies come from.
        self.policies = policies or PolicyConfig()

        # Persistent state (survives crashes).
        persistent = host.persistent
        self.tasks: dict[CallIdentity, TaskRecord] = persistent.setdefault(
            "coord:tasks", {}
        )
        self.results: dict[CallIdentity, ResultRecord] = persistent.setdefault(
            "coord:results", {}
        )
        self.client_timestamps: dict[tuple[str, str], int] = persistent.setdefault(
            "coord:timestamps", {}
        )
        self.database = persistent.setdefault(
            "coord:database", Database(database_model)
        )

        #: the grid's coordinators and servers by address, which the
        #: detectors read to score their suspicions (set by setup()).
        self._peers: dict[Address, Any] = {}

        # Volatile state (rebuilt by start()).
        self.scheduler = self._make_scheduler()
        self.replication_policy = self._make_replication_policy()
        self.server_detector = self._make_detector("detect")
        self.coordinator_detector = self._make_detector("detect.coordinators")
        self.known_servers: set[Address] = set()
        #: the change log: key -> stamp of its latest change not yet retired
        #: by an acknowledged round.  Stamps come from ``_change_seq``, which
        #: only grows, so a change made while a round is in flight outranks
        #: that round.  Insertion-ordered (dict, not set) so iteration is
        #: deterministic under hash randomization.
        self._changes: dict[CallIdentity, int] = {}
        self._change_seq = 0
        #: incrementally maintained views of the task and result tables.
        self.index = TaskIndex(self.tasks, self.results)
        #: round id -> {"event", "acks", "needed"} for in-flight rounds.
        self._rounds: dict[int, dict[str, Any]] = {}
        #: whether a peer's state abstract has ever arrived here (quorum
        #: recovery counts a recovery only then); kept across restarts.
        self.heard_a_replica = False
        #: key -> time of the last archive fetch attempt (retried if too old).
        self._archive_fetches_in_flight: dict[CallIdentity, float] = {}
        self._archive_fetch_attempts: dict[CallIdentity, int] = {}
        #: key -> last time the assigned server reported working on the task.
        self._task_activity: dict[CallIdentity, float] = {}
        #: server -> its held work request, oldest first (see _hold).
        self._held: dict[Address, Message] = {}
        self._replication_rounds = 0
        self._coord_heartbeat: HeartbeatEmitter | None = None
        self.started = False

        # Pre-resolved handles for the request-path counters: one name
        # lookup here, plain attribute adds on every submission/assignment/
        # result/replication afterwards.
        monitor = self.monitor
        self._ctr_submissions = monitor.counter("coordinator.submissions")
        self._ctr_duplicate_submissions = monitor.counter(
            "coordinator.duplicate_submissions"
        )
        self._ctr_assignments = monitor.counter("coordinator.assignments")
        self._ctr_results = monitor.counter("coordinator.results")
        self._ctr_duplicate_results = monitor.counter("coordinator.duplicate_results")
        self._ctr_replications = monitor.counter("coordinator.replications")
        self._ctr_crowd_batches = monitor.counter("coordinator.crowd_batches")
        self._ctr_crowd_calls = monitor.counter("coordinator.crowd_calls")
        self._ctr_duplicate_crowd_batches = monitor.counter(
            "coordinator.duplicate_crowd_batches"
        )

        # Service-queue load, kept across restarts (metrics, not protocol
        # state): simulated seconds spent inside handlers, handled messages
        # by type, and a histogram of every message's wait from delivery to
        # its handler's start.  See load().
        self.busy_s = 0.0
        self.handled: dict[MessageType, int] = {}
        #: wait bucket -> messages.  Bucket 0 holds the waits up to
        #: WAIT_FLOOR, bucket b > 0 those up to
        #: WAIT_FLOOR * e ** (b / WAIT_BUCKETS_PER_E).
        self.queue_waits: dict[int, int] = {}
        #: tasks first registered here by a submission (client or crowd).
        self.registered = 0

        host.on_restart(lambda _host: self.start())

    # ------------------------------------------------------------------ setup
    def setup(self, grid) -> None:
        """Component lifecycle hook: show the detectors the grid's peers.

        A detector scores each suspicion by what its subject's host records
        (metrics only — the protocol itself never reads them).
        """
        for peer in (*grid.coordinators, *grid.servers):
            self._peers[peer.host.address] = peer

    def _make_detector(self, scope: str) -> FailureDetector:
        """Fresh failure detector for one incarnation (policy bound here).

        The detector instance is volatile — a restarted coordinator starts
        from a clean slate of opinions — but its suspicion accounting also
        lands in the grid monitor's ``<scope>.*`` counters, which survive
        restarts: ``detect.*`` for servers, ``detect.coordinators.*`` for
        peer coordinators.
        """
        policy = make_policy("detection", self.policies.detection)
        policy.bind(owner=self.name, rng=self.host.rng, monitor=self.monitor)
        return FailureDetector(
            self.config.detection,
            policy,
            monitor=self.monitor,
            scope=scope,
            owner=self.host.address,
            peers=self._peers,
        )

    def _make_scheduler(self):
        """Fresh scheduling policy for one incarnation (bound to this host)."""
        policy = make_policy("scheduler", self.policies.scheduler)
        return policy.bind(owner=self.name, rng=self.host.rng, monitor=self.monitor)

    def _make_replication_policy(self):
        """Fresh replication policy for one incarnation (bound to this host)."""
        policy = make_policy("replication", self.policies.replication)
        return policy.bind(owner=self.name, rng=self.host.rng, monitor=self.monitor)

    def start(self) -> None:
        """(Re)start the coordinator's loops; persistent state is already here."""
        self.scheduler = self._make_scheduler()
        self.replication_policy = self._make_replication_policy()
        self.server_detector = self._make_detector("detect")
        self.coordinator_detector = self._make_detector("detect.coordinators")
        self.known_servers = set()
        self._change_seq += 1  # resync everything after a restart
        self._changes = dict.fromkeys(self.tasks, self._change_seq)
        self.index.rebuild()
        self._rounds = {}
        self._archive_fetches_in_flight = {}
        self._archive_fetch_attempts = {}
        self._task_activity = {}
        self._held = {}
        self.started = True
        if self._coord_heartbeat is not None:
            self._coord_heartbeat.stop()
        self.host.spawn(self._recv_loop(), name=f"{self.name}:recv")
        self.host.spawn(self._server_watch_loop(), name=f"{self.name}:server-watch")
        self.replication_policy.install(self)
        # Periodic heart-beats to every other coordinator: this is how stale
        # suspicions get cleared ("the list is ... merged periodically, at
        # heart beat signal receptions") so the virtual ring heals after
        # crashes and restarts.
        self._coord_heartbeat = HeartbeatEmitter(
            host=self.host,
            config=self.config.detection,
            mtype=MessageType.COORD_HEARTBEAT,
            targets=self.other_coordinators,
        )
        self._coord_heartbeat.start()
        self._sample_completed()

    def stop(self) -> None:
        """Retire the coordinator: cancel the heart-beat timer (idempotent)."""
        self.started = False
        if self._coord_heartbeat is not None:
            self._coord_heartbeat.stop()

    @property
    def address(self) -> Address:
        """Network address of this coordinator."""
        return self.host.address

    # ------------------------------------------------------------------ helpers
    def _mark_dirty(self, key: CallIdentity) -> None:
        """Stamp the change to ``key`` for replication.

        This doubles as the task index's transition choke point: every
        mutation path already marks the record dirty, so routing the
        ``note`` through here keeps the index exact by construction.
        """
        record = self.tasks.get(key)
        if record is not None:
            self.index.note(record, key)
        self._change_seq += 1
        self._changes[key] = self._change_seq

    def _store_result(self, key: CallIdentity, result: ResultRecord) -> bool:
        """File a result archive under ``key`` — the only way into ``coord:results``.

        The result table's choke point, as :meth:`_mark_dirty` is the task
        table's: the per-session result view and the "archive not held here"
        bucket stay exact because no other code inserts.  Archives are
        immutable, so a key already held is left alone (returns ``False``).
        """
        if key in self.results:
            return False
        self.results[key] = result
        self.index.note_result(key, result)
        # A held archive is never fetched again.
        self._archive_fetch_attempts.pop(key, None)
        return True

    def preload_tasks(
        self,
        calls: "list[CallDescription]",
        mark_dirty: bool = True,
    ) -> list[CallIdentity]:
        """Register task records directly, bypassing the submission protocol.

        Benchmarks and scenario drivers use this to seed a coordinator with
        pending work (e.g. the Figure 5 replication measurements) without
        simulating the client submissions.  Each call is recorded exactly as
        :meth:`_on_submit` would leave it: owned by this coordinator, marked
        for the next replication round, and charged to the database.  Returns
        the task keys, in call order.  ``mark_dirty=False`` seeds the backlog
        as already-propagated steady state (the protocol benchmark's ladder),
        skipping the initial full-table replication storm.
        """
        keys: list[CallIdentity] = []
        for call in calls:
            key = call.identity
            record = TaskRecord(
                call=call,
                state=TaskState.PENDING,
                owner=self.name,
                submitted_at=self.env.now,
            )
            self.tasks[key] = record
            if mark_dirty:
                self._mark_dirty(key)
            else:
                self.index.note(record, key)
            self.database.charge_write(key, call.params_bytes)
            keys.append(key)
        return keys

    def finished_count(self) -> int:
        """Number of tasks this coordinator currently knows as finished."""
        return self.index.finished

    def _sample_completed(self) -> None:
        self.monitor.sample(
            f"coordinator.completed.{self.host.address.name}",
            self.env.now,
            self.finished_count(),
        )

    def _owner_suspected(self, owner: str) -> bool:
        # Asked only about another coordinator's name (the task index skips
        # this one's), and every owner is a coordinator the registry knows:
        # the registry starts with all of them and only grows.
        return self.coordinator_detector.is_suspected(
            self.registry.by_name(owner), self.env.now
        )

    def other_coordinators(self) -> list[Address]:
        """Every known coordinator except this one."""
        return [c for c in self.registry.known() if c != self.address]

    # ------------------------------------------------------------------ loops
    def _recv_loop(self):
        # Batched drain: one resume per tick however many messages landed
        # (recv_many), instead of one resume per message.  The coordinator
        # serves one message at a time, so handler start and end times are
        # its whole service-queue load.  A handler that returns None takes
        # no simulated time, so the clock is read once per batch and once
        # after each handler that ran.
        env = self.env
        handled = self.handled
        waits = self.queue_waits
        try:
            while True:
                batch: list[Message] = yield self.host.recv_many()
                now = start = env.now
                for message in batch:
                    wait = now - message.delivered_at
                    bucket = (
                        ceil(log(wait / WAIT_FLOOR) * WAIT_BUCKETS_PER_E)
                        if wait > WAIT_FLOOR
                        else 0
                    )
                    waits[bucket] = waits.get(bucket, 0) + 1
                    mtype = message.mtype
                    handled[mtype] = handled.get(mtype, 0) + 1
                    handling = self._handle(message)
                    if handling is not None:
                        yield from handling
                        now = env.now
                self.busy_s += now - start
        except ProcessKilled:  # pragma: no cover - host crash
            return

    def _handle(self, message: Message):
        """Dispatch one message; returns the handler generator left to drive.

        Heart-beats, acks and pings never yield: they are handled right here
        (``None`` is returned), so they cost no generator per message.  So is
        a work request that the scheduler's eligibility rule finds nothing
        for: it is held (see :meth:`_hold`), which translates no job and
        reads nothing the task index does not already hold, so it is charged
        neither the overhead nor a scan.  It still waits its turn in this
        one queue.
        """
        mtype = message.mtype
        if mtype is MessageType.WORK_REQUEST:
            if self.scheduler.nothing_eligible(
                self.index, self.name, self._owner_suspected
            ):
                self._hear_server(message.source)
                self._hold(message)
                return None
            return self._after_overhead(self._on_work_request(message))
        elif mtype is MessageType.SERVER_HEARTBEAT:
            self._on_server_heartbeat(message)
        elif mtype is MessageType.RPC_SUBMIT:
            return self._after_overhead(self._on_submit(message))
        elif mtype is MessageType.TASK_RESULT:
            return self._after_overhead(self._on_task_result(message))
        elif mtype is MessageType.RESULT_PULL:
            return self._after_overhead(self._on_result_pull(message))
        elif mtype is MessageType.CLIENT_SYNC:
            return self._after_overhead(self._on_client_sync(message))
        elif mtype is MessageType.SERVER_SYNC:
            # A sync with no results, from a server with nothing ongoing
            # here, has nothing to compare: its empty plan is free.
            server = message.source
            if message.payload.get("result_keys") or self.index.ongoing_on_server(
                server
            ):
                return self._after_overhead(self._on_server_sync(message))
            self._hear_server(server)
            self._reply_server_sync(message, ServerSyncPlan())
        elif mtype is MessageType.CROWD_SUBMIT_BATCH:
            return self._after_overhead(self._on_crowd_submit(message))
        elif mtype is MessageType.REPLICA_STATE:
            return self._on_replica_state(message)
        elif mtype is MessageType.REPLICA_ACK:
            self._on_replica_ack(message)
        elif mtype is MessageType.REPLICA_PULL:
            return self._on_replica_pull(message)
        elif mtype is MessageType.COORD_HEARTBEAT:
            self.coordinator_detector.heard_from(
                message.source,
                self.env.now,
                incarnation=message.payload.get("incarnation"),
            )
            self.registry.rehabilitate(message.source)
        elif mtype is MessageType.CLIENT_HEARTBEAT or mtype is MessageType.CROWD_HEARTBEAT:
            # Client and aggregate crowd liveness summaries need nothing
            # beyond being received.
            pass
        elif mtype is MessageType.ARCHIVE_FETCH:
            return self._on_archive_fetch(message)
        elif mtype is MessageType.ARCHIVE_REPLY:
            return self._on_archive_reply(message)
        # Unknown types are ignored (forward compatibility).
        return None

    def _after_overhead(self, handling):
        """Pay the middleware processing overhead, then run ``handling``."""
        overhead = self.config.request_processing_overhead
        if overhead > 0:
            yield self.host.sleep(overhead)
        yield from handling

    def _hear_server(self, server: Address, incarnation: int | None = None) -> None:
        self.known_servers.add(server)
        self.server_detector.watch(server, self.env.now)
        self.server_detector.heard_from(server, self.env.now, incarnation=incarnation)

    def _on_server_heartbeat(self, message: Message) -> None:
        self._hear_server(
            message.source, incarnation=message.payload.get("incarnation")
        )
        working_on = message.payload.get("working_on")
        if working_on is not None:
            task = self.tasks.get(working_on)
            # Only a task still ongoing here: a heart-beat overtaken by its
            # own result must not put back the entry the commit dropped.
            if task is not None and task.state is TaskState.ONGOING:
                self._task_activity[task.identity] = self.env.now

    # ------------------------------------------------------------ client requests
    def _on_submit(self, message: Message):
        call = message.payload["call"]
        key = call.identity
        timestamp = int(message.payload.get("timestamp", key.rpc))
        session_key = key[:2]
        if timestamp > self.client_timestamps.get(session_key, 0):
            self.client_timestamps[session_key] = timestamp

        if key not in self.tasks:
            yield from self._register(call)
            self._ctr_submissions.value += 1
        else:
            self._ctr_duplicate_submissions.value += 1

        self.host.send(
            message.reply(
                MessageType.SUBMIT_ACK,
                payload={"timestamp": timestamp},
                size_bytes=32,
            )
        )

    def _register(self, call: CallDescription):
        """Register a submitted ``call`` as a pending task owned here.

        The one path of both kinds of submission.  The new task answers the
        oldest held work request of a server not suspected: that request's
        scan and write join the registration's write in the submission's
        one sleep, so handing out the task costs no overhead of its own,
        and the ``TASK_ASSIGN`` goes out once the sleep is over.
        """
        key = call.identity
        self.tasks[key] = TaskRecord(
            call=call,
            state=TaskState.PENDING,
            owner=self.name,
            submitted_at=self.env.now,
        )
        self._mark_dirty(key)
        cost = self.database.charge_write(key, TASK_DESCRIPTION_BYTES + call.params_bytes)
        request = self._take_held()
        if request is not None:
            task, charges = self._assign(request.source)
            cost += charges
        if cost > 0:
            yield self.host.sleep(cost)
        self.registered += 1
        if request is not None:
            self._send_task(request, task)

    # -------------------------------------------------------------- crowd tier
    def _on_crowd_submit(self, message: Message):
        """Expand one aggregated crowd envelope into one task record.

        A batch of ``count`` statistical clients becomes a single task whose
        execution time already aggregates the member calls; the batch id is
        stable across re-sends, so a duplicate envelope (retry, or re-route to
        this coordinator as the shard's ring successor) de-duplicates on the
        task key exactly like a duplicate ``RPC_SUBMIT`` — no client is ever
        committed twice.
        """
        payload = message.payload
        crowd = str(payload.get("crowd", "crowd"))
        shard = int(payload.get("shard", 0))
        batch = int(payload.get("batch", 0))
        count = int(payload.get("count", 0))
        key = CallIdentity(f"crowd:{crowd}", f"shard{shard}", batch)
        task = self.tasks.get(key)
        if task is None:
            source = message.source
            call = CallDescription(
                identity=key,
                service=str(payload.get("service", "crowd")),
                params_bytes=message.size_bytes,
                result_bytes=int(payload.get("result_bytes", 64)),
                exec_time=payload.get("exec_time"),
                # The args replicate with the task record, so whichever
                # coordinator finishes the batch can push the result back.
                args={
                    "crowd": crowd,
                    "shard": shard,
                    "batch": batch,
                    "count": count,
                    "reply_to": [source.kind, source.name],
                },
            )
            yield from self._register(call)
            self._ctr_crowd_batches.value += 1
            self._ctr_crowd_calls.value += count
        else:
            # File under the table's own key object, not this envelope's copy.
            key = task.identity
            self._ctr_duplicate_crowd_batches.value += 1
            if not (isinstance(task.call.args, dict) and "crowd" in task.call.args):
                # The record pre-exists without crowd args (a TASK_RESULT for
                # a batch assigned by a now-dead coordinator arrived before
                # this envelope; result payloads carry no call description).
                # Adopt the envelope's routing so the batch can complete.
                # A new description: the old one may be shared with other
                # coordinators' tables and with abstracts still in flight.
                source = message.source
                task.call = replace(
                    task.call,
                    args={
                        "crowd": crowd,
                        "shard": shard,
                        "batch": batch,
                        "count": count,
                        "reply_to": [source.kind, source.name],
                    },
                )
                # Content change without a state transition: refresh the
                # cached replica entry, without re-dirtying the record.
                self.index.note(task, key)
            if task.state is TaskState.FINISHED:
                # The crowd is retrying a batch we already finished: the
                # result push was lost (or raced the retry) — push it again.
                self._notify_crowd(key, task)
        self.host.send(
            message.reply(
                MessageType.CROWD_SUBMIT_ACK,
                payload={"batch": batch, "shard": shard, "count": count},
                size_bytes=24,
            )
        )

    def _notify_crowd(self, key: CallIdentity, task: TaskRecord) -> None:
        """Push a finished crowd batch back to the crowd component."""
        args = task.call.args
        if not (isinstance(args, dict) and "crowd" in args):
            return
        reply_to = args.get("reply_to")
        if not reply_to:
            return
        self.host.send(
            Message(
                mtype=MessageType.CROWD_RESULT_BATCH,
                source=self.address,
                dest=Address(str(reply_to[0]), str(reply_to[1])),
                payload={
                    "crowd": args.get("crowd"),
                    "shard": args.get("shard"),
                    "batch": args.get("batch"),
                    "count": args.get("count"),
                },
                size_bytes=32,
            )
        )
        self.monitor.incr("coordinator.crowd_results_pushed")

    def _on_result_pull(self, message: Message):
        user, session = message.payload.get("session", ("", ""))
        pending = message.payload.get("pending")
        wanted = set(pending) if pending is not None else None
        ready: list[ResultRecord] = []
        total_bytes = 0
        # A pull with an empty pending set can match nothing — skip the
        # lookup entirely (idle clients poll every second).
        if wanted is None or wanted:
            ready, missing = self.index.pull_view((user, session), wanted)
            total_bytes = sum(result.size_bytes for result in ready)
            # Completions we only know through replication: fetch their
            # archives from the coordinator that produced/holds them, so a
            # later pull can deliver them (archives are never replicated
            # proactively).
            for key in missing:
                self._request_archive(key, self.tasks[key])
        cost = self.database.charge_scan()
        if cost > 0:
            yield self.host.sleep(cost)
        if total_bytes:
            # Result archives live on the coordinator's file system: shipping
            # them back costs a read proportional to their size.
            yield from self.host.disk_read(total_bytes)
        self.host.send(
            message.reply(
                MessageType.RESULT_REPLY,
                payload={"results": ready},
                size_bytes=total_bytes,
            )
        )

    def _on_client_sync(self, message: Message):
        user, session = message.payload.get("session", ("", ""))
        durable_keys = [int(k) for k in message.payload.get("durable_keys", [])]
        session_keys = self.index.session_keys((user, session))
        known = [key[2] for key in session_keys]
        finished = [
            key[2]
            for key in session_keys
            if self.tasks[key].state is TaskState.FINISHED
        ]
        cost = self.database.charge_scan()
        if cost > 0:
            yield self.host.sleep(cost)
        plan = plan_client_sync(durable_keys, known, finished)
        session_key = (user, session)
        max_ts = int(message.payload.get("max_timestamp", 0))
        if max_ts > self.client_timestamps.get(session_key, 0):
            self.client_timestamps[session_key] = max_ts
        self.host.send(
            message.reply(
                MessageType.COORD_SYNC_REPLY,
                payload={
                    "kind": "client",
                    "client_must_resend": plan.client_must_resend,
                    "client_lost": plan.client_lost,
                    "results_available": plan.results_available,
                    "coordinator_max_timestamp": max(
                        plan.coordinator_max_timestamp,
                        self.client_timestamps.get(session_key, 0),
                    ),
                },
                size_bytes=64
                + 8 * (len(plan.client_must_resend) + len(plan.client_lost)),
            )
        )
        self.monitor.incr("coordinator.client_syncs")

    # ------------------------------------------------------------- server requests
    def _on_work_request(self, message: Message):
        server = message.source
        self._hear_server(server)
        task, cost = self._assign(server)
        if cost > 0:
            yield self.host.sleep(cost)
        if task is None:
            self._hold(message)
        else:
            self._send_task(message, task)

    def _send_task(self, request: Message, task: TaskRecord) -> None:
        self.host.send(
            request.reply(
                MessageType.TASK_ASSIGN,
                payload={"call": task.call},
                size_bytes=task.call.wire_bytes,
            )
        )

    def _assign(self, server: Address) -> tuple[TaskRecord | None, float]:
        """Pick ``server``'s next task: the one path that makes assignments.

        A work request and a result upload that asks for work both come
        here.  Returns the task (``None`` when the scan found nothing) and
        the database charges made, which the caller sleeps with its own.
        """
        cost = self.database.charge_scan()
        decision = self.scheduler.pick(
            self.index,
            server=server,
            my_name=self.name,
            owner_suspected=self._owner_suspected,
            now=self.env.now,
        )
        task = decision.task
        if task is None:
            return None, cost
        key = task.identity
        self._mark_dirty(key)
        self._task_activity[key] = self.env.now
        cost += self.database.charge_write(key, TASK_DESCRIPTION_BYTES)
        self._ctr_assignments.value += 1
        return task, cost

    def _hold(self, request: Message) -> None:
        """Hold a work request that finds nothing eligible (long polling).

        It stays open for the ``window`` seconds it carries: the next
        submission registered here answers it with a task (see
        :meth:`_register`), else the window's end answers it ``NO_WORK``,
        free, and the server asks again.  One request per server is held: a
        newer one replaces the older, which is never answered.  Held
        requests are volatile; a restart drops them and the server's
        request times out.
        """
        server = request.source
        self._held.pop(server, None)
        self._held[server] = request
        self.env.call_at(
            self.env.now + request.payload["window"], self._end_hold, request
        )

    def _end_hold(self, request: Message) -> None:
        """A hold's window is over: answer ``NO_WORK`` unless it was answered
        or replaced (or dropped by a restart) meanwhile."""
        server = request.source
        if self._held.get(server) is request:
            del self._held[server]
            self.host.send(request.reply(MessageType.NO_WORK, size_bytes=16))

    def _take_held(self) -> Message | None:
        """Pop the oldest held request of a server not suspected, if any."""
        now = self.env.now
        for server, request in self._held.items():
            if not self.server_detector.is_suspected(server, now):
                del self._held[server]
                return request
        return None

    def _on_task_result(self, message: Message):
        server = message.source
        self._hear_server(server)
        result = message.payload["result"]
        key = result.identity
        task = self.tasks.get(key)
        newly_finished = False
        if task is None:
            # A result for a call we never saw (e.g. assigned by another
            # coordinator before a partition): register it anyway.
            task = TaskRecord(
                call=CallDescription(
                    identity=result.identity, service="unknown", params_bytes=0
                ),
                state=TaskState.FINISHED,
                owner=self.name,
                submitted_at=self.env.now,
            )
            self.tasks[key] = task
            newly_finished = True
        elif task.state is not TaskState.FINISHED:
            newly_finished = True
        task.state = TaskState.FINISHED
        task.finished_at = self.env.now
        task.has_archive = True
        task.archive_holder = self.name
        task.assigned_server = server
        self._task_activity.pop(key, None)
        self._store_result(key, result)
        self._mark_dirty(key)
        cost = self.database.charge_write(key, TASK_DESCRIPTION_BYTES)
        # Storing the archive costs a disk write proportional to its size.
        cost += self.host.disk.sync_write_time(result.size_bytes)
        # A server's upload asks for its next task (a re-upload during a
        # sync does not): the ack carries it, or no task.  The eligibility
        # rule settles an empty answer before any scan is charged.
        following = None
        if message.payload.get("next_task") and not self.scheduler.nothing_eligible(
            self.index, self.name, self._owner_suspected
        ):
            following, charges = self._assign(server)
            cost += charges
        # One sleep for every charge that follows the state changes.
        if cost > 0:
            yield self.host.sleep(cost)
        if newly_finished:
            self._ctr_results.value += 1
            self._sample_completed()
            self._notify_crowd(key, task)
        else:
            self._ctr_duplicate_results.value += 1
        call = following.call if following is not None else None
        self.host.send(
            message.reply(
                MessageType.TASK_RESULT_ACK,
                payload={"identity": key, "call": call},
                size_bytes=32 + (call.wire_bytes if call is not None else 0),
            )
        )

    def _on_server_sync(self, message: Message):
        server = message.source
        self._hear_server(server)
        server_keys = message.payload.get("result_keys", [])
        # plan_server_sync is set algebra over server_keys, so only the
        # finished tasks among the keys the server sent can matter.
        finished = [
            k
            for k in server_keys
            if (task := self.tasks.get(k)) is not None
            and task.state is TaskState.FINISHED
        ]
        assigned = [k for k, _task in self.index.ongoing_on_server(server)]
        cost = self.database.charge_scan()
        if cost > 0:
            yield self.host.sleep(cost)
        plan = plan_server_sync(server_keys, finished, assigned)
        for key in plan.coordinator_must_requeue:
            task = self.tasks.get(key)
            if task is not None and task.state is TaskState.ONGOING:
                task.state = TaskState.PENDING
                task.assigned_server = None
                self._mark_dirty(key)
        self._reply_server_sync(message, plan)

    def _reply_server_sync(self, message: Message, plan: ServerSyncPlan) -> None:
        self.host.send(
            message.reply(
                MessageType.COORD_SYNC_REPLY,
                payload={
                    "kind": "server",
                    "server_must_resend": plan.server_must_resend,
                    "already_finished": plan.already_finished,
                },
                size_bytes=64 + 16 * len(message.payload.get("result_keys", [])),
            )
        )
        self.monitor.incr("coordinator.server_syncs")

    # ----------------------------------------------------------- archives on demand
    def _request_archive(self, key: CallIdentity, task: TaskRecord) -> None:
        last_attempt = self._archive_fetches_in_flight.get(key)
        retry_after = 2 * self.config.detection.heartbeat_period
        if last_attempt is not None and self.env.now - last_attempt < retry_after:
            return
        # Ask the coordinator that received the archive first, then the task's
        # owner, then anybody else; rotate on retries so a wrong or crashed
        # first choice cannot wedge the fetch forever.
        preferred_names = [task.archive_holder, task.owner]
        candidates = [
            c for name in preferred_names for c in self.other_coordinators() if str(c) == name
        ]
        candidates += [c for c in self.other_coordinators() if c not in candidates]
        if not candidates:
            return
        attempts = self._archive_fetch_attempts.get(key, 0)
        self._archive_fetch_attempts[key] = attempts + 1
        target = candidates[attempts % len(candidates)]
        self._archive_fetches_in_flight[key] = self.env.now
        self.host.send(
            Message(
                mtype=MessageType.ARCHIVE_FETCH,
                source=self.address,
                dest=target,
                payload={"identity": key},
                size_bytes=32,
            )
        )
        self.monitor.incr("coordinator.archive_fetches")

    def _on_archive_fetch(self, message: Message):
        key = message.payload["identity"]
        result = self.results.get(key)
        if result is None:
            self.host.send(
                message.reply(
                    MessageType.ARCHIVE_REPLY,
                    payload={"identity": key, "missing": True},
                    size_bytes=16,
                )
            )
            return
        yield from self.host.disk_read(result.size_bytes)
        self.host.send(
            message.reply(
                MessageType.ARCHIVE_REPLY,
                payload={"identity": key, "result": result},
                size_bytes=result.size_bytes,
            )
        )

    def _on_archive_reply(self, message: Message):
        key = message.payload["identity"]
        self._archive_fetches_in_flight.pop(key, None)
        if message.payload.get("missing"):
            return
        result = message.payload["result"]
        if self._store_result(key, result):
            yield from self.host.disk_write(result.size_bytes)
            task = self.tasks.get(key)
            if task is not None:
                task.has_archive = True

    # --------------------------------------------------------------- replication
    # The cadence (when rounds happen) lives in the replication policy
    # (policy.repl.*, installed by start()); this is the mechanism one round
    # runs through.
    def _build_state(self, keys: list[CallIdentity] | None) -> ReplicaState:
        """Build the (delta) state abstract for ``keys`` (None = full)."""
        return build_state(
            origin=self.name,
            tasks=self.tasks,
            client_timestamps=self.client_timestamps,
            known_coordinators=[(c.kind, c.name) for c in self.registry.known()],
            only_keys=keys,
        )

    def replicate(self, targets: list[Address], quorum: int = 1):
        """One replication round: push the change log to ``targets``.

        Generator returning the set of targets that acknowledged within the
        suspicion timeout.  The abstract lists every logged change in table
        order.  Once ``quorum`` targets acknowledged, the round retires the
        changes it carried, but only those whose stamp is still at most the
        log's sequence when the abstract was built: a change made while the
        round was in flight goes out with the next round.
        """
        high = self._change_seq
        keys = self.index.table_ordered(self._changes)
        state = self._build_state(keys)
        round_id = self._replication_rounds
        self._replication_rounds += 1
        waiter: dict[str, Any] = {
            "event": self.env.event(),
            "acks": set(),
            "needed": quorum,
        }
        self._rounds[round_id] = waiter
        payload = {"state": state, "round": round_id}
        for target in targets:
            self.host.send(
                Message(
                    mtype=MessageType.REPLICA_STATE,
                    source=self.address,
                    dest=target,
                    payload=payload,
                    size_bytes=state.size_bytes,
                )
            )
        self._ctr_replications.value += 1
        yield from self.env.wait_any(
            [waiter["event"]], timeout=self.config.detection.suspicion_timeout
        )
        del self._rounds[round_id]
        acks = waiter["acks"]
        if len(acks) >= quorum:
            changes = self._changes
            for key in keys:
                if changes.get(key, high + 1) <= high:
                    del changes[key]
        return acks

    def replicate_once(self):
        """One passive round: push the change log to the ring successor.

        Generator returning ``True`` when the successor acknowledged; a
        silent successor is suspected and the ring recomputed.  Also doubles
        as the coordinator-to-coordinator heart-beat.
        """
        successor = self.registry.ring_successor(self.address)
        if successor is None:
            return False
        if (yield from self.replicate([successor])):
            self.coordinator_detector.heard_from(successor, self.env.now)
            return True
        self.suspect_coordinator(successor)
        return False

    def suspect_coordinator(self, coordinator: Address) -> None:
        """Suspect a silent peer coordinator and recompute the virtual ring."""
        self.registry.suspect(coordinator)
        self.coordinator_detector.watch(
            coordinator, self.env.now - 2 * self.config.detection.suspicion_timeout
        )
        self.monitor.incr("coordinator.replication_timeouts")

    def pull_replicas(self, targets: list[Address]) -> None:
        """Ask ``targets`` for their full state abstract (crash recovery)."""
        for target in targets:
            self.host.send(
                Message(
                    mtype=MessageType.REPLICA_PULL,
                    source=self.address,
                    dest=target,
                    payload={"requester": self.name},
                    size_bytes=16,
                )
            )
        self.monitor.incr("coordinator.replica_pulls", len(targets))

    def _on_replica_pull(self, message: Message):
        """Serve a recovering peer the full current state abstract."""
        state = self._build_state(None)
        cost = self.database.charge_scan()
        if cost > 0:
            yield self.host.sleep(cost)
        self.host.send(
            message.reply(
                MessageType.REPLICA_STATE,
                payload={"state": state, "round": -1},
                size_bytes=state.size_bytes,
            )
        )
        self.monitor.incr("coordinator.replica_pulls_served")

    def _on_replica_state(self, message: Message):
        state: ReplicaState = message.payload["state"]
        if state.origin != self.name:
            self.heard_a_replica = True
        outcome = merge_state(self.tasks, self.client_timestamps, state)
        # Route the merged transitions through the index before the
        # database charges below yield control — sibling processes (the
        # watch loop, a replication round) must never see a stale view.
        for key in outcome.changed:
            self.index.note(self.tasks[key], key)
        # The backup pays one database write per new or updated description —
        # this is what dominates Figure 5 for small records.
        for _ in range(outcome.new_tasks + outcome.updated_tasks):
            cost = self.database.charge_write(
                ("replica", self._replication_rounds, _), TASK_DESCRIPTION_BYTES
            )
            if cost > 0:
                yield self.host.sleep(cost)
        self.registry.merge([Address(kind, name) for kind, name in state.known_coordinators])
        self.coordinator_detector.heard_from(message.source, self.env.now)
        self.registry.rehabilitate(message.source)
        # Everything we learned must keep flowing around the ring, otherwise
        # coordinators two hops away from the origin would never hear of it.
        for key in outcome.changed:
            self._mark_dirty(key)
        if outcome.newly_finished:
            # A finished task is never ONGOING here again.
            for key in outcome.newly_finished:
                self._task_activity.pop(key, None)
            self.monitor.incr(
                "coordinator.replicated_completions", len(outcome.newly_finished)
            )
            self._sample_completed()
        self.host.send(
            message.reply(
                MessageType.REPLICA_ACK,
                payload={"round": message.payload.get("round", -1)},
                size_bytes=16,
            )
        )

    def _on_replica_ack(self, message: Message) -> None:
        waiter = self._rounds.get(int(message.payload.get("round", -1)))
        if waiter is not None:
            acks, event = waiter["acks"], waiter["event"]
            acks.add(message.source)
            if len(acks) >= waiter["needed"] and not event.triggered:
                event.succeed(True)
        self.coordinator_detector.heard_from(message.source, self.env.now)

    # ----------------------------------------------------------- server suspicion
    def _server_watch_loop(self):
        try:
            while True:
                yield self.host.sleep(self.config.detection.heartbeat_period)
                now = self.env.now
                # "On suspicion" replication: re-queue every ongoing task of a
                # server that has gone silent.
                for server in list(self.known_servers):
                    if self.server_detector.is_suspected(server, now):
                        reset = self.scheduler.reschedule_for_suspected_server(
                            self.index, server, self.name
                        )
                        if reset:
                            for record in reset:
                                self._mark_dirty(record.identity)
                            self.monitor.incr(
                                "coordinator.rescheduled_on_suspicion", len(reset)
                            )
                # Per-task activity timeout: a server that crashed and came
                # back keeps the heart-beat alive but stops reporting the lost
                # task, so suspicion alone would never recover it.
                timeout = self.config.detection.suspicion_timeout
                # Only this coordinator's ongoing bucket, not the table.
                for key, task in self.index.ongoing_owned_by(self.name):
                    last_activity = self._task_activity.get(
                        key, task.started_at if task.started_at is not None else now
                    )
                    if now - last_activity > timeout:
                        task.state = TaskState.PENDING
                        task.assigned_server = None
                        self._mark_dirty(key)
                        self.monitor.incr("coordinator.requeued_on_activity_timeout")
        except ProcessKilled:  # pragma: no cover - host crash
            return

    # ------------------------------------------------------------------ reporting
    def load(self, span: float) -> dict[str, Any]:
        """Service-queue load over the first ``span`` simulated seconds.

        ``busy_share`` is the time spent inside handlers over ``span``;
        ``requests`` counts the handled messages by type, ``registered``
        the tasks first registered here by a submission; the queue wait of
        a message runs from its delivery to its handler's start, and its
        p50 / p99 are taken over every handled message (nearest rank, read
        from the histogram: at most 1 % high).
        """
        return {
            "busy_s": self.busy_s,
            "busy_share": self.busy_s / span if span > 0 else 0.0,
            "requests": {mtype.value: n for mtype, n in self.handled.items()},
            "registered": self.registered,
            "wait_p50_s": _wait_quantile(self.queue_waits, 0.50),
            "wait_p99_s": _wait_quantile(self.queue_waits, 0.99),
        }


def _wait_quantile(histogram: dict[int, int], q: float) -> float:
    """The nearest-rank ``q`` quantile of a queue-wait histogram (0 if empty),
    as the upper edge of the bucket that holds it."""
    rank = ceil(q * sum(histogram.values()))
    seen = 0
    for bucket in sorted(histogram):
        seen += histogram[bucket]
        if seen >= rank:
            return WAIT_FLOOR * exp(bucket / WAIT_BUCKETS_PER_E) if bucket else 0.0
    return 0.0
