"""The RPC-V client component.

The client is the piece the application links against.  It:

* allocates call identities (timestamps) through its :class:`~repro.core.session.Session`;
* logs every submission locally with the configured strategy
  (:class:`~repro.msglog.strategies.LoggingEngine`) before/around sending it;
* talks exclusively to its *preferred coordinator*, switching to another one
  from its registry when the current one is suspected, and resynchronising
  from its durable log after any switch or restart;
* pulls results periodically (connection-less interactions: the coordinator
  only ever answers requests);
* emits heart-beats so the coordinator can tell it is still there.

Every public operation that takes simulated time is a generator meant to be
driven inside a host process (``yield from client.call_async(...)``); the
GridRPC-style façade in :mod:`repro.core.api` wraps these for application
code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import ClientConfig, PolicyConfig
from repro.core.protocol import CallDescription, ResultRecord
from repro.core.link import CoordinatorLink
from repro.core.registry import CoordinatorRegistry
from repro.core.session import Session
from repro.core.synchronization import ClientSyncPlan
from repro.detect import FailureDetector
from repro.errors import RPCTimeout, SessionError
from repro.msglog import GarbageCollector, LoggingEngine, MessageLog
from repro.net.message import Message, MessageType
from repro.nodes.node import Host
from repro.policies.detection import FixedTimeoutDetection
from repro.policies.resolve import make_policy
from repro.sim.core import Event, ProcessKilled
from repro.sim.monitor import Monitor
from repro.types import Address, CallIdentity, RPCStatus

__all__ = ["RPCHandle", "ClientComponent"]


@dataclass(slots=True)
class RPCHandle:
    """Client-side handle on one submitted RPC."""

    description: CallDescription
    completed_event: Event
    status: RPCStatus = RPCStatus.SUBMITTED
    result: ResultRecord | None = None
    submitted_at: float = 0.0
    completed_at: float | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def timestamp(self) -> int:
        """The client timestamp (RPC counter) of this call."""
        return self.description.identity.rpc

    @property
    def done(self) -> bool:
        """Whether the result has been collected."""
        return self.status is RPCStatus.COMPLETED


class ClientComponent(CoordinatorLink):
    """One RPC-V client running on a volatile host."""

    role = "client"
    heartbeat_type = MessageType.CLIENT_HEARTBEAT
    config: ClientConfig

    def __init__(
        self,
        host: Host,
        session: Session,
        registry: CoordinatorRegistry,
        config: ClientConfig | None = None,
        monitor: Monitor | None = None,
        policies: PolicyConfig | None = None,
    ) -> None:
        self.session = session
        #: ``(user, session)``: how coordinators file this session's calls,
        #: and the prefix of every identity it allocates.
        self._session_key = (session.user, session.session_id)
        super().__init__(host, registry, config or ClientConfig(), monitor, policies)

        # Volatile protocol state (rebuilt by start()).
        self.log: MessageLog
        self.logging: LoggingEngine
        self.gc: GarbageCollector
        self.handles: dict[CallIdentity, RPCHandle] = {}
        #: the handles not yet completed, in submission order, by timestamp
        #: (what a result pull names) — maintained by _submit / _complete so
        #: a poll never walks the completed ones.
        self._pending: dict[int, RPCHandle] = {}
        self.completed_count = 0
        self._init_volatile()

    # ------------------------------------------------------------------ setup
    def _init_volatile(self) -> None:
        self.log = MessageLog(self.host, f"client:{self.session.session_id}")
        policy = make_policy("logging", self.policies.logging)
        policy.bind(
            owner=str(self.host.address), rng=self.host.rng, monitor=self.monitor
        )
        self.logging = LoggingEngine(self.host, self.log, policy)
        self.gc = GarbageCollector(self.log, self.config.logging)
        # PolicyConfig.detection selects the coordinators' and servers'
        # rule; a client keeps the paper's fixed timeout.
        self.detector = FailureDetector(self.config.detection, FixedTimeoutDetection())
        self.handles = {}
        self._pending = {}
        # Never reuse a timestamp: continue strictly after the durable log.
        last = self.log.max_durable_key()
        self.session.restore_counter(last.rpc if last is not None else 0)

    def _spawn_loops(self) -> None:
        self.host.spawn(self._poll_loop(), name=f"{self.name}:poll")
        self.host.spawn(self._coordinator_watch_loop(), name=f"{self.name}:watch")

    def _heartbeat_payload(self) -> dict[str, Any]:
        return {"session": self._session_key}

    # ------------------------------------------------------------- public API
    def call_async(
        self,
        service: str,
        *,
        params_bytes: int = 1024,
        result_bytes: int = 128,
        exec_time: float | None = None,
        args: Any = None,
    ):
        """Submit one non-blocking RPC.  Generator returning an :class:`RPCHandle`.

        The generator completes when the submission has been registered on the
        coordinator (acknowledged) — the quantity Figure 4 calls the "RPC
        submission time".
        """
        if not self.started:
            raise SessionError("client not started")
        identity = self.session.allocate()
        description = CallDescription(
            identity=identity,
            service=service,
            params_bytes=params_bytes,
            result_bytes=result_bytes,
            exec_time=exec_time,
            args=args,
        )
        handle = yield from self._submit(description)
        return handle

    def call(
        self,
        service: str,
        *,
        params_bytes: int = 1024,
        result_bytes: int = 128,
        exec_time: float | None = None,
        args: Any = None,
        timeout: float | None = None,
    ):
        """Blocking RPC: submit, then wait for the result.  Returns the result record."""
        handle = yield from self.call_async(
            service,
            params_bytes=params_bytes,
            result_bytes=result_bytes,
            exec_time=exec_time,
            args=args,
        )
        result = yield from self.wait(handle, timeout=timeout)
        return result

    def wait(self, handle: RPCHandle, timeout: float | None = None):
        """Wait until ``handle`` completes; returns its :class:`ResultRecord`."""
        if handle.done:
            return handle.result
        if timeout is None:
            yield handle.completed_event
            return handle.result
        yield from self.env.wait_any([handle.completed_event], timeout=timeout)
        if not handle.done:
            raise RPCTimeout(
                f"RPC {handle.description.identity} not completed within {timeout}s"
            )
        return handle.result

    def wait_all(self, handles, timeout: float | None = None):
        """Wait for every handle; returns their results in the same order."""
        results = []
        for handle in handles:
            result = yield from self.wait(handle, timeout=timeout)
            results.append(result)
        return results

    def probe(self, handle: RPCHandle) -> RPCStatus:
        """Non-blocking status query."""
        return handle.status

    def forget_handles(self) -> None:
        """Drop every handle of this incarnation, pending ones included.

        What a crash does to the volatile call table; experiments use it
        (with :meth:`MessageLog.wipe`) to simulate a client that lost its
        view without restarting its host.
        """
        self.handles.clear()
        self._pending.clear()

    # ----------------------------------------------------------- submission path
    def _submit(self, description: CallDescription):
        identity = description.identity
        timestamp = identity.rpc
        handle = RPCHandle(
            description=description,
            completed_event=self.env.event(),
            submitted_at=self.env.now,
        )
        self.handles[identity] = handle
        self._pending[timestamp] = handle

        token = yield from self.logging.before_send(
            identity, description, description.wire_bytes
        )

        # Retry until some coordinator acknowledges the submission.
        while True:
            coordinator = self.registry.preferred()
            if coordinator is None:
                yield self.host.sleep(self.config.request_retry)
                continue
            self.monitor.incr("client.submissions_sent")
            ack = yield from self._request(
                Message(
                    mtype=MessageType.RPC_SUBMIT,
                    source=self.address,
                    dest=coordinator,
                    payload={"call": description, "timestamp": timestamp},
                    size_bytes=description.wire_bytes,
                ),
                MessageType.SUBMIT_ACK,
                key=timestamp,
            )
            if ack is not None:
                break
            self._timed_out(coordinator, "client.submission_retries")

        yield from self.logging.after_send(token)
        self.logging.ack(identity)
        self.gc.maybe_collect()
        return handle

    # ----------------------------------------------------------- synchronization
    def synchronize(self, coordinator: Address | None = None):
        """Synchronise with a coordinator from the local durable log.

        Generator returning the :class:`ClientSyncPlan` (or ``None`` when no
        coordinator replied).  Missing submissions are re-sent from the log;
        results already known by the coordinator are collected immediately at
        the next poll.
        """
        coordinator = coordinator or self.registry.preferred()
        if coordinator is None:
            return None
        durable_keys = sorted(key.rpc for key in self.log.durable_keys())
        # Reading the local log list costs a disk read before anything is sent.
        yield from self.host.disk_read(
            max(64 * len(durable_keys), 64) if durable_keys else 64
        )
        reply = yield from self._request(
            Message(
                mtype=MessageType.CLIENT_SYNC,
                source=self.address,
                dest=coordinator,
                payload={
                    "session": self._session_key,
                    "durable_keys": durable_keys,
                    "max_timestamp": max(durable_keys, default=0),
                },
                size_bytes=64 + 8 * len(durable_keys),
            ),
            MessageType.COORD_SYNC_REPLY,
        )
        if reply is None:
            self.monitor.incr("client.sync_timeouts")
            return None
        payload = reply.payload
        plan = ClientSyncPlan(
            client_must_resend=list(payload.get("client_must_resend", [])),
            client_lost=list(payload.get("client_lost", [])),
            results_available=list(payload.get("results_available", [])),
            coordinator_max_timestamp=int(payload.get("coordinator_max_timestamp", 0)),
        )
        self.session.restore_counter(plan.coordinator_max_timestamp)
        # Re-send what the coordinator is missing, straight from the log: one
        # bulk read of the needed records, then the pushes.  The plan names
        # timestamps; the log files calls under this session's identities.
        resend_records = [
            self.log.get(CallIdentity(*self._session_key, timestamp))
            for timestamp in plan.client_must_resend
        ]
        resend_bytes = sum(r.size_bytes for r in resend_records if r is not None)
        if resend_bytes:
            yield from self.host.disk_read(resend_bytes)
        for timestamp in plan.client_must_resend:
            record = self.log.get(CallIdentity(*self._session_key, timestamp))
            if record is None:
                continue
            self.host.send(
                Message(
                    mtype=MessageType.RPC_SUBMIT,
                    source=self.address,
                    dest=coordinator,
                    payload={"call": record.payload, "timestamp": timestamp},
                    size_bytes=record.size_bytes,
                )
            )
            self.monitor.incr("client.sync_resends")
        self.monitor.incr("client.syncs")
        return plan

    def recover(self):
        """After a restart: resynchronise with the preferred coordinator.

        Returns the sync plan so the re-launched application can decide what
        still needs to be submitted (calls never registered anywhere) and what
        to simply collect.
        """
        plan = yield from self.synchronize()
        return plan

    # ----------------------------------------------------------------- loops
    def _on_message(self, message: Message) -> None:
        mtype = message.mtype
        if mtype is MessageType.SUBMIT_ACK:
            timestamp = int(message.payload.get("timestamp", 0))
            self.logging.ack(CallIdentity(*self._session_key, timestamp))
        elif mtype is MessageType.RESULT_REPLY:
            for result in message.payload.get("results", []):
                self._complete(result)

    def _complete(self, result: ResultRecord) -> None:
        handle = self.handles.get(result.identity)
        if handle is None or handle.done:
            return
        handle.result = result
        handle.status = RPCStatus.COMPLETED
        handle.completed_at = self.env.now
        del self._pending[result.identity.rpc]
        self.completed_count += 1
        self.monitor.incr("client.results_received")
        self.monitor.sample("client.completed", self.env.now, self.completed_count)
        if not handle.completed_event.triggered:
            handle.completed_event.succeed(result)

    def _poll_loop(self):
        try:
            while True:
                yield self.host.sleep(self.config.result_poll_period)
                coordinator = self.registry.preferred()
                if coordinator is None:
                    continue
                pending = list(self._pending)
                self.host.send(
                    Message(
                        mtype=MessageType.RESULT_PULL,
                        source=self.address,
                        dest=coordinator,
                        payload={
                            "session": self._session_key,
                            "pending": pending,
                        },
                        size_bytes=64 + 8 * len(pending),
                    )
                )
        except ProcessKilled:  # pragma: no cover - host crash
            return

    def _coordinator_watch_loop(self):
        try:
            while True:
                yield self.host.sleep(self.config.detection.heartbeat_period)
                coordinator = self.registry.preferred()
                if coordinator is None:
                    self.registry.switch_preferred()
                    continue
                if self.detector.is_suspected(coordinator, self.env.now):
                    self.monitor.incr("client.coordinator_suspicions")
                    self.switch_coordinator(away_from=coordinator)
        except ProcessKilled:  # pragma: no cover - host crash
            return

    # ------------------------------------------------------------------ reporting
    def stats(self) -> dict[str, Any]:
        """Snapshot of client-side counters (used by experiments and tests)."""
        return {
            "submitted": self.session.issued_count(),
            "completed": self.completed_count,
            "pending": len(self._pending),
            "log_records": len(self.log),
            "log_bytes": self.log.total_bytes(),
            "logging_overhead": self.logging.blocking_overhead,
            "logging_policy": self.logging.policy.key,
            "preferred_coordinator": str(self.preferred_coordinator()),
        }
