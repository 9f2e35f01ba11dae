"""The RPC-V server (worker) component.

Servers pull work from their preferred coordinator, execute it, archive the
result on local disk (the archive *is* the server log, so server-side logging
is "necessarily pessimistic"), then upload the archive and wait for the
acknowledgement.  The connection-less protocol means the same server "may
disconnect the coordinator, continue the execution and re-connect the
coordinator later for sending RPC results" — off-line computing — which the
component implements by resynchronising its unacknowledged results whenever it
(re)connects or switches coordinator.
"""

from __future__ import annotations

from typing import Any

from repro.config import PolicyConfig, ServerConfig
from repro.core.link import CoordinatorLink
from repro.core.protocol import CallDescription, ResultRecord
from repro.core.registry import CoordinatorRegistry
from repro.core.services import ServiceRegistry, default_registry
from repro.detect import FailureDetector
from repro.policies.resolve import make_policy
from repro.msglog import MessageLog
from repro.net.message import Message, MessageType, snapshot_payload
from repro.nodes.node import Host
from repro.sim.core import ProcessKilled
from repro.sim.monitor import Monitor
from repro.types import Address

__all__ = ["ServerComponent"]

#: a ``NO_WORK`` slower than this share of ``work_poll_period`` doubles the
#: idle wait: the coordinator is busy, so asking again sooner only queues.
LATE_NO_WORK_SHARE = 0.25
#: the idle wait never grows past this multiple of ``work_poll_period``.
IDLE_BACKOFF_CAP = 16


class ServerComponent(CoordinatorLink):
    """One worker of the desktop grid."""

    role = "server"
    heartbeat_type = MessageType.SERVER_HEARTBEAT
    config: ServerConfig

    def __init__(
        self,
        host: Host,
        registry: CoordinatorRegistry,
        config: ServerConfig | None = None,
        services: ServiceRegistry | None = None,
        monitor: Monitor | None = None,
        policies: PolicyConfig | None = None,
    ) -> None:
        self.services = services or default_registry()
        super().__init__(host, registry, config or ServerConfig(), monitor, policies)

        # Volatile state (rebuilt by start()).
        self.result_log: MessageLog
        self.executed_count = 0
        self.current_task: CallDescription | None = None

    # ------------------------------------------------------------------ setup
    def _init_volatile(self) -> None:
        self.result_log = MessageLog(self.host, f"server:{self.host.address.name}")
        # A fresh coordinator detector per incarnation, its policy bound;
        # only the detection entry of ``policies`` matters for a server.
        policy = make_policy("detection", self.policies.detection)
        policy.bind(owner=self.name, rng=self.host.rng, monitor=self.monitor)
        self.detector = FailureDetector(self.config.detection, policy=policy)
        self.current_task = None

    def _spawn_loops(self) -> None:
        # Unacknowledged results are resynced first thing (see _work_loop).
        self.host.spawn(self._work_loop(), name=f"{self.name}:work")

    def _heartbeat_payload(self) -> dict[str, Any]:
        # The heart-beat reports which task (if any) the server is working
        # on: the coordinator uses it to re-queue tasks whose execution was
        # lost in a crash/restart it never got to observe directly.
        return {
            "working_on": (
                self.current_task.identity if self.current_task is not None else None
            )
        }

    def _on_message(self, message: Message) -> None:
        if message.mtype is MessageType.TASK_RESULT_ACK:
            self.result_log.mark_acked(message.payload["identity"])

    # ------------------------------------------------------------------ work loop
    def _work_loop(self):
        try:
            # Resynchronise with the coordinator on every (re)connection: the
            # peer-wise log comparison tells it which results we still hold
            # and lets it re-queue tasks it believed we were running.
            yield from self.synchronize()
            period = self.config.work_poll_period
            idle_wait = period
            while True:
                coordinator = self.registry.preferred()
                if coordinator is None:
                    yield self.host.sleep(period)
                    continue
                asked_at = self.env.now
                reply = yield from self._request(
                    Message(
                        mtype=MessageType.WORK_REQUEST,
                        source=self.address,
                        dest=coordinator,
                        size_bytes=64,
                    ),
                    MessageType.TASK_ASSIGN,  # or NO_WORK
                )
                if reply is None:
                    self._timed_out(coordinator, "server.request_timeouts")
                    continue
                if reply.mtype is MessageType.NO_WORK:
                    # A late answer means a busy coordinator: double the
                    # wait, up to the cap.  A prompt one resets it.
                    if self.env.now - asked_at > period * LATE_NO_WORK_SHARE:
                        self.monitor.incr("server.idle_backoffs")
                        idle_wait = min(2 * idle_wait, IDLE_BACKOFF_CAP * period)
                    else:
                        idle_wait = period
                    yield self.host.sleep(idle_wait)
                    continue
                idle_wait = period
                yield from self._execute(reply.payload["call"])
        except ProcessKilled:  # pragma: no cover - host crash
            return

    def _execute(self, call: CallDescription):
        """Run one task, archive its result, upload it until acknowledged."""
        self.current_task = call
        spec = self.services.get(call.service) if self.services.has(call.service) else None
        exec_time = call.exec_time
        if exec_time is None:
            exec_time = spec.default_exec_time if spec else 1.0
        result_bytes = call.result_bytes or (spec.default_result_bytes if spec else 128)

        value: Any = None
        if exec_time > 0:
            yield self.host.sleep(exec_time)
        if spec is not None and spec.fn is not None:
            value = snapshot_payload(spec.execute(call.args))

        # The one result object of this call: the log, the upload and every
        # coordinator and client that files it share it.
        result = ResultRecord(
            identity=call.identity,
            size_bytes=result_bytes,
            produced_by=self.address,
            produced_at=self.env.now,
            value=value,
        )
        key = call.identity
        # The archive of new/modified files is the server's log: write it to
        # disk synchronously (pessimistic by construction) before uploading.
        if key not in self.result_log:
            self.result_log.append(key, result, result_bytes)
        yield from self.host.disk_write(result_bytes)
        if not self.result_log.get(key).durable:
            self.result_log.mark_durable(key)

        self.executed_count += 1
        self.monitor.incr("server.tasks_executed")
        self.current_task = None
        yield from self._upload_result(result)

    def _upload_result(self, result: ResultRecord):
        """Send a result until some coordinator acknowledges it."""
        key = result.identity
        while True:
            record = self.result_log.get(key)
            if record is not None and record.acked:
                return
            coordinator = self.registry.preferred()
            if coordinator is None:
                yield self.host.sleep(self.config.work_poll_period)
                continue
            reply = yield from self._request(
                Message(
                    mtype=MessageType.TASK_RESULT,
                    source=self.address,
                    dest=coordinator,
                    payload={"result": result},
                    size_bytes=result.size_bytes,
                ),
                MessageType.TASK_RESULT_ACK,
            )
            if reply is not None:
                self.result_log.mark_acked(key)
                self.monitor.incr("server.results_uploaded")
                return
            self._timed_out(coordinator, "server.result_upload_retries")

    # ------------------------------------------------------------------ sync
    def synchronize(self, coordinator: Address | None = None):
        """Peer-wise log comparison with ``coordinator`` (the preferred one by
        default); resend what it lacks.  Generator returning the reply
        payload, or ``None`` when no coordinator replied."""
        coordinator = coordinator or self.registry.preferred()
        if coordinator is None:
            return None
        unacked = self.result_log.unacked_durable()
        yield from self.host.disk_read(max(sum(r.size_bytes for r in unacked), 64))
        reply = yield from self._request(
            Message(
                mtype=MessageType.SERVER_SYNC,
                source=self.address,
                dest=coordinator,
                payload={"result_keys": [r.key for r in unacked]},
                size_bytes=64 + 16 * len(unacked),
            ),
            MessageType.COORD_SYNC_REPLY,
        )
        if reply is None:
            self.monitor.incr("server.sync_timeouts")
            return None
        self.monitor.incr("server.syncs")
        for key in reply.payload.get("already_finished", []):
            self.result_log.mark_acked(key)
        for key in reply.payload.get("server_must_resend", []):
            record = self.result_log.get(key)
            if record is None:
                continue
            yield from self._upload_result(record.payload)
        return reply.payload
