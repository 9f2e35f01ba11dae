"""The RPC-V server (worker) component.

Servers pull work from their preferred coordinator, execute it, archive the
result on local disk (the archive *is* the server log, so server-side logging
is "necessarily pessimistic"), then upload the archive and wait for the
acknowledgement, which also carries the server's next task (one round trip
per task; an idle server asks with a work request, which the coordinator
holds open until it has a task or ``work_poll_period`` is over).  The
connection-less protocol means the same server "may disconnect the
coordinator, continue the execution and re-connect the coordinator later for
sending RPC results" — off-line computing — which the component implements
by resynchronising its unacknowledged results whenever it (re)connects or
switches coordinator.
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
            call: CallDescription | None = None
            while True:
                if call is None:
                    coordinator = self.registry.preferred()
                    # The coordinator holds the request open for up to one
                    # poll period; a NO_WORK means the period is over, so
                    # the server asks again at once.
                    reply = yield from self._request(
                        Message(
                            mtype=MessageType.WORK_REQUEST,
                            source=self.address,
                            dest=coordinator,
                            payload={"window": period},
                            size_bytes=64,
                        ),
                        MessageType.TASK_ASSIGN,  # or NO_WORK
                        hold=period,
                    )
                    if reply is None:
                        self._timed_out(coordinator, "server.request_timeouts")
                        continue
                    if reply.mtype is MessageType.NO_WORK:
                        continue
                    call = reply.payload["call"]
                # The upload's ack carries the next task, or none: then the
                # server asks with a work request.  A result acked otherwise
                # (a re-send, a sync) asks anew too.
                ack = yield from self._execute(call)
                call = ack.payload.get("call") if ack is not None else None
        except ProcessKilled:  # pragma: no cover - host crash
            return

    def _execute(self, call: CallDescription):
        """Run one task, archive its result, upload it until acknowledged.

        Generator returning the upload's ack (see :meth:`_upload_result`).
        """
        self.current_task = call
        spec = self.services.get(call.service) if self.services.has(call.service) else None
        exec_time = call.exec_time
        if exec_time is None:  # pragma: no cover - a call may leave it to the service
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

        self.monitor.incr("server.tasks_executed")
        self.current_task = None
        return (yield from self._upload_result(result, next_task=True))

    def _upload_result(self, result: ResultRecord, next_task: bool = False):
        """Send a result until some coordinator acknowledges it.

        With ``next_task`` the first send also asks for the server's next
        task, which the ack carries (or no task).  A re-send asks for none:
        after a time-out the server may be switching coordinator, and the
        resync a switch spawns would re-queue a task assigned meanwhile.
        Generator returning the ack of a send that asked for work, else
        ``None``.
        """
        key = result.identity
        while True:
            record = self.result_log.get(key)
            if record is not None and record.acked:
                return None
            coordinator = self.registry.preferred()
            reply = yield from self._request(
                Message(
                    mtype=MessageType.TASK_RESULT,
                    source=self.address,
                    dest=coordinator,
                    payload={"result": result, "next_task": next_task},
                    size_bytes=result.size_bytes,
                ),
                MessageType.TASK_RESULT_ACK,
            )
            if reply is not None:
                self.result_log.mark_acked(key)
                self.monitor.incr("server.results_uploaded")
                return reply if next_task else None
            self._timed_out(coordinator, "server.result_upload_retries")
            next_task = False

    # ------------------------------------------------------------------ sync
    def synchronize(self, coordinator: Address | None = None):
        """Peer-wise log comparison with ``coordinator`` (the preferred one by
        default); resend what it lacks.  Generator returning the reply
        payload, or ``None`` when no coordinator replied."""
        coordinator = coordinator or self.registry.preferred()
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
            if record is None:  # pragma: no cover - collected by the log GC meanwhile
                continue
            yield from self._upload_result(record.payload)
        return reply.payload
