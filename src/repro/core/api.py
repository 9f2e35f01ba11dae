"""GridRPC-compatible programming façade.

The RPC-V API "is compliant with GridRPC except the functions for Remote
Function Handle Management", which the coordinator's virtualization makes
unnecessary (the client never connects to a server directly).  This module
exposes that surface on top of :class:`~repro.core.client.ClientComponent`:

================  =====================================================
GridRPC function   RPC-V equivalent
================  =====================================================
grpc_initialize    :meth:`GridRpc.initialize`
grpc_finalize      :meth:`GridRpc.finalize`
grpc_call          :meth:`GridRpc.call` (blocking)
grpc_call_async    :meth:`GridRpc.call_async` (returns a session/handle id)
grpc_probe         :meth:`GridRpc.probe`
grpc_wait          :meth:`GridRpc.wait`
grpc_wait_all      :meth:`GridRpc.wait_all`
grpc_wait_any      :meth:`GridRpc.wait_any`
grpc_cancel        :meth:`GridRpc.cancel` (best effort — at-least-once
                   semantics mean an executing call may still complete)
function handles   *absent by design* — the coordinator forwards calls
================  =====================================================

All blocking operations are generators: application code runs inside a host
process and drives them with ``yield from``, exactly like the paper's client
application runs alongside the XtremWeb client.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.client import ClientComponent, RPCHandle
from repro.errors import RPCError, SessionError
from repro.types import RPCStatus

__all__ = ["GridRpc"]


class GridRpc:
    """GridRPC-style façade over one RPC-V client."""

    def __init__(self, client: ClientComponent) -> None:
        self._client = client
        self._initialized = False
        self._handles: dict[int, RPCHandle] = {}

    # -- lifecycle -------------------------------------------------------------
    def initialize(self) -> None:
        """grpc_initialize: bind to the (already started) RPC-V client."""
        if not self._client.started:
            raise SessionError("the underlying RPC-V client is not started")
        self._initialized = True

    def finalize(self) -> None:
        """grpc_finalize: forget every handle (the session itself stays open)."""
        self._handles.clear()
        self._initialized = False

    @property
    def initialized(self) -> bool:
        """Whether :meth:`initialize` has been called."""
        return self._initialized

    def _require_init(self) -> None:
        if not self._initialized:
            raise SessionError("call initialize() before issuing RPCs")

    # -- calls ----------------------------------------------------------------
    def call_async(
        self,
        service: str,
        *,
        params_bytes: int = 1024,
        result_bytes: int = 128,
        exec_time: float | None = None,
        args: Any = None,
    ):
        """grpc_call_async: submit and return the handle id (generator)."""
        self._require_init()
        handle = yield from self._client.call_async(
            service,
            params_bytes=params_bytes,
            result_bytes=result_bytes,
            exec_time=exec_time,
            args=args,
        )
        self._handles[handle.timestamp] = handle
        return handle.timestamp

    def call(
        self,
        service: str,
        *,
        params_bytes: int = 1024,
        result_bytes: int = 128,
        exec_time: float | None = None,
        args: Any = None,
    ):
        """grpc_call: blocking call returning the result record (generator)."""
        self._require_init()
        result = yield from self._client.call(
            service,
            params_bytes=params_bytes,
            result_bytes=result_bytes,
            exec_time=exec_time,
            args=args,
        )
        return result

    # -- waiting / probing ---------------------------------------------------------
    def _handle(self, handle_id: int) -> RPCHandle:
        try:
            return self._handles[handle_id]
        except KeyError:
            raise RPCError(f"unknown handle id {handle_id!r}") from None

    def probe(self, handle_id: int) -> RPCStatus:
        """grpc_probe: non-blocking completion check."""
        return self._client.probe(self._handle(handle_id))

    def wait(self, handle_id: int):
        """grpc_wait: block until one call completes (generator)."""
        result = yield from self._client.wait(self._handle(handle_id))
        return result

    def wait_all(self, handle_ids: Iterable[int]):
        """grpc_wait_all: block until every listed call completes (generator)."""
        handles = [self._handle(h) for h in handle_ids]
        results = yield from self._client.wait_all(handles)
        return results

    def wait_any(self, handle_ids: Iterable[int]):
        """grpc_wait_any: block until one of the calls completes (generator).

        Returns ``(handle_id, result)`` of the first completion.
        """
        ids = list(handle_ids)
        handles = [self._handle(h) for h in ids]
        for handle_id, handle in zip(ids, handles):
            if handle.done:
                return handle_id, handle.result
        events = [h.completed_event for h in handles]
        # wait_any detaches from the losing handles' completion events, so a
        # broad race does not leave stale callbacks on long-lived handles.
        yield from self._client.env.wait_any(events)
        for handle_id, handle in zip(ids, handles):
            if handle.done:
                return handle_id, handle.result
        raise RPCError("wait_any returned without any completed handle")

    def cancel(self, handle_id: int) -> None:
        """grpc_cancel: stop tracking the call locally (best effort).

        At-least-once semantics mean a server may still execute and upload
        the result; the client simply stops waiting for it.
        """
        self._handles.pop(handle_id, None)

    # -- introspection ---------------------------------------------------------------
    def handles(self) -> list[int]:
        """Ids of every handle issued through this façade."""
        return list(self._handles)

    def result_of(self, handle_id: int):
        """Result record of a completed handle (None when not completed)."""
        return self._handle(handle_id).result
