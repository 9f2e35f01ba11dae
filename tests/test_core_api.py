"""Tests for the GridRPC-compatible facade (`repro.core.api.GridRpc`)."""

from __future__ import annotations

import pytest

from repro.core.api import GridRpc
from repro.errors import RPCError, SessionError
from repro.grid.builder import build_confined_cluster
from repro.types import RPCStatus


def _grid():
    grid = build_confined_cluster(n_servers=2, n_coordinators=2, seed=1)
    grid.start()
    return grid


def _drive(grid, generator, timeout=600.0):
    """Run an application generator on the client host to completion."""
    process = grid.run_process(generator, name="api-test")
    assert grid.run_until(process, timeout=timeout), "application timed out"


class TestLifecycleGuardRails:
    def test_initialize_requires_a_started_client(self):
        grid = build_confined_cluster(n_servers=1, n_coordinators=1)
        api = GridRpc(grid.client)  # grid (and client) not started
        with pytest.raises(SessionError, match="not started"):
            api.initialize()
        assert not api.initialized

    def test_calls_require_initialize(self):
        grid = _grid()
        api = GridRpc(grid.client)

        def application():
            with pytest.raises(SessionError, match="initialize"):
                yield from api.call("sleep", exec_time=0.1)
            with pytest.raises(SessionError, match="initialize"):
                yield from api.call_async("sleep", exec_time=0.1)

        _drive(grid, application())

    def test_finalize_clears_handles_and_initialized(self):
        grid = _grid()
        api = GridRpc(grid.client)
        api.initialize()
        assert api.initialized

        def application():
            handle_id = yield from api.call_async("sleep", exec_time=0.5)
            assert api.handles() == [handle_id]
            yield from api.wait(handle_id)

        _drive(grid, application())
        api.finalize()
        assert not api.initialized
        assert api.handles() == []


class TestHandleBookkeeping:
    def test_call_async_probe_wait(self):
        grid = _grid()
        api = GridRpc(grid.client)
        api.initialize()
        observed = {}

        def application():
            handle_id = yield from api.call_async(
                "sleep", exec_time=2.0, params_bytes=256, result_bytes=32
            )
            observed["early"] = api.probe(handle_id)
            result = yield from api.wait(handle_id)
            observed["late"] = api.probe(handle_id)
            observed["result"] = result
            observed["result_of"] = api.result_of(handle_id)

        _drive(grid, application())
        assert observed["early"] in (RPCStatus.SUBMITTED, RPCStatus.RUNNING)
        assert observed["late"] is RPCStatus.COMPLETED
        assert observed["result"] is not None
        assert observed["result_of"] is observed["result"]

    def test_wait_all_and_wait_any(self):
        grid = _grid()
        api = GridRpc(grid.client)
        api.initialize()
        observed = {}

        def application():
            ids = []
            for index in range(3):
                handle_id = yield from api.call_async(
                    "sleep", exec_time=1.0 + index
                )
                ids.append(handle_id)
            observed["ids"] = ids
            first_id, first_result = yield from api.wait_any(ids)
            observed["first"] = (first_id, first_result)
            observed["all"] = (yield from api.wait_all(ids))
            # wait_any on all-completed handles returns without blocking,
            # picking the first listed completed handle.
            again_id, _ = yield from api.wait_any(ids)
            observed["again"] = again_id

        _drive(grid, application())
        first_id, first_result = observed["first"]
        assert first_id in observed["ids"]
        assert first_result is not None
        assert len(observed["all"]) == 3
        assert observed["again"] == observed["ids"][0]

    def test_unknown_handles_raise(self):
        grid = _grid()
        api = GridRpc(grid.client)
        api.initialize()
        with pytest.raises(RPCError, match="unknown handle"):
            api.probe(424242)
        with pytest.raises(RPCError, match="unknown handle"):
            api.result_of(424242)

    def test_cancel_stops_tracking_only(self):
        grid = _grid()
        api = GridRpc(grid.client)
        api.initialize()
        observed = {}

        def application():
            handle_id = yield from api.call_async("sleep", exec_time=1.0)
            api.cancel(handle_id)
            observed["tracked"] = api.handles()
            with pytest.raises(RPCError, match="unknown handle"):
                api.probe(handle_id)
            api.cancel(handle_id)  # cancelling twice is a no-op
            # At-least-once semantics: the underlying client still completes.
            pending = list(api._client._pending.values())
            if pending:
                yield from api._client.wait_all(pending)
            observed["completed"] = api._client.completed_count

        _drive(grid, application())
        assert observed["tracked"] == []
        assert observed["completed"] >= 1

    def test_blocking_call_returns_the_result_record(self):
        grid = _grid()
        api = GridRpc(grid.client)
        api.initialize()
        observed = {}

        def application():
            result = yield from api.call("sleep", exec_time=1.5, result_bytes=48)
            observed["result"] = result

        _drive(grid, application())
        result = observed["result"]
        assert result.size_bytes == 48
        assert str(result.produced_by).startswith("server:")
