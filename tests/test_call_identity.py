"""One object per call: the call identity is the key of every table.

The paper names every RPC execution by *(user ID, session ID, RPC ID)*.
:class:`~repro.types.CallIdentity` is that triple, and a call has exactly one
such object: the client's session allocates it and every table and payload
that refers to the call — coordinator tasks and results, the task index,
client handles and logs, server logs, replica abstracts — holds that object.
The call's frozen :class:`~repro.core.protocol.CallDescription` travels the
same way, so a grid also holds one description per call.
"""

from __future__ import annotations

import gc
import sys
import textwrap
import types
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.protocol import CallDescription, TaskRecord
from repro.experiments import fig6_synchronization
from repro.experiments.fig4_message_logging import logging_cell
from repro.experiments.fig5_replication import replication_cell
from repro.grid.builder import Grid, build_confined_cluster
from repro.policies.scheduling import fcfs_key
from repro.sim.core import SimulationError
from repro.types import CallIdentity
from repro.workloads.synthetic import SyntheticWorkload


def _spread_run(n_calls: int = 30) -> Grid:
    """A small finished run on a spread grid: replicas, results, syncs."""
    grid = build_confined_cluster(
        n_servers=6, n_coordinators=3, spread_servers=True, seed=3
    )
    grid.start()
    workload = SyntheticWorkload(n_calls=n_calls, exec_time=1.0)
    process = grid.run_process(workload.run(grid.client))
    assert grid.run_until(process, timeout=2_000.0)
    assert workload.completed_count() == n_calls
    return grid


def _reachable_from(root: object, cls: type) -> list:
    """Every distinct instance of ``cls`` reachable from ``root``.

    The walk follows ``gc.get_referents`` but stays inside the run: module
    namespaces and classes are shared by every grid in the process, so they
    are not entered.
    """
    shared = {id(module.__dict__) for module in list(sys.modules.values())}
    found: dict[int, object] = {}
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj) is cls:
            found[id(obj)] = obj
            continue
        if id(obj) in shared or isinstance(obj, (type, types.ModuleType)):
            continue
        stack.extend(gc.get_referents(obj))
    return list(found.values())


class TestOneObjectPerCall:
    def test_every_table_keys_on_call_identity(self):
        grid = _spread_run()
        keys = []
        for coordinator in grid.coordinators:
            keys += [*coordinator.tasks, *coordinator.results, *coordinator._changes]
        for client in grid.clients:
            keys += [*client.handles, *client.log.keys()]
        for server in grid.servers:
            keys += list(server.result_log.keys())
        assert len(keys) > 30
        assert {type(key) for key in keys} == {CallIdentity}

    def test_one_identity_object_per_call_is_reachable_from_the_grid(self):
        grid = _spread_run()
        # Every coordinator holds the calls (replication), so the same call
        # appears in many tables: all of them must share one object.
        assert all(len(c.tasks) == 30 for c in grid.coordinators)
        identities = _reachable_from(grid, CallIdentity)
        assert len(identities) == grid.client.session.issued_count() == 30
        assert len(set(identities)) == len(identities)

    def test_one_description_object_per_call_is_reachable_from_the_grid(self):
        # Submissions, assignments, client and server state and every
        # coordinator's replica share the description the client built.
        grid = _spread_run()
        assert all(len(c.tasks) == 30 for c in grid.coordinators)
        descriptions = _reachable_from(grid, CallDescription)
        assert len(descriptions) == grid.client.session.issued_count() == 30


@dataclass(frozen=True, order=True)
class _ReferenceIdentity:
    """What the identity used to be: an ordered dataclass over the fields."""

    user: str
    session: str
    rpc: int


_FIELDS = st.tuples(
    st.text(alphabet="ab/-", max_size=3),
    st.text(alphabet="ab/-", max_size=3),
    st.integers(min_value=0, max_value=1_000),
)


class TestIdentityOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_FIELDS, max_size=40))
    def test_sorting_matches_an_ordered_dataclass(self, fields):
        identities = [CallIdentity(*f) for f in fields]
        # The identity is the plain tuple key: equal, same hash.
        assert all(i == f and hash(i) == hash(f) for i, f in zip(identities, fields))
        expected = sorted(_ReferenceIdentity(*f) for f in fields)
        assert [tuple(i) for i in sorted(identities)] == [
            (r.user, r.session, r.rpc) for r in expected
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 1.0, 2.5]), _FIELDS),
            max_size=30,
            unique_by=lambda entry: entry[1],
        )
    )
    def test_fcfs_order_is_submission_time_then_identity(self, entries):
        records = [
            TaskRecord(
                call=CallDescription(
                    identity=CallIdentity(*f), service="sleep", params_bytes=0
                ),
                submitted_at=t,
            )
            for t, f in entries
        ]
        expected = sorted(
            records, key=lambda r: (r.submitted_at, _ReferenceIdentity(*r.identity))
        )
        assert [r.identity for r in sorted(records, key=fcfs_key)] == [
            r.identity for r in expected
        ]


class TestUnfinishedDriversAreErrors:
    """A figure point or example run that hit its horizon is not a result."""

    @staticmethod
    def _tiny_horizon(monkeypatch) -> None:
        run_until = Grid.run_until
        monkeypatch.setattr(
            Grid, "run_until", lambda self, process, timeout: run_until(self, process, 1e-3)
        )

    def test_fig4_submission_driver(self, monkeypatch):
        self._tiny_horizon(monkeypatch)
        with pytest.raises(SimulationError, match=r"fig4: .*50000 s"):
            logging_cell("optimistic", n_calls=2, params_bytes=1_000)

    def test_fig6_warm_up(self, monkeypatch):
        # Too short for the coordinator-logs warm-up to get its calls done.
        monkeypatch.setattr(fig6_synchronization, "SYNC_HORIZON", 1.0)
        with pytest.raises(
            SimulationError,
            match=r"fig6: the coordinator-logs warm-up \(2 calls of 1000 B\) .* 1 s",
        ):
            fig6_synchronization.sync_cell(
                "coordinator-logs", n_calls=2, params_bytes=1_000
            )

    def test_fig5_replication_driver(self, monkeypatch):
        self._tiny_horizon(monkeypatch)
        with pytest.raises(SimulationError, match=r"fig5: .*10000 s"):
            replication_cell("confined", n_tasks=2, params_bytes=1_000)

    def test_package_quickstart(self, monkeypatch, capsys):
        source = textwrap.dedent(repro.__doc__.split("Quickstart::", 1)[1])
        quickstart = compile(source, "repro quickstart", "exec")
        exec(quickstart, {})
        _makespan, completed = capsys.readouterr().out.split()
        assert completed == "16"
        self._tiny_horizon(monkeypatch)
        with pytest.raises(
            SimulationError, match=r"fault-free run lost calls: .*\(horizon 600 s\)"
        ):
            exec(quickstart, {})
