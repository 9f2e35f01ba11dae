"""The synthetic benchmark of §5.1.

"All experiments run a synthetic benchmark on the client side, executing a set
of non-blocking configurable RPC calls.  The configuration parameters are the
RPC execution time, its parameter and its result size."  The workload submits
``n_calls`` non-blocking calls back to back, records each submission time
(the Figure 4 metric), then waits for every result (the Figure 7 metric is the
total execution time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.client import ClientComponent, RPCHandle

__all__ = ["SubmissionRecord", "SyntheticWorkload"]


@dataclass
class SubmissionRecord:
    """Timing of one submission."""

    timestamp: int
    started_at: float
    acknowledged_at: float


@dataclass
class SyntheticWorkload:
    """A batch of non-blocking RPC calls (identical by default).

    ``exec_time_spread`` makes the batch heterogeneous: call *i* runs for
    ``exec_time * (1 + spread * f_i)`` with a deterministic, irregular
    ``f_i`` in [0, 1] (a Knuth-hash sawtooth — no RNG stream is consumed, so
    enabling the spread perturbs nothing else).  Scheduling-policy ablations
    need this: with identical durations every order of a uniform backlog
    finishes at the same instant.
    """

    n_calls: int = 16
    exec_time: float = 1.0
    params_bytes: int = 1024
    result_bytes: int = 64
    service: str = "sleep"
    #: 0.0 keeps every call at exactly ``exec_time`` (the paper's benchmark).
    exec_time_spread: float = 0.0
    #: filled as the workload runs.
    submissions: list[SubmissionRecord] = field(default_factory=list)
    handles: list[RPCHandle] = field(default_factory=list)
    started_at: float | None = None
    submitted_all_at: float | None = None
    completed_at: float | None = None

    # -- derived metrics ------------------------------------------------------------
    @property
    def submission_time(self) -> float:
        """Total time to submit every call (left/right panels of Fig. 4)."""
        if self.started_at is None or self.submitted_all_at is None:  # pragma: no cover - unfinished
            return float("nan")
        return self.submitted_all_at - self.started_at

    @property
    def makespan(self) -> float:
        """Total execution time: submission through last result (Fig. 7)."""
        if self.started_at is None or self.completed_at is None:  # pragma: no cover - unfinished
            return float("nan")
        return self.completed_at - self.started_at

    def completed_count(self) -> int:
        """How many calls have their result."""
        return sum(1 for handle in self.handles if handle.done)

    def exec_time_for(self, index: int) -> float:
        """Declared execution time of call ``index``."""
        if not self.exec_time_spread:
            return self.exec_time
        fraction = ((index * 2654435761) % 97) / 96
        return self.exec_time * (1.0 + self.exec_time_spread * fraction)

    @property
    def total_work(self) -> float:
        """Serial execution time of the whole batch (ideal-time numerator)."""
        if not self.exec_time_spread:
            return self.exec_time * self.n_calls
        return sum(self.exec_time_for(i) for i in range(self.n_calls))

    # -- process ---------------------------------------------------------------------
    def submit_only(self, client: ClientComponent):
        """Process: submit every call without waiting for results."""
        self.started_at = client.env.now
        for index in range(self.n_calls):
            start = client.env.now
            handle = yield from client.call_async(
                self.service,
                params_bytes=self.params_bytes,
                result_bytes=self.result_bytes,
                exec_time=self.exec_time_for(index),
            )
            self.handles.append(handle)
            self.submissions.append(
                SubmissionRecord(
                    timestamp=handle.timestamp,
                    started_at=start,
                    acknowledged_at=client.env.now,
                )
            )
        self.submitted_all_at = client.env.now
        return self.handles

    def run(self, client: ClientComponent):
        """Process: submit every call, then wait for every result."""
        yield from self.submit_only(client)
        yield from client.wait_all(self.handles)
        self.completed_at = client.env.now
        return self.makespan
