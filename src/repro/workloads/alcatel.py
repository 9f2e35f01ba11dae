"""Stand-in for the Alcatel commutation-network validation application (§5.2).

The real application "computes the signal lost and the bandwidth for network
configurations" and "allows the user to set the number of parallel tasks for a
given execution"; the paper runs it with 1000 tasks whose durations vary "in a
wide range" (Figure 8).  We model the duration distribution as a log-normal
body with a small heavy tail, which reproduces the figure's shape: a strong
mode at small durations, a long right tail, and a handful of very long tasks.

The substitution is documented in DESIGN.md: only the task-duration
distribution and the task count matter to Figures 8-11; the numerical content
of the computation is irrelevant to the protocol being evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.client import ClientComponent, RPCHandle

__all__ = ["AlcatelSpec", "AlcatelWorkload"]


@dataclass
class AlcatelWorkload:
    """1000 validation tasks with a wide, right-skewed duration distribution."""

    n_tasks: int = 1000
    #: median of the duration distribution, seconds.
    median_duration: float = 110.0
    #: sigma of the underlying normal (controls the spread).
    sigma: float = 0.55
    #: fraction of tasks drawn from the heavy tail.
    tail_fraction: float = 0.04
    #: multiplier applied to tail durations.
    tail_multiplier: float = 4.0
    #: input archive / parameter size per task, bytes.
    params_bytes: int = 20_000
    #: result archive size per task, bytes.
    result_bytes: int = 4_000
    service: str = "network-validation"
    seed: int = 42

    handles: list[RPCHandle] = field(default_factory=list)
    started_at: float | None = None
    completed_at: float | None = None

    # -- the duration distribution (Figure 8) -------------------------------------
    def durations(self) -> np.ndarray:
        """The simulated durations of every task (deterministic per seed)."""
        rng = np.random.default_rng(self.seed)
        base = rng.lognormal(mean=np.log(self.median_duration), sigma=self.sigma,
                             size=self.n_tasks)
        tail_mask = rng.random(self.n_tasks) < self.tail_fraction
        base[tail_mask] *= self.tail_multiplier
        return base

    def duration_histogram(self, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
        """Histogram of task durations (the series Figure 8 plots)."""
        return np.histogram(self.durations(), bins=bins)

    def duration_stats(self) -> dict[str, float]:
        """Summary statistics of the duration distribution."""
        durations = self.durations()
        return {
            "count": float(len(durations)),
            "min": float(durations.min()),
            "median": float(np.median(durations)),
            "mean": float(durations.mean()),
            "p90": float(np.percentile(durations, 90)),
            "max": float(durations.max()),
            "total_cpu_seconds": float(durations.sum()),
        }

    # -- processes -------------------------------------------------------------------
    def submit_only(self, client: ClientComponent):
        """Process: submit every task without waiting for results."""
        self.started_at = client.env.now
        for duration in self.durations():
            handle = yield from client.call_async(
                self.service,
                params_bytes=self.params_bytes,
                result_bytes=self.result_bytes,
                exec_time=float(duration),
            )
            self.handles.append(handle)
        return self.handles

    def run(self, client: ClientComponent):
        """Process: submit every task, then wait for every result."""
        yield from self.submit_only(client)
        yield from client.wait_all(self.handles)
        self.completed_at = client.env.now
        return self.makespan

    # -- metrics -----------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Wall-clock duration of the campaign."""
        if self.started_at is None or self.completed_at is None:  # pragma: no cover - unfinished
            return float("nan")
        return self.completed_at - self.started_at

    def completed_count(self) -> int:
        """How many tasks the client has collected."""
        return sum(1 for handle in self.handles if handle.done)

    @property
    def total_work(self) -> float:
        """Serial execution time of the whole campaign (ideal-time numerator)."""
        return float(self.durations().sum())


@dataclass(frozen=True)
class AlcatelSpec:
    """The Alcatel campaign as an engine workload (``execute_benchmark``)."""

    n_tasks: int = 1000
    median_duration: float = 110.0
    seed: int = 42

    def build(self) -> AlcatelWorkload:
        return AlcatelWorkload(
            n_tasks=self.n_tasks, median_duration=self.median_duration, seed=self.seed
        )
