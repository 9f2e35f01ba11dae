"""Instrumentation: counters, time series and event traces.

Experiments need two kinds of observations:

* scalar counters / gauges (number of faults injected, messages sent, tasks
  re-executed, ...);
* time series of ``(time, value)`` samples — the completed-task curves of
  Figures 9-11 are exactly this.

The :class:`Monitor` aggregates both and is passed around by the grid runner;
components record into it through small, allocation-light helpers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

__all__ = ["Counter", "TimeSeries", "Monitor", "TraceRecord"]


@dataclass
class TraceRecord:
    """One structured trace event (used by tests and debugging)."""

    time: float
    category: str
    payload: dict[str, Any] = field(default_factory=dict)


class TimeSeries:
    """An append-only series of ``(time, value)`` samples."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time series {self.name!r}: non-monotonic sample "
                f"{time} after {self.times[-1]}"
            )
        self.times.append(float(time))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the series as a pair of numpy arrays."""
        return np.asarray(self.times, dtype=float), np.asarray(self.values, dtype=float)

    def value_at(self, time: float, default: float = 0.0) -> float:
        """Last sampled value at or before ``time`` (step interpolation)."""
        index = int(np.searchsorted(np.asarray(self.times), time, side="right")) - 1
        if index < 0:
            return default
        return self.values[index]

    def resample(self, times: "np.ndarray | list[float]", default: float = 0.0) -> np.ndarray:
        """Step-interpolate the series on the given time grid."""
        grid = np.asarray(times, dtype=float)
        if len(self.times) == 0:
            return np.full_like(grid, default, dtype=float)
        own_times = np.asarray(self.times)
        own_values = np.asarray(self.values)
        idx = np.searchsorted(own_times, grid, side="right") - 1
        out = np.where(idx >= 0, own_values[np.clip(idx, 0, None)], default)
        return out.astype(float)

    def final_value(self, default: float = 0.0) -> float:
        """The last recorded value (or ``default`` if empty)."""
        return self.values[-1] if self.values else default


class Counter:
    """A pre-resolved counter handle: one name lookup at creation, never after.

    Hot paths obtain the handle once (``sent = monitor.counter("net.sent")``)
    and then increment through it — ``sent.add()``, or ``sent.value += n``
    where the call overhead matters — with zero per-increment dict-by-string
    work.  The handle and the monitor share state: :meth:`Monitor.count` and
    :meth:`Monitor.counters` read the same value.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increment the counter by ``amount``."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Monitor:
    """Collects counters, gauges, time series and trace records for one run."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self.gauges: dict[str, float] = {}
        self.series: dict[str, TimeSeries] = {}
        self.traces: list[TraceRecord] = []
        self.trace_enabled = True
        self.trace_limit = 200_000
        #: trace records discarded because ``trace_limit`` was reached.
        self.traces_dropped = 0

    # -- counters / gauges ----------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the :class:`Counter` handle for ``name``."""
        handle = self._counters.get(name)
        if handle is None:
            handle = self._counters[name] = Counter(name)
        return handle

    def incr(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount`` (by-name convenience)."""
        self.counter(name).value += amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = float(value)

    def count(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        handle = self._counters.get(name)
        return handle.value if handle is not None else 0.0

    @property
    def counters(self) -> Mapping[str, float]:
        """Read-only snapshot of every counter as a name-to-value mapping.

        Writes go through :meth:`incr` or a :meth:`counter` handle; the
        mapping is a frozen snapshot, so an accidental ``counters[x] += 1``
        raises instead of silently updating a throwaway dict.
        """
        return MappingProxyType(
            {name: handle.value for name, handle in self._counters.items()}
        )

    # -- time series ----------------------------------------------------------
    def timeseries(self, name: str) -> TimeSeries:
        """Return (creating if needed) the time series called ``name``."""
        series = self.series.get(name)
        if series is None:
            series = TimeSeries(name)
            self.series[name] = series
        return series

    def sample(self, name: str, time: float, value: float) -> None:
        """Append one sample to the time series ``name``."""
        self.timeseries(name).record(time, value)

    # -- traces ---------------------------------------------------------------
    def trace(self, time: float, category: str, **payload: Any) -> None:
        """Record a structured trace event (bounded by ``trace_limit``).

        Records past the limit are counted in ``traces_dropped``; the first
        one of a run warns.
        """
        if not self.trace_enabled:
            return
        if len(self.traces) >= self.trace_limit:
            if not self.traces_dropped:
                warnings.warn(
                    f"Monitor.trace: trace_limit ({self.trace_limit}) reached, "
                    "later records are dropped (counted in traces_dropped)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self.traces_dropped += 1
            return
        self.traces.append(TraceRecord(time=time, category=category, payload=payload))

    def traces_of(self, category: str) -> list[TraceRecord]:
        """All trace records with the given category."""
        return [t for t in self.traces if t.category == category]

    # -- reporting --------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """A plain-dict snapshot of counters, gauges and series lengths."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "series": {name: len(ts) for name, ts in self.series.items()},
            "traces": len(self.traces),
            "traces_dropped": self.traces_dropped,
        }
