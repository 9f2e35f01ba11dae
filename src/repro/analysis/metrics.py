"""Metrics over completed-task curves and run reports.

These helpers turn the raw time series collected by the monitor into the
quantities the paper discusses: infrastructure overhead over the ideal time,
the replica's lag behind the primary (the plateaux of Figure 9), and compact
series summaries used by the tests and EXPERIMENTS.md.  They also load the
JSON artifacts written by the scenario results store back into row/column
form.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.sim.monitor import TimeSeries

__all__ = [
    "makespan_overhead",
    "completion_curve_lag",
    "plateaux_count",
    "summarize_series",
    "load_run",
    "rows_to_columns",
]


def makespan_overhead(makespan: float, ideal: float) -> float:
    """Relative overhead of a run over the ideal execution time."""
    if ideal <= 0:
        raise ValueError("ideal time must be positive")
    return (makespan - ideal) / ideal


def completion_curve_lag(
    primary: Sequence[float], replica: Sequence[float]
) -> dict[str, float]:
    """How far a replica's completion curve trails the primary's.

    Both sequences must be sampled on the same time grid (use
    :meth:`TimeSeries.resample`).  Returns the mean and max lag in tasks.
    """
    a = np.asarray(primary, dtype=float)
    b = np.asarray(replica, dtype=float)
    if a.shape != b.shape:
        raise ValueError("curves must share the same sampling grid")
    lag = a - b
    return {
        "mean_lag_tasks": float(lag.mean()) if lag.size else 0.0,
        "max_lag_tasks": float(lag.max()) if lag.size else 0.0,
        "final_gap_tasks": float(lag[-1]) if lag.size else 0.0,
    }


def plateaux_count(values: Sequence[float], min_length: int = 2) -> int:
    """Number of flat stretches (>= ``min_length`` samples) in a curve.

    The replica curve of Figure 9 shows plateaux between replication rounds;
    this is the statistic the tests assert on.
    """
    values = list(values)
    if not values:
        return 0
    count = 0
    run_length = 1
    for previous, current in zip(values, values[1:]):
        if current == previous:
            run_length += 1
        else:
            if run_length >= min_length:
                count += 1
            run_length = 1
    if run_length >= min_length:
        count += 1
    return count


def summarize_series(series: TimeSeries) -> dict[str, float]:
    """Compact summary (first/last/extent) of one monitor time series."""
    times, values = series.as_arrays()
    if len(times) == 0:
        return {"samples": 0, "first_time": 0.0, "last_time": 0.0, "final_value": 0.0}
    return {
        "samples": float(len(times)),
        "first_time": float(times[0]),
        "last_time": float(times[-1]),
        "final_value": float(values[-1]),
        "max_value": float(values.max()),
    }


# ---------------------------------------------------------------------------
# Results-store round trips
# ---------------------------------------------------------------------------


def load_run(path: str | Path):
    """Load one scenario results artifact (see :mod:`repro.scenarios.store`).

    Imported lazily so the analysis helpers stay importable on their own.
    """
    import json

    from repro.scenarios.store import RunResult

    return RunResult.from_json(json.loads(Path(path).read_text()))


def rows_to_columns(rows: Sequence[Mapping[str, Any]]) -> dict[str, np.ndarray]:
    """Transpose result rows into named numpy columns (plotting-friendly).

    Non-numeric values become object arrays; missing keys become NaN.
    """
    if not rows:
        return {}
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    columns: dict[str, np.ndarray] = {}
    for key in keys:
        values = [row.get(key, float("nan")) for row in rows]
        try:
            columns[key] = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            columns[key] = np.asarray(values, dtype=object)
    return columns
