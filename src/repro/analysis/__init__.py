"""Analysis helpers: curve statistics, run reports, results-store round trips."""

from repro.analysis.metrics import (
    completion_curve_lag,
    load_run,
    makespan_overhead,
    plateaux_count,
    rows_to_columns,
    summarize_series,
)

__all__ = [
    "completion_curve_lag",
    "load_run",
    "makespan_overhead",
    "plateaux_count",
    "rows_to_columns",
    "summarize_series",
]
