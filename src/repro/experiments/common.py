"""Shared helpers for the experiment drivers."""

from __future__ import annotations

from typing import Any

from repro.grid.builder import Grid
from repro.sim.core import Process, SimulationError

__all__ = ["finish", "format_rows", "print_rows"]


def finish(grid: Grid, process: Process, horizon: float, what: str) -> None:
    """Run ``process`` to its end; reaching ``horizon`` first is an error.

    The Fig. 4–6 drivers time one exchange each, not a workload run to
    completion, so they spawn their own process instead of going through
    :func:`~repro.scenarios.engine.execute_benchmark`.
    """
    if not grid.run_until(process, timeout=horizon):
        raise SimulationError(f"{what} did not finish within its {horizon:g} s horizon")


def format_rows(rows: list[dict[str, Any]], title: str | None = None) -> str:
    """Render rows as a fixed-width table (what the harness prints)."""
    if not rows:  # pragma: no cover - a sweep that kept no row
        return f"{title or ''}\n(no data)"
    columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in rows)) for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(c).ljust(widths[c]) for c in columns))
    lines.append("  ".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def print_rows(rows: list[dict[str, Any]], title: str | None = None) -> None:
    """Print rows as a table (used by benchmarks and examples)."""
    print(format_rows(rows, title=title))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)
