"""EXP-F8 — Figure 8: distribution of the Alcatel task durations.

The paper runs the Alcatel commutation-network validation tool with 1000
parallel tasks whose durations vary "in a wide range"; Figure 8 plots the
distribution.  Our stand-in workload draws the durations from a log-normal
body with a small heavy tail (see :class:`repro.workloads.alcatel.AlcatelWorkload`
and the substitution note in DESIGN.md); this experiment reports the histogram
and the summary statistics of that distribution.

Registered as the single-cell ``fig8`` scenario (rows = histogram bins; the
cell's outputs also carry the summary statistics).
"""

from __future__ import annotations

from typing import Any

from repro.scenarios.registry import scenario
from repro.scenarios.spec import CellResult, ScenarioSpec
from repro.workloads.alcatel import AlcatelWorkload

__all__ = ["durations_cell"]


def durations_cell(n_tasks: int, bins: int, seed: int = 42) -> dict[str, Any]:
    """Scenario cell: histogram + summary statistics of the duration draw."""
    workload = AlcatelWorkload(n_tasks=n_tasks, seed=seed)
    counts, edges = workload.duration_histogram(bins=bins)
    histogram_rows = [
        {
            "bin_start_seconds": float(edges[i]),
            "bin_end_seconds": float(edges[i + 1]),
            "tasks": int(counts[i]),
        }
        for i in range(len(counts))
    ]
    return {"histogram": histogram_rows, "stats": workload.duration_stats()}


def _histogram_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """Flatten the single cell's histogram into the figure's rows."""
    return [dict(row) for result in results for row in result.outputs["histogram"]]


@scenario("fig8")
def _fig8() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig8",
        title="Distribution of the Alcatel task durations",
        figure="8",
        cell=durations_cell,
        base=dict(n_tasks=1000, bins=20),
        seeds=(42,),
        outputs=("histogram", "stats"),
        scales={"tiny": dict(n_tasks=200, bins=10)},
        reduce=_histogram_rows,
    )
