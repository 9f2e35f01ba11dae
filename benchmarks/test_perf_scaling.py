"""Scaling checks, and the one definition of a timing rep they use.

A scaling check times one operation at a low and a high scale *in the same
run* and asserts that the high-scale rate stays above a floor times the
low-scale rate, so the host's speed cancels out.  Absolute speed is left to
the repo benchmark (``bench/run.py``), measured parent against change on
one host.

A check is kept only where neither that benchmark's end-to-end bounds nor
its layer-calls count (``compare_layer_calls.py``) catches a planted
regression in the same code, and where the check itself does; its floor
sits below the parent's lowest ratio over five runs and above the plant's
highest.

A *sample* repeats ``step()`` until at least :data:`MIN_SAMPLE_S` wall
seconds have passed and returns the units done per second (``step``
returns how many it did).  :func:`scaling_ratio` takes :data:`SAMPLES`
samples of each scale, alternating low and high so that a slow host phase
lands on both, and divides the median high rate by the median low rate.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable

from repro.core.protocol import CallDescription, TaskRecord
from repro.core.replication import build_state
from repro.core.taskindex import TaskIndex
from repro.types import CallIdentity, TaskState

#: least wall time one sample measures.
MIN_SAMPLE_S = 0.5
#: samples per scale.
SAMPLES = 5


def sample_rate(step: Callable[[], int]) -> float:
    """Units per wall second over repeated ``step()`` calls.

    The cycle collector is off while a sample runs: when it scans depends on
    what earlier tests left allocated, not on the code under test.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        units = 0
        start = time.perf_counter()
        while True:
            units += step()
            wall = time.perf_counter() - start
            if wall >= MIN_SAMPLE_S:
                return units / wall
    finally:
        if was_enabled:
            gc.enable()


def scaling_ratio(
    low: Callable[[], int], high: Callable[[], int]
) -> tuple[float, list[float], list[float]]:
    """Median high rate / median low rate, and both sample lists."""
    lows: list[float] = []
    highs: list[float] = []
    for _ in range(SAMPLES):
        lows.append(sample_rate(low))
        highs.append(sample_rate(high))
    return statistics.median(highs) / statistics.median(lows), lows, highs


def calls(user: str, n: int) -> list[CallDescription]:
    return [
        CallDescription(
            identity=CallIdentity(user, "s", rpc),
            service="sleep",
            params_bytes=64,
            exec_time=0.01,
        )
        for rpc in range(n)
    ]


def pending_table(n: int) -> dict:
    """A task table of ``n`` pending records, in submission order."""
    return {
        call.identity: TaskRecord(
            call=call, state=TaskState.PENDING, owner="k0", submitted_at=float(rpc)
        )
        for rpc, call in enumerate(calls("bench", n))
    }


# ------------------------------------------------------------- replication
#: records each delta round ships.
DELTA_DIRTY = 64
DELTA_SCALES = (1_000, 100_000)
#: A round that walks the whole table instead of its dirty keys measured
#: 0.027-0.031; the parent 0.97-1.23 (5 runs each, 2-core x86 VM).
DELTA_FLOOR = 0.5


def _delta_round(n: int) -> Callable[[], int]:
    """One replication round: note the dirty records, build their abstract."""
    tasks = pending_table(n)
    index = TaskIndex(tasks)
    dirty = list(tasks)[:: n // DELTA_DIRTY][:DELTA_DIRTY]
    dirty_set = set(dirty)

    def step() -> int:
        for key in dirty:
            index.note(tasks[key], key)
        build_state("k0", tasks, {}, [], only_keys=index.table_ordered(dirty_set))
        return 1

    return step


def test_a_delta_round_costs_its_dirty_set_not_the_table():
    ratio, lows, highs = scaling_ratio(*map(_delta_round, DELTA_SCALES))
    assert ratio >= DELTA_FLOOR, (ratio, lows, highs)
