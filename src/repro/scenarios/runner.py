"""Parallel sweep execution over a scenario's cells.

Every cell of a resolved sweep is one independent, deterministic simulation
(its own environment, RNG streams and monitor, fully described by the merged
parameters plus the seed), so a sweep is embarrassingly parallel: the
:class:`SweepRunner` fans the cells out over a ``ProcessPoolExecutor`` and
reassembles the results in cell order, which makes the parallel run
row-for-row identical to the sequential fallback (``jobs=1``) for the same
seeds.  Workers receive the cell kernel (a module-level callable, pickled by
reference) plus plain parameter dictionaries — nothing else crosses the
process boundary, so ad-hoc specs work under both fork and spawn start
methods.  The pool machinery (``multiprocessing``, ``concurrent.futures``)
loads only for ``jobs > 1``, where processes start.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import time
import warnings
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import CellResult, ScenarioSpec, SweepCell, SweepPlan
from repro.scenarios.store import ResultsStore, RunResult

__all__ = ["SweepRunner", "run_scenario"]


def _execute_cell(
    cell: Callable[..., dict[str, Any]], call_params: dict[str, Any]
) -> tuple[dict[str, Any], float]:
    """Worker entry point: run one cell kernel, timing it.

    Runs in the parent for sequential sweeps and in pool workers for parallel
    ones.  Returns the outputs and the cell's wall seconds.

    A finished grid is cyclic garbage (host ↔ component ↔ process ↔
    environment) and the drain leaves its collection to whoever owns the run
    (see :meth:`~repro.sim.core.Environment.run`).  The collection here
    frees each cell before the next one is built, so a sweep holds one
    cell's memory, not every finished cell's; it is inside the timed window
    because the cell owes it.  It is a young-generation collection, unless
    the collector ran one of its own older generations during the cell:
    that promoted the live grid into the oldest generation, which only a
    full collection reaches.
    """
    started = time.perf_counter()
    older = _older_collections()
    outputs = cell(**call_params)
    gc.collect(1 if _older_collections() == older else 2)
    return outputs, time.perf_counter() - started


def _older_collections() -> int:
    """Collections of the two older generations so far in this process."""
    stats = gc.get_stats()
    return stats[1]["collections"] + stats[2]["collections"]


class SweepRunner:
    """Enumerate and execute the cells of one scenario sweep."""

    def __init__(
        self,
        spec: ScenarioSpec | str,
        scale: str | None = None,
        jobs: int | None = None,
        seeds: Sequence[int] | None = None,
        axes: Mapping[str, Sequence[Any]] | None = None,
        params: Mapping[str, Any] | None = None,
        store: ResultsStore | None = None,
        resume: bool = False,
        paired_axes: Sequence[str] | None = None,
    ) -> None:
        self.spec = get_scenario(spec) if isinstance(spec, str) else spec
        self.plan: SweepPlan = self.spec.resolve(
            scale=scale, seeds=seeds, axes=axes, params=params
        )
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.store = store
        #: axes whose arms must share identical fault-stream fingerprints
        #: (common random numbers); falls back to the spec's declaration.
        self.paired_axes = tuple(
            paired_axes if paired_axes is not None else self.spec.paired_axes
        )
        axis_names = {axis.name for axis in self.plan.axes}
        unknown = set(self.paired_axes) - axis_names
        if unknown:
            raise ConfigurationError(
                f"paired_axes {sorted(unknown)} are not axes of scenario "
                f"{self.spec.name!r}"
            )
        #: skip cells whose (spec hash, index, seed) already have a stored
        #: checkpoint; requires a store.
        self.resume = resume and store is not None
        #: cells reused from checkpoints by the last :meth:`run` call.
        self.resumed_cells = 0
        #: why the last :meth:`run` fell back from the pool to sequential
        #: execution ("<ExceptionType>: <message>"); ``None`` when it did not.
        self.parallel_fallback: str | None = None

    # ------------------------------------------------------------------- run
    def run(self, save: bool = False) -> RunResult:
        """Execute every cell and return the assembled :class:`RunResult`.

        With ``save=True`` (or a store passed at construction *and*
        ``save=True``) the artifact is written and its path recorded under
        ``result.manifest["artifact"]``.  When a store is involved, each
        finished cell is also checkpointed as it completes, so an
        interrupted sweep can be picked up by a later ``resume=True`` run
        of the same resolution without recomputing the finished cells.
        """
        cells = self.plan.cells()
        spec_hash = self.spec.spec_hash(self.plan)
        checkpointing = self.store is not None and (save or self.resume)
        done: dict[tuple[int, int], tuple[dict[str, Any], float]] = {}
        if self.resume:
            stored = self.store.load_cells(self.spec.name, spec_hash)
            keys = {(cell.index, cell.seed) for cell in cells}
            done = {key: outcome for key, outcome in stored.items() if key in keys}
        self.resumed_cells = len(done)

        started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        started = time.perf_counter()
        todo = [cell for cell in cells if (cell.index, cell.seed) not in done]
        parallel = self.jobs > 1 and len(todo) > 1
        self.parallel_fallback = None
        if parallel:
            fresh = self._run_parallel(todo, spec_hash if checkpointing else None)
            parallel = fresh is not None
        if not parallel:
            fresh = []
            for cell in todo:
                outcome = _execute_cell(self.spec.cell, cell.call_params)
                if checkpointing:
                    self._checkpoint(spec_hash, cell, outcome)
                fresh.append(outcome)
        for cell, outcome in zip(todo, fresh):
            done[(cell.index, cell.seed)] = outcome
        raw = [done[(cell.index, cell.seed)] for cell in cells]
        wall = time.perf_counter() - started

        results = [
            CellResult(
                index=cell.index,
                params=dict(cell.params),
                seed=cell.seed,
                outputs=outputs,
                wall_seconds=cell_wall,
            )
            for cell, (outputs, cell_wall) in zip(cells, raw)
        ]
        if self.paired_axes:
            self._assert_paired(results)
        rows = (
            self.spec.reduce(results)
            if self.spec.reduce is not None
            else [result.row() for result in results]
        )
        result = RunResult(
            scenario=self.spec.name,
            scale=self.plan.scale,
            spec_hash=self.spec.spec_hash(self.plan),
            seeds=self.plan.seeds,
            rows=rows,
            cells=[
                {
                    "params": dict(r.params),
                    "seed": r.seed,
                    "outputs": dict(r.outputs),
                    "wall_seconds": r.wall_seconds,
                }
                for r in results
            ],
            jobs=self.jobs if parallel else 1,
            parallel=parallel,
            wall_seconds=wall,
            started_at=started_at,
            title=self.spec.title,
            figure=self.spec.figure,
            manifest=self.spec.manifest(self.plan),
        )
        if self.resumed_cells:
            result.manifest["resumed_cells"] = self.resumed_cells
        if self.parallel_fallback:
            result.manifest["parallel_fallback"] = self.parallel_fallback
        if save:
            store = self.store or ResultsStore()
            result.manifest["artifact"] = str(store.save(result))
        return result

    def _assert_paired(self, results: list[CellResult]) -> None:
        """Verify common-random-numbers pairing across the paired axes.

        Cells that agree on every parameter *except* the paired axes (and on
        the seed) form one pairing group; all members must report identical
        ``fault_streams`` fingerprints, i.e. the same fault streams existed
        and consumed the same number of draws in every arm.  A divergence
        means a policy arm perturbed the fault schedule it was supposed to be
        measured under, so the sweep's comparison is unsound — fail loudly.
        """
        paired = set(self.paired_axes)
        groups: dict[str, list[CellResult]] = {}
        for result in results:
            rest = {k: v for k, v in result.params.items() if k not in paired}
            key = json.dumps(
                {"params": rest, "seed": result.seed}, sort_keys=True, default=str
            )
            groups.setdefault(key, []).append(result)
        for members in groups.values():
            if len(members) < 2:
                continue
            fingerprints = []
            for member in members:
                # An empty dict is a valid fingerprint (a fully deterministic
                # fault plan draws nothing); only a missing one is an error.
                streams = member.outputs.get("fault_streams")
                if streams is None:
                    raise ConfigurationError(
                        f"scenario {self.spec.name!r} declares paired axes "
                        f"{sorted(paired)} but cell {member.index} (seed "
                        f"{member.seed}) recorded no fault_streams fingerprint; "
                        "the cell kernel must run with record_fault_streams"
                    )
                fingerprints.append(streams)
            reference = fingerprints[0]
            for member, streams in zip(members[1:], fingerprints[1:]):
                if streams != reference:
                    arm = {k: member.params.get(k) for k in sorted(paired)}
                    base = {
                        k: members[0].params.get(k) for k in sorted(paired)
                    }
                    raise ConfigurationError(
                        f"scenario {self.spec.name!r}: fault streams diverge "
                        f"across paired axes (seed {member.seed}): arm {arm} "
                        f"disagrees with arm {base} — the arms did not see "
                        "the same fault schedule"
                    )

    def _checkpoint(
        self,
        spec_hash: str,
        cell: SweepCell,
        outcome: tuple[dict[str, Any], float],
    ) -> None:
        outputs, cell_wall = outcome
        self.store.save_cell(
            self.spec.name, spec_hash, cell.index, cell.seed, outputs, cell_wall
        )

    def _run_parallel(
        self, cells: list[SweepCell], checkpoint_hash: str | None = None
    ) -> list[tuple[dict[str, Any], float]] | None:
        """Fan the cells out over a process pool; ``None`` → fall back.

        Results come back in cell order regardless of completion order (each
        is checkpointed as its future completes when a checkpoint hash is
        given).  A pool that cannot start (restricted sandboxes) or a kernel
        that cannot cross the process boundary (not module-level) degrades
        to the sequential path: one ``RuntimeWarning``, and the reason kept
        in :attr:`parallel_fallback` for the manifest.  Both are found out
        before any cell runs, so an exception raised later is a cell's own
        and propagates — once, with no sequential re-run.
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed
        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            # Fork keeps worker start-up cheap (no re-import per worker).
            context = multiprocessing.get_context("fork")
        pool = None
        try:
            pickle.dumps((self.spec.cell, [cell.call_params for cell in cells]))
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(cells)), mp_context=context
            )
            futures = {
                pool.submit(_execute_cell, self.spec.cell, cell.call_params): cell
                for cell in cells
            }
        except (OSError, pickle.PicklingError, AttributeError, TypeError) as error:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
            self.parallel_fallback = f"{type(error).__name__}: {error}"
            warnings.warn(
                f"sweep {self.spec.name!r}: no process pool "
                f"({self.parallel_fallback}); running sequentially",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        with pool:
            if checkpoint_hash is not None:
                # Checkpoint every success even when some cell fails —
                # a resume after the failure must not recompute cells
                # that had already finished by the time it struck.
                first_error: BaseException | None = None
                for future in as_completed(futures):
                    try:
                        outcome = future.result()
                    except BaseException as error:  # noqa: BLE001
                        first_error = first_error or error
                        continue
                    self._checkpoint(checkpoint_hash, futures[future], outcome)
                if first_error is not None:
                    raise first_error
            return [future.result() for future in futures]


def run_scenario(
    spec: ScenarioSpec | str,
    scale: str | None = None,
    jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    axes: Mapping[str, Sequence[Any]] | None = None,
    params: Mapping[str, Any] | None = None,
    store: ResultsStore | None = None,
    save: bool = False,
    resume: bool = False,
    paired_axes: Sequence[str] | None = None,
) -> RunResult:
    """One-call convenience over :class:`SweepRunner`."""
    return SweepRunner(
        spec, scale=scale, jobs=jobs, seeds=seeds, axes=axes, params=params,
        store=store, resume=resume, paired_axes=paired_axes,
    ).run(save=save)
