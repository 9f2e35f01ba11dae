"""JSON results store: one artifact per sweep run.

Every :class:`~repro.scenarios.runner.SweepRunner` run produces a
:class:`RunResult` — schema-versioned rows plus the metadata needed to trust
and reproduce them (scenario name, resolved spec hash, seeds, cell count,
wall time, worker count).  The store writes each result as one JSON file under
``results/<scenario>/`` and loads them back for reporting and resuming.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.scenarios.spec import SCHEMA_VERSION

__all__ = ["ResultsStore", "RunResult"]


@dataclass
class RunResult:
    """One completed sweep: figure rows, raw cells, and provenance."""

    scenario: str
    scale: str
    spec_hash: str
    seeds: tuple[int, ...]
    #: rows the figure plots (after the spec's reduce step).
    rows: list[dict[str, Any]] = field(default_factory=list)
    #: raw per-cell records: {"params", "seed", "outputs", "wall_seconds"}.
    cells: list[dict[str, Any]] = field(default_factory=list)
    jobs: int = 1
    parallel: bool = False
    wall_seconds: float = 0.0
    started_at: str = ""
    title: str = ""
    figure: str | None = None
    manifest: dict[str, Any] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_json(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["seeds"] = list(self.seeds)
        return payload

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "RunResult":
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise ConfigurationError(
                f"results artifact has schema {schema!r}, expected {SCHEMA_VERSION}"
            )
        known = {f for f in cls.__dataclass_fields__}
        data = {k: v for k, v in payload.items() if k in known}
        data["seeds"] = tuple(data.get("seeds", ()))
        return cls(**data)


class ResultsStore:
    """Directory of per-run JSON artifacts, grouped by scenario."""

    def __init__(self, root: str | Path = "results") -> None:
        self.root = Path(root)

    # ---------------------------------------------------------------- writing
    def save(self, result: RunResult) -> Path:
        """Write one artifact and return its path (never overwrites)."""
        directory = self.root / result.scenario
        directory.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        stem = f"{result.scenario}-{result.scale}-{stamp}-{result.spec_hash[:8]}"
        path = directory / f"{stem}.json"
        counter = 1
        while path.exists():  # pragma: no cover - saved within the same second
            path = directory / f"{stem}-{counter}.json"
            counter += 1
        path.write_text(json.dumps(result.to_json(), indent=2, default=str))
        return path

    # ----------------------------------------------------------- cell resume
    # One tiny JSON checkpoint per finished cell, keyed by the resolved
    # spec hash: ``results/<scenario>/.cells/<spec_hash>/<index>-s<seed>.json``.
    # A sweep interrupted mid-way leaves its finished cells here; a later
    # run of the *same resolution* (same spec hash) picks them up instead of
    # recomputing them (see ``SweepRunner(resume=True)`` / ``run --resume``).
    # Checkpoints survive a completed run on purpose — resuming a finished
    # sweep skips every cell, which is the cheap-rerun behaviour the CLI
    # relies on — and they overwrite in place, so the footprint is bounded
    # by (#distinct resolutions x #cells), not by the number of runs (the
    # per-run artifacts above grow faster).

    def cell_dir(self, scenario: str, spec_hash: str) -> Path:
        """Checkpoint directory for one resolved sweep."""
        return self.root / scenario / ".cells" / spec_hash

    def save_cell(
        self,
        scenario: str,
        spec_hash: str,
        index: int,
        seed: int,
        outputs: dict[str, Any],
        wall_seconds: float,
    ) -> Path:
        """Checkpoint one finished cell (atomic via rename; overwrites)."""
        directory = self.cell_dir(scenario, spec_hash)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{index:05d}-s{seed}.json"
        payload = {
            "schema": SCHEMA_VERSION,
            "index": index,
            "seed": seed,
            "outputs": outputs,
            "wall_seconds": wall_seconds,
        }
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, default=str))
        tmp.replace(path)
        return path

    def load_cells(
        self, scenario: str, spec_hash: str
    ) -> dict[tuple[int, int], tuple[dict[str, Any], float]]:
        """Checkpointed cells of one resolved sweep: (index, seed) -> outcome.

        Unreadable or schema-mismatched checkpoints are ignored (a torn write
        from an interrupted run must not poison the resume).
        """
        directory = self.cell_dir(scenario, spec_hash)
        if not directory.exists():  # pragma: no cover - nothing checkpointed yet
            return {}
        cells: dict[tuple[int, int], tuple[dict[str, Any], float]] = {}
        for path in sorted(directory.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):  # pragma: no cover - a torn write
                continue
            if payload.get("schema") != SCHEMA_VERSION:  # pragma: no cover - older schema
                continue
            try:
                key = (int(payload["index"]), int(payload["seed"]))
                cells[key] = (
                    dict(payload["outputs"]),
                    float(payload.get("wall_seconds", 0.0)),
                )
            except (KeyError, TypeError, ValueError):  # pragma: no cover - malformed
                continue
        return cells

    # ---------------------------------------------------------------- reading
    def load(self, path: str | Path) -> RunResult:
        """Load one artifact back."""
        return RunResult.from_json(json.loads(Path(path).read_text()))

    def list_runs(self, scenario: str | None = None) -> list[Path]:
        """Artifact paths, oldest first (per-directory name order)."""
        if not self.root.exists():  # pragma: no cover - nothing stored yet
            return []
        pattern = f"{scenario}/*.json" if scenario else "*/*.json"
        return sorted(self.root.glob(pattern))

    def latest(self, scenario: str) -> RunResult | None:
        """The most recent artifact for ``scenario``, if any."""
        runs = self.list_runs(scenario)
        return self.load(runs[-1]) if runs else None
