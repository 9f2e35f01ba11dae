"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes one family of simulation runs the way the
paper states an experiment: what is fixed (grid topology, protocol overrides,
workload, fault plan — the ``base`` parameters), what is swept (the ``axes``),
over which ``seeds``, and which ``outputs`` each run measures.  The spec is
pure data plus two module-level callables:

* ``cell``    — the measurement kernel; called once per (axis-point × seed)
  with the merged parameters and returning a flat dict of measured outputs;
* ``reduce``  — optional aggregation turning the per-cell results into the
  rows the figure plots (mean over seeds, pivot an axis into columns, ...).

Because a spec resolves to an explicit list of independent cells, sweeps can
be fanned out over a process pool (see :mod:`repro.scenarios.runner`) and the
whole sweep is reproducible from ``(spec, scale, seeds)`` alone —
``spec_hash()`` fingerprints exactly that resolution, and is stored alongside
every results artifact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ConfigurationError

__all__ = ["Axis", "CellResult", "ScenarioSpec", "SweepCell", "SweepPlan"]

#: version of the (spec manifest, results artifact) schema; bump on layout change.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Axis:
    """One swept parameter: a name and the ordered values it takes."""

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("axis name must be non-empty")
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} needs at least one value")
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class SweepCell:
    """One resolved cell of a sweep: merged parameters plus the seed."""

    index: int
    params: Mapping[str, Any]
    seed: int

    @property
    def call_params(self) -> dict[str, Any]:
        """Keyword arguments for the cell kernel (parameters + seed)."""
        return {**self.params, "seed": self.seed}


@dataclass(frozen=True)
class CellResult:
    """Measured outputs of one executed cell."""

    index: int
    params: Mapping[str, Any]
    seed: int
    outputs: Mapping[str, Any]
    wall_seconds: float = 0.0

    def row(self) -> dict[str, Any]:
        """Default row shape: swept parameters, seed, then the outputs."""
        return {**self.params, "seed": self.seed, **self.outputs}


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one figure-style parameter sweep."""

    name: str
    title: str
    #: measurement kernel; module-level callable ``cell(**params, seed=...)``.
    cell: Callable[..., dict[str, Any]]
    #: figure of the paper this reproduces (``None`` for new workloads).
    figure: str | None = None
    description: str = ""
    #: fixed parameters shared by every cell (topology, workload, fault plan).
    base: Mapping[str, Any] = field(default_factory=dict)
    #: swept parameters; the sweep is the cartesian product in declared order.
    axes: tuple[Axis, ...] = ()
    #: seed axis, innermost in the cell ordering.
    seeds: tuple[int, ...] = (0,)
    #: names of the outputs each cell measures (documentation + validation).
    outputs: tuple[str, ...] = ()
    #: named parameter presets (e.g. ``tiny``); keys matching an axis name
    #: replace that axis' values, the key ``seeds`` replaces the seed axis,
    #: anything else overrides ``base``.
    scales: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    #: extra platform components every cell instantiates: ``{"name":
    #: "inject.churn", "params": {...}}`` entries resolved through
    #: :mod:`repro.platform.registry`.  Parameter values of the form
    #: ``"$key"`` are interpolated against the cell's merged parameters,
    #: so swept axes can drive component parameters.  Folded into the cell
    #: parameters as ``components`` at resolution time (the cell kernel must
    #: accept that keyword — :func:`~repro.scenarios.engine.benchmark_cell`
    #: does); a scale preset may override the list under the same key.
    components: tuple[Mapping[str, Any], ...] = ()
    #: axes whose arms must see *identical* fault schedules (common random
    #: numbers).  Cells differing only in these axes (same seed, same other
    #: parameters) are required to report byte-identical ``fault_streams``
    #: fingerprints; the runner asserts this after the sweep.  The cell
    #: kernel must record the fingerprints (``record_fault_streams``) and
    #: key its fault draws off ``crn.*`` streams with a shared ``crn_seed``.
    paired_axes: tuple[str, ...] = ()
    #: optional aggregation of cell results into the figure's rows.
    reduce: Callable[[list[CellResult]], list[dict[str, Any]]] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if not callable(self.cell):
            raise ConfigurationError(f"scenario {self.name!r} cell must be callable")
        axis_names = [axis.name for axis in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ConfigurationError(f"scenario {self.name!r} has duplicate axes")
        overlap = set(axis_names) & set(self.base)
        if overlap:
            raise ConfigurationError(
                f"scenario {self.name!r}: {sorted(overlap)} both fixed and swept"
            )
        object.__setattr__(self, "paired_axes", tuple(self.paired_axes))
        unknown_paired = set(self.paired_axes) - set(axis_names)
        if unknown_paired:
            raise ConfigurationError(
                f"scenario {self.name!r}: paired_axes {sorted(unknown_paired)} "
                "are not axes of this scenario"
            )
        if self.components:
            if "components" in self.base or "components" in axis_names:
                raise ConfigurationError(
                    f"scenario {self.name!r} declares components both as a "
                    "spec field and as a parameter"
                )
            normalised = []
            for entry in self.components:
                if not isinstance(entry, Mapping) or "name" not in entry:
                    raise ConfigurationError(
                        f"scenario {self.name!r}: component entries must be "
                        "mappings with a 'name' key"
                    )
                normalised.append(
                    {"name": entry["name"], "params": dict(entry.get("params") or {})}
                )
            object.__setattr__(self, "components", tuple(normalised))

    # ------------------------------------------------------------- resolution
    @property
    def scale_names(self) -> tuple[str, ...]:
        """The named scales this scenario defines (beyond the default)."""
        return tuple(sorted(self.scales))

    def resolve(
        self,
        scale: str | None = None,
        seeds: Sequence[int] | None = None,
        axes: Mapping[str, Sequence[Any]] | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> "SweepPlan":
        """Merge the scale preset and explicit overrides into a concrete plan.

        Precedence, lowest to highest: spec defaults, ``scale`` preset,
        ``axes``/``params``/``seeds`` arguments.
        """
        base = dict(self.base)
        if self.components:
            base["components"] = [
                {"name": e["name"], "params": dict(e["params"])}
                for e in self.components
            ]
        axis_values = {axis.name: axis.values for axis in self.axes}
        plan_seeds = tuple(self.seeds)

        overrides: dict[str, Any] = {}
        if scale is not None and scale != "paper":
            try:
                overrides = dict(self.scales[scale])
            except KeyError:
                known = ", ".join(("paper", *self.scale_names))
                raise ConfigurationError(
                    f"scenario {self.name!r} has no scale {scale!r} (known: {known})"
                ) from None
        for key, value in overrides.items():
            if key == "seeds":
                plan_seeds = tuple(value)
            elif key in axis_values:
                axis_values[key] = tuple(value)
            else:
                base[key] = value

        for key, values in (axes or {}).items():
            if key not in axis_values:
                raise ConfigurationError(
                    f"scenario {self.name!r} has no axis {key!r}"
                )
            axis_values[key] = tuple(values)
        for key, value in (params or {}).items():
            if key in axis_values:
                raise ConfigurationError(
                    f"{key!r} is an axis of scenario {self.name!r}; override it "
                    "through 'axes'"
                )
            base[key] = value
        if seeds is not None:
            plan_seeds = tuple(seeds)
        if not plan_seeds:
            raise ConfigurationError(f"scenario {self.name!r} resolved to no seeds")

        return SweepPlan(
            spec=self,
            scale=scale or "paper",
            base=base,
            axes=tuple(Axis(axis.name, axis_values[axis.name]) for axis in self.axes),
            seeds=plan_seeds,
        )

    # ------------------------------------------------------------ fingerprint
    def manifest(self, plan: "SweepPlan | None" = None) -> dict[str, Any]:
        """JSON-able description of the spec (or of one resolved plan)."""
        plan = plan or self.resolve()
        manifest: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "title": self.title,
            "figure": self.figure,
            "cell": f"{self.cell.__module__}.{self.cell.__qualname__}",
            "scale": plan.scale,
            "base": _jsonable(plan.base),
            "axes": [
                {"name": axis.name, "values": _jsonable(axis.values)}
                for axis in plan.axes
            ],
            "seeds": list(plan.seeds),
            "outputs": list(self.outputs),
        }
        # Only stamped when set, so specs without paired axes keep their
        # historical spec hashes (and their resume checkpoints).
        if self.paired_axes:
            manifest["paired_axes"] = list(self.paired_axes)
        return manifest

    def spec_hash(self, plan: "SweepPlan | None" = None) -> str:
        """Stable fingerprint of the resolved sweep (name, cell, parameters)."""
        payload = json.dumps(self.manifest(plan), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def with_overrides(self, **changes: Any) -> "ScenarioSpec":
        """A copy of this spec with dataclass fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SweepPlan:
    """One concrete resolution of a spec: the cells it will run."""

    spec: ScenarioSpec
    scale: str
    base: Mapping[str, Any]
    axes: tuple[Axis, ...]
    seeds: tuple[int, ...]

    def cells(self) -> list[SweepCell]:
        """Enumerate every (axis-point × seed) cell, in deterministic order."""
        cells: list[SweepCell] = []
        names = [axis.name for axis in self.axes]
        for point in product(*(axis.values for axis in self.axes)):
            swept = dict(zip(names, point))
            for seed in self.seeds:
                cells.append(
                    SweepCell(
                        index=len(cells),
                        params={**self.base, **swept},
                        seed=seed,
                    )
                )
        return cells

    @property
    def n_cells(self) -> int:
        """Number of cells without materialising them."""
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total * len(self.seeds)


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-serialisable structures."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
