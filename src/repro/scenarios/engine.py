"""Shared execution core: one declarative cell → one simulated run.

This is where the declarative pieces of a :class:`~repro.scenarios.spec.ScenarioSpec`
meet the simulator: a :class:`GridTopology` names one of the paper's two
platforms, a :class:`WorkloadSpec` (the §5.1 synthetic benchmark) or an
:class:`~repro.workloads.alcatel.AlcatelSpec` (the §5.2 campaign) names the
client workload, a :class:`FaultPlan` or a ``components`` entry arms the
fault injection, and protocol settings come from a named baseline preset
plus dotted-path overrides.  :func:`execute_benchmark` runs the workload over
those pieces — it is the engine behind the Figure 7 sweep, the Alcatel
campaign of Figures 9–11, the baseline ablation and the churn scenarios.

Protocol resolution has one path: start from the topology's own defaults or
a named preset, apply the overrides, validate.  Which behaviour runs is
whatever ``protocol.policy`` says afterwards; nothing else is consulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass
from typing import Any, Mapping, Sequence

from repro.baselines import (
    netsolve_style_protocol,
    no_fault_tolerance_protocol,
    rpcv_protocol,
)
from repro.config import ProtocolConfig
from repro.core.coordinator import PAID_REQUESTS_PER_TASK
from repro.errors import ConfigurationError
from repro.grid.builder import Grid, build_confined_cluster, build_internet_testbed
from repro.grid.deployment import confined_cluster_spec, internet_testbed_spec
from repro.nodes.faultgen import ChurnInjector
from repro.scenarios.report import RunReport
from repro.sim.core import SimulationError
from repro.workloads.alcatel import AlcatelSpec
from repro.workloads.synthetic import SyntheticWorkload

__all__ = [
    "FAULT_STREAM_PREFIXES",
    "FaultPlan",
    "GridTopology",
    "RunReport",
    "WorkloadSpec",
    "execute_benchmark",
    "apply_protocol_overrides",
    "interpolate_params",
    "resolve_protocol",
]

#: RNG stream-name prefixes that drive fault/churn draws; fingerprinting
#: these (and only these) is how paired-CRN sweeps assert that two policy
#: arms consumed identical fault schedules.
FAULT_STREAM_PREFIXES = ("churn.", "faultgen", "crn.")

#: named protocol presets a spec can reference instead of a ProtocolConfig.
#: ``"default"`` is a bare ProtocolConfig here; :func:`execute_benchmark`,
#: which knows the platform, reads it as the topology's own defaults.
PROTOCOL_PRESETS = {
    "default": ProtocolConfig,
    "rpc-v": rpcv_protocol,
    "no-replication": no_fault_tolerance_protocol,
    "netsolve-style": netsolve_style_protocol,
}


@dataclass(frozen=True)
class GridTopology:
    """Which platform to build, declaratively."""

    kind: str = "confined"  # "confined" | "internet"
    n_servers: int = 16
    n_coordinators: int = 4
    n_clients: int = 1
    spread_servers: bool = False
    #: Internet testbed placement; ``None`` keeps the builder's default.
    servers_per_site: Mapping[str, int] | None = None
    coordinator_sites: tuple[str, ...] = ("lille", "orsay")
    client_preferred: str = "lille"
    #: Internet testbed inter-site loss probability; ``None`` keeps the
    #: link model's default.
    wan_loss: float | None = None

    def build(self, protocol: ProtocolConfig | None, seed: int) -> Grid:
        """Instantiate the described platform (not yet started)."""
        if self.kind == "confined":
            return build_confined_cluster(
                n_servers=self.n_servers,
                n_coordinators=self.n_coordinators,
                n_clients=self.n_clients,
                protocol=protocol,
                seed=seed,
                spread_servers=self.spread_servers,
            )
        if self.kind == "internet":
            return build_internet_testbed(
                servers_per_site=dict(self.servers_per_site)
                if self.servers_per_site is not None
                else None,
                coordinator_sites=self.coordinator_sites,
                protocol=protocol,
                seed=seed,
                client_preferred=self.client_preferred,
                wan_loss=self.wan_loss,
            )
        raise ConfigurationError(f"unknown topology kind {self.kind!r}")

    def default_protocol(self) -> ProtocolConfig:
        """The platform's own protocol defaults (the spec factories' None branch).

        The probe spec is minimal but *valid* (a zero-server spec fails
        deployment validation); the protocol defaults do not depend on the
        component counts.
        """
        if self.kind == "confined":
            return confined_cluster_spec(n_servers=1, n_coordinators=1).protocol
        return internet_testbed_spec(servers_per_site={"lille": 1}).protocol


@dataclass(frozen=True)
class WorkloadSpec:
    """The client workload of the §5.1 synthetic benchmark."""

    n_calls: int = 96
    exec_time: float = 10.0
    params_bytes: int = 1024
    result_bytes: int = 64
    #: heterogeneous durations: call *i* runs ``exec_time * (1 + spread*f_i)``
    #: with a deterministic sawtooth ``f_i`` (see SyntheticWorkload); 0 keeps
    #: the paper's identical calls.  Scheduler ablations sweep over this.
    exec_time_spread: float = 0.0

    def build(self) -> SyntheticWorkload:
        return SyntheticWorkload(
            n_calls=self.n_calls,
            exec_time=self.exec_time,
            params_bytes=self.params_bytes,
            result_bytes=self.result_bytes,
            exec_time_spread=self.exec_time_spread,
        )


@dataclass(frozen=True)
class FaultPlan:
    """Declarative per-host churn over one component tier.

    ``kind`` selects the injector: ``"none"`` (fault-free) or ``"churn"``
    (per-host volatility driven by an exponential churn model — desktop-grid
    style departures and returns).

    A fault plan is the typed way to build the registered ``inject.churn``
    component: :meth:`component` produces it, and :meth:`arm` registers it
    on a grid.  Scenario specs and other injectors (``inject.rate`` for
    Poisson faults at an aggregate rate) go through a ``components:`` list.
    """

    kind: str = "none"  # "none" | "churn"
    target: str = "servers"  # "servers" | "coordinators"
    #: exponential churn-model parameters; a trace replay or a
    #: permanent-departure share is an ``inject.churn`` entry's job.
    mtbf: float = 600.0
    mttr: float = 30.0

    def component(self) -> ChurnInjector | None:
        """The injector component this plan describes (``None`` when inert)."""
        if self.kind == "none":
            return None
        if self.kind != "churn":
            raise ConfigurationError(f"unknown fault plan kind {self.kind!r}")
        if self.target not in ("servers", "coordinators"):
            raise ConfigurationError(f"unknown fault target {self.target!r}")
        return ChurnInjector(target=self.target, mtbf=self.mtbf, mttr=self.mttr)

    def arm(self, grid: Grid) -> ChurnInjector | None:
        """Register the configured injector on ``grid`` and return it (or None)."""
        component = self.component()
        return None if component is None else grid.add_component(component)


# ---------------------------------------------------------------------------
# Protocol resolution
# ---------------------------------------------------------------------------


#: declared scalar type of a config field -> the Python types an override
#: may carry (an int may stand for a float; a bool never stands for a number).
_SCALAR_FIELD_TYPES = {"float": (int, float), "int": (int,)}


def _config_fields(target: Any) -> dict[str, Any]:
    """The settable keys at one segment of an override path, by name."""
    if not is_dataclass(target):
        return {}
    return {f.name: f for f in dataclass_fields(target)}


def _check_override_value(path: str, target: Any, field: Any, value: Any) -> None:
    """Reject a value that cannot stand where the field's current one stands."""
    current = getattr(target, field.name)
    if is_dataclass(current):
        if isinstance(value, type(current)):
            return
        expected = (
            f"a {type(current).__name__}; set one of its keys instead "
            f"({', '.join(sorted(_config_fields(current)))})"
        )
    else:
        # Annotations are strings under ``from __future__ import annotations``
        # and types without it; either way the name decides.
        declared = getattr(field.type, "__name__", field.type)
        allowed = _SCALAR_FIELD_TYPES.get(declared)
        if allowed is None:
            # ``Any``: a policy entry, shape-checked by PolicyConfig.validate().
            return
        if isinstance(value, allowed) and not isinstance(value, bool):
            return
        expected = f"type {declared}"
    raise ConfigurationError(
        f"protocol path {path!r} expects {expected}, got {value!r}"
    )


def apply_protocol_overrides(
    protocol: ProtocolConfig, overrides: Mapping[str, Any]
) -> ProtocolConfig:
    """Apply dotted-path overrides (``"coordinator.replication.period"``).

    Every path must name an existing config key and every value must fit
    the key's declared type — typos are configuration errors, not silent
    no-ops, and the error names the valid keys at the failing segment.  A
    ``policy.*`` override replaces that axis' entry whole.  The mutated
    config is re-validated, which also resolves every policy name.
    """
    for path, value in overrides.items():
        target: Any = protocol
        parts = path.split(".")
        for index, part in enumerate(parts):
            fields = _config_fields(target)
            if part not in fields:
                at = ".".join(parts[:index]) or "the protocol root"
                raise ConfigurationError(
                    f"unknown protocol path {path!r}: {part!r} is not a key "
                    f"of {at} (valid keys: {', '.join(sorted(fields)) or '<none>'})"
                )
            if index < len(parts) - 1:
                target = getattr(target, part)
        _check_override_value(path, target, fields[parts[-1]], value)
        setattr(target, parts[-1], value)
    return protocol.validate()


def resolve_protocol(
    preset: str | ProtocolConfig | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> ProtocolConfig:
    """Build a ProtocolConfig from a preset name (or instance) plus overrides."""
    if isinstance(preset, ProtocolConfig):
        protocol = preset
    else:
        try:
            factory = PROTOCOL_PRESETS[preset or "default"]
        except KeyError:
            known = ", ".join(sorted(PROTOCOL_PRESETS))
            raise ConfigurationError(
                f"unknown protocol preset {preset!r} (known: {known})"
            ) from None
        protocol = factory()
    if overrides:
        protocol = apply_protocol_overrides(protocol, overrides)
    return protocol


# ---------------------------------------------------------------------------
# Component-entry interpolation
# ---------------------------------------------------------------------------


def interpolate_params(
    value: Any, params: Mapping[str, Any], used: set[str] | None = None
) -> Any:
    """Resolve ``"$name"`` placeholder strings against ``params``, recursively.

    Component entries on a scenario spec are static data, but their
    parameters often need to follow the sweep ("inject at the swept rate"):
    a string value ``"$faults_per_minute"`` is replaced by the cell's
    parameter of that name.  Unknown placeholders are configuration errors;
    ``"$$x"`` escapes to the literal string ``"$x"``.  Each name resolved is
    added to ``used`` when one is given.
    """
    if isinstance(value, str):
        if value.startswith("$$"):
            return value[1:]
        if value.startswith("$"):
            key = value[1:]
            if key not in params:
                known = ", ".join(sorted(params))
                raise ConfigurationError(
                    f"component parameter references unknown cell parameter "
                    f"{value!r} (cell parameters: {known})"
                )
            if used is not None:
                used.add(key)
            return params[key]
        return value
    if isinstance(value, Mapping):
        return {k: interpolate_params(v, params, used) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [interpolate_params(v, params, used) for v in value]
    return value


# ---------------------------------------------------------------------------
# The execution core
# ---------------------------------------------------------------------------


def execute_benchmark(
    topology: GridTopology,
    workload: WorkloadSpec | AlcatelSpec,
    faults: FaultPlan = FaultPlan(),
    protocol: ProtocolConfig | str | None = None,
    protocol_overrides: Mapping[str, Any] | None = None,
    seed: int = 0,
    horizon: float = 4000.0,
    components: Sequence[Any] = (),
    crn_seed: int | None = None,
    run_full_horizon: bool = False,
    record_fault_streams: bool = False,
    record_kernel: bool = False,
) -> RunReport:
    """Run the workload once over the declared pieces.

    Build the platform, start it, launch the workload on the client, arm the
    fault plan and the extra ``components`` (instances, or ``{"name": ...,
    "params": ...}`` entries from a spec's ``components:`` list), run to completion (with the ``horizon`` safety deadline) and
    report the numbers the paper plots.

    Extra components join *after* the workload process is spawned and after
    the fault plan's injector, so a plan and the equivalent first
    ``components:`` entry replay the exact same event sequence.  The
    report's ``faults_injected`` sums ``injected`` over both.

    ``protocol=None`` (or ``"default"``) keeps the platform's own defaults
    (the confined cluster replicates every 5 s, the Internet testbed every
    60 s); overrides are then applied on top of those defaults, not on a
    blank configuration.

    Three trailing flags serve paired-CRN comparisons: ``crn_seed`` pins
    the ``crn.``-prefixed fault streams independently of ``seed``,
    ``run_full_horizon`` keeps the simulation running to ``horizon`` even
    after the workload completes (so every arm's churn loops consume the same
    number of draws regardless of when its workload finished), and
    ``record_fault_streams`` fingerprints the fault/churn RNG streams into
    the report.  The grid-wide suspicion accounting is in the report's
    ``counters`` (``detect.*``).

    A run with no fault injected must deliver every call before the
    horizon: if it did not, :class:`~repro.sim.core.SimulationError` is
    raised instead of a report, unless ``run_full_horizon`` says the run
    is meant to measure up to the horizon.  A workload process that ended
    without its results (its client host crashed) raises too, faults or not.
    So does any run, faults or not, that ends with a call lost while its
    client and at least one coordinator are up (see :func:`_lost_calls`).
    """
    if protocol is None or protocol == "default":
        # The builders apply the platform's defaults themselves when handed
        # no protocol; only overrides need the defaults made explicit first.
        config = (
            apply_protocol_overrides(topology.default_protocol(), protocol_overrides)
            if protocol_overrides
            else None
        )
    else:
        config = resolve_protocol(protocol, protocol_overrides)
    grid = topology.build(config, seed)
    if crn_seed is not None:
        # Fault/churn streams under the crn. namespace re-key off this seed
        # (no such stream exists yet at this point: they are created lazily
        # by the injectors, which only start below).
        grid.rng.crn_seed = int(crn_seed)
    grid.start()

    bench = workload.build()
    process = grid.run_process(bench.run(grid.client))
    planned = faults.arm(grid)
    extras = [grid.add_component(entry) for entry in components]

    finished = grid.run_until(process, timeout=horizon)
    if not process.is_alive and bench.completed_at is None:
        # The workload runs on the client host and dies with it; nothing
        # relaunches it, so the calls it was waiting for have no owner.
        grid.stop()
        raise SimulationError(
            f"the benchmark process died with its client host at {grid.env.now:g} s: "
            f"{bench.completed_count()}/{len(bench.handles)} calls completed"
        )
    if run_full_horizon and grid.env.now < horizon:
        # Keep the fault/churn loops running out to the horizon so paired
        # arms consume identical fault-stream draws no matter when their
        # workloads finished.
        grid.env.run(until=horizon)
    grid.stop()

    injected = sum(int(getattr(c, "injected", 0)) for c in (planned, *extras))
    makespan = bench.makespan if finished else grid.env.now
    ideal = bench.total_work / max(len(grid.servers), 1)
    overhead = (makespan - ideal) / ideal if ideal > 0 else 0.0
    report = RunReport(
        makespan=makespan,
        submitted=len(bench.handles),
        completed=bench.completed_count(),
        faults_injected=injected,
        finished_in_time=finished,
        overhead_vs_ideal=overhead,
        ideal_time=ideal,
        bound_s=max(ideal, service_bound(grid.coordinators)),
        counters=dict(grid.monitor.counters),
        series=grid.monitor.series,
        coordinators={c.name: c.load(grid.env.now) for c in grid.coordinators},
    )
    if record_fault_streams:
        report.fault_streams = grid.rng.fingerprint(FAULT_STREAM_PREFIXES)
    if record_kernel:
        report.kernel = grid.kernel_stats()
    # A crowd-tier extra contributes its aggregate population to the run's
    # totals (one statistical client = one call) and its counters to the
    # report, so a flash-crowd cell measures the crowd, not just the seed
    # workload riding along.
    crowd_stats: dict[str, Any] = {}
    for extra in extras:
        if getattr(extra, "tier", None) != "crowd":
            continue
        stats = extra.stats()
        report.submitted += int(stats.get("clients", 0))
        report.completed += int(stats.get("completed", 0))
        for key, value in stats.items():
            crowd_stats[key] = crowd_stats.get(key, 0) + value
    if crowd_stats:
        report.crowd = crowd_stats
        report.finished_in_time = report.finished_in_time and (
            crowd_stats.get("completed", 0) >= crowd_stats.get("clients", 0)
        )
    if not run_full_horizon and injected == 0 and (
        not report.finished_in_time or report.completed < report.submitted
    ):
        # With nothing injected, nothing excuses a lost call or a stall.
        raise SimulationError(
            f"fault-free run lost calls: {report.completed}/{report.submitted} "
            f"completed, finished_in_time={report.finished_in_time} at "
            f"{grid.env.now:g} s (horizon {horizon:g} s)"
        )
    lost = (
        _lost_calls(grid, bench, extras, run_full_horizon)
        if report.completed < report.submitted
        else 0
    )
    if lost:
        raise SimulationError(
            f"{lost} call(s) lost while their client and "
            f"{sum(c.host.up for c in grid.coordinators)} coordinator(s) are up: "
            f"{report.completed}/{report.submitted} completed at "
            f"{grid.env.now:g} s (horizon {horizon:g} s)"
        )
    return report


def service_bound(coordinators: Sequence[Any]) -> float:
    """The busiest coordinator's unavoidable service time, in seconds.

    A coordinator serves one request at a time.  Each task costs one paid
    request where its submission registered it, and
    ``PAID_REQUESTS_PER_TASK`` more that any coordinator may serve, so the
    bound spreads those evenly.  Only the fixed
    ``request_processing_overhead`` is counted, not the database and disk
    charges, so this is a lower bound on the busiest one's handler time.
    """
    registered = [c.registered for c in coordinators]
    if not registered:
        return 0.0
    shared = PAID_REQUESTS_PER_TASK * sum(registered) / len(registered)
    overhead = coordinators[0].config.request_processing_overhead
    return overhead * (max(registered) + shared)


def _lost_calls(
    grid: Grid, bench: Any, extras: Sequence[Any], run_full_horizon: bool
) -> int:
    """How many calls the run lost: incomplete at its end while their
    client and at least one coordinator are up.

    Faults or not, a surviving coordinator must carry every call of a live
    client to its end.  A call a live coordinator still holds is in
    progress, not lost, in two cases: the run is measured up to its horizon
    (``run_full_horizon``) and stopped there, or no server is up to run it.
    """
    survivors = [c for c in grid.coordinators if c.host.up]
    if not survivors:
        return 0
    lost = 0
    if grid.client.host.up:
        missing = [handle for handle in bench.handles if not handle.done]
        if run_full_horizon or not any(s.host.up for s in grid.servers):
            missing = [
                handle
                for handle in missing
                if not any(handle.description.identity in c.tasks for c in survivors)
            ]
        lost += len(missing)
    for extra in extras:
        if getattr(extra, "tier", None) == "crowd" and extra.host.up:
            stats = extra.stats()
            lost += max(int(stats.get("clients", 0)) - int(stats.get("completed", 0)), 0)
    return lost


def benchmark_cell(
    seed: int = 0,
    n_calls: int = 96,
    exec_time: float = 10.0,
    n_servers: int = 16,
    n_coordinators: int = 4,
    params_bytes: int = 1024,
    result_bytes: int = 64,
    exec_time_spread: float = 0.0,
    spread_servers: bool = False,
    protocol_preset: str | None = None,
    protocol_overrides: Mapping[str, Any] | None = None,
    scheduler_policy: Any = None,
    replication_policy: Any = None,
    logging_policy: Any = None,
    detection_policy: Any = None,
    horizon: float = 4000.0,
    components: Sequence[Any] = (),
    crn_seed: int | None = None,
    run_full_horizon: bool = False,
    record_fault_streams: bool = False,
    record_kernel: bool = False,
    **component_params: Any,
) -> dict[str, Any]:
    """Flat-keyword cell kernel over :func:`execute_benchmark`.

    This is the measurement kernel shared by the Figure 7 sweep, the baseline
    ablation, the churn scenarios and the scheduler ablation: every argument
    is a plain JSON-able value so it can sit directly on a spec's ``base`` or
    ``axes``.

    Faults are armed only through ``components``: entries (``{"name": ...,
    "params": {...}}``, e.g. ``inject.rate`` or ``inject.churn``) are resolved
    through the platform registry; parameter values of the form ``"$key"``
    are interpolated against this cell's own parameters, so swept axes can
    drive component parameters (see Figure 7: the injection rate and target
    tier are both axes).  The same interpolation applies to
    ``protocol_overrides`` values, and the ``scheduler_policy`` /
    ``replication_policy`` / ``logging_policy`` keywords are shorthand for
    the ``policy.*`` override paths (a registry key string or a
    ``{"name", "params"}`` mapping), so a spec can sweep the scheduler axis
    with ``Axis("scheduler_policy", (...))`` directly.  Keywords the kernel
    does not know (``component_params``) do not reach the benchmark at all —
    they exist so a spec can declare extra base parameters or axes whose only
    purpose is to be ``$``-interpolated into a component entry or a protocol
    override.  One that nothing references is a
    :class:`~repro.errors.ConfigurationError`: a misspelt keyword must not
    run a different experiment without a word.
    """
    cell_params = dict(
        component_params,
        seed=seed,
        n_calls=n_calls,
        exec_time=exec_time,
        n_servers=n_servers,
        n_coordinators=n_coordinators,
        params_bytes=params_bytes,
        result_bytes=result_bytes,
        exec_time_spread=exec_time_spread,
        spread_servers=spread_servers,
        protocol_preset=protocol_preset,
        scheduler_policy=scheduler_policy,
        replication_policy=replication_policy,
        logging_policy=logging_policy,
        detection_policy=detection_policy,
        horizon=horizon,
    )
    overrides = dict(protocol_overrides or {})
    for path, entry in (
        ("policy.scheduler", scheduler_policy),
        ("policy.replication", replication_policy),
        ("policy.logging", logging_policy),
        ("policy.detection", detection_policy),
    ):
        if entry is None:
            continue
        if path in overrides:
            # Silently preferring one would mislabel every swept row.
            raise ConfigurationError(
                f"{path!r} is set both as a cell keyword ({entry!r}) and in "
                f"protocol_overrides ({overrides[path]!r}); pick one"
            )
        overrides[path] = entry
    used: set[str] = set()
    overrides = interpolate_params(overrides, cell_params, used) if overrides else None
    components = interpolate_params(list(components), cell_params, used)
    unread = set(component_params) - used
    if unread:
        raise ConfigurationError(
            f"cell parameters {sorted(unread)} are read by nothing: each must "
            "be a benchmark_cell keyword (check the spelling) or be referenced "
            "as \"$name\" from a components entry or a protocol override"
        )
    report = execute_benchmark(
        topology=GridTopology(
            n_servers=n_servers,
            n_coordinators=n_coordinators,
            spread_servers=spread_servers,
        ),
        workload=WorkloadSpec(
            n_calls=n_calls,
            exec_time=exec_time,
            params_bytes=params_bytes,
            result_bytes=result_bytes,
            exec_time_spread=exec_time_spread,
        ),
        protocol=protocol_preset,
        protocol_overrides=overrides,
        seed=seed,
        horizon=horizon,
        components=components,
        crn_seed=crn_seed,
        run_full_horizon=run_full_horizon,
        record_fault_streams=record_fault_streams,
        record_kernel=record_kernel,
    )
    return report.outputs()
