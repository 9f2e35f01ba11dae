"""Tests for the declarative scenario engine (spec, registry, runner, store, CLI)."""

from __future__ import annotations

import dataclasses
import gc
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.protocol import CallDescription
from repro.errors import ConfigurationError
from repro.grid.builder import build_confined_cluster
from repro.scenarios import (
    Axis,
    ResultsStore,
    ScenarioSpec,
    all_scenarios,
    benchmark_cell,
    get_scenario,
    run_scenario,
)
from repro.nodes.faultgen import ChurnInjector
from repro.scenarios.engine import (
    FaultPlan,
    GridTopology,
    WorkloadSpec,
    apply_protocol_overrides,
    execute_benchmark,
    interpolate_params,
    resolve_protocol,
)
from repro.scenarios import runner as runner_module
from repro.scenarios.runner import SweepRunner
from repro.sim.core import Environment
from repro.types import CallIdentity, TaskState

EXPECTED_SCENARIOS = {
    "fig4-size", "fig4-calls", "fig5-size", "fig5-count", "fig6-size",
    "fig6-calls", "fig7", "fig8", "fig9", "fig10", "fig11",
    "ablation-baselines", "detector-ablation", "churn-survival",
    "sched-ablation",
}

#: fast overrides for the fig7 sweep used by the determinism tests.
FIG7_MICRO = dict(
    axes={"faults_per_minute": [0.0, 6.0]},
    seeds=(7,),
    params=dict(n_calls=8, exec_time=2.0, n_servers=4, n_coordinators=2,
                horizon=1500.0),
)

#: the three-server availability trace README's ``--set faults.*`` command
#: replays (CI runs that command against it).
AVAILABILITY_CSV = Path(__file__).parent / "data" / "availability.csv"


class TestRegistry:
    def test_every_figure_is_registered(self):
        assert EXPECTED_SCENARIOS <= set(all_scenarios())

    def test_get_scenario_round_trip(self):
        for name in EXPECTED_SCENARIOS:
            spec = get_scenario(name)
            assert spec.name == name
            assert callable(spec.cell)
            assert "tiny" in spec.scales

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("fig99")

    def test_duplicate_registration_raises(self):
        spec = get_scenario("fig7")
        clone = dataclasses.replace(spec)
        from repro.scenarios.registry import register

        with pytest.raises(ConfigurationError, match="already registered"):
            register(clone)


class TestSpecResolution:
    def test_cells_are_the_cartesian_product_times_seeds(self):
        spec = get_scenario("fig7")
        plan = spec.resolve()
        n_freqs = len(plan.axes[0].values)
        assert plan.n_cells == n_freqs * 2 * len(plan.seeds)
        cells = plan.cells()
        assert len(cells) == plan.n_cells
        assert [cell.index for cell in cells] == list(range(plan.n_cells))

    def test_scale_overrides_base_axes_and_seeds(self):
        spec = get_scenario("fig7")
        plan = spec.resolve(scale="tiny")
        assert plan.axes[0].values == (0.0, 4.0, 10.0)
        assert plan.seeds == (7, 11)
        assert plan.base["n_calls"] == 24

    def test_explicit_overrides_beat_the_scale(self):
        spec = get_scenario("fig7")
        plan = spec.resolve(
            scale="tiny", seeds=(1,), axes={"faults_per_minute": [2.0]},
            params={"n_calls": 4},
        )
        assert plan.axes[0].values == (2.0,)
        assert plan.seeds == (1,)
        assert plan.base["n_calls"] == 4

    def test_unknown_scale_and_axis_raise(self):
        spec = get_scenario("fig7")
        with pytest.raises(ConfigurationError, match="no scale"):
            spec.resolve(scale="gigantic")
        with pytest.raises(ConfigurationError, match="no axis"):
            spec.resolve(axes={"bogus": [1]})

    def test_spec_hash_tracks_the_resolution(self):
        spec = get_scenario("fig7")
        assert spec.spec_hash() == spec.spec_hash()
        assert spec.spec_hash() != spec.spec_hash(spec.resolve(scale="tiny"))
        manifest = spec.manifest()
        assert manifest["name"] == "fig7"
        assert manifest["cell"].endswith("benchmark_cell")

    def test_axis_and_spec_validation(self):
        with pytest.raises(ConfigurationError):
            Axis("x", ())
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="bad", title="t", cell=benchmark_cell,
                base={"x": 1}, axes=(Axis("x", (1, 2)),),
            )


class TestProtocolResolution:
    def test_presets_and_dotted_overrides(self):
        protocol = resolve_protocol(
            "rpc-v",
            {"coordinator.replication.period": 30, "policy.logging": "policy.log.optimistic"},
        )
        assert protocol.coordinator.replication.period == 30
        assert protocol.policy.logging == "policy.log.optimistic"
        assert protocol.policy.replication["params"] == {"period": 5.0}

    def test_bad_paths_and_presets_raise(self):
        with pytest.raises(ConfigurationError, match="unknown protocol path"):
            apply_protocol_overrides(resolve_protocol(), {"coordinator.bogus": 1})
        with pytest.raises(ConfigurationError, match="unknown protocol preset"):
            resolve_protocol("xtremweb")

    def test_a_field_no_code_reads_is_not_a_settable_path(self):
        # server_slots used to validate and then change nothing.
        with pytest.raises(
            ConfigurationError,
            match=r"unknown protocol path.*'server_slots' is not a key of "
            r"coordinator\.replication \(valid keys: period\)",
        ):
            apply_protocol_overrides(
                resolve_protocol(), {"coordinator.replication.server_slots": 4}
            )
        # Neither were offline_computing nor startup_grace.  A method is not
        # a key either, and a path cannot walk into an entry.
        for path in (
            "server.offline_computing",
            "server.detection.startup_grace",
            "coordinator.validate",
            "policy.scheduler.upper",
        ):
            with pytest.raises(ConfigurationError, match="unknown protocol path"):
                apply_protocol_overrides(resolve_protocol(), {path: 1})

    @pytest.mark.parametrize(
        ("path", "value", "expected"),
        [
            ("coordinator.replication", 5, "a ReplicationConfig; set one of its keys"),
            ("policy", "x", "a PolicyConfig; set one of its keys"),
            ("coordinator.replication.period", "abc", "type float"),
            ("coordinator.replication.period", True, "type float"),
            ("client.logging.capacity_bytes", 1.5, "type int"),
        ],
    )
    def test_a_wrongly_typed_override_is_rejected_at_the_assignment(
        self, path, value, expected
    ):
        protocol = resolve_protocol()
        with pytest.raises(ConfigurationError) as caught:
            apply_protocol_overrides(protocol, {path: value})
        assert repr(path) in str(caught.value) and expected in str(caught.value)
        assert protocol == resolve_protocol()  # nothing was assigned

    def test_an_int_may_stand_for_a_float_override(self):
        protocol = apply_protocol_overrides(
            resolve_protocol(), {"coordinator.replication.period": 30}
        )
        assert protocol.coordinator.replication.period == 30


class TestSweepRunner:
    def test_parallel_rows_equal_sequential_rows(self):
        sequential = run_scenario("fig7", jobs=1, **FIG7_MICRO)
        parallel = run_scenario("fig7", jobs=2, **FIG7_MICRO)
        assert sequential.rows == parallel.rows
        assert [c["outputs"] for c in sequential.cells] == [
            c["outputs"] for c in parallel.cells
        ]

    def test_sequential_runs_are_reproducible(self):
        first = run_scenario("fig7", jobs=1, **FIG7_MICRO)
        second = run_scenario("fig7", jobs=1, **FIG7_MICRO)
        assert first.rows == second.rows
        assert first.spec_hash == second.spec_hash

    def test_default_reduce_is_one_row_per_cell(self):
        spec = ScenarioSpec(
            name="adhoc-sum",
            title="ad-hoc",
            cell=benchmark_cell,
            base=dict(n_calls=2, exec_time=0.5, n_servers=2, n_coordinators=1,
                      horizon=500.0),
            seeds=(0,),
        )
        result = SweepRunner(spec, jobs=1).run()
        assert len(result.rows) == 1
        assert result.rows[0]["seed"] == 0
        assert result.rows[0]["completed"] == 2

    @pytest.mark.parametrize("name", sorted(all_scenarios()))
    def test_every_registered_scenario_smokes_at_tiny_scale(self, name):
        spec = get_scenario(name)
        plan = spec.resolve(scale="tiny")
        result = run_scenario(name, scale="tiny", jobs=1)
        assert result.rows, f"{name} produced no rows"
        assert len(result.cells) == plan.n_cells
        assert result.scenario == name
        assert result.spec_hash == spec.spec_hash(plan)
        # ``outputs`` is the spec's contract: every cell measures all of them.
        for cell in result.cells:
            assert set(spec.outputs) <= set(cell["outputs"]), cell["params"]


class TestResultsStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path)
        result = run_scenario(
            "fig8", scale="tiny", jobs=1, store=store, save=True
        )
        path = result.manifest["artifact"]
        loaded = store.load(path)
        assert loaded.scenario == "fig8"
        assert loaded.rows == result.rows
        assert loaded.spec_hash == result.spec_hash
        assert loaded.seeds == result.seeds
        assert store.latest("fig8").rows == result.rows
        assert store.list_runs("fig8") and store.list_runs()

    def test_schema_mismatch_is_rejected(self, tmp_path):
        store = ResultsStore(tmp_path)
        run_scenario("fig8", scale="tiny", jobs=1, store=store, save=True)
        path = store.list_runs("fig8")[0]
        payload = path.read_text().replace('"schema": 1', '"schema": 99')
        path.write_text(payload)
        with pytest.raises(ConfigurationError, match="schema"):
            store.load(path)


class TestCli:
    def test_list_names_every_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_SCENARIOS:
            assert name in out

    def test_run_writes_an_artifact(self, tmp_path, capsys):
        code = main(
            ["run", "fig8", "--scale", "tiny", "--jobs", "1",
             "--out", str(tmp_path)]
        )
        assert code == 0
        artifacts = list(tmp_path.glob("fig8/*.json"))
        assert len(artifacts) == 1
        assert "artifact" in capsys.readouterr().out

    def test_report_shows_the_latest_run(self, tmp_path, capsys):
        main(["run", "fig8", "--scale", "tiny", "--jobs", "1",
              "--out", str(tmp_path), "--quiet"])
        capsys.readouterr()
        assert main(["report", "fig8", "--out", str(tmp_path)]) == 0
        assert "fig8" in capsys.readouterr().out
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert "Stored runs" in capsys.readouterr().out


class TestFaultArming:
    """A FaultPlan and the equivalent components entry arm the same class."""

    def _outputs(self, topology, faults=FaultPlan(), components=()):
        return execute_benchmark(
            topology,
            WorkloadSpec(n_calls=12, exec_time=4.0),
            faults,
            seed=5,
            horizon=3000.0,
            components=components,
            record_fault_streams=True,
        ).outputs()

    def test_churn_plan_equals_its_components_entry(self):
        topology = GridTopology(n_servers=4, n_coordinators=3)
        planned = self._outputs(
            topology,
            FaultPlan(kind="churn", target="coordinators", mtbf=40.0, mttr=10.0),
        )
        entry = self._outputs(topology, components=[{
            "name": "inject.churn",
            "params": {"target": "coordinators", "mtbf": 40.0, "mttr": 10.0},
        }])
        assert planned == entry
        assert planned["faults_injected"] > 0
        assert any(name.startswith("churn.") for name in planned["fault_streams"])

    def test_trace_file_entry_equals_a_trace_pairs_entry(self, tmp_path):
        # Every server up 5 s, down 30 s, up 10 s, then gone for good: once
        # as a per-node trace file, once as inline trace_pairs.
        trace = tmp_path / "trace.csv"
        trace.write_text("".join(f"s00{i},0,5\ns00{i},35,45\n" for i in range(4)))
        topology = GridTopology(n_servers=4, n_coordinators=2)
        replayed = self._outputs(topology, components=[{
            "name": "inject.churn",
            "params": {"trace": str(trace), "trace_mode": "clamp"},
        }])
        inline = self._outputs(topology, components=[{
            "name": "inject.churn",
            "params": {"trace_pairs": [[5.0, 30.0], [10.0, float("inf")]],
                       "trace_mode": "clamp"},
        }])
        assert replayed == inline
        assert replayed["faults_injected"] >= 4

    def test_arm_returns_the_registered_component(self):
        grid = build_confined_cluster(n_servers=2, n_coordinators=1)
        churn = FaultPlan(kind="churn", target="coordinators").arm(grid)
        assert isinstance(churn, ChurnInjector)
        assert grid.components["churn-coordinators"] is churn
        assert FaultPlan().arm(grid) is None
        with pytest.raises(ConfigurationError, match="unknown fault plan kind"):
            FaultPlan(kind="rate").arm(grid)


class TestUnreadCellParameters:
    MICRO = dict(n_calls=4, exec_time=1.0, n_servers=2, n_coordinators=1,
                 horizon=500.0)

    def test_a_misspelt_keyword_is_an_error(self):
        with pytest.raises(ConfigurationError, match="'faults_per_minut'"):
            benchmark_cell(faults_per_minut=4.0, **self.MICRO)

    def test_a_removed_fault_keyword_is_an_error(self):
        with pytest.raises(ConfigurationError, match="'fault_kind'.*components"):
            benchmark_cell(fault_kind="rate", faults_per_minute=4.0, **self.MICRO)

    def test_a_parameter_a_protocol_override_references_is_read(self):
        outputs = benchmark_cell(
            protocol_overrides={"coordinator.replication.period": "$period"},
            period=30.0,
            **self.MICRO,
        )
        assert outputs["completed"] == 4

    @pytest.mark.parametrize("scale", ["paper", "tiny"])
    def test_every_registered_cell_reads_all_its_parameters(self, scale):
        signature = inspect.signature(benchmark_cell).parameters
        keywords = set(signature)
        defaults = {key: p.default for key, p in signature.items()
                    if p.default is not p.empty}
        for name, spec in all_scenarios().items():
            if spec.cell is not benchmark_cell:
                continue
            for cell in spec.resolve(scale=scale).cells():
                params = cell.params
                used: set[str] = set()
                interpolate_params(
                    [params.get("components", ()), params.get("protocol_overrides")],
                    {**defaults, **params},
                    used,
                )
                assert set(params) - keywords <= used, name


def _fragile_cell(
    seed: int = 0, x: int = 0, state_dir: str = "", fail_at: int | None = None,
    **_: object,
) -> dict:
    """Countable kernel that fails at one axis point until a flag file appears.

    Module-level so it can cross a process boundary; execution counts land in
    per-cell files under ``state_dir`` (one line per execution).
    """
    from pathlib import Path

    marker = Path(state_dir) / f"ran-{x}-s{seed}"
    marker.write_text(marker.read_text() + "x" if marker.exists() else "x")
    if fail_at == x and not (Path(state_dir) / "fixed").exists():
        raise RuntimeError(f"cell x={x} blew up")
    return {"y": 10 * x + seed}


def _fragile_spec(tmp_path, fail_at=None) -> ScenarioSpec:
    return ScenarioSpec(
        name="fragile-sweep",
        title="resume test sweep",
        cell=_fragile_cell,
        base=dict(state_dir=str(tmp_path), fail_at=fail_at),
        axes=(Axis("x", (1, 2, 3)),),
        seeds=(0, 1),
    )


class TestSweepResume:
    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        spec = _fragile_spec(tmp_path, fail_at=3)
        with pytest.raises(RuntimeError, match="blew up"):
            SweepRunner(spec, jobs=1, store=store).run(save=True)
        # Cells before the failure were checkpointed as they finished.
        checkpointed = store.load_cells("fragile-sweep", spec.spec_hash())
        assert {key for key in checkpointed} == {(0, 0), (1, 1), (2, 0), (3, 1)}

        (tmp_path / "fixed").write_text("")  # same parameters, same spec hash
        runner = SweepRunner(spec, jobs=1, store=store, resume=True)
        result = runner.run(save=True)
        assert runner.resumed_cells == 4
        assert result.manifest["resumed_cells"] == 4
        assert [row["y"] for row in result.rows] == [10, 11, 20, 21, 30, 31]
        # Finished cells ran exactly once across both attempts; only the
        # failing axis point (both seeds) ran twice.
        runs = {
            path.name: len(path.read_text())
            for path in tmp_path.glob("ran-*")
        }
        assert runs == {
            "ran-1-s0": 1, "ran-1-s1": 1, "ran-2-s0": 1, "ran-2-s1": 1,
            "ran-3-s0": 2, "ran-3-s1": 1,
        }

    def test_parallel_failure_keeps_finished_checkpoints(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        spec = _fragile_spec(tmp_path, fail_at=2)
        with pytest.raises(RuntimeError, match="blew up"):
            SweepRunner(spec, jobs=3, store=store).run(save=True)
        # Cells that completed before/alongside the failure were still
        # checkpointed; only the failing axis point is absent.
        # All submitted futures are drained before the error re-raises, so
        # every non-failing cell is checkpointed (x=2 is cells 2 and 3).
        checkpointed = store.load_cells("fragile-sweep", spec.spec_hash())
        assert {index for index, _seed in checkpointed} == {0, 1, 4, 5}
        (tmp_path / "fixed").write_text("")
        runner = SweepRunner(spec, jobs=3, store=store, resume=True)
        result = runner.run(save=True)
        assert runner.resumed_cells == len(checkpointed)
        assert [row["y"] for row in result.rows] == [10, 11, 20, 21, 30, 31]

    def test_resume_ignores_other_resolutions(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        spec = _fragile_spec(tmp_path)
        SweepRunner(spec, jobs=1, store=store).run(save=True)
        # A different resolution (extra seed) has a different spec hash, so
        # nothing is reused even with resume on.
        runner = SweepRunner(
            spec, jobs=1, store=store, resume=True, seeds=(0, 1, 2)
        )
        result = runner.run()
        assert runner.resumed_cells == 0
        assert len(result.cells) == 9

    def test_resume_without_store_is_inert(self, tmp_path):
        spec = _fragile_spec(tmp_path)
        runner = SweepRunner(spec, jobs=1, resume=True)
        assert not runner.resume
        assert len(runner.run().cells) == 6


def _attribute_error_cell(seed: int = 0, state_dir: str = "", **_: object) -> dict:
    """Module-level kernel whose own bug is an ``AttributeError``."""
    from pathlib import Path

    with (Path(state_dir) / f"ran-s{seed}").open("a") as marker:
        marker.write("x")
    return {"y": None.missing}


class TestPoolFallback:
    def test_a_cells_own_attribute_error_propagates_once(self, tmp_path):
        """An error raised inside a cell is not a pool that failed to start:
        it must surface from the parallel run, not trigger a sequential
        re-run of the whole sweep first."""
        spec = ScenarioSpec(
            name="buggy-sweep",
            title="cell raising AttributeError",
            cell=_attribute_error_cell,
            base=dict(state_dir=str(tmp_path)),
            seeds=(0, 1, 2),
        )
        runner = SweepRunner(spec, jobs=2)
        with pytest.raises(AttributeError, match="missing"):
            runner.run()
        runs = {path.name: len(path.read_text()) for path in tmp_path.glob("ran-*")}
        assert runs == {"ran-s0": 1, "ran-s1": 1, "ran-s2": 1}
        assert runner.parallel_fallback is None

    def test_an_unpicklable_kernel_falls_back_loudly(self):
        spec = ScenarioSpec(
            name="local-kernel-sweep",
            title="kernel that cannot cross a process boundary",
            cell=lambda seed=0, **_: {"y": seed},
            seeds=(0, 1),
        )
        with pytest.warns(RuntimeWarning, match="running sequentially") as caught:
            result = SweepRunner(spec, jobs=2).run()
        assert len(caught) == 1
        assert [row["y"] for row in result.rows] == [0, 1]
        assert not result.parallel and result.jobs == 1
        reason = result.manifest["parallel_fallback"]
        assert reason.split(":")[0] in {"PicklingError", "AttributeError"}
        assert "parallel_fallback" not in SweepRunner(spec, jobs=1).run().manifest


def _benchmark_cell(seed: int = 0, **_: object) -> dict:
    """Module-level kernel: one tiny benchmark run."""
    report = execute_benchmark(
        GridTopology(n_servers=2, n_coordinators=2),
        WorkloadSpec(n_calls=4, exec_time=1.0),
        seed=seed,
    )
    return {"completed": report.completed}


def _live_environments() -> int:
    """Environments in the collector's own object list.

    Not counted through weak references: the collector clears those before
    it runs finalizers, so a grid that a finalizer revived would read as
    freed.
    """
    return sum(type(o) is Environment for o in gc.get_objects())


def _environments_after_each_cell(monkeypatch) -> list[int]:
    """From now on, append the live environment count after every cell."""
    execute = runner_module._execute_cell
    left: list[int] = []

    def counted(cell, call_params):
        outcome = execute(cell, call_params)
        left.append(_live_environments())
        return outcome

    monkeypatch.setattr(runner_module, "_execute_cell", counted)
    return left


class TestCellBoundary:
    def test_a_finished_cell_is_reclaimed_at_the_cell_boundary(self, monkeypatch):
        """A finished grid is cyclic garbage; the runner frees it before the
        next cell, whatever the collector's thresholds would have done."""
        spec = ScenarioSpec(
            name="reclaim-sweep",
            title="finished cells are freed",
            cell=_benchmark_cell,
            seeds=(1, 2),
        )
        left = _environments_after_each_cell(monkeypatch)
        gc.collect()
        before = _live_environments()
        gc.disable()
        try:
            result = SweepRunner(spec, jobs=1).run()
        finally:
            gc.enable()
        assert [row["completed"] for row in result.rows] == [4, 4]
        assert left == [before, before]

    def test_no_finished_grid_outlives_its_cell(self, monkeypatch):
        """After every cell of a tiny fig7 sweep, no environment is left."""
        left = _environments_after_each_cell(monkeypatch)
        gc.collect()
        before = _live_environments()
        run_scenario("fig7", scale="tiny", jobs=1, seeds=[1])
        assert len(left) > 1 and set(left) == {before}

    @staticmethod
    def _loaded_after_a_sequential_sweep(*packages: str) -> str:
        """Start-up plus a ``jobs=1`` fig7 sweep in a fresh interpreter;
        the modules of ``packages`` it left in ``sys.modules``."""
        script = "\n".join([
            "import sys",
            "import repro",
            "from repro.cli import _build_parser",
            "from repro.scenarios import load_all, run_scenario",
            "load_all()",
            "_build_parser()",
            "run_scenario('fig7', scale='tiny', jobs=1)",
            f"packages = {packages!r}",
            "print(sorted(m for m in sys.modules",
            "             if any(m == p or m.startswith(p + '.') for p in packages)))",
        ])
        src = str(Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        return completed.stdout.strip()

    def test_start_up_and_a_sweep_do_not_load_networkx(self):
        """networkx serves partition reachability only and loads on use."""
        assert self._loaded_after_a_sequential_sweep("networkx") == "[]"

    def test_a_sequential_sweep_does_not_load_the_process_pool(self):
        """Only ``jobs > 1`` (or a cell budget) starts processes, so only
        then does the runner import the pool machinery."""
        loaded = self._loaded_after_a_sequential_sweep(
            "multiprocessing", "concurrent.futures"
        )
        assert loaded == "[]"


class TestCliProtocolSelection:
    def test_protocol_and_set_reach_the_kernel(self, tmp_path, capsys):
        base = ["run", "churn-survival", "--scale", "tiny", "--jobs", "1",
                "--out", str(tmp_path), "--quiet"]
        assert main(base) == 0
        assert main(base + ["--protocol", "no-replication"]) == 0
        assert main(base + ["--set",
                            "coordinator.replication.period=30"]) == 0
        out = capsys.readouterr().out
        hashes = {
            line.split("spec ")[-1]
            for line in out.splitlines() if "spec " in line
        }
        # Preset and override each resolve to a distinct spec hash.
        assert len(hashes) == 3

    def test_bad_preset_and_path_fail_fast(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown protocol preset"):
            main(["run", "fig8", "--scale", "tiny", "--jobs", "1",
                  "--out", str(tmp_path), "--protocol", "xtremweb"])
        with pytest.raises(ConfigurationError, match="valid keys"):
            main(["run", "fig8", "--scale", "tiny", "--jobs", "1",
                  "--out", str(tmp_path), "--set", "coordinator.bogus=1"])

    def test_kernels_without_protocol_are_skipped(self, tmp_path, capsys):
        # fig8's bespoke durations kernel takes no protocol keywords.
        code = main(["run", "fig8", "--scale", "tiny", "--jobs", "1",
                     "--out", str(tmp_path), "--protocol", "no-replication"])
        assert code == 0
        assert "takes no protocol, skipping" in capsys.readouterr().out

    def test_set_faults_adds_one_injector(self, tmp_path, capsys):
        base = ["run", "sched-ablation", "--scale", "tiny", "--jobs", "1",
                "--quiet"]
        assert main(base + ["--out", str(tmp_path / "plain")]) == 0
        assert main(base + [
            "--out", str(tmp_path / "trace"),
            "--set", "faults.kind=churn",
            "--set", f"faults.trace={AVAILABILITY_CSV}",
            "--set", "faults.trace_mode=clamp",
        ]) == 0
        plain = ResultsStore(tmp_path / "plain").latest("sched-ablation")
        traced = ResultsStore(tmp_path / "trace").latest("sched-ablation")
        # The spec's own inject.rate entry stays; the churn entry comes first.
        names = [c["name"] for c in traced.cells[0]["params"]["components"]]
        assert names == ["inject.churn", "inject.rate"]
        for before, after in zip(plain.cells, traced.cells):
            assert after["outputs"]["faults_injected"] > before["outputs"]["faults_injected"]

    @pytest.mark.parametrize("scenario, sets", [
        ("sched-ablation", ["faults.kind=rate"]),
        ("churn-survival", ["faults.kind=churn"]),
        ("ablation-baselines", ["faults.kind=rate", "faults.target=coordinators"]),
    ])
    def test_set_faults_beside_the_same_kind_of_injector(self, tmp_path, scenario, sets):
        # Each scenario already arms this kind on this tier under the kind's
        # default name; the added entry must not clash with it.
        argv = ["run", scenario, "--scale", "tiny", "--jobs", "1",
                "--out", str(tmp_path), "--quiet"]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 0
        stored = ResultsStore(tmp_path).latest(scenario)
        first = stored.cells[0]["params"]["components"][0]
        target = "coordinators" if "faults.target=coordinators" in sets else "servers"
        assert first["params"]["name"] == f"cli-faults-{target}"

    def test_bad_fault_overrides_fail_fast(self, tmp_path):
        base = ["run", "fig7", "--scale", "tiny", "--jobs", "1",
                "--out", str(tmp_path)]
        with pytest.raises(ConfigurationError, match="unknown fault override"):
            main(base + ["--set", "faults.rate=3"])
        with pytest.raises(ConfigurationError, match="unknown component"):
            main(base + ["--set", "faults.kind=meteor"])
        with pytest.raises(ConfigurationError, match="rejected its parameters"):
            main(base + ["--set", "faults.kind=rate",
                         "--set", f"faults.trace={AVAILABILITY_CSV}"])

    def test_kernels_without_components_skip_fault_overrides(self, tmp_path, capsys):
        code = main(["run", "fig8", "--scale", "tiny", "--jobs", "1",
                     "--out", str(tmp_path), "--set", "faults.kind=churn"])
        assert code == 0
        assert "takes no components, skipping" in capsys.readouterr().out

    def test_cli_resume_skips_checkpointed_cells(self, tmp_path, capsys):
        base = ["run", "fig8", "--scale", "tiny", "--jobs", "1",
                "--out", str(tmp_path), "--quiet"]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        assert "resumed" in capsys.readouterr().out


class TestCoordinatorPreload:
    def _calls(self, n, params_bytes=256):
        return [
            CallDescription(
                identity=CallIdentity("bench", "preload", index + 1),
                service="sleep",
                params_bytes=params_bytes,
                result_bytes=16,
                exec_time=1.0,
            )
            for index in range(n)
        ]

    def test_preload_registers_pending_tasks(self):
        grid = build_confined_cluster(n_servers=1, n_coordinators=2, seed=1)
        grid.start()
        coordinator = grid.coordinators[0]
        keys = coordinator.preload_tasks(self._calls(5))
        assert len(keys) == 5
        for key in keys:
            assert coordinator.tasks[key].state is TaskState.PENDING
            assert coordinator.tasks[key].owner == coordinator.name
            assert key in coordinator._changes

    def test_preloaded_tasks_are_deterministic_across_runs(self):
        def keys():
            grid = build_confined_cluster(n_servers=1, n_coordinators=2, seed=1)
            grid.start()
            return grid.coordinators[0].preload_tasks(self._calls(3))

        assert keys() == keys()
