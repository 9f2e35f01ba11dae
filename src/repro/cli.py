"""``python -m repro`` — the scenario engine's front door.

Three subcommands:

* ``list`` — every registered scenario with its figure, scales and cell counts;
* ``run``  — run one or more scenarios (all of them by default) at a given
  scale, fanning the sweep cells out over ``--jobs`` worker processes, and
  write one JSON artifact per run into the results store;
* ``report`` — list stored artifacts, or show the latest rows of one scenario.

Examples::

    python -m repro list
    python -m repro run fig7 --jobs 4
    python -m repro run --scale tiny --out results
    python -m repro run fig7 --protocol no-replication --scale tiny
    python -m repro run fig7 --set coordinator.replication.period=30 \
        --set client.result_poll_period=0.5
    python -m repro run fig7 --resume   # skip already-checkpointed cells
    python -m repro report fig7
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.experiments.common import format_rows
from repro.platform.registry import create_component
from repro.scenarios.engine import PROTOCOL_PRESETS, resolve_protocol
from repro.scenarios.registry import all_scenarios, get_scenario
from repro.scenarios.runner import SweepRunner
from repro.scenarios.store import ResultsStore

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's figure sweeps and custom scenarios.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the registered scenarios")

    run = commands.add_parser("run", help="run scenarios and store their results")
    run.add_argument(
        "scenarios", nargs="*", metavar="scenario",
        help="scenario names (default: every registered scenario)",
    )
    run.add_argument(
        "--scale", default="paper",
        help="parameter scale: 'paper' (full size, default) or a named "
             "preset such as 'tiny'",
    )
    run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the sweep (default: cpu count; 1 = "
             "sequential)",
    )
    run.add_argument(
        "--seed", type=int, action="append", dest="seeds", metavar="S",
        help="replace the scenario's seed axis (repeatable)",
    )
    run.add_argument(
        "--protocol", default=None, metavar="PRESET",
        help="protocol preset for the runs (one of: "
             f"{', '.join(sorted(PROTOCOL_PRESETS))}); only scenarios whose "
             "cell kernel takes a protocol apply it",
    )
    run.add_argument(
        "--set", action="append", dest="overrides", default=[],
        metavar="PATH=VALUE",
        help="dotted-path protocol override, e.g. "
             "--set coordinator.replication.period=30 (repeatable; values "
             "are parsed as JSON, falling back to strings).  'faults.*' "
             "paths add one fault injector (cli-faults-<target>) to every "
             "cell instead: "
             "faults.kind=churn|rate picks inject.churn (default) or "
             "inject.rate, faults.target its tier, and faults.trace=FILE "
             "replays a node,up,down availability trace "
             "(faults.trace_mode=wrap|clamp)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="skip cells already checkpointed for the same resolved spec "
             "(same spec hash + seed) under the results store",
    )
    run.add_argument(
        "--out", default="results", metavar="DIR",
        help="results store directory (default: results/)",
    )
    run.add_argument(
        "--no-save", action="store_true", help="do not write JSON artifacts"
    )
    run.add_argument(
        "--quiet", action="store_true", help="print summaries only, not the rows"
    )

    report = commands.add_parser("report", help="inspect stored results")
    report.add_argument(
        "scenario", nargs="?", help="show the latest artifact of this scenario"
    )
    report.add_argument(
        "--out", default="results", metavar="DIR",
        help="results store directory (default: results/)",
    )
    return parser


def _cmd_list() -> int:
    rows: list[dict[str, Any]] = []
    for name, spec in all_scenarios().items():
        rows.append(
            {
                "scenario": name,
                "figure": spec.figure or "-",
                "cells": spec.resolve().n_cells,
                "scales": ",".join(("paper", *spec.scale_names)),
                "title": spec.title,
            }
        )
    print(format_rows(rows, title="Registered scenarios"))
    return 0


def _parse_overrides(pairs: Sequence[str]) -> dict[str, Any]:
    """``--set path=value`` pairs -> an overrides mapping (values via JSON)."""
    overrides: dict[str, Any] = {}
    for pair in pairs:
        path, sep, raw = pair.partition("=")
        if not sep or not path:
            raise ConfigurationError(
                f"--set expects PATH=VALUE, got {pair!r}"
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[path] = value
    return overrides


#: the ``--set faults.<key>=...`` keys; ``kind`` picks the ``inject.<kind>``
#: component, the others become its parameters.
_FAULT_OVERRIDE_KEYS = ("kind", "target", "trace", "trace_mode")


def _split_fault_overrides(
    overrides: dict[str, Any]
) -> tuple[dict[str, Any], dict[str, Any] | None]:
    """Split ``faults.*`` paths from protocol overrides.

    The ``faults.*`` paths build one ``inject.*`` component entry (``None``
    when there are none); ``kind`` defaults to ``churn``, the injector that
    replays a trace.  The entry is named ``cli-faults-<target>``, so it
    never clashes with an injector of the same kind the scenario arms.
    """
    protocol: dict[str, Any] = {}
    faults: dict[str, Any] = {}
    for path, value in overrides.items():
        if path.startswith("faults."):
            key = path[len("faults."):]
            if key not in _FAULT_OVERRIDE_KEYS:
                known = ", ".join(f"faults.{name}" for name in _FAULT_OVERRIDE_KEYS)
                raise ConfigurationError(
                    f"unknown fault override {path!r} (known: {known})"
                )
            faults[key] = value
        else:
            protocol[path] = value
    if not faults:
        return protocol, None
    kind = faults.pop("kind", "churn")
    faults["name"] = f"cli-faults-{faults.get('target', 'servers')}"
    entry = {"name": f"inject.{kind}", "params": faults}
    # Fail fast on a bad kind or parameter, before any sweep burns time.
    create_component(entry["name"], entry["params"])
    return protocol, entry


def _accepted_keywords(cell: Any) -> set[str]:
    """Keyword parameter names a cell kernel accepts."""
    return {
        parameter.name
        for parameter in inspect.signature(cell).parameters.values()
        if parameter.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }


def _protocol_params(
    spec: Any, preset: str | None, overrides: dict[str, Any]
) -> dict[str, Any] | None:
    """The protocol parameters to pass to ``spec``'s cell kernel.

    Returns ``{}`` when nothing was requested, ``None`` when the kernel does
    not accept protocol keywords (the scenario must then be skipped rather
    than silently run with the wrong protocol).
    """
    if preset is None and not overrides:
        return {}
    if not {"protocol_preset", "protocol_overrides"} <= _accepted_keywords(spec.cell):
        return None
    params: dict[str, Any] = {}
    if preset is not None:
        params["protocol_preset"] = preset
    if overrides:
        params["protocol_overrides"] = overrides
    return params


def _cmd_run(args: argparse.Namespace) -> int:
    names = args.scenarios or list(all_scenarios())
    store = ResultsStore(args.out)
    overrides, fault_entry = _split_fault_overrides(
        _parse_overrides(args.overrides)
    )
    # Fail fast on a bad preset name or a typo'd override path, before any
    # sweep burns time (the error already names the valid choices).
    resolve_protocol(args.protocol, overrides)
    failures = 0
    for name in names:
        spec = get_scenario(name)
        scale = args.scale
        if scale != "paper" and scale not in spec.scales:  # pragma: no cover - user input
            # Never silently substitute the full-size campaign for a cheap
            # preset: skip, so a missing 'tiny' shows up as a skip in CI
            # output instead of a blown job timeout.
            print(f"-- {name}: no {scale!r} scale defined, skipping")
            continue
        protocol_params = _protocol_params(spec, args.protocol, overrides)
        if protocol_params is None:  # pragma: no cover - user input
            print(f"-- {name}: cell kernel takes no protocol, skipping")
            continue
        if fault_entry is not None:
            if "components" not in _accepted_keywords(spec.cell):  # pragma: no cover - user input
                print(f"-- {name}: cell kernel takes no components, skipping")
                continue
            # Prepended: the added injector is armed before the spec's own
            # components, in the slot a fault plan is armed in.
            spec = spec.with_overrides(components=(fault_entry, *spec.components))
        runner = SweepRunner(
            spec, scale=scale, jobs=args.jobs, seeds=args.seeds, store=store,
            params=protocol_params or None, resume=args.resume,
        )
        plan = runner.plan
        print(
            f"== {name} [{scale}]: {plan.n_cells} cells, "
            f"jobs={runner.jobs} ..."
        )
        try:
            result = runner.run(save=not args.no_save)
        except Exception as error:  # pragma: no cover - surface it, keep sweeping the rest
            failures += 1
            print(f"!! {name} failed: {error}", file=sys.stderr)
            continue
        mode = f"parallel x{result.jobs}" if result.parallel else "sequential"
        resumed = (
            f", {runner.resumed_cells} resumed" if runner.resumed_cells else ""
        )
        print(
            f"   {len(result.rows)} rows from {len(result.cells)} cells "
            f"in {result.wall_seconds:.2f}s ({mode}{resumed}), "
            f"spec {result.spec_hash}"
        )
        if not args.quiet:
            print(format_rows(result.rows, title=f"   {result.title}"))
        artifact = result.manifest.get("artifact")
        if artifact:
            print(f"   artifact: {artifact}")
    return 1 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultsStore(args.out)
    if args.scenario:
        result = store.latest(args.scenario)
        if result is None:  # pragma: no cover - user input
            print(f"no stored runs for {args.scenario!r} under {args.out}/")
            return 1
        try:
            current = get_scenario(result.scenario)
            fresh = current.spec_hash(current.resolve(
                None if result.scale == "paper" else result.scale
            ))
            freshness = (
                " (matches current spec)" if fresh == result.spec_hash
                else f" (current spec is {fresh})"
            )
        except ConfigurationError:  # pragma: no cover - an artifact older than its spec
            # The scenario or its scale may have been renamed since the
            # artifact was written; still show the stored rows.
            freshness = " (scenario/scale no longer registered)"
        print(
            f"{result.scenario} [{result.scale}] {result.started_at} "
            f"spec {result.spec_hash}{freshness}"
        )
        print(format_rows(result.rows, title=result.title))
        return 0
    runs = store.list_runs()
    if not runs:  # pragma: no cover - user input
        print(f"no stored runs under {args.out}/")
        return 0
    rows = []
    for path in runs:
        result = store.load(path)
        rows.append(
            {
                "scenario": result.scenario,
                "scale": result.scale,
                "started": result.started_at,
                "rows": len(result.rows),
                "cells": len(result.cells),
                "wall_s": round(result.wall_seconds, 2),
                "spec": result.spec_hash,
                "artifact": os.fspath(path),
            }
        )
    print(format_rows(rows, title=f"Stored runs under {args.out}/"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_report(args)
