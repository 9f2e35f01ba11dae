"""The repo benchmark: four end-to-end workloads and a traced per-layer budget.

    python3 bench/run.py [--workload NAME]... [--seed 7] [--seconds 20]
                         [--trace 0|1] [--scale full|smoke] [--out DIR]

Each rep of a workload runs in its own fresh process (``rep.py``), one at a
time, interleaved across the selected workloads; a workload keeps getting reps
until it has been measured for ``--seconds``.  ``--trace 0`` runs the timed
reps only, ``--trace 1`` one timed rep plus one rep under the profiler, and
without ``--trace`` the timed reps are followed by the profiled one.  Every
metric declared in ``BENCHMARK.json`` is printed by name with its unit; when
one workload is selected the last line is the JSON object the benchmark
contract asks for.  Nothing is written unless ``--out`` is given.

The run exits non-zero, printing no result, when any call is lost, committed
twice or late, or when two reps of one workload disagree on a simulated
statistic.
"""

from __future__ import annotations

import argparse
import heapq
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Mapping

HERE = Path(__file__).resolve().parent
DECLARED = HERE.parent / "BENCHMARK.json"
#: a rep that takes longer than this is killed and fails the run (the
#: contract gives a whole run 180 s).
REP_TIMEOUT_S = 150.0
#: calibration readings further apart than this mark a session noisy.
CALIB_TOLERANCE = 0.10
_CALIB_STEPS = 1_100_000


class BenchFailure(Exception):
    """The benchmark's own correctness gate tripped."""


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop shaped like the simulator's.

    Heap push/pop, dict get/set and a generator resume per step; compared
    between sessions it tells a slower host from a slower program.
    """

    def ticker():
        while True:
            yield

    resume = ticker().__next__
    heap: list[int] = []
    table: dict[int, int] = {}
    started = time.perf_counter()
    for step in range(_CALIB_STEPS):
        heapq.heappush(heap, (step * 7919) % 10007)
        if len(heap) > 256:
            heapq.heappop(heap)
        slot = step & 1023
        table[slot] = table.get(slot, 0) + 1
        resume()
    return time.perf_counter() - started


def run_rep(workload: str, seed: int, scale: str, trace: int) -> dict[str, Any]:
    """One rep in a fresh process; raises when it fails or breaks the gate."""
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", scale,
        "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchFailure(f"{workload}: rep exceeded {REP_TIMEOUT_S:.0f} s") from None
    if done.returncode != 0:
        raise BenchFailure(
            f"{workload}: rep exited {done.returncode}\n{done.stderr.strip()}"
        )
    rep = json.loads(done.stdout.splitlines()[-1])
    if rep["violations"]:
        raise BenchFailure(f"{workload}: " + "; ".join(rep["violations"]))
    return rep


def check_agreement(workload: str, reps: list[Mapping[str, Any]]) -> None:
    """Every rep of one workload must be the same simulation.

    The digest covers every cell's outputs, so equal digests also mean equal
    ``sim_makespan_s`` and ``crowd.sim_handoff_s``.
    """
    seen = {rep["rows_digest"] for rep in reps}
    if len(seen) > 1:
        raise BenchFailure(f"{workload}: reps disagree on rows_digest: {sorted(seen)}")


def summarise(values: list[float]) -> dict[str, Any]:
    """Median, quartiles, extremes and the sample count of one timing."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def end_to_end(reps: list[Mapping[str, Any]]) -> dict[str, dict[str, Any]]:
    samples = {
        key: [rep[key] for rep in reps]
        for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "sim_makespan_s")
    }
    samples["calls_per_s"] = [rep["submitted"] / rep["wall_s"] for rep in reps]
    return {name: summarise(values) for name, values in samples.items()}


def _percentile(ordered: list[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def per_layer(
    reps: list[Mapping[str, Any]], traced: Mapping[str, Any], calib: list[float]
) -> dict[str, float]:
    """The traced rep's layer budget plus the counts and ratios built on it."""
    layers = traced["layers"]
    total = sum(layer["self_s"] for layer in layers.values()) + traced["other_s"]
    metrics: dict[str, float] = dict(traced["counts"])
    for name, layer in layers.items():
        metrics[f"{name}.self_s"] = layer["self_s"]
        metrics[f"{name}.share"] = layer["self_s"] / total
        metrics[f"{name}.calls"] = layer["calls"]

    def per(layer: str, count: str, scale: float) -> float:
        n = metrics[count]
        return scale * layers[layer]["self_s"] / n if n else 0.0

    cell_walls = sorted(ms for rep in reps for ms in rep["cell_wall_ms"])
    metrics.update(
        {
            "sim.us_per_event": per("sim", "sim.events", 1e6),
            "net.us_per_msg": per("net", "net.sent", 1e6),
            "core.coordinator.us_per_request": per(
                "core.coordinator", "core.coordinator.requests", 1e6
            ),
            "core.replication.us_per_round": per(
                "core.replication", "core.replication.rounds", 1e6
            ),
            "crowd.ns_per_client_tick": per("crowd", "crowd.client_ticks", 1e9),
            "scenarios.cell_wall_p50_ms": _percentile(cell_walls, 0.50),
            "scenarios.cell_wall_p80_ms": _percentile(cell_walls, 0.80),
            "trace.overhead_ratio": traced["wall_s"]
            / statistics.median(rep["wall_s"] for rep in reps),
            "trace.attributed_share": 1.0 - traced["other_s"] / total,
            "host.calib_s": statistics.mean(calib),
        }
    )
    return metrics


def measure(
    names: list[str], seed: int, scale: str, seconds: float, trace: int | None
) -> dict[str, Any]:
    """Run the session and return everything ``--out`` stores."""
    calib = [calibrate()]
    reps: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)
    budget = 0.0 if trace == 1 else seconds
    active = list(names)
    while active:
        for name in list(active):
            began = time.perf_counter()
            reps[name].append(run_rep(name, seed, scale, trace=0))
            spent[name] += time.perf_counter() - began
            if spent[name] >= budget:
                active.remove(name)
    traced = {}
    if trace != 0:
        traced = {name: run_rep(name, seed, scale, trace=1) for name in names}
    calib.append(calibrate())

    workloads = {}
    for name in names:
        check_agreement(name, reps[name] + ([traced[name]] if traced else []))
        entry: dict[str, Any] = {
            "calls": reps[name][0]["submitted"],
            "attempted": sum(rep["submitted"] for rep in reps[name]),
            "failed": sum(rep["failed"] for rep in reps[name]),
            "rows_digest": reps[name][0]["rows_digest"],
        }
        if trace != 1:
            entry["end_to_end"] = end_to_end(reps[name])
        if name in traced:
            entry["per_layer"] = per_layer(reps[name], traced[name], calib)
        workloads[name] = entry
    return {
        "seed": seed,
        "scale": scale,
        "host": {
            "calib_s": calib,
            "noisy": abs(calib[1] - calib[0]) > CALIB_TOLERANCE * min(calib),
        },
        "workloads": workloads,
    }


def report(
    session: Mapping[str, Any], declared: Mapping[str, Any]
) -> dict[str, dict[str, Any]]:
    """Print every declared metric; return ``{workload: {metric: value, unit}}``."""
    host = session["host"]
    print(
        f"# seed {session['seed']}  scale {session['scale']}  host.calib_s "
        f"{host['calib_s'][0]:.4f} -> {host['calib_s'][1]:.4f}"
        + ("  NOISY" if host["noisy"] else "")
    )
    printed: dict[str, dict[str, Any]] = {}
    for name, entry in session["workloads"].items():
        print(
            f"# {name}: {entry['calls']} calls per rep, {entry['failed']} failed "
            f"of {entry['attempted']}, rows_digest {entry['rows_digest']}"
        )
        metrics = printed[name] = {}
        for section in ("end_to_end", "per_layer"):
            for spec in declared[section] if section in entry else []:
                value, spread = entry[section][spec["name"]], ""
                if section == "end_to_end":
                    stats, value = value, value["median"]
                    spread = (
                        f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                        f"min {stats['min']:.6g}  max {stats['max']:.6g}  "
                        f"n {stats['n']}"
                    )
                metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
                print(
                    f"{name:<15} {spec['name']:<38} {value:>14.6g} "
                    f"{spec['unit']:<6}{spread}"
                )
    return printed


def main(argv: list[str]) -> int:
    declared = json.loads(DECLARED.read_text())
    known = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=known)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = list(dict.fromkeys(args.workload or known))

    try:
        session = measure(names, args.seed, args.scale, args.seconds, args.trace)
    except BenchFailure as failure:
        print(f"benchmark failed: {failure}", file=sys.stderr)
        return 1
    printed = report(session, declared)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "bench.json").write_text(json.dumps(session, indent=1) + "\n")
    if len(names) == 1:
        entry = session["workloads"][names[0]]
        print(
            json.dumps(
                {
                    "correct": True,
                    "attempted": entry["attempted"],
                    "failed": entry["failed"],
                    "metrics": printed[names[0]],
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
