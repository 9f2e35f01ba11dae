"""Ablation benchmarks: what the RPC-V combination buys, and detector tuning."""

from repro.experiments.common import print_rows
from repro.scenarios import run_scenario


def test_ablation_baselines_under_coordinator_faults(benchmark):
    rows = benchmark.pedantic(
        lambda: run_scenario(
            "ablation-baselines",
            params=dict(n_calls=24, exec_time=5.0, horizon=3000.0),
            seeds=(7,),
            jobs=1,
        ).rows,
        rounds=1, iterations=1,
    )
    print_rows(rows, title="Ablation: RPC-V vs baselines under coordinator faults")
    by_system = {row["system"]: row for row in rows}
    assert by_system["rpc-v"]["mean_completion_ratio"] == 1.0


def test_ablation_detector_tradeoff(benchmark):
    rows = benchmark.pedantic(
        lambda: run_scenario("ablation-detector", jobs=1).rows, rounds=1, iterations=1
    )
    print_rows(rows, title="Ablation: heart-beat period / suspicion timeout trade-off")
    assert len(rows) == 9
