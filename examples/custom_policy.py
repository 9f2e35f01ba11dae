#!/usr/bin/env python3
"""A custom scheduling policy in ~30 lines, with zero edits to the core tier.

The coordinator's decisions are pluggable ``policy.*`` strategies resolved
through the platform registry.  This example adds **longest-first** (the
mirror image of the built-in ``policy.sched.fastest-first``: get the big
rocks out of the way early) and compares it against the built-ins on a
heterogeneous batch — selecting each one purely by registry key, exactly
like ``--set policy.scheduler=...`` does on the CLI.
"""

from repro.platform import component
from repro.policies import SchedulerPolicy
from repro.scenarios import benchmark_cell


# ---------------------------------------------------------------- the policy
@component("example.sched.longest-first")
class LongestFirstPolicy(SchedulerPolicy):
    """Longest declared execution time first (FCFS tie-break)."""

    key = "example.sched.longest-first"

    def choose(self, eligible, server, now):
        # `eligible` arrives FCFS-ordered and non-empty; the de-duplication
        # rules, assignment bookkeeping and reschedule-on-suspicion switch
        # are all inherited from SchedulerPolicy.
        return max(
            eligible,
            key=lambda record: record.call.exec_time
            if record.call.exec_time is not None
            else 0.0,
        )


# ------------------------------------------------------------- the comparison
POLICIES = (
    "policy.sched.fifo-reschedule",
    "policy.sched.fastest-first",
    "example.sched.longest-first",  # ours, by key — no other wiring
)

if __name__ == "__main__":
    print("scheduling a heterogeneous batch (24 calls, 4..16 s) under faults:")
    for policy in POLICIES:
        outputs = benchmark_cell(
            n_calls=24, exec_time=4.0, exec_time_spread=3.0,
            n_servers=4, n_coordinators=2,
            components=[{"name": "inject.rate", "params": {
                "target": "servers", "faults_per_minute": 2.0}}],
            scheduler_policy=policy, seed=7, horizon=3000.0,
        )
        print(
            f"  {policy:34s} makespan {outputs['makespan']:7.1f}s  "
            f"completed {outputs['completed']}/{outputs['submitted']}"
        )
    print("ok: a custom policy is a class + @component key, nothing else")
