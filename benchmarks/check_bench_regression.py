#!/usr/bin/env python
"""Gate benchmark regressions against a committed baseline.

Usage::

    python benchmarks/check_bench_regression.py BASELINE.json FRESH.json \
        [--max-regression 0.20]

Compares the per-scale ``events_per_sec`` of a freshly produced benchmark
file (``BENCH_kernel.json`` from ``benchmarks/test_perf_kernel.py`` or
``BENCH_transport.json`` from ``benchmarks/test_perf_transport.py``) against
the committed baseline and exits non-zero when any scale regressed by more
than ``--max-regression`` (a fraction; default 20%).  Every per-scale group
in the baseline is gated: ``scales`` plus any auxiliary ``*_scales`` table
(the transport benchmark's ``fanin_scales``, the kernel benchmark's
``ladder_scales``), so regressions in secondary tables cannot land
silently.  Speed-ups and small noise are reported but never fail the gate.

``--flatness LOW:HIGH:RATIO`` adds a scale-flatness gate on the *fresh*
results alone: events/sec at the HIGH scale must be at least RATIO times
events/sec at the LOW scale (e.g. ``--flatness 1000:10000:0.9`` demands the
10k-node throughput stays within 10% of the 1k-node throughput).  This is a
within-run ratio, so it is machine-independent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path, help="committed BENCH_kernel.json")
    parser.add_argument("fresh", type=Path, help="freshly generated BENCH_kernel.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="maximum tolerated fractional events/sec drop per scale (default 0.20)",
    )
    parser.add_argument(
        "--flatness",
        metavar="LOW:HIGH:RATIO",
        default=None,
        help=(
            "require fresh events/sec at scale HIGH to be at least RATIO x "
            "the fresh events/sec at scale LOW (e.g. 1000:10000:0.9)"
        ),
    )
    args = parser.parse_args()

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    failures: list[str] = []

    groups = ["scales"] + sorted(
        key for key in baseline if key != "scales" and key.endswith("_scales")
    )
    for group in groups:
        fresh_group = fresh.get(group)
        if fresh_group is None:
            failures.append(f"{group}: missing from fresh results")
            continue
        for scale, base in sorted(baseline[group].items(), key=lambda kv: int(kv[0])):
            new = fresh_group.get(scale)
            label = scale if group == "scales" else f"{group}:{scale}"
            if new is None:
                failures.append(f"{label}: missing from fresh results")
                continue
            base_eps = float(base["events_per_sec"])
            new_eps = float(new["events_per_sec"])
            drop = (base_eps - new_eps) / base_eps
            status = "ok" if drop <= args.max_regression else "REGRESSION"
            print(
                f"{label:>18}: baseline {base_eps:>10.0f} ev/s, "
                f"fresh {new_eps:>10.0f} ev/s, change {-drop:+.1%} [{status}]"
            )
            if drop > args.max_regression:
                failures.append(
                    f"{label}: events/sec dropped {drop:.1%} "
                    f"(max allowed {args.max_regression:.0%})"
                )

    if args.flatness is not None:
        low, high, ratio_text = args.flatness.split(":")
        floor = float(ratio_text)
        low_row = fresh["scales"].get(low)
        high_row = fresh["scales"].get(high)
        if low_row is None or high_row is None:
            failures.append(
                f"flatness gate: scales {low} and {high} must both be present"
            )
        else:
            low_eps = float(low_row["events_per_sec"])
            high_eps = float(high_row["events_per_sec"])
            ratio = high_eps / low_eps
            status = "ok" if ratio >= floor else "COLLAPSE"
            print(
                f"flatness {high} vs {low}: {high_eps:>10.0f} / {low_eps:>10.0f} "
                f"ev/s = {ratio:.3f} (floor {floor}) [{status}]"
            )
            if ratio < floor:
                failures.append(
                    f"flatness: {high}-scale throughput is {ratio:.3f}x the "
                    f"{low}-scale throughput (floor {floor})"
                )

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
