"""Compare two sessions written by ``run.py --out``.

    python3 bench/compare.py A/bench.json B/bench.json

A is the base (the parent commit), B the change.  Per workload, one row per
end-to-end metric: both medians with their quartiles, the ratio B/A, and a
verdict against the bound ``BENCHMARK.json`` fixes for the metric:

* ``worse``        B's median is worse than A's by more than the bound;
* ``unresolved``   the run-to-run spread (quartile distance over median) of
                   either side exceeds the bound and the two sides' runs
                   overlap, so neither "worse" nor "unchanged" can be said;
* ``better``       every run of B reads better than every run of A;
* ``within-bound`` otherwise.

Both ``rows_digest``s are printed, so a simulator-only change can show that it
left every simulated statistic identical.  Exits non-zero on any ``worse``, on
any failed call, or when the two files' host calibration differs by more than
10 % (a different or busier host: the timings are flagged, not comparable).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Mapping

from run import CALIB_TOLERANCE, DECLARED  # bench/run.py: this directory leads sys.path


def verdict(a: Mapping[str, Any], b: Mapping[str, Any], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    overlap = b["min"] <= a["max"] and a["min"] <= b["max"]
    all_better = b["max"] < a["min"] if better == "lower" else b["min"] > a["max"]
    if spread > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if all_better else "within-bound"


def compare(a: Mapping[str, Any], b: Mapping[str, Any], declared: Mapping[str, Any]) -> list[str]:
    """Print the comparison; return the reasons it does not pass."""
    problems = []
    calib_a, calib_b = (sum(s["host"]["calib_s"]) / 2 for s in (a, b))
    drift = abs(calib_b - calib_a) / calib_a
    print(f"host.calib_s  A {calib_a:.4f}  B {calib_b:.4f}  ({drift:+.1%} of A)")
    if drift > CALIB_TOLERANCE:
        problems.append(f"host calibration differs by {drift:.1%}: cross-host")
    for side, session in (("A", a), ("B", b)):
        if session["host"]["noisy"]:
            print(f"session {side} is marked noisy (its own calibrations disagree)")

    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"\n{name}: only in A")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        same = "identical" if wa["rows_digest"] == wb["rows_digest"] else "DIFFERENT"
        print(f"\n{name}  ({wa['calls']} calls per rep)")
        print(f"  rows_digest {same}\n    A {wa['rows_digest']}\n    B {wb['rows_digest']}")
        for side, entry in (("A", wa), ("B", wb)):
            if entry["failed"]:
                problems.append(f"{name}: {entry['failed']} failed calls in {side}")
        if "end_to_end" not in wa or "end_to_end" not in wb:
            print("  no timed reps on one side (--trace 1): nothing to compare")
            continue
        for spec in declared["end_to_end"]:
            sa, sb = wa["end_to_end"][spec["name"]], wb["end_to_end"][spec["name"]]
            outcome = verdict(sa, sb, spec["better"], spec["bound"])
            if outcome == "worse":
                problems.append(f"{name}: {spec['name']} worse")
            print(
                f"  {spec['name']:<15} "
                f"A {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}] n={sa['n']}  "
                f"B {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] n={sb['n']}  "
                f"{spec['unit']}  B/A {sb['median'] / sa['median']:.4f} "
                f"(base {sa['median']:.6g})  bound {spec['bound']:.0%}  {outcome}"
            )
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    problems = compare(a, b, json.loads(DECLARED.read_text()))
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
