"""Workload generators.

* :mod:`repro.workloads.synthetic` — the configurable non-blocking RPC
  benchmark of §5.1 (parameter size, result size, execution time, number of
  calls are the experiment knobs);
* :mod:`repro.workloads.alcatel` — a stand-in for the Alcatel commutation
  network validation application of §5.2 (1000 tasks whose durations follow
  the wide, right-skewed distribution of Figure 8);
* :mod:`repro.workloads.sweep` — helpers to enumerate the parameter sweeps of
  the figures.
"""

from repro.workloads.alcatel import AlcatelSpec, AlcatelWorkload
from repro.workloads.sweep import geometric_sizes, geometric_counts
from repro.workloads.synthetic import SyntheticWorkload, SubmissionRecord

__all__ = [
    "AlcatelSpec",
    "AlcatelWorkload",
    "SubmissionRecord",
    "SyntheticWorkload",
    "geometric_counts",
    "geometric_sizes",
]
