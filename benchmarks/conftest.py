"""Benchmark harness configuration.

Every benchmark regenerates one figure of the paper at a reduced scale (so the
suite stays fast) and prints the series it produced; run the experiment
drivers in ``repro.experiments`` directly with their default parameters for
the full-size campaigns recorded in EXPERIMENTS.md.

The four ``test_perf_*.py`` microbenches each write a ``BENCH_<name>.json``
summary.  They write it under ``--bench-out DIR``; without the option (a
plain tier-1 ``pytest``) that is a pytest temporary directory, so collecting
``benchmarks/`` never touches the baselines committed at the repository
root.  Refresh a baseline on purpose with e.g.
``pytest benchmarks/test_perf_kernel.py --bench-out .`` — the option is
registered by this file, so name a path under ``benchmarks/`` with it.
"""

from __future__ import annotations

from pathlib import Path

import pytest


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--bench-out",
        metavar="DIR",
        default=None,
        help="directory the test_perf_* benchmarks write BENCH_*.json into "
        "(default: a pytest temporary directory)",
    )


@pytest.fixture
def bench_out(request, tmp_path_factory) -> Path:
    """Directory the perf benchmarks write their ``BENCH_*.json`` into."""
    # default=None: on a plain ``pytest`` this conftest loads after the
    # command line was parsed, and the option has no value to look up.
    chosen = request.config.getoption("--bench-out", default=None)
    if chosen is None:
        return tmp_path_factory.mktemp("bench")
    directory = Path(chosen)
    directory.mkdir(parents=True, exist_ok=True)
    return directory
