"""Schema test of the repo benchmark at ``--scale smoke`` (numbers never compared).

Two smoke sessions run side by side; what they print must be exactly what
``BENCHMARK.json`` declares, every simulated statistic must repeat, the
traced layers must account for the time, and the tree must stay clean.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: per-layer metrics that are host times or built on one; all others are
#: counts and must repeat exactly for a fixed seed.
TIMED = re.compile(
    r"\.(self_s|share|us_per_\w+|ns_per_\w+|cell_wall_p\d+_ms)$|^trace\.|^host\."
)


def _git_status() -> str | None:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout if done.returncode == 0 else None


def test_smoke_sessions_match_the_declaration(tmp_path):
    before = _git_status()
    sessions = [
        subprocess.Popen(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--scale", "smoke",
                "--seconds", "0",
                "--out", str(tmp_path / side),
            ],
            cwd=tmp_path,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for side in ("a", "b")
    ]
    outputs = [session.communicate(timeout=170) for session in sessions]
    for session, (_, stderr) in zip(sessions, outputs):
        assert session.returncode == 0, stderr

    workloads = [w["name"] for w in DECLARED["workloads"]]
    units = {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]
    }
    assert all(NAME.fullmatch(name) for name in [*workloads, *units])
    for stdout, _ in outputs:
        printed: dict[str, dict[str, str]] = {}
        for line in stdout.splitlines():
            fields = line.split()
            if fields and fields[0] in workloads:
                printed.setdefault(fields[0], {})[fields[1]] = fields[3]
        assert list(printed) == workloads
        for metrics in printed.values():
            assert metrics == units

    a, b = (
        json.loads((tmp_path / side / "bench.json").read_text())["workloads"]
        for side in ("a", "b")
    )
    for name in workloads:
        assert a[name]["failed"] == 0 and b[name]["failed"] == 0
        assert a[name]["rows_digest"] == b[name]["rows_digest"]
        assert a[name]["per_layer"]["trace.attributed_share"] >= 0.95
        for metric, value in a[name]["per_layer"].items():
            if not TIMED.search(metric):
                assert value == b[name]["per_layer"][metric], (name, metric)

    assert _git_status() == before
    assert [p.name for p in HERE.glob("test_*")] == [Path(__file__).name]
