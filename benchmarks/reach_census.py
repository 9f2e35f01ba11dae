"""Reach census: every function under ``src/repro`` is reached by the product.

    PYTHONPATH=src python benchmarks/reach_census.py

Two phases run side by side, each in a fresh process so that neither sees
what the other registered:

* **product** replays, in process, every product step CI runs: the CLI's
  ``list`` / ``run`` / ``report`` (every scenario at tiny scale, the
  trace-replay ``--set faults.*`` run, the policy ``--set`` overrides, one
  ``--resume`` run and one ``--jobs 2`` run for the parent side of the
  process pool), the figures at paper scale, paper-scale Fig. 7, the
  result-store checks, the coordinator-loss sweep, the rows comparison, one
  untimed rep of every repo-benchmark workload and every example.  Sweep
  cells run with ``--jobs 1`` so that their code runs in this process; pool
  workers are not followed.
* **tests** runs the tier-1 suite (``pytest -q``).

A function is *reached* by a phase when its code starts at least once.  On
Python >= 3.12 a ``sys.monitoring`` ``PY_START`` callback records each code
object once and returns ``DISABLE``; on 3.11, ``sys.setprofile`` and
``threading.setprofile`` see every call.

Every ``def`` in ``src/repro`` (nested ones included; lambdas and
comprehensions are expressions, not functions here) must be reached by the
product, except:

* by rule: ``__repr__``, and body-less stubs whose body is nothing but a
  docstring, ``...``, ``pass`` or ``raise NotImplementedError`` (with a
  bare ``yield`` after it in an abstract generator);
* by name: ``reach_allowlist.txt`` beside this file, one
  ``module:qualname  reason`` a line, at most 20 lines.  A test oracle or a
  fake is no reason: it belongs in ``tests/``.

The census exits 1 naming each finding: a function reached only by tests
(``test-only``) or by neither (``unreached``), an allowlist entry that names
no function or that the product now reaches (``stale``), a product step that
failed, or an allowlist longer than 20 lines.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import multiprocessing
import os
import runpy
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ALLOWLIST = Path(__file__).with_name("reach_allowlist.txt")
MAX_ALLOWED = 20


class Function(NamedTuple):
    path: Path
    line: int  # the first decorator's line, as ``co_firstlineno`` has it
    name: str
    qualname: str
    module: str
    length: int
    exempt: bool

    @property
    def key(self) -> tuple[str, int, str]:
        return (str(self.path), self.line, self.name)

    @property
    def label(self) -> str:
        return f"{self.module}:{self.qualname}"


# ---------------------------------------------------------------- functions
def _bodyless(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = node.body
    if body and _is_constant(body[0], str):
        body = body[1:]
    return all(
        isinstance(stmt, ast.Pass)
        or _is_constant(stmt, type(Ellipsis))
        or (isinstance(stmt, ast.Raise) and _names(stmt.exc, "NotImplementedError"))
        # the generator marker after the raise of an abstract generator
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield)
            and stmt.value.value is None)
        for stmt in body
    )


def _is_constant(stmt: ast.stmt, kind: type) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, kind)
    )


def _names(expr: ast.expr | None, name: str) -> bool:
    if isinstance(expr, ast.Call):
        expr = expr.func
    return isinstance(expr, ast.Name) and expr.id == name


def functions(root: Path = SRC) -> list[Function]:
    """Every ``def`` under ``root`` (``src/repro``), in file and line order."""
    found: list[Function] = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min(
                        [child.lineno]
                        + [decorator.lineno for decorator in child.decorator_list]
                    )
                    found.append(Function(
                        path, first, child.name, qualname, module,
                        child.end_lineno - first + 1,
                        child.name == "__repr__" or _bodyless(child),
                    ))
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


# ---------------------------------------------------------------- recording
def _record(phase: Callable[[], None]) -> set[tuple[str, int, str]]:
    """Run ``phase`` and return the key of every ``src/repro`` code started."""
    import repro

    # Code objects carry the file name the import system found the module
    # under; compare against that spelling and report the resolved path.
    root = os.path.dirname(repro.__file__)
    watched = {
        os.path.join(root, *path.relative_to(SRC).parts): str(path)
        for path in SRC.rglob("*.py")
    }
    seen: set[tuple[str, int, str]] = set()

    def note(code) -> None:
        path = watched.get(code.co_filename)
        if path is not None:
            seen.add((path, code.co_firstlineno, code.co_name))

    if sys.version_info >= (3, 12):
        monitoring = sys.monitoring
        tool, start = monitoring.COVERAGE_ID, monitoring.events.PY_START

        def started(code, offset):
            note(code)
            return monitoring.DISABLE

        monitoring.use_tool_id(tool, "reach-census")
        monitoring.register_callback(tool, start, started)
        monitoring.set_events(tool, start)
        try:
            phase()
        finally:
            monitoring.set_events(tool, monitoring.events.NO_EVENTS)
            monitoring.register_callback(tool, start, None)
            monitoring.free_tool_id(tool)
    else:
        def profile(frame, event, arg):
            if event == "call":
                note(frame.f_code)

        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            phase()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return seen


# ------------------------------------------------------------------- phases
def _script(path: Path, *args: str) -> None:
    """Run ``python PATH ARGS`` in this process; a non-zero exit raises."""
    saved_argv, saved_path = sys.argv, sys.path[:]
    sys.argv = [str(path), *args]
    sys.path.insert(0, str(path.parent))
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as done:
        if done.code not in (None, 0):
            raise RuntimeError(f"{path.name} exited with {done.code!r}") from None
    finally:
        sys.argv, sys.path[:] = saved_argv, saved_path


def _cli(*argv: str) -> None:
    from repro.cli import main

    code = main(list(argv))
    if code:
        raise RuntimeError(f"python -m repro {' '.join(argv)} exited with {code}")


def _read_back(out: str) -> None:
    """What CI's inline checks read back from the results store."""
    from repro.scenarios import ResultsStore

    store = ResultsStore(out)
    for name in ("sched-ablation", "detector-ablation", "flash-crowd"):
        result = store.latest(name)
        if result is None or not result.rows or not result.cells:
            raise RuntimeError(f"no stored {name} run under {out}")


def _run_scenario(name: str, **kwargs) -> None:
    from repro.scenarios import run_scenario

    run_scenario(name, jobs=1, **kwargs)


def product_steps(out: str) -> Iterator[tuple[str, Callable[[], None]]]:
    """Every product step CI runs, as (label, thunk), in order."""
    tiny = os.path.join(out, "tiny")
    trace = (
        "--set", "faults.kind=churn",
        "--set", "faults.trace=tests/data/availability.csv",
        "--set", "faults.trace_mode=clamp",
    )
    yield "repro list", lambda: _cli("list")
    yield "repro run (every scenario, tiny)", lambda: _cli(
        "run", "--scale", "tiny", "--jobs", "1", "--out", tiny, "--quiet")
    yield "repro run --resume", lambda: _cli(
        "run", "fig9", "--scale", "tiny", "--jobs", "1", "--out", tiny,
        "--resume", "--quiet")
    yield "repro report", lambda: _cli("report", "--out", tiny)
    yield "repro report fig9", lambda: _cli("report", "fig9", "--out", tiny)
    yield "trace replay (--set faults.*)", lambda: _cli(
        "run", "sched-ablation", "--scale", "tiny", *trace, "--jobs", "1",
        "--out", os.path.join(out, "trace"), "--quiet")
    yield "trace replay --jobs 2 (pool parent)", lambda: _cli(
        "run", "sched-ablation", "--scale", "tiny", *trace, "--jobs", "2",
        "--out", os.path.join(out, "trace-pool"), "--quiet")
    yield "policy overrides (--set policy.*)", lambda: _cli(
        "run", "churn-survival", "--scale", "tiny", "--jobs", "1", "--out",
        os.path.join(out, "policy"), "--quiet",
        "--set", "policy.scheduler=policy.sched.round-robin",
        "--set", "policy.replication=policy.repl.none")
    yield "figures at paper scale", lambda: _cli(
        "run", "fig4-size", "fig4-calls", "fig5-size", "fig5-count",
        "fig6-size", "fig6-calls", "fig9", "fig10", "fig11", "--scale",
        "paper", "--jobs", "1", "--out", os.path.join(out, "paper"), "--quiet")
    yield "results read back", lambda: _read_back(tiny)
    yield "run_scenario detector-ablation (tiny)", lambda: _run_scenario(
        "detector-ablation", scale="tiny")
    yield "run_scenario fig7 (paper scale)", lambda: _run_scenario("fig7")
    yield "coordinator-loss sweep", lambda: _script(
        REPO / "benchmarks" / "coordinator_loss_sweep.py")
    yield "rows comparison", lambda: _script(
        REPO / "benchmarks" / "compare_rows.py", tiny, tiny)
    for workload in ("fig7-sweep", "steady-backlog", "churn-storm", "flash-crowd-1m"):
        yield f"bench rep {workload}", lambda workload=workload: _script(
            REPO / "bench" / "rep.py", "--workload", workload, "--seed", "7",
            "--scale", "full", "--trace", "0")
    for example in sorted((REPO / "examples").glob("*.py")):
        yield f"example {example.name}", lambda example=example: _script(example)


def _product() -> None:
    with tempfile.TemporaryDirectory(prefix="reach-census-") as out:
        for label, step in product_steps(out):
            captured = io.StringIO()
            try:
                with contextlib.redirect_stdout(captured), \
                        contextlib.redirect_stderr(captured):
                    step()
            except Exception:
                raise RuntimeError(
                    f"product step {label!r} failed:\n{captured.getvalue()}"
                    f"{traceback.format_exc()}"
                ) from None


def _tests() -> None:
    import pytest

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = pytest.main(["-q", "-p", "no:cacheprovider"])
    if code != 0:
        # Pass or fail is tier-1's verdict; here it only means some test
        # stopped early, so what it would have reached may read unreached.
        lines = captured.getvalue().strip().splitlines()
        failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
        print(f"note: the test phase exited {int(code)}: {lines[-1] if lines else ''}",
              *failed, sep="\n  ", file=sys.stderr)


PHASES = {"product": _product, "tests": _tests}


def _phase_worker(name: str, sink: str) -> None:
    # As ``python -m pytest`` / ``python -m repro`` run from the repo root.
    os.chdir(REPO)
    sys.path.insert(0, str(REPO))
    reached = _record(PHASES[name])
    Path(sink).write_text(json.dumps(sorted(reached)))


def reach() -> dict[str, set[tuple[str, int, str]]]:
    """Run both phases side by side; raise when one of them fails."""
    context = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="reach-census-") as scratch:
        workers = {
            name: context.Process(
                target=_phase_worker, args=(name, os.path.join(scratch, name))
            )
            for name in PHASES
        }
        for worker in workers.values():
            worker.start()
        for worker in workers.values():
            worker.join()
        failed = [name for name, worker in workers.items() if worker.exitcode]
        if failed:
            raise SystemExit(f"reach census: the {' and '.join(failed)} phase failed")
        return {
            name: {tuple(key) for key in json.loads(
                Path(scratch, name).read_text())}
            for name in PHASES
        }


# ------------------------------------------------------------------ verdict
def read_allowlist(path: Path = ALLOWLIST) -> dict[str, str]:
    entries: dict[str, str] = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            label, _, reason = line.partition(" ")
            entries[label] = reason.strip()
    return entries


def verdict(
    everything: list[Function],
    allowed: dict[str, str],
    product: set[tuple[str, int, str]],
    tests: set[tuple[str, int, str]],
) -> tuple[dict[str, int], list[str]]:
    """Count each function's kind and name every finding."""
    findings: list[str] = []
    if len(allowed) > MAX_ALLOWED:
        findings.append(
            f"allowlist: {len(allowed)} entries, more than {MAX_ALLOWED}")
    labels = {function.label for function in everything}
    for label, reason in allowed.items():
        if not reason:
            findings.append(f"allowlist: {label} gives no reason")
        if label not in labels:
            findings.append(f"stale      {label}: names no function")
    counts = dict.fromkeys(
        ("exempt", "product", "allowed", "test-only", "unreached"), 0)
    for function in everything:
        if function.exempt:
            counts["exempt"] += 1
            continue
        if function.key in product:
            counts["product"] += 1
            if function.label in allowed:
                findings.append(
                    f"stale      {function.label}: the product reaches it")
            continue
        kind = "test-only" if function.key in tests else "unreached"
        if function.label in allowed:
            counts["allowed"] += 1
            continue
        counts[kind] += 1
        where = function.path.relative_to(REPO)
        findings.append(
            f"{kind:<10} {function.label} ({where}:{function.line}, "
            f"{function.length} lines)")
    return counts, findings


def main() -> int:
    everything = functions()
    reached = reach()
    counts, findings = verdict(
        everything, read_allowlist(), reached["product"], reached["tests"])
    print(
        f"reach census: {len(everything)} functions; "
        + ", ".join(f"{count} {kind}" for kind, count in counts.items())
    )
    for finding in findings:
        print(finding)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
