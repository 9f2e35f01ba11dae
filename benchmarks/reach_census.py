"""Reach census: the product runs every statement under ``src/repro``.

    PYTHONPATH=src python benchmarks/reach_census.py

Two phases run side by side, each in a fresh process so that neither sees
what the other ran:

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

Each phase records which ``src/repro`` lines ran, and nothing else.  On
Python >= 3.12 a ``sys.monitoring`` ``LINE`` callback records each line once
and returns ``DISABLE``; on 3.11, ``sys.settrace`` traces the lines of
``src/repro`` frames only, and stops tracing a code object once every one of
its lines has run.

A *statement* is a simple statement, or the header of a compound one (its
``body`` holds statements of its own); a ``try`` header, a function's
docstring and ``global`` / ``nonlocal`` run no code and are not statements.
A statement ran when any line of its span ran: a header such as a
multi-line ``if (`` may report only its inner lines.  A statement belongs
to the innermost ``def`` holding it (nested ones included; lambdas and
comprehensions are expressions), and a function is *reached* when any of its
statements ran.

Every statement inside a ``src/repro`` function must be run by the product,
except:

* by rule: a statement in a block that ends in ``raise``; a statement (with
  everything under it, an ``except`` clause included) whose header carries
  ``# pragma: no cover``; and the body of an exempt function: ``__repr__``,
  or a body-less stub whose body is nothing but a docstring, ``...``,
  ``pass`` or ``raise NotImplementedError`` (with a bare ``yield`` after it
  in an abstract generator);
* by name: the body of a function that ``reach_allowlist.txt`` beside this
  file lists, one ``module:qualname  reason`` a line, at most 20 lines.  A
  test oracle or a fake is no reason: it belongs in ``tests/``.

Statements the product does not run are a ratchet, not a list: the census
fails when their count differs from ``UNRUN_STATEMENTS``, so a change that
adds one raises the bound in its own diff.  It prints which of them only the
tests run (``test-only``) and which nothing runs (``unreached``), function by
function, without gating on that split: the tests phase follows Hypothesis's
random draws.

The census also fails on *write-only state*: an attribute that ``src/repro``
assigns on ``self`` (``=``, ``+=`` or an annotated assignment) while no
``src/repro`` code loads an attribute of that name or spells it as a string,
unless the allowlist names it as ``module:Class.attribute  reason``.

The census exits 1 naming each finding: a function only the tests reach
(``test-only``) or nothing reaches (``unreached``), an unrun-statement count
other than the bound, a write-only attribute, an allowlist entry that names
nothing it could exempt or that the product now reaches (``stale``), a
product step that failed, or an allowlist longer than 20 lines.
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
# Non-exempt statements the product does not run, at this commit.
UNRUN_STATEMENTS = 85
PRAGMA = "# pragma: no cover"

# The lines each phase ran, by resolved source path.
Lines = dict[str, set[int]]


class Statement(NamedTuple):
    first: int
    last: int
    exempt: bool  # in a block that ends in ``raise``, or under a pragma

    def ran(self, lines: set[int]) -> bool:
        return any(line in lines for line in range(self.first, self.last + 1))


class Function(NamedTuple):
    path: Path
    line: int  # the first decorator's line
    name: str
    qualname: str
    module: str
    length: int
    exempt: bool
    statements: tuple[Statement, ...] = ()

    @property
    def label(self) -> str:
        return f"{self.module}:{self.qualname}"

    def reached(self, lines: Lines) -> bool:
        ran = lines.get(str(self.path), set())
        return any(statement.ran(ran) for statement in self.statements)


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


def _header(node: ast.stmt | ast.excepthandler) -> tuple[int, int]:
    """A statement's span: all of a simple one, a compound one's header."""
    first = min([node.lineno] + [
        decorator.lineno for decorator in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if not body:
        return first, node.end_lineno
    return first, max(node.lineno, body[0].lineno - 1)


def _statements(
    body: list[ast.stmt], pragmas: set[int], exempt: bool = False,
) -> Iterator[Statement]:
    """The statements of one block, nested blocks included, nested defs not."""
    exempt = exempt or bool(body) and isinstance(body[-1], ast.Raise)
    for node in body:
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first, last = _header(node)
        here = exempt or not pragmas.isdisjoint(range(first, last + 1))
        if not isinstance(node, (ast.Try, ast.TryStar)):
            yield Statement(first, last, here)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, field, []), pragmas, here)
        for clause in getattr(node, "handlers", ()):
            first, last = _header(clause)
            yield from _statements(
                clause.body, pragmas,
                here or not pragmas.isdisjoint(range(first, last + 1)))
        for case in getattr(node, "cases", ()):
            yield from _statements(case.body, pragmas, here)


def _modules(root: Path) -> Iterator[tuple[Path, str]]:
    """Each source file under ``root`` with its module's dotted name."""
    root = root.resolve()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        yield path, ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def functions(root: Path = SRC) -> list[Function]:
    """Every ``def`` under ``root`` (``src/repro``), in file and line order."""
    found: list[Function] = []
    for path, module in _modules(root):
        source = path.read_text()
        pragmas = {
            number for number, text in enumerate(source.splitlines(), 1)
            if PRAGMA in text
        }

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first, _ = _header(child)
                    body = child.body
                    if body and _is_constant(body[0], str):
                        body = body[1:]
                    found.append(Function(
                        path, first, child.name, qualname, module,
                        child.end_lineno - first + 1,
                        child.name == "__repr__" or _bodyless(child),
                        tuple(_statements(body, pragmas)),
                    ))
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(source, str(path)), "")
    return found


# ------------------------------------------------------- write-only state
def written_only(root: Path = SRC) -> dict[str, str]:
    """``module:Class.attribute`` → ``path:line`` for write-only state.

    An attribute is write-only when some method assigns it on ``self`` and
    no code under ``root`` loads an attribute of that name (on any object)
    or holds the name as a string constant (``getattr``, a stats key).
    """
    stores: dict[str, dict[str, str]] = {}
    used: set[str] = set()
    for path, module in _modules(root):
        where = path.relative_to(REPO) if path.is_relative_to(REPO) else path

        def visit(node: ast.AST, owner: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{owner}.{child.name}" if owner else child.name)
                    continue
                if isinstance(child, ast.Attribute):
                    if isinstance(child.ctx, ast.Load):
                        used.add(child.attr)
                    elif (isinstance(child.ctx, ast.Store) and owner
                          and isinstance(child.value, ast.Name)
                          and child.value.id == "self"):
                        stores.setdefault(child.attr, {}).setdefault(
                            f"{module}:{owner}.{child.attr}",
                            f"{where}:{child.lineno}")
                elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                    used.add(child.value)
                visit(child, owner)

        visit(ast.parse(path.read_text(), str(path)), "")
    return {
        label: place
        for name, places in stores.items() if name not in used
        for label, place in places.items()
    }


# ---------------------------------------------------------------- recording
def _record(phase: Callable[[], None], root: Path = SRC) -> Lines:
    """Run ``phase`` and return every line under ``root`` that it ran."""
    root = root.resolve()
    # Code objects carry the file name the import system found the module
    # under; record each by its resolved path, once per file name.
    known: dict[str, str | None] = {}

    def source(filename: str) -> str | None:
        try:
            return known[filename]
        except KeyError:
            path = Path(filename).resolve()
            known[filename] = str(path) if path.is_relative_to(root) else None
            return known[filename]

    seen: Lines = {}

    if sys.version_info >= (3, 12):
        monitoring = sys.monitoring
        tool, line = monitoring.COVERAGE_ID, monitoring.events.LINE

        def ran(code, number):
            path = source(code.co_filename)
            if path is not None:
                seen.setdefault(path, set()).add(number)
            return monitoring.DISABLE

        monitoring.use_tool_id(tool, "reach-census")
        monitoring.register_callback(tool, line, ran)
        monitoring.set_events(tool, line)
        try:
            phase()
        finally:
            monitoring.set_events(tool, monitoring.events.NO_EVENTS)
            monitoring.register_callback(tool, line, None)
            monitoring.free_tool_id(tool)
        return seen

    # id(code) -> (code, its lines not run yet, its local tracer); the code
    # is kept so that its id is not reused.  Code outside ``root`` has no
    # lines to run.
    traced: dict[int, tuple[object, set[int], Callable | None]] = {}

    def enter(code) -> tuple[object, set[int], Callable | None]:
        path = source(code.co_filename)
        if path is None:
            return code, set(), None
        ran = seen.setdefault(path, set())
        # The first line only resumes the frame; it reports no line event.
        left = {number for _, _, number in code.co_lines()
                if number not in (None, code.co_firstlineno)}

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
                left.discard(frame.f_lineno)
            return local

        return code, left, local

    def call(frame, event, arg):
        code = frame.f_code
        entry = traced.get(id(code))
        if entry is None:
            entry = traced[id(code)] = enter(code)
        return entry[2] if entry[1] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        phase()
    finally:
        sys.settrace(None)
        threading.settrace(None)
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
    ran = _record(PHASES[name])
    Path(sink).write_text(json.dumps({path: sorted(lines) for path, lines in ran.items()}))


def reach() -> dict[str, Lines]:
    """Run both phases side by side; raise when one of them fails."""
    context = multiprocessing.get_context("spawn")
    # One hash seed, so that set order, and any branch that follows it, is
    # the same in every census run.
    saved = os.environ.get("PYTHONHASHSEED")
    os.environ["PYTHONHASHSEED"] = "0"
    try:
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
                raise SystemExit(
                    f"reach census: the {' and '.join(failed)} phase failed")
            return {
                name: {path: set(lines) for path, lines in json.loads(
                    Path(scratch, name).read_text()).items()}
                for name in PHASES
            }
    finally:
        if saved is None:
            del os.environ["PYTHONHASHSEED"]
        else:
            os.environ["PYTHONHASHSEED"] = saved


# ------------------------------------------------------------------ verdict
def read_allowlist(path: Path = ALLOWLIST) -> dict[str, str]:
    entries: dict[str, str] = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            label, _, reason = line.partition(" ")
            entries[label] = reason.strip()
    return entries


class Verdict(NamedTuple):
    functions: dict[str, int]
    statements: dict[str, int]
    unrun: list[str]  # one line per statement the product does not run
    findings: list[str]


def verdict(
    everything: list[Function],
    allowed: dict[str, str],
    product: Lines,
    tests: Lines,
    write_only: dict[str, str] | None = None,
    bound: int = UNRUN_STATEMENTS,
) -> Verdict:
    """Count each function's and statement's kind; name every finding."""
    write_only = write_only or {}
    findings: list[str] = []
    if len(allowed) > MAX_ALLOWED:
        findings.append(
            f"allowlist: {len(allowed)} entries, more than {MAX_ALLOWED}")
    labels = {function.label for function in everything}
    for label, reason in allowed.items():
        if not reason:
            findings.append(f"allowlist: {label} gives no reason")
        if label not in labels and label not in write_only:
            findings.append(
                f"stale      {label}: names no function or write-only attribute")
    for label, place in write_only.items():
        if label not in allowed:
            findings.append(f"write-only {label} ({place}): no code reads it")
    kinds = ("exempt", "product", "allowed", "test-only", "unreached")
    functions, statements = dict.fromkeys(kinds, 0), dict.fromkeys(kinds, 0)
    unrun: list[str] = []
    for function in everything:
        where = function.path.relative_to(REPO)
        if function.exempt:
            functions["exempt"] += 1
            statements["exempt"] += len(function.statements)
            continue
        if function.reached(product):
            functions["product"] += 1
            if function.label in allowed:
                findings.append(
                    f"stale      {function.label}: the product reaches it")
        elif function.label in allowed:
            functions["allowed"] += 1
        else:
            kind = "test-only" if function.reached(tests) else "unreached"
            functions[kind] += 1
            findings.append(
                f"{kind:<10} {function.label} ({where}:{function.line}, "
                f"{function.length} lines)")
        if function.label in allowed:
            statements["allowed"] += len(function.statements)
            continue
        ran = product.get(str(function.path), set())
        tested = tests.get(str(function.path), set())
        for statement in function.statements:
            if statement.exempt:
                kind = "exempt"
            elif statement.ran(ran):
                kind = "product"
            else:
                kind = "test-only" if statement.ran(tested) else "unreached"
                span = (f"{statement.first}" if statement.first == statement.last
                        else f"{statement.first}-{statement.last}")
                unrun.append(f"{kind:<10} {function.label} ({where}:{span})")
            statements[kind] += 1
    count = statements["test-only"] + statements["unreached"]
    if count != bound:
        findings.append(
            f"bound      {count} statements the product does not run, "
            f"UNRUN_STATEMENTS is {bound}: set it to {count} in this change")
    return Verdict(functions, statements, unrun, findings)


def _summary(what: str, counts: dict[str, int]) -> str:
    return (f"{sum(counts.values())} {what}; "
            + ", ".join(f"{count} {kind}" for kind, count in counts.items()))


def main() -> int:
    everything = functions()
    reached = reach()
    result = verdict(
        everything, read_allowlist(), reached["product"], reached["tests"],
        written_only())
    print(f"reach census: {_summary('functions', result.functions)}")
    print(f"reach census: {_summary('statements', result.statements)}")
    unrun = result.statements["test-only"] + result.statements["unreached"]
    print(f"reach census: {unrun} statements the product does not run "
          f"(bound {UNRUN_STATEMENTS})")
    for line in result.unrun:
        print(f"  {line}")
    for finding in result.findings:
        print(finding)
    return 1 if result.findings else 0


if __name__ == "__main__":
    sys.exit(main())
