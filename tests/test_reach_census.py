"""The reach census (``benchmarks/reach_census.py``): its rules, not its run.

The census itself runs the product and tier-1 side by side for minutes;
these tests check, in milliseconds, what decides its verdict: which
``def`` counts as a function and under what name, which statements it holds
and which of them are exempt, how recorded lines are matched to statements
by span, how the ran lines become counts and findings (the unrun-statement
bound included), which attributes are write-only, and that the checked-in
allowlist names live functions.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from benchmarks.reach_census import (
    MAX_ALLOWED,
    REPO,
    Function,
    Statement,
    functions,
    read_allowlist,
    verdict,
    written_only,
)


def _tree(root: Path, files: dict[str, str]) -> Path:
    """Write ``files`` under ``root/pkg`` and return that package root."""
    package = root / "pkg"
    for name, source in files.items():
        path = package / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return package


def _one(tmp_path: Path, source: str) -> Function:
    (found,) = functions(_tree(tmp_path, {"mod.py": source}))
    return found


class TestExemptionRule:
    @pytest.mark.parametrize("body", [
        '"""Only a docstring."""',
        "...",
        "pass",
        '"""Doc."""\n    pass',
        "raise NotImplementedError",
        'raise NotImplementedError("subclasses answer this")',
        "raise NotImplementedError\n    yield",
    ], ids=["docstring", "ellipsis", "pass", "docstring-pass", "raise",
            "raise-message", "abstract-generator"])
    def test_a_bodyless_stub_is_exempt(self, tmp_path, body):
        assert _one(tmp_path, f"def stub(self):\n    {body}\n").exempt

    @pytest.mark.parametrize("body", [
        "return None",
        'raise ValueError("no")',
        "yield 1",
        "pass\n    return 1",
        '"""Doc."""\n    return 0',
    ], ids=["return", "other-raise", "yield-value", "pass-then-work",
            "docstring-then-work"])
    def test_a_body_that_does_anything_is_not_exempt(self, tmp_path, body):
        assert not _one(tmp_path, f"def work(self):\n    {body}\n").exempt

    def test_repr_is_exempt_whatever_its_body(self, tmp_path):
        found = _one(tmp_path, """
            class Thing:
                def __repr__(self):
                    return f"Thing({id(self)})"
        """)
        assert found.qualname == "Thing.__repr__" and found.exempt


class TestFunctions:
    def test_methods_and_nested_defs_get_their_qualnames(self, tmp_path):
        package = _tree(tmp_path, {"mod.py": """
            def outer():
                def inner():
                    return 1
                return inner

            class Outer:
                class Inner:
                    def method(self):
                        return 2

            square = lambda x: x * x
            doubled = [x * 2 for x in range(3)]
        """})
        assert [found.qualname for found in functions(package)] == [
            "outer", "outer.<locals>.inner", "Outer.Inner.method"]

    def test_a_package_init_is_named_after_its_package(self, tmp_path):
        package = _tree(tmp_path, {
            "__init__.py": "def top():\n    return 0\n",
            "sub/__init__.py": "def below():\n    return 0\n",
            "sub/leaf.py": "def leaf():\n    return 0\n",
        })
        assert sorted(found.label for found in functions(package)) == [
            "pkg.sub.leaf:leaf", "pkg.sub:below", "pkg:top"]

    def test_a_decorated_def_starts_at_its_first_decorator(self, tmp_path):
        found = _one(tmp_path, """
            import functools

            @functools.lru_cache(maxsize=None)
            @staticmethod
            def cached():
                return 3
        """)
        # ``co_firstlineno`` of a decorated function is the first decorator's
        # line, and the length counts the decorators.
        assert (found.line, found.length) == (4, 4)

    def test_an_async_def_is_a_function(self, tmp_path):
        found = _one(tmp_path, "async def fetch():\n    return 1\n")
        assert (found.qualname, found.exempt) == ("fetch", False)

    def test_every_source_function_has_one_key(self):
        everything = functions()
        assert everything, "no function found under src/repro"
        keys = [(found.path, found.line, found.name) for found in everything]
        assert len(keys) == len(set(keys))


class TestStatements:
    def test_a_compound_statement_spans_its_header_only(self, tmp_path):
        found = _one(tmp_path, """
            def work(flag, other):
                \"\"\"Doc.\"\"\"
                total = (
                    1
                )
                if (
                    flag
                    and other
                ):
                    total += 1
                return total
        """)
        # The docstring runs no code: it is no statement.
        assert found.statements == (
            Statement(4, 6, False), Statement(7, 10, False),
            Statement(11, 11, False), Statement(12, 12, False))

    def test_any_line_of_a_span_runs_the_statement(self):
        header = Statement(7, 10, False)
        # 3.12 reports a multi-line ``if (`` header by its inner lines only.
        assert header.ran({8}) and header.ran({10})
        assert not header.ran({6, 11})

    def test_a_nested_def_is_one_statement_of_its_parent(self, tmp_path):
        outer, inner = functions(_tree(tmp_path, {"mod.py": """
            def outer():
                @staticmethod
                def inner(
                    a,
                ):
                    return a
                return inner
        """}))
        assert outer.statements == (Statement(3, 6, False), Statement(8, 8, False))
        assert inner.statements == (Statement(7, 7, False),)

    def test_try_headers_and_global_run_no_code(self, tmp_path):
        found = _one(tmp_path, """
            def work():
                global STATE
                try:
                    STATE = 1
                finally:
                    STATE = 2
        """)
        assert [s.first for s in found.statements] == [5, 7]

    def test_a_block_that_ends_in_raise_is_exempt(self, tmp_path):
        found = _one(tmp_path, """
            def check(value):
                if value < 0:
                    message = f"negative: {value}"
                    raise ValueError(message)
                return value
        """)
        assert [(s.first, s.exempt) for s in found.statements] == [
            (3, False), (4, True), (5, True), (6, False)]

    def test_a_pragma_exempts_its_statement_and_everything_under_it(self, tmp_path):
        found = _one(tmp_path, """
            def load(path):
                try:
                    text = path.read_text()
                except OSError:  # pragma: no cover - a torn write
                    text = ""
                    return text
                if not text:  # pragma: no cover - empty
                    return None
                size = len(text)  # pragma: no cover - counted elsewhere
                return text
        """)
        assert [(s.first, s.exempt) for s in found.statements] == [
            (4, False), (6, True), (7, True), (8, True), (9, True),
            (10, True), (11, False)]


def test_recorded_code_objects_match_the_functions_they_start(tmp_path):
    """Recorded lines reach the ``def`` they belong to, and only those.

    A stdlib-only tree, so that any interpreter runs it: the recorder's
    ``sys.monitoring`` branch on 3.12+, its ``sys.settrace`` one on 3.11.
    Run in a fresh interpreter: the recorder installs a process-wide hook,
    which must not displace the one of a census recording this very run.
    """
    package = _tree(tmp_path, {"mod.py": """
        import functools


        def branchy(flag):
            if (
                flag
                and True
            ):
                return "yes"
            return "no"


        @functools.lru_cache(maxsize=None)
        def decorated():
            def nested():
                return 1
            return nested()


        def never():
            return 0


        class Thing:
            @property
            def size(self):
                return 2
    """})
    script = textwrap.dedent("""
        import json, sys
        from pathlib import Path
        sys.path.insert(0, "benchmarks")
        sys.path.insert(0, sys.argv[1])
        from reach_census import _record, functions

        def phase():
            from pkg import mod

            mod.branchy(True)
            mod.decorated()
            assert mod.Thing().size == 2

        root = Path(sys.argv[1], "pkg")
        ran = _record(phase, root)
        everything = functions(root)
        print(json.dumps({
            "reached": sorted(f.label for f in everything if f.reached(ran)),
            "header": [s.ran(ran.get(str(f.path), set()))
                       for f in everything if f.name == "branchy"
                       for s in f.statements],
        }))
    """)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], cwd=REPO,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen["reached"] == [
        "pkg.mod:Thing.size", "pkg.mod:branchy", "pkg.mod:decorated",
        "pkg.mod:decorated.<locals>.nested"]
    # The multi-line header and its body ran; the fall-through return did not.
    assert seen["header"] == [True, True, False]


def _function(
    label: str, line: int, statements: tuple[Statement, ...] = (),
    exempt: bool = False,
) -> Function:
    module, _, qualname = label.partition(":")
    path = REPO / "src" / Path(*module.split(".")).with_suffix(".py")
    return Function(path, line, qualname.rsplit(".", 1)[-1], qualname,
                    module, 3, exempt,
                    statements or (Statement(line + 1, line + 1, False),))


def _ran(*functions_: Function, lines: tuple[int, ...] = ()) -> dict[str, set[int]]:
    """The first statement line of each function, plus ``lines``, in one file."""
    ran = {line for found in functions_ for line in (found.statements[0].first,)}
    return {str(REPO / "src" / "repro" / "a.py"): ran | set(lines)}


class TestVerdict:
    used = _function("repro.a:used", 1)
    tested = _function("repro.a:tested", 10)
    dead = _function("repro.a:dead", 20)
    stub = _function("repro.a:Base.stub", 30, exempt=True)

    def test_a_product_that_reaches_everything_has_no_finding(self):
        result = verdict(
            [self.used, self.stub], {}, _ran(self.used), _ran(self.used), bound=0)
        assert result.findings == [] and result.unrun == []
        assert result.functions == {"exempt": 1, "product": 1, "allowed": 0,
                                    "test-only": 0, "unreached": 0}
        assert result.statements == {"exempt": 1, "product": 1, "allowed": 0,
                                     "test-only": 0, "unreached": 0}

    def test_test_only_and_unreached_functions_are_named_with_their_place(self):
        result = verdict(
            [self.used, self.tested, self.dead], {}, _ran(self.used),
            _ran(self.used, self.tested), bound=2)
        assert (result.functions["test-only"], result.functions["unreached"]) == (1, 1)
        assert result.findings == [
            "test-only  repro.a:tested (src/repro/a.py:10, 3 lines)",
            "unreached  repro.a:dead (src/repro/a.py:20, 3 lines)",
        ]

    def test_an_exempt_stub_is_never_a_finding(self):
        result = verdict([self.stub], {}, {}, {}, bound=0)
        assert (result.functions["exempt"], result.findings) == (1, [])

    def test_an_allowlisted_function_is_counted_not_reported(self):
        result = verdict(
            [self.used, self.tested, self.dead],
            {"repro.a:tested": "a reason", "repro.a:dead": "another"},
            _ran(self.used), _ran(self.tested), bound=0)
        assert result.findings == [] and result.unrun == []
        assert (result.functions["allowed"], result.functions["test-only"],
                result.functions["unreached"]) == (2, 0, 0)
        assert result.statements["allowed"] == 2

    def test_an_entry_the_product_now_reaches_is_stale(self):
        result = verdict(
            [self.used], {"repro.a:used": "was idle"}, _ran(self.used), {}, bound=0)
        assert result.findings == ["stale      repro.a:used: the product reaches it"]

    def test_an_entry_that_names_no_function_is_stale(self):
        result = verdict(
            [self.used], {"repro.a:gone": "deleted since"}, _ran(self.used), {},
            bound=0)
        assert result.findings == [
            "stale      repro.a:gone: names no function or write-only attribute"]

    def test_an_entry_needs_a_reason(self):
        result = verdict(
            [self.used, self.dead], {"repro.a:dead": ""}, _ran(self.used), {},
            bound=0)
        assert result.findings == ["allowlist: repro.a:dead gives no reason"]

    def test_the_allowlist_is_bounded(self):
        everything = [_function(f"repro.a:f{n}", n) for n in range(MAX_ALLOWED + 1)]
        allowed = {found.label: "idle" for found in everything}
        result = verdict(everything, allowed, {}, {}, bound=0)
        assert result.findings == [
            f"allowlist: {MAX_ALLOWED + 1} entries, more than {MAX_ALLOWED}"]
        result = verdict(everything[:-1], dict(list(allowed.items())[:-1]),
                         {}, {}, bound=0)
        assert result.findings == []


class TestUnrunStatements:
    work = _function("repro.a:work", 40, (
        Statement(41, 41, False),  # the product runs it
        Statement(42, 44, False),  # a header only the tests run, by line 43
        Statement(45, 45, False),  # nothing runs it
        Statement(46, 46, True),   # exempt: in a raise block, or a pragma
    ))

    def _verdict(self, bound: int):
        return verdict([self.work], {}, _ran(self.work),
                       _ran(self.work, lines=(43,)), bound=bound)

    def test_statements_are_counted_and_listed_by_kind(self):
        result = self._verdict(bound=2)
        assert result.statements == {"exempt": 1, "product": 1, "allowed": 0,
                                     "test-only": 1, "unreached": 1}
        assert result.unrun == [
            "test-only  repro.a:work (src/repro/a.py:42-44)",
            "unreached  repro.a:work (src/repro/a.py:45)",
        ]
        assert result.findings == []

    @pytest.mark.parametrize("bound", [1, 3], ids=["below", "above"])
    def test_a_count_off_the_bound_is_a_finding(self, bound):
        assert self._verdict(bound).findings == [
            f"bound      2 statements the product does not run, "
            f"UNRUN_STATEMENTS is {bound}: set it to 2 in this change"]

    def test_the_body_of_an_exempt_function_is_exempt(self):
        stub = self.work._replace(exempt=True)
        result = verdict([stub], {}, {}, {}, bound=0)
        assert result.statements["exempt"] == 4 and result.findings == []


class TestWriteOnly:
    def test_an_attribute_only_assigned_or_incremented_is_write_only(self, tmp_path):
        package = _tree(tmp_path, {"mod.py": """
            class Counter:
                def __init__(self):
                    self.hits = 0
                    self.seen = 0
                    self.named = 0

                def hit(self):
                    self.hits += 1
                    self.seen += 1
                    return self.seen

                def stats(self):
                    return {"named": getattr(self, "named")}
        """})
        found = written_only(package)
        assert list(found) == ["pkg.mod:Counter.hits"]
        assert found["pkg.mod:Counter.hits"].endswith("mod.py:4")

    def test_a_read_on_any_object_counts(self, tmp_path):
        package = _tree(tmp_path, {
            "a.py": "class A:\n    def __init__(self):\n        self.size = 1\n",
            "b.py": "def size_of(thing):\n    return thing.size\n",
        })
        assert written_only(package) == {}

    def test_a_write_only_attribute_is_a_finding_unless_allowlisted(self):
        write_only = {"repro.a:Thing.count": "src/repro/a.py:3"}
        used = _function("repro.a:used", 1)
        result = verdict([used], {}, _ran(used), {}, write_only, bound=0)
        assert result.findings == [
            "write-only repro.a:Thing.count (src/repro/a.py:3): no code reads it"]
        result = verdict([used], {"repro.a:Thing.count": "kept for a reason"},
                         _ran(used), {}, write_only, bound=0)
        assert result.findings == []

    def test_no_src_attribute_is_write_only(self):
        assert written_only() == {}


class TestAllowlist:
    def test_comments_and_blank_lines_are_not_entries(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text(
            "# header\n\n"
            "repro.a:f  the reason, with  spaces\n"
            "   # indented comment\n"
            "repro.b:C.g\n"
        )
        assert read_allowlist(path) == {
            "repro.a:f": "the reason, with  spaces", "repro.b:C.g": ""}

    def test_the_checked_in_allowlist_names_live_functions_with_reasons(self):
        allowed = read_allowlist()
        assert 0 < len(allowed) <= MAX_ALLOWED
        live = {found.label: found for found in functions()}
        for label, reason in allowed.items():
            assert reason, f"{label} gives no reason"
            assert label in live, f"{label} names no function under src/repro"
            assert not live[label].exempt, f"{label} is exempt by rule already"
