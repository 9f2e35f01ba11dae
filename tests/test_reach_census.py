"""The reach census (``benchmarks/reach_census.py``): its rules, not its run.

The census itself runs the product and tier-1 side by side for minutes;
these tests check, in milliseconds, what decides its verdict: which
``def`` counts as a function and under what name, which is exempt by rule,
how a recorded code object is matched to its ``def``, how reached sets
become findings, and that the checked-in allowlist names live functions.
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
    functions,
    read_allowlist,
    verdict,
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
        keys = [found.key for found in everything]
        assert len(keys) == len(set(keys))


def test_recorded_code_objects_match_the_functions_they_start():
    """A started code object's key is the key of the ``def`` it came from.

    Run in a fresh interpreter: the recorder installs a process-wide profile
    hook (or ``sys.monitoring`` tool), which must not displace the one of a
    census recording this very test run.
    """
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, "benchmarks")
        from reach_census import _record, functions

        def phase():
            from repro.scenarios import registry
            from repro.sim.core import Environment

            registry.load_all()
            env = Environment()

            def ticker(env):
                yield env.timeout(1.0)

            env.process(ticker(env))
            env.run()
            assert env.now == 1.0

        seen = _record(phase)
        print(json.dumps(sorted(
            found.label for found in functions() if found.key in seen)))
    """)
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert done.returncode == 0, done.stderr
    labels = set(json.loads(done.stdout.strip().splitlines()[-1]))
    assert {
        "repro.sim.core:Environment.run",
        "repro.sim.core:Environment.now",  # a property: decorated
        "repro.scenarios.registry:scenario.<locals>.decorator",  # nested
    } <= labels
    assert "repro.core.client:ClientComponent.recover" not in labels


def _function(label: str, line: int, exempt: bool = False) -> Function:
    module, _, qualname = label.partition(":")
    path = REPO / "src" / Path(*module.split(".")).with_suffix(".py")
    return Function(path, line, qualname.rsplit(".", 1)[-1], qualname,
                     module, 3, exempt)


class TestVerdict:
    used = _function("repro.a:used", 1)
    tested = _function("repro.a:tested", 10)
    dead = _function("repro.a:dead", 20)
    stub = _function("repro.a:Base.stub", 30, exempt=True)

    def test_a_product_that_reaches_everything_has_no_finding(self):
        counts, findings = verdict(
            [self.used, self.stub], {}, {self.used.key}, {self.used.key})
        assert findings == []
        assert counts == {"exempt": 1, "product": 1, "allowed": 0,
                          "test-only": 0, "unreached": 0}

    def test_test_only_and_unreached_functions_are_named_with_their_place(self):
        counts, findings = verdict(
            [self.used, self.tested, self.dead], {}, {self.used.key},
            {self.used.key, self.tested.key})
        assert (counts["test-only"], counts["unreached"]) == (1, 1)
        assert findings == [
            "test-only  repro.a:tested (src/repro/a.py:10, 3 lines)",
            "unreached  repro.a:dead (src/repro/a.py:20, 3 lines)",
        ]

    def test_an_exempt_stub_is_never_a_finding(self):
        counts, findings = verdict([self.stub], {}, set(), set())
        assert (counts["exempt"], findings) == (1, [])

    def test_an_allowlisted_function_is_counted_not_reported(self):
        counts, findings = verdict(
            [self.used, self.tested, self.dead],
            {"repro.a:tested": "a reason", "repro.a:dead": "another"},
            {self.used.key}, {self.tested.key})
        assert findings == []
        assert (counts["allowed"], counts["test-only"], counts["unreached"]) \
            == (2, 0, 0)

    def test_an_entry_the_product_now_reaches_is_stale(self):
        _, findings = verdict(
            [self.used], {"repro.a:used": "was idle"}, {self.used.key}, set())
        assert findings == ["stale      repro.a:used: the product reaches it"]

    def test_an_entry_that_names_no_function_is_stale(self):
        _, findings = verdict(
            [self.used], {"repro.a:gone": "deleted since"}, {self.used.key},
            set())
        assert findings == ["stale      repro.a:gone: names no function"]

    def test_an_entry_needs_a_reason(self):
        _, findings = verdict(
            [self.used, self.dead], {"repro.a:dead": ""}, {self.used.key},
            set())
        assert findings == ["allowlist: repro.a:dead gives no reason"]

    def test_the_allowlist_is_bounded(self):
        everything = [_function(f"repro.a:f{n}", n) for n in range(MAX_ALLOWED + 1)]
        allowed = {found.label: "idle" for found in everything}
        _, findings = verdict(everything, allowed, set(), set())
        assert findings == [
            f"allowlist: {MAX_ALLOWED + 1} entries, more than {MAX_ALLOWED}"]
        _, findings = verdict(everything[:-1], dict(list(allowed.items())[:-1]),
                              set(), set())
        assert findings == []


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
