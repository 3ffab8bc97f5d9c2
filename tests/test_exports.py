"""The package exports every name its README and demos import from it and
every name the README calls inline, the README states the sweep limit the
harness enforces, every top-level name of the package is used somewhere,
importing the package leaves the sweep's worker module unloaded,
and every demo runs to completion."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from irregraph.harness import ENUMERATION_LIMIT

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _imported_names(source: str) -> set:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "irregraph"
        for alias in node.names
    }


def test_readme_and_demo_imports_resolve():
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    sources += [p.read_text() for p in DEMOS]
    names = set().union(*map(_imported_names, sources))
    assert {"full_report", "parse_graph6", "verify_range"} <= names
    # inline calls in the prose, such as `sharpness_suite()`
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", readme))
    assert {"evaluate", "sharpness_suite"} <= called
    package = importlib.import_module("irregraph")
    assert sorted(n for n in names | called if not hasattr(package, n)) == []


def test_readme_sweep_order_matches_enumeration_limit():
    readme = " ".join((ROOT / "README.md").read_text().split())
    claimed = re.findall(r"every labeled graph up to order (\d+)", readme)
    refused = re.findall(r"order (\d+) is refused", readme)
    assert claimed and refused
    assert {int(n) for n in claimed} == {ENUMERATION_LIMIT}
    assert {int(n) for n in refused} == {ENUMERATION_LIMIT + 1}


def _defined(stmt: ast.stmt) -> set:
    """The names a top-level statement defines: a function, a class, or the
    plain names it assigns."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    )
    return {
        node.id for target in targets for node in ast.walk(target)
        if isinstance(node, ast.Name)
    }


def _named(tree: ast.AST) -> set:
    """The names tree reads: loaded names, attributes, imported names, and
    strings that are identifiers, as monkeypatch.setattr and __all__ use."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def test_every_top_level_name_is_used():
    # a function, class or constant of the package that no source, test,
    # benchmark or demo file names outside its own definition is a leftover;
    # a file that defines a name of its own reads that one, not the package's
    package = sorted((ROOT / "src" / "irregraph").glob("*.py"))
    files = [p for d in ("src", "tests", "bench", "demos")
             for p in sorted((ROOT / d).rglob("*.py"))]
    defines, uses = {}, {}
    for path in files:
        defines[path], uses[path] = set(), set()
        for stmt in ast.parse(path.read_text()).body:
            own = _defined(stmt)
            defines[path] |= own
            uses[path] |= _named(stmt) - own
    unused = sorted(
        f"{module.name}: {name}"
        for module in package for name in defines[module]
        if not (name.startswith("__") and name.endswith("__"))
        and name not in uses[module]
        and not any(name in uses[p] and name not in defines[p] for p in files)
    )
    assert unused == []


def test_importing_the_package_leaves_the_workers_module_unloaded():
    # verify_range imports irregraph.workers when it sweeps, so a process
    # that only imports the package and its command line never compiles it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = (
        "import sys, irregraph, irregraph.cli; "
        "print('irregraph.harness' in sys.modules, 'irregraph.workers' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True False\n"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
