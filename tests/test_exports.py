"""The package exports every name its README and demos import from it, the
README states the sweep limit the harness enforces, and every demo runs to
completion."""

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
    package = importlib.import_module("irregraph")
    assert sorted(n for n in names if not hasattr(package, n)) == []


def test_readme_sweep_order_matches_enumeration_limit():
    readme = " ".join((ROOT / "README.md").read_text().split())
    claimed = re.findall(r"every labeled graph up to order (\d+)", readme)
    refused = re.findall(r"order (\d+) is refused", readme)
    assert claimed and refused
    assert {int(n) for n in claimed} == {ENUMERATION_LIMIT}
    assert {int(n) for n in refused} == {ENUMERATION_LIMIT + 1}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
