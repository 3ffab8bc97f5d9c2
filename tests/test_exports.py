"""The package exports every name its README and demos import from it."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    sources += [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    names = set().union(*map(_imported_names, sources))
    assert {"full_report", "parse_graph6", "verify_range"} <= names
    package = importlib.import_module("irregraph")
    assert sorted(n for n in names if not hasattr(package, n)) == []
