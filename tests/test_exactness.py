"""No floating-point arithmetic in the package: every verdict and claim is
decided in exact integers, so a sharp bound attained with equality can never
be misread through rounding."""

import ast
import re
from pathlib import Path

import pytest

import irregraph

MODULES = sorted(Path(irregraph.__file__).parent.glob("*.py"))
TOLERANCE_NAME = re.compile(r"(^|_)tol(_|$)", re.IGNORECASE)


def _called_name(node: ast.Call):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _identifiers(node: ast.AST):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.arg):
        yield node.arg
    elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.keyword) and node.arg is not None:
        yield node.arg


def float_uses(source: str) -> list[str]:
    """Each float literal, sqrt or float() call, true division and
    tolerance-named identifier in the source, as 'line: what'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{line}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and _called_name(node) in ("sqrt", "float"):
            found.append(f"{line}: call to {_called_name(node)}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{line}: true division")
        found.extend(
            f"{line}: tolerance name {name}"
            for name in _identifiers(node)
            if TOLERANCE_NAME.search(name)
        )
    return found


def test_modules_found():
    assert {p.name for p in MODULES} >= {"bounds.py", "constructions.py", "harness.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_float_free(path):
    assert float_uses(path.read_text()) == []


def test_detector_catches_each_form():
    source = (
        "import math\n"
        "RADICAL_TOL = 1e-9\n"
        "a = math.sqrt(2)\n"
        "b = 3 ** 0.5\n"
        "c = 1 / 2\n"
        "d = float(4)\n"
        "def within_tol(x, tol): pass\n"
    )
    found = float_uses(source)
    assert "2: float literal 1e-09" in found
    assert "2: tolerance name RADICAL_TOL" in found
    assert "3: call to sqrt" in found
    assert "4: float literal 0.5" in found
    assert "5: true division" in found
    assert "6: call to float" in found
    assert "7: tolerance name within_tol" in found
    assert "7: tolerance name tol" in found
    # integer square roots, floor division and words merely containing
    # "tol" are exact and allowed
    assert float_uses("import math\nx = math.isqrt(9) // 2\ntotal = x\n") == []
