"""The trusted path stays free of floating point.

The modules that decide, construct and re-check certificates are parsed with
ast and must contain no float or complex literal, no true division, no call
to float, complex or round, and no import of math or cmath.  counterexample
(Path division, timing) and cli sit outside the trusted path."""

import ast

import pytest

from conftest import SRC_DIR

TRUSTED = ["cyclotomic", "modlinalg", "spectral", "tiling", "certio", "guard"]
FLOAT_CALLS = {"float", "complex", "round"}
FLOAT_MODULES = {"math", "cmath"}


def float_uses(tree):
    """(line, what) for each construct that brings in floating point."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in FLOAT_CALLS
        ):
            yield node.lineno, f"call to {node.func.id}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in FLOAT_MODULES:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module in FLOAT_MODULES:
            yield node.lineno, f"from {node.module} import"


@pytest.mark.parametrize("module", TRUSTED)
def test_no_floating_point(module):
    path = SRC_DIR / "spectratile" / f"{module}.py"
    uses = list(float_uses(ast.parse(path.read_text(), str(path))))
    assert uses == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 2j",
        "x = a / b",
        "x /= 2",
        "x = float(y)",
        "x = round(y)",
        "import math",
        "import cmath as c",
        "from math import sqrt",
    ],
)
def test_each_construct_is_caught(source):
    assert len(list(float_uses(ast.parse(source)))) == 1


def test_integer_code_passes():
    assert list(float_uses(ast.parse("x = a // b; y = a % b; z = divmod(a, b); import operator"))) == []
