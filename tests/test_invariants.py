"""Invariants in the package are explicit raises, so they survive ``python -O``,
which strips ``assert`` statements."""

import ast
from pathlib import Path

import pseudocube


def test_package_has_no_assert_statements():
    sources = sorted(Path(pseudocube.__file__).parent.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
