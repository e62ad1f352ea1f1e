"""Checks on the library source itself."""

import ast
import pathlib

import facto.endo

SRC = pathlib.Path(facto.endo.__file__).parent


def test_library_has_no_assert_statements():
    # `python -O` strips asserts; library invariants raise typed exceptions
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
