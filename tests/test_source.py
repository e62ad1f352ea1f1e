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


def test_submodules_and_quotients_are_built_in_modules_only():
    # every other module goes through modules.submodule and modules.quotient
    names = {"subspace_realization", "quotient_realization",
             "realization_to_module", "decompose"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "modules.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                used = [a.name for a in node.names]
            elif isinstance(node, ast.Call):
                f = node.func
                used = [f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{n}" for n in used if n in names]
    assert not found, found
