"""Checks on the library source itself."""

import ast
import importlib.util
import pathlib
import re

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
    # every other module takes submodules, kernels and cokernels through
    # modules.submodule, modules.kernel and modules.presentation_cokernel;
    # only modules.py uses the degree-piece core of pieces.py
    names = {"subspace_realization", "quotient_realization",
             "realization_to_module", "decompose",
             "jordan", "sub_shifts", "complement"}
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


def test_degree_pieces_are_read_in_modules_and_the_census_only():
    # the realization stays behind modules (and pieces); besides them only
    # the census, which lists subspaces degree piece by degree piece, reads
    # a module's or a map's pieces or x's shift blocks
    names = {"pieces", "_pieces", "from_pieces", "_shifts"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("modules.py", "pieces.py", "census.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in names
    ]
    assert not found, found


def test_map_pieces_are_built_and_read_in_modules_only():
    # the census writes its stabilizer rows from the elementary positions
    # (census._local_stabilizer), so only modules.py goes between a map's
    # blocks and its degree pieces
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "modules.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("_pieces", "from_pieces")
    ]
    assert not found, found


def test_graded_matrix_has_one_constructor():
    # GradedMatrix(field, coeffs, src_degs, tgt_degs) builds every graded
    # map: no alternative constructor, and no instance made around __init__
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr in ("from_coeffs", "_set", "__new__")
    ]
    assert not found, found


def test_factorization_json_has_one_reader():
    # Factorization.from_json reads a factorization file and makes every
    # check on it; only it (and polymat, which defines the reader) reads
    # a graded map's JSON
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("polymat.py", "factorizations.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "from_json"
        and getattr(node.value, "id", None) == "GradedMatrix"
    ]
    assert not found, found


def _defaulted(args):
    """The parameters of an ast.arguments that have a default."""
    positional = args.posonlyargs + args.args
    return positional[len(positional) - len(args.defaults):] + [
        a for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]


def test_walks_stay_inside_their_category():
    # every Hom function takes two objects and takes their walks itself;
    # the census asks each side for its stable hom table and names no walk
    found = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "walks" in [a.arg for a in _defaulted(node.args)]
    ]
    found += re.findall(r"\b(?:fac_walks|chain_walks|chain_composites|_cover_rows)\b",
                        (SRC / "census.py").read_text())
    assert not found, found


def test_only_the_census_takes_a_seed():
    # iso searches draw from one fixed stream; class_census accepts a seed
    # for the CLI's --seed and passes it nowhere
    found = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "seed" in [a.arg for a in node.args.args + node.args.kwonlyargs
                       + node.args.posonlyargs]
    ]
    assert found == ["census.class_census"], found


def test_library_reads_no_ambient_realization():
    # modules, maps and subspaces are read degree piece by degree piece;
    # the ambient x operator and map matrices live in tests/reference.py
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("x_matrix", "realization")
    ]
    assert not found, found


# ambient adapters and helpers that only tests use live in tests/reference.py
TEST_ONLY = {
    "subspace_realization", "quotient_realization", "homogeneous_components",
    "homogeneous_kernel", "_degree_kernel", "from_realization", "x_matrix",
    "split", "embed", "_facmap_to_vector", "_hom_slots", "bar_p_epic",
    "lift_along_epi", "module_from_presentation", "homothety",
    "try_solve_right", "from_ints", "_flag_factorizations", "_flag_chains",
    "realization", "jordan_by_kernels", "stable_dim", "_hom_positions",
    "presentation_cokernel_by_quotient", "factor_through", "cok_by_quotient",
    "quotient", "complement", "map_ker_cok_im_by_quotient", "scalars",
    "block_diagonal", "module_iso", "_image", "preimage_by_annihilator",
    "graded_solve", "graded_check", "Violation", "from_poly",
    "fac_validate_ranking_first", "random_factorization_by_parts",
}


def test_test_only_code_is_not_in_the_library():
    found = [
        f"{path.name}:{node.lineno}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name in TEST_ONLY
    ]
    assert not found, found


def test_every_imported_name_is_read():
    # a name taken with `from ... import` and never read hides which
    # modules a module really depends on, and outlives the code that used it
    paths = sorted(SRC.glob("*.py")) + sorted(pathlib.Path(__file__).parent.glob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{path.name}:{node.lineno}:{alias.asname or alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                  for alias in node.names if (alias.asname or alias.name) not in read]
    assert not found, found


def test_every_traced_benchmark_target_resolves():
    # perfbench/spans.py wraps each TRACED "module:qualname" in place, and
    # one target that is moved or renamed breaks every traced benchmark run
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [target for fns in spans.TRACED.values() for _, target in fns]
    assert len(targets) > 30
    for target in targets:
        assert callable(spans._resolve(target)[2]), target
