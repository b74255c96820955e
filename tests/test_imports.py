import ast
import importlib
from pathlib import Path

import tcis

SRC = Path(__file__).resolve().parent.parent / "src" / "tcis"


def test_no_function_level_imports():
    # the package has no import cycle to break, so every import sits at
    # module top
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_no_assert_statements():
    # python -O strips assert statements, so every certificate re-check
    # raises an error of its own instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_all_exports_resolve():
    # a removed name must not linger in any __all__
    modules = [tcis] + [
        importlib.import_module(f"tcis.{path.stem}")
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    ]
    missing = [
        f"{m.__name__}.{name}"
        for m in modules
        for name in getattr(m, "__all__", ())
        if not hasattr(m, name)
    ]
    assert missing == []


def _definitions():
    # (file:line, name) of every function and class defined in the package
    return [
        (f"{path.name}:{node.lineno}", node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def test_test_only_helpers_stay_out():
    # these have no caller in the package and live in tests/conftest.py;
    # the distance enumerator and its Krawtchouk table are the MacWilliams
    # oracle there
    moved = {
        "encode", "is_constant", "poly_degree", "poly_mul",
        "hstack", "mul_vec", "solve_in_span",
        "krawtchouk_table", "distance_enumerator", "DistanceEnumerator",
    }
    found = [f"{where} {name}" for where, name in _definitions() if name in moved]
    assert found == []


def test_one_walsh_hadamard_butterfly():
    # Walsh tables, convolutions and dual distances share one transform
    found = [where.split(":")[0] for where, name in _definitions() if name == "_fwht"]
    assert found == ["codes.py"]
