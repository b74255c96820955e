import ast
from pathlib import Path

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
