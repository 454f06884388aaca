"""Module structure guards: every import in the library sits at module level,
and no library module uses an assert statement."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "recdom"


def _function_imports(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    lines.add(inner.lineno)
    return sorted(lines)


def test_no_imports_inside_functions():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths, f"no modules found under {SOURCE}"
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{line}" for line in _function_imports(tree)]
    assert offenders == [], f"imports inside function bodies: {offenders}"


def test_no_asserts_in_checked_modules():
    # python -O strips asserts; the library raises InvariantViolation instead
    paths = sorted(SOURCE.glob("*.py"))
    assert paths, f"no modules found under {SOURCE}"
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert offenders == [], f"assert statements: {offenders}"
