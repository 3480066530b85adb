import ast
from pathlib import Path

import lucascong

SRC = Path(lucascong.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check in the library may
    # rely on one; failures must raise the library's own errors.
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at line(s) {lines}"
