"""``assert`` is stripped under ``python -O``, so no check in the package may be one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gl11kl"


def test_no_assert_statements_in_src():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
