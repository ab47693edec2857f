"""Code-only line counts of ``src/gl11kl``, the measure of ROADMAP aim 2.

Usage, from the repository root or anywhere::

    python tests/_code_lines.py

A code-only line is one that is not blank, a comment or part of a docstring
(found with ``ast``), so that edits to prose do not move the measure.  The
output is Markdown: the total, then each module in a fenced block, so that
CI can append it to its step summary as it stands.

Pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gl11kl"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The lines of text that are not blank, a comment or part of a docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = enumerate(text.splitlines(), 1)
    return sum(i not in docs and line.strip()[:1] not in ("", "#") for i, line in lines)


def main() -> None:
    counts = {path.name: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    print(f"src/gl11kl code-only lines: {sum(counts.values())}")
    print("```")
    for name, count in counts.items():
        print(f"{count:6d} {name}")
    print("```")


if __name__ == "__main__":
    main()
