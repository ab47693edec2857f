"""Every function, class and method in ``gl11kl`` is used, exported or excused.

A definition passes when its name appears as a ``Name`` or an ``Attribute``
somewhere in ``src/`` or ``bench/`` outside its own definition, when its name
is in ``gl11kl.__all__``, or when ``ALLOWED`` gives a reason for it.  The
check is lenient: a name used anywhere counts as used, so a method passes as
soon as any object anywhere has an attribute of that name, and a function
passes when a local variable shares its name.  It catches definitions whose
names nothing reads at all.  Dunder methods are called by the language and
are not checked.  An ``ALLOWED`` entry whose definition is gone or has come
into use is stale, and fails too.

The package also builds no code from text: nothing in it calls the builtins
``exec``, ``eval`` or ``compile``, so what runs is what its files say.
"""

import ast
from collections import Counter
from pathlib import Path

import gl11kl

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gl11kl"

ALLOWED = {
    "characters.verify_induced_identity": "acceptance criterion 7 calls it",
    "oracle.l0_top_matrix": "acceptance criterion 4 calls it",
    "oracle.Gl11MatrixModule.validate": "the relations check for modules a caller builds",
    "extensions.induced_equivalent": "library API: when two simples induce to the same module",
    "extensions.induced_projective_cover": "library API: projective covers of local inductions",
    "labels.FormalSum.multiplicity": "part of FormalSum, which is in __all__",
    "labels.FormalSum.is_zero": "part of FormalSum, which is in __all__",
    "series.JacobiSeries.is_zero": "part of the character result type; the character tests read it",
    "cli._Parser._check_value": "argparse calls it on each value it parses",
}


def _names(tree) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _definitions() -> list:
    """(qualified name, node) of every def and class, nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((f"{prefix}.{child.name}", child))
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return out


def _unused() -> set:
    """Qualified names of the definitions that are not used or exported."""
    used = Counter()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("**/*.py")]:
        used += _names(ast.parse(path.read_text()))
    out = set()
    for qualified, node in _definitions():
        name = node.name
        if name.startswith("__") and name.endswith("__") or name in gl11kl.__all__:
            continue
        if used[name] <= _names(node)[name]:
            out.add(qualified)
    return out


def test_every_definition_is_used_exported_or_allowed():
    assert sorted(_unused() - set(ALLOWED)) == []


def test_allowlist_is_not_stale():
    assert sorted(set(ALLOWED) - _unused()) == []


def test_no_code_is_built_from_text():
    # a call through an attribute, such as re.compile, is not a builtin's
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval", "compile")
    ]
    assert calls == []
