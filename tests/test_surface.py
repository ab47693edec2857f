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
``exec``, ``eval`` or ``compile``, so what runs is what its files say.  And
every name a module imports at its top level is read in that module, or
re-exported through its ``__all__``.
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
    "oracle.mat_rank": "acceptance criterion 4 and the dense-invariant tests call it",
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


def _unused_imports(source: str) -> list:
    """The names source imports at its top level and neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(x, ast.Name) and x.id == "__all__" for x in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read | exported]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from math import gcd, lcm as least\n"
        "from .x import y\n"
        "__all__ = ['y']\n"
        "def f(gcd=1):\n"
        "    least = xml.dom\n"
        "    return gcd\n"
    )
    assert _unused_imports(source) == ["os", "osp", "least"]


def test_every_import_is_read_or_exported():
    unused = {path.name: _unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
