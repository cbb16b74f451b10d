"""Every module under ``src/repro`` uses every name it imports.

A stdlib ``ast`` scan, since no lint tool runs here or in CI.  A name
counts as used when the module reads it anywhere (lazy imports inside
functions included), lists it in ``__all__`` or names it in a string
annotation; a package ``__init__.py`` re-exports what it imports
relatively.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, inside string annotations too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str, package_init: bool = False) -> list[str]:
    """``"line: name"`` for each name ``source`` imports and never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (package_init and node.level):
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    used |= _annotation_names(arg.annotation)
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                used |= {elt.value for elt in ast.walk(node.value)
                         if isinstance(elt, ast.Constant)
                         and isinstance(elt.value, str)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(),
                                                       key=lambda kv: kv[1])
            if name not in used]


MODULES = sorted(SRC.rglob("*.py"))


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_module_uses_every_import(path):
    found = unused_imports(path.read_text(encoding="utf-8"),
                           package_init=path.name == "__init__.py")
    assert not found, f"{path.relative_to(SRC)} imports unused names: " \
        + ", ".join(found)


@pytest.mark.parametrize("source,expected", [
    ("import os\n", ["1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["1: c"]),
    ("from a import B\ndef f(x: 'B | None'): pass\n", []),
    ("from a import B\nx: 'list[B]'\n", []),
    ("from a import B\n__all__ = ['B']\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    from a import b\n    return b\n", []),
])
def test_scanner(source, expected):
    assert unused_imports(source) == expected


def test_package_init_reexports_count_as_used():
    source = "from .core import Engine\nimport numpy as np\n"
    assert unused_imports(source, package_init=True) == ["2: np"]
