"""The package's public surface is what the program runs: every public
top-level function and class of `qvuln`, and every public method of those
classes, is read somewhere in the package, the benchmark or the acceptance
gates.  A name that only unit tests read is a helper to delete."""
from __future__ import annotations

import ast
from pathlib import Path

import qvuln

SRC = Path(qvuln.__file__).parent
ROOT = SRC.parent.parent
READERS = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def _public_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each public top-level function or class and of each
    public method of a public top-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.lineno))
            if isinstance(node, ast.ClassDef):
                found += [(item.name, item.lineno) for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def _names_read(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_public_name_is_read_outside_unit_tests():
    read = set()
    for path in READERS:
        read |= _names_read(ast.parse(path.read_text(encoding="utf-8")))
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for name, line in _public_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if name not in read:
                unread.append(f"{path.name}:{line}: {name}")
    assert unread == []
