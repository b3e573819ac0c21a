"""Source-level rules for the package."""

import ast
from pathlib import Path

import tbcalc

SOURCES = sorted(Path(tbcalc.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # Self-checks must raise InternalInvariantError: python -O strips
    # assert statements.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_imports_are_used():
    # A name a module imports is used in that module or re-exported by
    # the package; anything else is a dead import.
    exported = set(tbcalc.__all__)
    dead = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            dead += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name not in used and name not in exported]
    assert dead == []
