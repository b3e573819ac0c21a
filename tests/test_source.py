"""Source-level rules for the package."""

import ast
import importlib
import importlib.util
from pathlib import Path

import tbcalc

SOURCES = sorted(Path(tbcalc.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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


def test_benchmark_tracer_bindings_resolve():
    # The benchmark's tracer rebinds these names; a stage the pipeline
    # stops calling must stay bound, or the benchmark cannot install.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{home}.{attr}" for home, attr in tracer.WRAPPED
               if not callable(getattr(importlib.import_module(f"tbcalc.{home}"),
                                       attr, None))]
    for home, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(f"tbcalc.{home}"), cls_name, None)
        if attr not in vars(cls or object):
            missing.append(f"{home}.{cls_name}.{attr}")
    assert missing == []
    arms = importlib.import_module("tbcalc.graph").arms
    for home in ("cover", "tb", "verify"):
        assert importlib.import_module(f"tbcalc.{home}").arms is arms
    assert tbcalc.arms is arms


def test_readers_take_frozen_graphs():
    # Every reader takes a FrozenGraph: no annotation admits both graph
    # types, and only the builder's own methods freeze without a root.
    both = {"DecoratedGraph", "FrozenGraph"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builder = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "DecoratedGraph"
                   for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == "Union") or (
                    isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)):
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                if both <= names:
                    found.append(f"{path.name}:{node.lineno} union of graph types")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "freeze" and not node.args
                  and not node.keywords and id(node) not in builder):
                found.append(f"{path.name}:{node.lineno} freeze() without a root")
    assert found == []
