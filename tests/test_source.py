"""Source-level rules for the package."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tbcalc

SOURCES = sorted(Path(tbcalc.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
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


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_import_loads_no_dataclasses_or_inspect(flags):
    # A cold start pays for every module the package pulls in: dataclasses
    # runs exec for each record it decorates and imports inspect, ast, dis
    # and tokenize, about 20 ms in all. The records are NamedTuples instead.
    # -S keeps site-packages hooks out of what is measured.
    code = ("import sys, tbcalc, tbcalc.cli; "
            "print(sorted({'dataclasses', 'inspect'}.intersection(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(tbcalc.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-S", *flags, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"


def test_imports_are_used():
    # A name a module imports is used in that module or re-exported by
    # the package; anything else is a dead import. The same holds for the
    # test modules, which re-export nothing.
    exported = set(tbcalc.__all__)
    dead = []
    for path in SOURCES + TESTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reexported = exported if path in SOURCES else set()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            dead += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name not in used and name not in reexported]
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
