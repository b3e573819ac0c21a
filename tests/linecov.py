"""Which `raise` statements of the tbcalc package tier-1 leaves unrun.

Runs the tier-1 suite in this process under a stdlib sys.settrace line
tracer limited to src/tbcalc, then reports each `raise` outside cli.py
whose line never ran. A site is named by its module, its enclosing
function and its message (the literal text of the exception's first
argument, {} standing for each formatted value, and " #2" and so on for
a repeat in one function), so the allow-list below does not depend on
line numbers. CLI tests that run the program in a subprocess are not
traced, and tests/test_fuzz.py is left out: its examples depend on the
installed Hypothesis version, so a site only they reach would make the
gate's verdict depend on that version too.

Exits 1 when an unrun site is not on ALLOWED, when an ALLOWED entry names
no site, or when an ALLOWED site ran (it then leaves the list); else 0.
Failing tests do not count, since acceptance criteria 1-2 are red by
design, but a run pytest could not complete does. From the repository
root:

    PYTHONPATH=src python tests/linecov.py
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tbcalc"

# (module, function, message) -> why tier-1 leaves the site unrun.
ALLOWED: dict[tuple[str, str, str], str] = {
    ("numeric", "solve_rational", "InternalInvariantError: solver self-check failed in row {}"):
        "exact elimination satisfies its own system; firing it needs a patched solve",
}


def _message(exc: ast.expr | None) -> str:
    if exc is None:
        return "raise"
    name = ast.unparse(exc.func if isinstance(exc, ast.Call) else exc)
    first = exc.args[0] if isinstance(exc, ast.Call) and exc.args else None
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return f"{name}: {first.value}"
    if isinstance(first, ast.JoinedStr):
        return f"{name}: " + "".join(
            part.value if isinstance(part, ast.Constant) else "{}" for part in first.values)
    return ast.unparse(exc)


def raise_sites() -> dict[tuple[str, str, str], tuple[Path, int]]:
    """Each raise outside cli.py, keyed by (module, function, message)."""
    sites: dict[tuple[str, str, str], tuple[Path, int]] = {}
    seen: Counter = Counter()

    def visit(node: ast.AST, path: Path, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise):
                module, function, message = path.stem, scope or "<module>", _message(child.exc)
                seen[module, function, message] += 1
                if seen[module, function, message] > 1:
                    message += f" #{seen[module, function, message]}"
                sites[module, function, message] = (path, child.lineno)
            visit(child, path, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "cli.py":
            visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path, "")
    return sites


def traced_lines() -> tuple[int, set[tuple[Path, int]]]:
    """Run tier-1 without the fuzz tests under the line tracer: pytest's
    exit code and the (file, line) pairs of the package that ran."""
    ran: set[tuple[Path, int]] = set()
    inside: dict[str, Path | None] = {}

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(name).resolve()
            inside[name] = path if path.parent == PACKAGE else None
        path = inside[name]
        if path is None:
            return None

        def local_trace(frame, event, arg):
            if event == "line":
                ran.add((path, frame.f_lineno))
            return local_trace

        return local_trace

    sys.settrace(global_trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--ignore=tests/test_fuzz.py"])
    finally:
        sys.settrace(None)
    return code, ran


def main() -> int:
    sites = raise_sites()
    code, ran = traced_lines()
    unrun = {key for key, site in sites.items() if site not in ran}
    problems = [f"unrun: {key} at {sites[key][0].name}:{sites[key][1]}"
                for key in sorted(unrun - ALLOWED.keys())]
    problems += [f"allow-listed but no such site: {key}" for key in sorted(ALLOWED.keys() - sites.keys())]
    problems += [f"allow-listed but ran (take it off the list): {key}"
                 for key in sorted(ALLOWED.keys() & sites.keys() - unrun)]
    print(f"\nlinecov: {len(sites) - len(unrun)} of {len(sites)} raise sites outside cli.py ran; "
          f"{len(unrun & ALLOWED.keys())} unrun and allow-listed")
    for line in problems:
        print(f"linecov: {line}")
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        print(f"linecov: pytest exited with {code!r}")
        return 1
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
