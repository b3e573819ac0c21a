"""README's Python API example runs as written, and the values its
comments state hold.

A trailing comment on an expression line is a claim when it evaluates in
the example's namespace; any other comment is prose.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs_and_its_values_hold():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.S)
    assert len(blocks) == 1
    source = blocks[0]
    lines = source.splitlines()
    namespace: dict = {}
    claims = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module(body=[node], type_ignores=[]), "README", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        try:
            expected = eval(comment, namespace)
        except (NameError, SyntaxError):
            continue
        assert value == expected, (ast.unparse(node), comment)
        claims += 1
    assert claims >= 5
