"""The README's library quick tour runs, and its comments are exact reprs."""

import ast
from pathlib import Path

from poissonenv import PoissonElement, TensorElement, parse

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour_block():
    text = README.read_text()
    start = text.index("```python", text.index("## Library quick tour"))
    start = text.index("\n", start) + 1
    return text[start : text.index("```", start)]


def test_quick_tour_comments_are_the_reprs():
    source = quick_tour_block()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        last = lines[stmt.end_lineno - 1]
        if not (isinstance(stmt, ast.Expr) and "#" in last):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = last.split("#", 1)[1].strip()
        assert repr(value) == comment, last
        # the repr of an element is the parser's canonical text
        if isinstance(value, PoissonElement):
            assert parse(comment, 2) == value
        elif isinstance(value, TensorElement):
            assert parse(comment, 2, mode="tensor") == value
        checked += 1
    assert checked >= 5

