"""The README's library quick start runs as written and shows true values.

Each ```python block of README.md runs in a fresh namespace, statement by
statement. A line ``expr  # value`` whose comment is a Python literal or
a ``Fraction(...)`` of literals states what ``expr`` gives, and the test
asserts it; a comment that is prose, such as ``# descending chain of
basis layers``, states nothing and is not checked.
"""

import ast
import io
import re
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
PROSE = object()   # what a comment that is no value evaluates to


def readme_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def stated(comment: str | None):
    """The value a comment states, or PROSE."""
    try:
        node = ast.parse(comment or "", mode="eval").body
    except SyntaxError:
        return PROSE
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "Fraction" and not node.keywords:
        try:
            return Fraction(*map(ast.literal_eval, node.args))
        except ValueError:
            return PROSE
    try:
        return ast.literal_eval(node)
    except ValueError:
        return PROSE


def comments(block: str) -> dict[int, str]:
    """Line number -> the text of that line's comment."""
    return {tok.start[0]: tok.string[1:].strip()
            for tok in tokenize.generate_tokens(io.StringIO(block).readline)
            if tok.type == tokenize.COMMENT}


def run(block: str) -> list[tuple[str, object]]:
    """Run the block; return (expression, value) for each stated value,
    after asserting it."""
    namespace: dict = {}
    notes, checked = comments(block), []
    for stmt in ast.parse(block).body:
        want = stated(notes.get(stmt.end_lineno)) if isinstance(stmt, ast.Expr) \
            else PROSE
        if want is PROSE:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
            continue
        expr = ast.unparse(stmt.value)
        got = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
        assert got == want, f"README line {expr}: got {got!r}, states {want!r}"
        checked.append((expr, want))
    return checked


@pytest.mark.parametrize("block", readme_blocks(),
                         ids=lambda b: b.split("\n", 1)[0][:40])
def test_block_runs_and_states_true_values(block):
    run(block)


def test_the_quick_start_states_its_headline_values():
    values = [want for block in readme_blocks() for _, want in run(block)]
    for value in ("Obstructed", Fraction(-1, 4), Fraction(1, 2), True):
        assert any(type(v) is type(value) and v == value for v in values), value


def test_a_comment_states_a_literal_a_fraction_or_nothing():
    assert stated("'Obstructed'") == "Obstructed"
    assert stated("Fraction(-1, 4)") == Fraction(-1, 4)
    assert stated("True") is True
    for prose in ("(0, 0, 1/2) as exact scalars", "descending chain of basis layers",
                  "Fraction(x)", "len(x)", None):
        assert stated(prose) is PROSE
