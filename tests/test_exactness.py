"""Exactness lint: the package divides and touches floats only where allowed.

Every value in nilaffine is an exact rational or an element of Q(sqrt(d)).
A true division ``/`` of two ints gives a float, and so does ``x ** -1`` on
an int, so this test parses every module under ``src/nilaffine`` and fails
on a ``/`` or ``/=``, a negative literal exponent, a float or complex
literal, or any use of the name ``float``, outside the functions listed in
ALLOWED. Exact division goes through ``scalars.quotient`` (int or Fraction)
and ``Scalar.inverse``.
"""

import ast
from pathlib import Path

import nilaffine

PACKAGE = Path(nilaffine.__file__).resolve().parent

# (module, function qualname) -> the kinds of use allowed there, and why
ALLOWED = {
    ("scalars", "Scalar.inverse"): {"div"},          # Fraction / Fraction
    ("scalars", "scalar_from_json.part"): {"float"},  # rejects float input
    ("corpus", "data_dir"): {"div"},                 # pathlib joins
    ("corpus", "rep_path"): {"div"},
    ("corpus", "algebra_path"): {"div"},
}


class _Uses(ast.NodeVisitor):
    """Collect (kind, qualname, line) for each division or float use."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, str, int]] = []

    def _record(self, kind: str, node: ast.AST) -> None:
        self.found.append((kind, ".".join(self.scope), node.lineno))

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div):
            self._record("div", node)
        if isinstance(node.op, ast.Pow) and isinstance(node.right, ast.UnaryOp) \
                and isinstance(node.right.op, ast.USub):
            self._record("negative power", node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Div):
            self._record("div", node)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, (float, complex)):
            self._record("float", node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "float":
            self._record("float", node)


def uses(source: str) -> list[tuple[str, str, int]]:
    visitor = _Uses()
    visitor.visit(ast.parse(source))
    return visitor.found


def package_uses() -> list[tuple[str, str, str, int]]:
    return [(path.stem, kind, scope, line)
            for path in sorted(PACKAGE.glob("*.py"))
            for kind, scope, line in uses(path.read_text(encoding="utf-8"))]


def test_no_division_or_float_outside_the_exact_helpers():
    bad = [f"{module}.py:{line} {kind} in {scope or '<module>'}"
           for module, kind, scope, line in package_uses()
           if kind not in ALLOWED.get((module, scope), ())]
    assert not bad, "inexact operations:\n" + "\n".join(bad)


def test_every_allowance_is_still_needed():
    used = {(module, scope, kind) for module, kind, scope, _ in package_uses()}
    stale = [(key, kind) for key, kinds in ALLOWED.items() for kind in kinds
             if (*key, kind) not in used]
    assert not stale


def test_the_lint_sees_each_kind_of_use():
    source = '''
def f(a, b):
    a /= b
    return a / b, 2 ** -1, 0.5, 1j, float(a)

class C:
    def g(self, x):
        return isinstance(x, float)
'''
    assert sorted(uses(source)) == [
        ("div", "f", 3), ("div", "f", 4), ("float", "C.g", 8),
        ("float", "f", 4), ("float", "f", 4), ("float", "f", 4),
        ("negative power", "f", 4)]
    assert uses("x = a // b + a * b - a ** 2\n") == []
