"""The value types are immutable and never seen half built.

A Lie algebra, a matrix, a rep, an LR-structure, a scalar and the
polynomials of the solver are values: they are compared and hashed, so a
value must not change after it is built, and no caller may ever hold one
whose slots are unset. Every such type derives from ``scalars.Frozen``,
which owns the one guard: setting or deleting an attribute raises
AttributeError, and calling a type with no public constructor of its own
raises TypeError. Copy, deepcopy and pickle rebuild a value from its
slots through ``Frozen.__reduce__``, so a copy is equal and frozen too.
The lint below parses the package with ``ast`` and keeps that rule in
one place: no other class defines ``__setattr__`` or ``__delattr__``,
and slots are written directly (``object.__setattr__`` or a slot
descriptor's ``__set__``) only inside ``Frozen`` and the hot builders
listed in ALLOWED.
"""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import nilaffine
from nilaffine.affine import AffineRep
from nilaffine.corpus import bundled_rep
from nilaffine.liealg import LieAlgebra
from nilaffine.linalg import Matrix
from nilaffine.lr import LRStructure, rep_to_lr
from nilaffine.obstruction import ParametricMatrix, Poly
from nilaffine.scalars import Frozen, Scalar

PACKAGE = Path(nilaffine.__file__).resolve().parent

REP = bundled_rep("r4_to_f4")
# type name -> a fresh value of it, so that a guard that fails to hold
# cannot damage a value another test (or the cached catalog) uses
VALUES = {
    "Scalar": lambda: Scalar(1, 2, 3),
    "Matrix": lambda: Matrix.from_rows([[1, 2], [0, Fraction(1, 3)]]),
    "LieAlgebra": lambda: LieAlgebra.from_table("g", 4, {(1, 2): [(3, 1)],
                                                        (1, 3): [(4, 1)]}),
    "AffineRep": lambda: bundled_rep("r4_to_f4"),
    "LRStructure": lambda: rep_to_lr(bundled_rep("r4_to_f4")),
    "Poly": lambda: Poly.var(0) * Poly.var(1) + Poly.const(2),
    "ParametricMatrix": lambda: ParametricMatrix([[Poly.var(0), Poly.const(1)],
                                                  [Poly.const(0), Poly.var(1)]]),
}


def slots(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


@pytest.mark.parametrize("name", sorted(VALUES))
class TestEveryValueType:
    def test_derives_from_the_base(self, name):
        value = VALUES[name]()
        assert isinstance(value, Frozen) and type(value).__name__ == name

    def test_setting_any_attribute_raises(self, name):
        value = VALUES[name]()
        before = slots(value)
        for attr in (*type(value).__slots__, "unknown"):
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                setattr(value, attr, None)
        assert slots(value) == before

    def test_deleting_a_slot_raises(self, name):
        value = VALUES[name]()
        before = slots(value)
        for attr in type(value).__slots__:
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                delattr(value, attr)
        assert slots(value) == before

    def test_copies_and_pickles_are_equal_and_frozen(self, name):
        value = VALUES[name]()
        for result in (copy.copy(value), copy.deepcopy(value),
                       pickle.loads(pickle.dumps(value))):
            assert type(result) is type(value) and slots(result) == slots(value)
            if name != "ParametricMatrix":   # which compares by identity
                assert result == value and hash(result) == hash(value)
            for attr in (*type(value).__slots__, "unknown"):
                with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                    setattr(result, attr, None)


@pytest.mark.parametrize("args", [(), (1,), ([[1]],)], ids=["none", "int", "grid"])
@pytest.mark.parametrize("cls", [Matrix, LRStructure, Frozen])
def test_a_type_without_a_public_constructor_cannot_be_called(cls, args):
    with pytest.raises(TypeError, match="has no public constructor"):
        cls(*args)


def test_fill_sets_every_slot_or_fails():
    m = object.__new__(Matrix)
    with pytest.raises(ValueError):
        m._fill(1, 1, 1)
    assert Matrix._of([{0: 5}], 1, 1) == Matrix.from_rows([[5]])


class TestPublicConstructorsBuildTheSameValues:
    def test_scalar(self):
        assert slots(Scalar(1, 2, 3)) == (1, 2, 3)
        assert slots(Scalar("1/2", 2, 1)) == (Fraction(5, 2), 0, 1)
        assert Scalar(1, 2, 3) == Scalar("1", Fraction(2), 3)

    def test_lie_algebra(self):
        L = LieAlgebra("n", 3, {(1, 0): [(2, -1)], (0, 2): [(1, 0)]})
        assert slots(L) == ("n", 3, 1, {(0, 1): {2: 1}, (1, 0): {2: -1}})
        assert L == LieAlgebra.from_table("h", 3, {(1, 2): [(3, 1)]})

    def test_affine_rep(self):
        copy = AffineRep(REP.source, REP.target, REP.t, REP.D, REP.label)
        assert copy == REP and slots(copy) == slots(REP)
        assert AffineRep(REP.source, REP.target, REP.t, REP.D).label == "R4->f4"

    def test_poly(self):
        p = Poly({((0, 1),): 3, ((1, 1),): 0, (): Fraction(1, 2)})
        assert p.terms == {((0, 1),): 3, (): Fraction(1, 2)}
        assert p == Poly.var(0) * Poly.const(3) + Poly.const(Fraction(1, 2))

    def test_parametric_matrix(self):
        grid = [[Poly.var(0), Poly.const(1)], [Poly.const(0), Poly.var(1)]]
        assert slots(ParametricMatrix(grid)) == (2, tuple(map(tuple, grid)))


# ------------------------------------------------------------------ the lint

# (module, qualified scope) of a direct slot write outside Frozen -> why
ALLOWED = {
    ("obstruction", "Poly.__init__"): "the solver builds Poly values in bulk",
    ("obstruction", "_poly"): "wraps a term dict without copying it",
    ("scalars", ""): "binds Scalar's slot setters for _scalar, the arithmetic builder",
}
GUARDS = {"__setattr__", "__delattr__"}


class _Writes(ast.NodeVisitor):
    """Collect (kind, qualname, line) for each guard a class defines and
    each direct slot write."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, str, int]] = []

    def _record(self, kind: str, node: ast.AST) -> None:
        self.found.append((kind, ".".join(self.scope), node.lineno))

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for item in node.body:
            names = [item.name] if isinstance(item, ast.FunctionDef) else \
                [t.id for t in getattr(item, "targets", ()) if isinstance(t, ast.Name)]
            if GUARDS & set(names):
                self.found.append(("guard", node.name, item.lineno))
        self._scoped(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "__set__" or (node.attr == "__setattr__" and isinstance(
                node.value, ast.Name) and node.value.id == "object"):
            self._record("write", node)
        self.generic_visit(node)


def writes(source: str) -> list[tuple[str, str, int]]:
    visitor = _Writes()
    visitor.visit(ast.parse(source))
    return visitor.found


def package_writes() -> list[tuple[str, str, str, int]]:
    return [(path.stem, kind, scope, line)
            for path in sorted(PACKAGE.glob("*.py"))
            for kind, scope, line in writes(path.read_text(encoding="utf-8"))]


def in_base(module: str, scope: str) -> bool:
    return module == "scalars" and scope.split(".")[0] == "Frozen"


def test_only_the_base_defines_the_guard():
    guards = [(module, scope) for module, kind, scope, _ in package_writes()
              if kind == "guard"]
    assert guards == [("scalars", "Frozen"), ("scalars", "Frozen")]


def test_slots_are_written_only_by_the_base_and_the_allowed_builders():
    bad = [f"{module}.py:{line} in {scope or '<module>'}"
           for module, kind, scope, line in package_writes()
           if kind == "write" and not in_base(module, scope)
           and (module, scope) not in ALLOWED]
    assert not bad, "direct slot writes:\n" + "\n".join(bad)


def test_every_allowance_is_still_needed():
    used = {(module, scope) for module, kind, scope, _ in package_writes()
            if kind == "write"}
    assert not set(ALLOWED) - used


def test_the_lint_sees_each_kind_of_write():
    source = '''
set_x = C.x.__set__

class C(Base):
    __delattr__ = f

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)

    def g(self):
        setattr(self, "x", 1)
        return self.__setattr__
'''
    assert sorted(writes(source)) == [
        ("guard", "C", 5), ("guard", "C", 7),
        ("write", "", 2), ("write", "C.__setattr__", 8)]
