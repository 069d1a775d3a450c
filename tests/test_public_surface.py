"""The package exports only what its users reach, and so do its classes.

``nilaffine.__all__`` is the public surface. A name belongs there when
one of its users names it: the command line (``cli.py``), the README's
library quick start (its ```python blocks), the benchmark (any file under
``perfbench/``) or the certificate checker (``verify_certificate``'s
module). Any other exported name must be on ALLOWED, with the reason it
stays: a report type that a reached function returns, say, or an error
type that one raises. The lint parses each place with ``ast``, so a word
in a comment or a docstring does not count. Under ``perfbench/`` a string
constant that is exactly the name counts too, since its tracer wraps
functions by name; elsewhere a string is prose or a subcommand name.

The same rule holds one level down. Each public method or property of an
exported class (a ``def`` in its class body whose name does not start
with ``_``) must be named by a user, or by package code outside the
method's own body, or be on ALLOWED_METHODS with the reason it stays.
The scan counts names, not what they are bound to, so a method whose name
is also a dict method or a local variable (``Matrix.get``, say) always
passes.
"""

import ast
import dataclasses
import sys
from collections import Counter, defaultdict
from pathlib import Path
from types import ModuleType
from typing import Iterator

from test_readme import readme_blocks

import nilaffine

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(nilaffine.__file__).resolve().parent

# exported name -> why it stays, though no user names it
ALLOWED = {
    "BijectivityReport": "the translation criterion of RepVerdict",
    "EngelFailure": "what engel_flag returns when no flag exists",
    "Flag": "what engel_flag returns, kept in a NilpotencyReport",
    "HomViolation": "the violations of check_homomorphism's IdentityReport",
    "IdentityReport": "return type of LieAlgebra.check_jacobi, "
                      "check_homomorphism and check_lr",
    "JacobiViolation": "the violations of check_jacobi's IdentityReport",
    "LRViolation": "the violations of check_lr's IdentityReport",
    "NilaffineError": "base class of every error the package raises",
    "NilpotencyReport": "return type of check_complete and the nilpotency "
                        "criterion of RepVerdict",
    "NonNilpotentWitness": "the witness of a failed NilpotencyReport",
    "RepVerdict": "return type of check_simply_transitive",
}

# Class.method -> why it stays, though no user and no other package code
# names it
ALLOWED_METHODS = {
    "AffineRep.D_of": "seam of the literal acceptance tests",
    "LRStructure.right_matrix": "R(X_i), the twin of L(X_i); the README names it",
    "LieAlgebra.bracket_basis": "seam of the literal acceptance tests",
    "LieAlgebra.derived_series": "the twin of lower_central_series",
    "Matrix.nullspace": "seam through which the tests compare the sparse "
                        "kernel with the dense reference",
    "ObstructionOutcome.variable_name": "seam of the literal acceptance tests",
    "Poly.var": "the literal acceptance tests build polynomials with it",
}


def name_uses(tree: ast.AST, strings: bool = False) -> Iterator[str]:
    """Each name the code names, once per use: variables, attributes and
    imported names, and with ``strings`` the string constants too; not
    comments or prose."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def identifiers(source: str, strings: bool = False) -> set[str]:
    return set(name_uses(ast.parse(source), strings))


def public_methods(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    """The defs of a class body not named ``_...``: methods, properties,
    classmethods and staticmethods, but no dunder or private name."""
    return [node for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def unnamed_methods(trees: list[ast.Module], classes: set[str],
                    users: set[str]) -> list[str]:
    """``Class.method`` for each public method of the named classes in the
    package modules ``trees`` that no user names and no package code
    names outside the method's own body."""
    package = Counter(name for tree in trees for name in name_uses(tree))
    return sorted(f"{cls.name}.{method.name}"
                  for tree in trees for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and cls.name in classes
                  for method in public_methods(cls)
                  if method.name not in users
                  and package[method.name] <= Counter(name_uses(method))[method.name])


def reached() -> set[str]:
    """The names that the package's users name."""
    checker = Path(sys.modules[nilaffine.verify_certificate.__module__].__file__)
    names = identifiers((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names |= identifiers(checker.read_text(encoding="utf-8"))
    for block in readme_blocks():
        names |= identifiers(block)
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        names |= identifiers(path.read_text(encoding="utf-8"), strings=True)
    return names


def unnamed_exported_methods() -> list[str]:
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))]
    classes = {value.__name__ for name in nilaffine.__all__
               if isinstance(value := getattr(nilaffine, name), type)}
    return unnamed_methods(trees, classes, reached())


def test_every_export_is_reached_or_allowed():
    unreached = sorted(set(nilaffine.__all__) - reached() - set(ALLOWED))
    assert not unreached, ("exported, but named by no user and not on ALLOWED: "
                           + ", ".join(unreached))


def test_every_method_is_named_or_allowed():
    unnamed = sorted(set(unnamed_exported_methods()) - set(ALLOWED_METHODS))
    assert not unnamed, ("public methods that no user and no other package "
                         "code names, and not on ALLOWED_METHODS: "
                         + ", ".join(unnamed))


def test_every_allowance_is_still_needed():
    assert set(ALLOWED) <= set(nilaffine.__all__)
    assert not set(ALLOWED) & reached()
    assert set(ALLOWED_METHODS) <= set(unnamed_exported_methods())


def test_the_exports_are_exactly_the_imports():
    public = {name for name, value in vars(nilaffine).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(nilaffine.__all__)
    assert len(nilaffine.__all__) == len(set(nilaffine.__all__))


def record_types_by_fields(names: list[str]) -> dict[tuple[str, ...], list[str]]:
    """The exported dataclasses and NamedTuples among ``names``, grouped by
    their sorted field names."""
    groups = defaultdict(list)
    for name in names:
        value = getattr(nilaffine, name)
        if dataclasses.is_dataclass(value):
            fields = [f.name for f in dataclasses.fields(value)]
        elif isinstance(value, type) and issubclass(value, tuple) \
                and hasattr(value, "_fields"):
            fields = list(value._fields)
        else:
            continue
        groups[tuple(sorted(fields))].append(name)
    return groups


def test_no_two_record_types_have_the_same_fields():
    twins = {fields: names for fields, names
             in record_types_by_fields(nilaffine.__all__).items() if len(names) > 1}
    assert not twins, f"record types with the same fields: {twins}"


def test_the_record_lint_sees_dataclasses_and_namedtuples():
    groups = record_types_by_fields(["IdentityReport", "JacobiViolation",
                                     "NilpotencyReport", "Matrix", "check_lr"])
    assert groups == {("ok", "violations"): ["IdentityReport"],
                      ("residual", "triple"): ["JacobiViolation"],
                      ("failure", "flag", "ok", "witness"): ["NilpotencyReport"]}


def test_the_lint_sees_each_kind_of_name():
    source = '''
from m import imported, other as renamed
import pkg.sub
value = called(obj.attribute)
wrap(mod, "by_name")
"""a docstring naming documented"""  # a comment naming commented
'''
    named = {"imported", "other", "pkg.sub", "called", "obj", "attribute", "mod"}
    assert identifiers(source) >= named
    assert "by_name" not in identifiers(source)
    assert identifiers(source, strings=True) >= named | {"by_name"}
    assert not identifiers(source, strings=True) & {"documented", "commented", "naming"}


def test_the_method_lint_sees_each_kind_of_def():
    tree = ast.parse('''
class Kind:
    size = 3

    def method(self):
        return self.prop

    @property
    def prop(self):
        return self.size

    @classmethod
    def build(cls):
        return cls()

    @staticmethod
    def helper():
        return 0

    def recursive(self, n):
        return self.recursive(n - 1)

    def __eq__(self, other):
        return self.unused

    def _private(self):
        return self.unused
''')
    cls = tree.body[0]
    assert [m.name for m in public_methods(cls)] == \
        ["method", "prop", "build", "helper", "recursive"]
    # prop is named by method, and build by a user; a name used only in its
    # own body, as recursive's, counts for nothing
    assert unnamed_methods([tree], {"Kind"}, {"build"}) == \
        ["Kind.helper", "Kind.method", "Kind.recursive"]
