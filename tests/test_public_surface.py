"""The package exports only what its users reach.

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
"""

import ast
import sys
from pathlib import Path
from types import ModuleType

from test_readme import readme_blocks

import nilaffine

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(nilaffine.__file__).resolve().parent

# exported name -> why it stays, though no user names it
ALLOWED = {
    "BijectivityReport": "the translation criterion of RepVerdict",
    "CompletenessVerdict": "return type of check_complete",
    "EngelFailure": "what engel_flag returns when no flag exists",
    "Flag": "what engel_flag returns, kept in NilpotencyReport and CompletenessVerdict",
    "HomReport": "return type of check_homomorphism",
    "HomViolation": "the violations of a HomReport",
    "JacobiReport": "return type of LieAlgebra.check_jacobi",
    "JacobiViolation": "the violations of a JacobiReport",
    "LRReport": "return type of check_lr",
    "LRViolation": "the violations of an LRReport",
    "NilaffineError": "base class of every error the package raises",
    "NilpotencyReport": "the nilpotency criterion of RepVerdict",
    "NonNilpotentWitness": "the witness of a failed NilpotencyReport",
    "RepVerdict": "return type of check_simply_transitive",
}


def identifiers(source: str, strings: bool = False) -> set[str]:
    """Every name the code names: variables, attributes and imported names,
    and with ``strings`` the string constants too; not comments or prose."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


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


def test_every_export_is_reached_or_allowed():
    unreached = sorted(set(nilaffine.__all__) - reached() - set(ALLOWED))
    assert not unreached, ("exported, but named by no user and not on ALLOWED: "
                           + ", ".join(unreached))


def test_every_allowance_is_still_needed():
    assert set(ALLOWED) <= set(nilaffine.__all__)
    assert not set(ALLOWED) & reached()


def test_the_exports_are_exactly_the_imports():
    public = {name for name, value in vars(nilaffine).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(nilaffine.__all__)
    assert len(nilaffine.__all__) == len(set(nilaffine.__all__))


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
