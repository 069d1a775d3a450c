"""Each input gate is defined once, in ``liealg.py``, and reads the same at
every caller.

Every entry point checks two preconditions: that the algebra satisfies
Jacobi (``liealg._require_jacobi``) and that an input document is an
object with no unknown key and every required one
(``liealg._expect_object``). The lint keeps their messages formatted in
one place; the message tests pin the bytes each caller raises.
"""

import ast
from pathlib import Path

import pytest

import nilaffine
from nilaffine.affine import AffineRep, check_homomorphism, rep_from_dict
from nilaffine.errors import ParseError, PreconditionError
from nilaffine.liealg import LieAlgebra, algebra_from_dict, get_algebra
from nilaffine.linalg import Matrix
from nilaffine.lr import LRStructure, check_lr, lr_from_dict
from nilaffine.obstruction import obstruct_abelian

PACKAGE = Path(nilaffine.__file__).resolve().parent
GATE_PHRASES = ("fails the Jacobi identity", "unknown keys", "missing required key")

# [[X_1, X_2], X_3] + [[X_2, X_3], X_1] + [[X_3, X_1], X_2] = -X_3
BAD = LieAlgebra.from_table("bad", 3, {(1, 2): ((3, 1),), (1, 3): ((1, 1),)})


def phrase_counts(path: Path) -> dict[str, int]:
    """For each gate phrase, how many string constants of the module hold
    it; the literal parts of an f-string are such constants."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {phrase: sum(phrase in s for s in strings) for phrase in GATE_PHRASES}


def test_each_gate_message_is_formatted_once_in_liealg():
    counts = {path.name: phrase_counts(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert counts.pop("liealg.py") == dict.fromkeys(GATE_PHRASES, 1)
    assert {name: c for name, c in counts.items() if any(c.values())} == {}


def test_the_gate_lint_sees_fstrings_and_not_comments(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('raise E(f"{where}: unknown keys {keys}")'
                      '  # missing required key\n', encoding="utf-8")
    assert phrase_counts(module) == {"fails the Jacobi identity": 0,
                                     "unknown keys": 1, "missing required key": 0}


JACOBI = "fails the Jacobi identity at triple (1, 2, 3)"


@pytest.mark.parametrize("decide, message", [
    (lambda: obstruct_abelian(BAD), f"algebra 'bad' {JACOBI}"),
    (lambda: check_homomorphism(AffineRep(
        BAD, get_algebra("R3"), [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [Matrix.zero(3)] * 3)), f"source algebra 'bad' {JACOBI}"),
    (lambda: check_lr(LRStructure.from_table(BAD, {})), f"algebra 'bad' {JACOBI}"),
], ids=["obstruct_abelian", "check_homomorphism", "check_lr"])
def test_jacobi_gate_message(decide, message):
    with pytest.raises(PreconditionError) as caught:
        decide()
    assert str(caught.value) == message


REP = {"source": "R3", "target": "h3", "t": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
       "D": [[[0] * 3] * 3] * 3}


@pytest.mark.parametrize("read, doc, message", [
    (rep_from_dict, 5, "rep: expected an object"),
    (rep_from_dict, {**REP, "x": 1}, "rep: unknown keys ['x']"),
    (rep_from_dict, {"source": "R3", "target": "h3", "D": []},
     "rep: missing required key 't'"),
    (lr_from_dict, [], "lr: expected an object"),
    (lr_from_dict, {"algebra": "h3", "z": 1, "extra": 2},
     "lr: unknown keys ['extra', 'z']"),
    (lr_from_dict, {"product": []}, "lr: missing required key 'algebra'"),
    (algebra_from_dict, "h3", "algebra: expected an object, got str"),
    (algebra_from_dict, {"dim": 2, "size": 3}, "algebra: unknown keys ['size']"),
    (algebra_from_dict, {"name": "L"}, "algebra: missing required key 'dim'"),
], ids=[f"{reader}-{case}" for reader in ("rep", "lr", "algebra")
        for case in ("not-an-object", "unknown-key", "missing-key")])
def test_document_gate_message(read, doc, message):
    with pytest.raises(ParseError) as caught:
        read(doc)
    assert str(caught.value) == message
