"""Exactness lint: the package divides and touches floats only where allowed.

Every value in nilaffine is an exact rational or an element of Q(sqrt(d)).
A true division ``/`` of two ints gives a float, and so does ``x ** -1`` on
an int, so this test parses every module under ``src/nilaffine`` and fails
on a ``/`` or ``/=``, a negative literal exponent, a float or complex
literal, or any use of the name ``float``, outside the functions listed in
ALLOWED. Exact division goes through ``scalars.quotient`` (int or Fraction)
and ``Scalar.inverse``, which divides no value: it multiplies by the
conjugate over ints.

At run time, the values stored at d = 1 are exact rationals, an int when
integral and a Fraction otherwise, and in any other context Scalars of
that context, each with canonical int parts (``TestStoredTypes``); the
public accessors make Scalars on reading. Reading and checking a d = 1
rep, checking an LR product, solving for the derivations, deciding,
re-checking and reporting an obstruction, the series predicates and
copies of an algebra and the right multiplications of a product build no
Scalar at all (``TestNoScalarInRationalKernels``), and checking the
parsed Q(sqrt 3) rep and its refutations builds no Fraction
(``TestNoFractionInSqrtDecisions``).
"""

import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import nilaffine
from nilaffine import linalg, scalars
from nilaffine.affine import (AffineRep, check_homomorphism,
                              check_simply_transitive, rep_from_dict,
                              rep_to_dict)
from nilaffine.corpus import bundled_rep_names, bundled_reps
from nilaffine.liealg import (LieAlgebra, algebra_from_dict, algebra_to_dict,
                              catalog_names, derivation_space, get_algebra,
                              transport)
from nilaffine.linalg import Matrix, _combination, _nullspace
from nilaffine.lr import check_lr, lr_from_dict, lr_to_dict, rep_to_lr
from nilaffine.obstruction import obstruct_abelian, verify_certificate
from nilaffine.scalars import Scalar, unit

PACKAGE = Path(nilaffine.__file__).resolve().parent

# (module, function qualname) -> the kinds of use allowed there, and why
ALLOWED = {
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


# ------------------------------------------------------------------ stored form


REPS = bundled_reps()
ALGEBRAS = {name: get_algebra(name) for name in catalog_names()}
LR = {slug: rep_to_lr(rep) for slug, rep in REPS.items()
      if rep.source.is_abelian() and rep.source.dim == rep.target.dim}


def assert_stored(values, d):
    """Every value in the stored form of context d."""
    for x in values:
        if d == 1:
            assert type(x) is int or type(x) is Fraction and x.denominator != 1, x
        else:   # (a + b sqrt(d))/q as ints, q > 0 and gcd(a, b, q) = 1
            assert type(x) is Scalar and x.d == d, x
            a, b, q = x._a, x._b, x._q
            assert type(a) is type(b) is type(q) is int, x
            assert q > 0 and gcd(a, b, q) == 1, x


def matrix_values(*ms):
    return [x for m in ms for row in m._rows for x in row.values()]


def algebra_values(L):
    return [c for terms in L._signed.values() for c in terms.values()]


def rep_values(rep):
    return matrix_values(*rep.D) + [x for v in rep.t for x in v if x]


def rand_matrix(rng, n, d, scale=(1, 2, 3)):
    return Matrix.from_rows(
        [[Fraction(rng.randint(-4, 4), rng.choice(scale)) for _ in range(n)]
         for _ in range(n)], d)


class TestStoredTypes:
    """Matrix rows, bracket tables, LR products and parsed documents hold
    int/Fraction at d = 1 and Scalar elsewhere."""

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_catalog_and_its_d3_copy(self, name):
        L = ALGEBRAS[name]
        if L.is_abelian():
            assert L._signed == {} and L.with_field(3)._signed == {}
            return
        assert_stored(algebra_values(L), 1)
        assert_stored(algebra_values(L.with_field(3)), 3)
        for d in (1, 3):
            doc = algebra_to_dict(L.with_field(d))
            assert_stored(algebra_values(algebra_from_dict(doc)), d)
        assert_stored(matrix_values(*derivation_space(L).basis), 1)
        assert_stored(matrix_values(*derivation_space(L.with_field(3)).basis), 3)

    @pytest.mark.parametrize("slug", bundled_rep_names())
    def test_bundled_reps_and_their_documents(self, slug):
        rep = REPS[slug]
        inline = {**rep_to_dict(rep), "source": algebra_to_dict(rep.source),
                  "target": algebra_to_dict(rep.target)}
        for parsed in (rep, rep_from_dict(rep_to_dict(rep)), rep_from_dict(inline)):
            assert_stored(rep_values(parsed), rep.d)
            for L in (parsed.source, parsed.target):
                if not L.is_abelian():
                    assert_stored(algebra_values(L), rep.d)

    @pytest.mark.parametrize("slug", sorted(LR))
    def test_lr_products_and_their_documents(self, slug):
        s = LR[slug]
        for parsed in (s, lr_from_dict(lr_to_dict(s))):
            assert_stored(matrix_values(*parsed.lefts), s.d)

    @pytest.mark.parametrize("d", (1, 3))
    def test_results_of_matrix_arithmetic(self, d):
        rng = random.Random(17 + d)
        for n in (2, 3, 4):
            a, b = rand_matrix(rng, n, d), rand_matrix(rng, n, d)
            rref = a.rref().matrix
            results = [a @ b, a + b, -a, a * Fraction(2, 3), a * 2, rref,
                       _combination(((Fraction(1, 2), a), (2, b)), n, n, d),
                       Matrix._of(_nullspace(a._rows[:-1], n, unit(d)), n, d)]
            if rref == Matrix.identity(n, d):
                results.append(a.inverse())
            assert_stored(matrix_values(*results), d)
            assert all(type(x) is Scalar and x.d == d
                       for v in a.nullspace() + (a.row(0), a.column(0))
                       for x in v)

    def test_with_field_round_trips(self):
        rng = random.Random(5)
        for n in (1, 3, 5):
            m = rand_matrix(rng, n, 1)
            up = m.with_field(3)
            assert_stored(matrix_values(up), 3)
            assert_stored(matrix_values(up.with_field(1)), 1)
            assert up.with_field(1) == m and up == m


class TestContextCopiesAreEqual:
    def test_matrix_equals_its_d3_copy(self):
        for rep in REPS.values():
            for m in rep.D if rep.d == 1 else ():
                copy = m.with_field(3)
                assert copy == m and hash(copy) == hash(m)

    def test_algebra_table_equals_that_of_its_d3_copy(self):
        # the field is part of an algebra's identity, so the algebras differ
        # while their structure constants are equal and hash alike
        def table(L):
            return {pair: frozenset(terms) for pair, terms in L._upper().items()}
        for L in ALGEBRAS.values():
            copy = L.with_field(3)
            assert table(copy) == table(L)
            assert hash(frozenset(table(copy).items())) == \
                hash(frozenset(table(L).items()))
            assert copy.describe() == L.describe()
            assert copy != L and copy.with_field(1) == L
            assert hash(copy.with_field(1)) == hash(L)


# ------------------------------------------------------------------ Scalar count


@pytest.fixture
def built(monkeypatch):
    """The Scalars built while a test runs: every Scalar.__init__ and every
    call of scalars._scalar, which the package's arithmetic and constructors
    go through, and which linalg's readers call by their own name."""
    made = []
    init, make = Scalar.__init__, scalars._scalar

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def counting_make(*args):
        made.append(args)
        return make(*args)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    monkeypatch.setattr(scalars, "_scalar", counting_make)
    monkeypatch.setattr(linalg, "_scalar", counting_make)
    return made


@pytest.fixture
def fractions_built(monkeypatch):
    """The Fractions built while a test runs: Fraction arithmetic and every
    constructor go through Fraction.__new__."""
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return made


RATIONAL_REPS = {slug: rep for slug, rep in REPS.items() if rep.d == 1}
DOCS = {slug: rep_to_dict(rep) for slug, rep in RATIONAL_REPS.items()}
_rng = random.Random(11)   # g6_18 in a unit lower triangular basis
OBSTRUCTED = {"g6_18": ALGEBRAS["g6_18"], "g6_18 transport": transport(
    ALGEBRAS["g6_18"], Matrix.from_rows(
        [[int(r == c) if r <= c else _rng.randint(-2, 2) for c in range(6)]
         for r in range(6)]))}


class TestNoScalarInRationalKernels:
    def test_the_count_sees_constructors_and_arithmetic(self, built):
        Scalar(1)
        Scalar.one(3) + Scalar.one(3)
        Matrix.identity(2).row(0)   # a zero and a one
        assert len(built) == 6

    @pytest.mark.parametrize("slug", sorted(RATIONAL_REPS))
    def test_reading_and_checking_a_rep(self, slug, built):
        rep = rep_from_dict(DOCS[slug])
        report = check_homomorphism(rep)
        rep.t_matrix().rank()
        assert report.ok and built == []

    @pytest.mark.parametrize("slug", sorted(LR))
    def test_checking_an_lr_product(self, slug, built):
        assert check_lr(LR[slug]).ok and built == []

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_derivation_space(self, name, built):
        rows = [row for m in derivation_space(ALGEBRAS[name]).basis
                for row in m._rows]
        assert rows and built == []

    @pytest.mark.parametrize("name", sorted(OBSTRUCTED))
    def test_obstruction_its_check_and_its_report(self, name, built):
        L = OBSTRUCTED[name]
        out = obstruct_abelian(L)
        assert out.verdict == "Obstructed" and verify_certificate(out, L)
        assert out.to_dict()["certificate"] and built == []

    @pytest.mark.parametrize("slug", sorted(LR))
    def test_right_multiplications(self, slug, built):
        s = LR[slug]
        rights = [s.right_matrix(i) for i in range(s.algebra.dim)]
        # the R(X_i) hold the entries of the L(X_i), rearranged
        assert sorted(matrix_values(*rights), key=str) == \
            sorted(matrix_values(*s.lefts), key=str)
        assert built == []

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_series_predicates_and_copies(self, name, built):
        L = ALGEBRAS[name]
        assert L.is_nilpotent() and L.is_two_step_solvable() == (name != "g6_18")
        assert L.with_field(1) is L
        assert LieAlgebra("copy", L.dim, L._upper(), L.d) == L
        assert built == []


SQRT3 = rep_from_dict(rep_to_dict(REPS["h3R2_to_g5_6"]))
# each D_i rescaled as perfbench's hom: refutations do, where that breaks
# only the homomorphism identity: D_i t_j != 0 for some j != i
SQRT3_REFUTATIONS = {
    f"D{i + 1}*{f}": AffineRep(SQRT3.source, SQRT3.target, SQRT3.t,
                               [Scalar.of(f, 3) * m if k == i else m
                                for k, m in enumerate(SQRT3.D)])
    for i, D in enumerate(SQRT3.D)
    if any(any(D.apply(t)) for j, t in enumerate(SQRT3.t) if j != i)
    for f in (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3))}


class TestNoFractionInSqrtDecisions:
    """A Q(sqrt 3) decision computes on the int parts of its Scalars."""

    def test_the_count_sees_constructors_and_arithmetic(self, fractions_built):
        Fraction(1, 2) * Fraction(2, 3) + 1   # two built, two results
        Scalar(0, 1, 3).rat   # each part parsed, then the property's result
        assert len(fractions_built) == 7

    def test_checking_the_bundled_rep(self, fractions_built):
        verdict = check_simply_transitive(SQRT3)
        assert verdict.overall and fractions_built == []

    @pytest.mark.parametrize("key", sorted(SQRT3_REFUTATIONS))
    def test_checking_a_hom_refutation(self, key, fractions_built):
        verdict = check_simply_transitive(SQRT3_REFUTATIONS[key])
        assert not verdict.homomorphism and verdict.t_bijective \
            and verdict.linear_parts_nilpotent and fractions_built == []
