"""Cross-checks against sympy, computed live.

Everything here re-derives a result through sympy's own linear algebra
and polynomial arithmetic, sharing nothing with the package internals
except the structure constants, then compares. The obstruction
cross-check works in a sympy polynomial ring over QQ with one
DomainMatrix.rref per forcing round, and takes under a second.
"""

import json
import random
import re
from fractions import Fraction

import pytest
import sympy as sp
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring
from record_cli_golden import SQRT3_ALGEBRA

from nilaffine import cli
from nilaffine.io import write_json
from nilaffine.liealg import catalog_names, derivation_space, get_algebra
from nilaffine.linalg import Matrix
from nilaffine.obstruction import obstruct_abelian
from nilaffine.scalars import Scalar


def sympy_bracket_fn(L):
    n = L.dim
    C = [[[sp.Rational(L.bracket_basis(i, j)[k].rat) for k in range(n)]
          for j in range(n)] for i in range(n)]

    def bracket(x, y):
        return sp.Matrix([sum(C[i][j][k] * x[i] * y[j]
                              for i in range(n) for j in range(n))
                          for k in range(n)])
    return bracket


def sympy_leibniz_matrix(L):
    """Rows of the constraint 'M is a derivation' on the n^2 entries."""
    n = L.dim
    bracket = sympy_bracket_fn(L)
    m = sp.Matrix(n, n, sp.symbols(f"m:{n * n}"))
    basis = [sp.eye(n).col(i) for i in range(n)]
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            lhs = m * bracket(basis[i], basis[j])
            rhs = bracket(m * basis[i], basis[j]) \
                + bracket(basis[i], m * basis[j])
            for a in range(n):
                expr = sp.expand(lhs[a] - rhs[a])
                rows.append([expr.coeff(m[r, c])
                             for r in range(n) for c in range(n)])
    if not rows:
        rows = [[sp.Integer(0)] * (n * n)]
    return sp.Matrix(rows)


@pytest.mark.parametrize("name", catalog_names())
def test_derivation_dimension_matches_sympy(name):
    L = get_algebra(name)
    constraint = sympy_leibniz_matrix(L)
    nullity = L.dim * L.dim - constraint.rank()
    assert derivation_space(L).dimension == nullity


@pytest.mark.parametrize("name", ("h3", "g6_18"))
def test_derivation_anchors_match_sympy_pivots(name):
    L = get_algebra(name)
    n = L.dim
    basis_rows = sp.Matrix([[v[i] for i in range(n * n)]
                            for v in sympy_leibniz_matrix(L).nullspace()])
    pivots = basis_rows.rref()[1]
    anchors = tuple(divmod(p, n) for p in pivots)
    assert derivation_space(L).anchors == anchors


def rational_matrix(rng, n, density=1.0, cols=None):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             if rng.random() < density else Fraction(0)
             for _ in range(n if cols is None else cols)] for _ in range(n)]


def assert_rref_matches_sympy(rows):
    mine = Matrix.from_rows(rows, 1)
    theirs = sp.Matrix([[sp.Rational(x) for x in row] for row in rows])
    reduced, pivots, rank = mine.rref()
    their_reduced, their_pivots = theirs.rref()
    assert pivots == their_pivots and rank == len(their_pivots)
    assert [[sp.Rational(reduced.get(r, c).rat) for c in range(mine.cols)]
            for r in range(mine.rows)] == their_reduced.tolist()
    assert mine.rank() == theirs.rank()
    assert len(mine.nullspace()) == len(theirs.nullspace())


def test_rank_and_nullspace_match_sympy():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 5)
        assert_rref_matches_sympy(rational_matrix(rng, n, density=0.7))
    # sparse systems shaped like the Leibniz equations of derivation_space
    rng = random.Random(41)
    for rows, cols, density in ((30, 16, 0.15), (30, 16, 0.15), (16, 30, 0.15),
                                (36, 9, 0.15), (30, 16, 0.05)):
        assert_rref_matches_sympy(
            rational_matrix(rng, rows, density=density, cols=cols))


def test_inverse_matches_sympy():
    rng = random.Random(23)
    produced = 0
    while produced < 8:
        rows = rational_matrix(rng, 4)
        theirs = sp.Matrix([[sp.Rational(x) for x in row] for row in rows])
        if theirs.det() == 0:
            continue
        produced += 1
        inv = Matrix.from_rows(rows, 1).inverse()
        tinv = theirs.inv()
        for r in range(4):
            for c in range(4):
                assert sp.Rational(inv.get(r, c).rat) == tinv[r, c]


def test_irrational_inverse_matches_sympy():
    rng = random.Random(29)
    s3 = sp.sqrt(3)
    entries = [[Scalar(Fraction(rng.randint(-3, 3)),
                       Fraction(rng.randint(-3, 3)), 3)
                for _ in range(3)] for _ in range(3)]
    theirs = sp.Matrix([[sp.Rational(e.rat) + sp.Rational(e.irr) * s3
                         for e in row] for row in entries])
    mine = Matrix.from_rows(entries, 3)
    assert (theirs.det() == 0) == (mine.rank() < 3)
    if theirs.det() != 0:
        inv = mine.inverse()
        tinv = theirs.inv()
        for r in range(3):
            for c in range(3):
                e = inv.get(r, c)
                assert sp.simplify(
                    sp.Rational(e.rat) + sp.Rational(e.irr) * s3
                    - tinv[r, c]) == 0


def test_nilpotency_of_rep_combinations_matches_sympy():
    from nilaffine.corpus import bundled_rep
    rep = bundled_rep("r4_to_f4")
    rng = random.Random(31)
    for _ in range(5):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        mine = rep.D_of(tuple(Scalar.of(c, 1) for c in coeffs))
        theirs = sp.zeros(4)
        for c, D in zip(coeffs, rep.D):
            theirs += sp.Rational(c) * sp.Matrix(
                [[sp.Rational(D.get(r, s).rat) for s in range(4)]
                 for r in range(4)])
        assert mine.is_nilpotent() == (theirs ** 4 == sp.zeros(4))


# ------------------------------------------------------- obstruction oracle


@pytest.fixture(scope="module")
def sympy_elimination():
    """Fixpoint of affine consequences of the defining equations, in sympy.

    Unknowns are the raw matrix entries d_i_a_b (no derivation basis), so
    the Leibniz constraints ride along as equations. The equations are
    elements of the polynomial ring over QQ in those entries; each round
    solves the new linear equations with one DomainMatrix.rref and
    substitutes with ``compose``. Returns the solved substitution and the
    equations still pending with their tags, as sympy expressions.
    """
    L = get_algebra("g6_18")
    n = L.dim
    C = [[[QQ(L.bracket_basis(i, j)[k].rat) for k in range(n)]
          for j in range(n)] for i in range(n)]
    D = [sp.Matrix(n, n, sp.symbols(f"d_{i}_:{n}:{n}")) for i in range(n)]
    names = [x for Di in D for x in Di]
    R, *gens = ring(names, QQ)
    G = [[[gens[(i * n + a) * n + b] for b in range(n)] for a in range(n)]
         for i in range(n)]

    equations = []
    for idx in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                for a in range(n):
                    # D[X_i, X_j] - [D X_i, X_j] - [X_i, D X_j], coordinate a
                    e = sum((G[idx][a][b] * C[i][j][b] for b in range(n)),
                            R.zero) \
                        - sum((G[idx][m][i] * C[m][j][a]
                               + G[idx][m][j] * C[i][m][a] for m in range(n)),
                              R.zero)
                    if e:
                        equations.append((("leibniz", idx, i, j, a), e))
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(n):
                e = C[i][j][a] + G[i][a][j] - G[j][a][i]
                if e:
                    equations.append((("translation", i + 1, j + 1, a + 1), e))
            for r in range(n):
                for c in range(n):
                    e = sum((G[i][r][m] * G[j][m][c] - G[j][r][m] * G[i][m][c]
                             for m in range(n)), R.zero)
                    if e:
                        equations.append(
                            (("commutator", i + 1, j + 1, r + 1, c + 1), e))

    def variables(e):
        return {k for m in e.itermonoms() for k, x in enumerate(m) if x}

    def substitute(e, sol):
        pairs = [(gens[k], sol[gens[k]]) for k in sorted(variables(e))
                 if gens[k] in sol]
        return e.compose(pairs) if pairs else e

    sol: dict = {}
    pending = equations
    while True:
        linear, still = [], []
        for tag, e in pending:
            reduced = substitute(e, sol)
            if not reduced:
                continue
            if reduced.is_ground:
                still.append((tag, reduced))
            elif max(sum(m) for m in reduced.itermonoms()) <= 1:
                linear.append(reduced)
            else:
                still.append((tag, e))
        if not linear:
            symbol = dict(zip(gens, names))
            return (L, D, {symbol[k]: v.as_expr() for k, v in sol.items()},
                    [(tag, e.as_expr()) for tag, e in still])
        # columns: the unknowns of the linear equations, then the constant
        unknowns = sorted(set().union(*map(variables, linear)))
        column = {k: c for c, k in enumerate(unknowns)}
        rows = []
        for e in linear:
            row = [QQ(0)] * (len(unknowns) + 1)
            for m, coeff in e.iterterms():
                row[next((column[k] for k, x in enumerate(m) if x), -1)] = coeff
            rows.append(row)
        reduced, pivots = DomainMatrix(
            rows, (len(rows), len(unknowns) + 1), QQ).rref()
        assert len(unknowns) not in pivots   # the linear part is consistent
        new = {}
        for p, row in zip(pivots, reduced.to_list()):
            new[gens[unknowns[p]]] = -row[-1] - sum(
                (row[c] * gens[unknowns[c]]
                 for c in range(len(unknowns)) if c != p and row[c]), R.zero)
        sol = {k: substitute(v, new) for k, v in sol.items()}
        sol.update(new)
        pending = still


def test_sympy_finds_the_same_contradiction(sympy_elimination):
    _, _, sol, pending = sympy_elimination
    constants = [(tag, e) for tag, e in pending
                 if tag[0] != "leibniz" and e.is_number and e != 0]
    assert constants, "sympy elimination found the system feasible"
    first = min(constants, key=lambda item: item[0])
    assert first[0] == ("commutator", 1, 2, 4, 1)
    assert first[1] == sp.Rational(-1, 4)


def test_sympy_agrees_on_every_forced_coefficient(sympy_elimination):
    L, D, sol, _ = sympy_elimination
    space = derivation_space(L)
    outcome = obstruct_abelian(L)
    assert outcome.verdict == "Obstructed"
    assert len(outcome.forced) == 40
    for v, value in outcome.forced:
        i, k = divmod(v, space.dimension)
        a, b = space.anchors[k]
        resolved = sol[D[i][a, b]]
        assert resolved.is_number, outcome.variable_name(v)
        assert resolved == sp.Rational(value), outcome.variable_name(v)


def sympy_scalar(c, d):
    """A JSON scalar (int, "p/q" or [rat, irr]) as a sympy number."""
    rat, irr = c if isinstance(c, list) else (c, 0)
    return sp.Rational(rat) + sp.Rational(irr) * sp.sqrt(d)


def test_printed_generic_derivation_is_the_json_basis(tmp_path, capsys):
    """Over Q(sqrt 3), each entry (a, b) that ``derivations`` prints, read
    by sympy, is sum_k E_k[a][b] u1_k with E_k the basis of its --json."""
    path = tmp_path / "n4_sqrt3.json"
    write_json(path, SQRT3_ALGEBRA)
    assert cli.main(["derivations", str(path)]) == 0
    text = capsys.readouterr().out
    assert cli.main(["derivations", str(path), "--json"]) == 0
    basis = json.loads(capsys.readouterr().out)["basis"]
    u = [sp.Symbol(f"u1_{k + 1}") for k in range(len(basis))]
    # entries are right-aligned and two spaces apart, with single spaces inside
    grid = [re.split(r" {2,}", line.strip()[1:-1].strip())
            for line in text.splitlines() if line.startswith("  [")]
    n = SQRT3_ALGEBRA["dim"]
    assert len(grid) == n and all(len(row) == n for row in grid)
    for a, row in enumerate(grid):
        for b, entry in enumerate(row):
            printed = sp.sympify(entry.replace("^", "**"),
                                 locals={str(s): s for s in u})
            expected = sum(sympy_scalar(E[a][b], 3) * uk
                           for E, uk in zip(basis, u))
            assert sp.expand(printed - expected) == 0, (a + 1, b + 1, entry)
