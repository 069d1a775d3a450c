import random
from fractions import Fraction

import pytest
from dense_reference import (dense_lr_to_dict, flag_triangularizes, unit_vector,
                             vec_is_zero, vec_sub)

from nilaffine.affine import AffineRep, check_simply_transitive
from nilaffine.corpus import bundled_rep, bundled_reps
from nilaffine.errors import (IncompleteStructureError,
                              NotSimplyTransitiveError, ParseError,
                              PreconditionError, ShapeError)
from nilaffine.liealg import LieAlgebra, _leibniz_failure, abelian, get_algebra
from nilaffine.linalg import EngelFailure, Matrix, as_vector
from nilaffine.lr import (LRStructure, LRViolation, check_complete, check_lr,
                          lr_from_dict, lr_to_dict, lr_to_rep, rep_to_lr)
from nilaffine.obstruction import obstruct_abelian
from nilaffine.scalars import Scalar

HALF = Fraction(1, 2)


def h3_halved():
    return LRStructure.from_table(
        get_algebra("h3"),
        {(1, 2): ((3, HALF),), (2, 1): ((3, -HALF),)})


class TestProducts:
    def test_h3_product_from_rep(self):
        s = rep_to_lr(bundled_rep("r3_to_h3"))
        assert s.product_basis(0, 1) == as_vector([0, 0, HALF], 1)
        assert s.product_basis(1, 0) == as_vector([0, 0, -HALF], 1)
        for i in range(3):
            assert vec_is_zero(s.product_basis(i, 2))
            assert vec_is_zero(s.product_basis(2, i))

    def test_product_of_vectors_is_bilinear(self):
        s = h3_halved()
        rng = random.Random(5)
        for _ in range(20):
            x = tuple(Scalar.of(Fraction(rng.randint(-4, 4)), 1) for _ in range(3))
            y = tuple(Scalar.of(Fraction(rng.randint(-4, 4)), 1) for _ in range(3))
            expected = as_vector([0, 0, (x[0] * y[1] - x[1] * y[0]).rat * HALF], 1)
            assert s.product(x, y) == expected

    def test_left_and_right_matrices(self):
        s = h3_halved()
        assert s.lefts[0].column(1) == as_vector([0, 0, HALF], 1)
        assert s.right_matrix(1).column(0) == as_vector([0, 0, HALF], 1)
        # column j of R(X_i) is X_j . X_i, over Q and over Q(sqrt 3)
        rng = random.Random(72)
        for s in (s, rep_to_lr(bundled_rep("r4_to_f4")), LRStructure.from_table(
                abelian(3, 3), table_of(seeded_grid(rng, 3, 3, 0.5)))):
            n = s.algebra.dim
            for i in range(n):
                assert [s.right_matrix(i).column(j) for j in range(n)] == \
                    [s.product_basis(j, i) for j in range(n)]

    def test_r4_to_f4_product_constants(self):
        s = rep_to_lr(bundled_rep("r4_to_f4"))
        assert s.product_basis(0, 1) == as_vector([0, 0, 1, 0], 1)
        assert s.product_basis(0, 2) == as_vector([0, 0, 0, 1], 1)
        assert vec_is_zero(s.product_basis(1, 0))


def rand_scalar(rng, d, density=1.0):
    """A seeded random scalar, zero with probability 1 - density."""
    if rng.random() >= density:
        return Scalar.zero(d)
    irr = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if d != 1 else 0
    return Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), irr, d)


def product_grid(s):
    """grid[i][j] is the coordinate vector of X_i . X_j."""
    n = s.algebra.dim
    return tuple(tuple(s.product_basis(i, j) for j in range(n)) for i in range(n))


def dense_product(s, x, y):
    """x.y = sum over every (i, j, k) of x_i y_j c_ij^k X_k."""
    n, p = s.algebra.dim, product_grid(s)
    out = [Scalar.zero(s.d)] * n
    for i in range(n):
        for j in range(n):
            coeff = x[i] * y[j]
            for k in range(n):
                out[k] = out[k] + coeff * p[i][j][k]
    return tuple(out)


def reference_violations(s):
    """Identities (1)-(3) on every basis triple and pair, residuals via
    dense products, sorted as check_lr sorts them."""
    n = s.algebra.dim
    e = [unit_vector(s.algebra, i) for i in range(n)]
    p = product_grid(s)
    found = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r1 = vec_sub(dense_product(s, e[i], p[j][k]),
                             dense_product(s, e[j], p[i][k]))
                if not vec_is_zero(r1):
                    found.append(LRViolation(1, (i + 1, j + 1, k + 1), r1))
                r2 = vec_sub(dense_product(s, p[i][j], e[k]),
                             dense_product(s, p[i][k], e[j]))
                if not vec_is_zero(r2):
                    found.append(LRViolation(2, (i + 1, j + 1, k + 1), r2))
    for i in range(n):
        for j in range(i + 1, n):
            r3 = vec_sub(s.algebra.bracket_basis(i, j), vec_sub(p[i][j], p[j][i]))
            if not vec_is_zero(r3):
                found.append(LRViolation(3, (i + 1, j + 1), r3))
    return sorted(found, key=lambda v: (v.identity, v.where))


def perturbed(s, rng, d, count):
    """s read in context d, with ``count`` seeded random product entries
    shifted."""
    n = s.algebra.dim
    grid = [[list(as_vector(v, d)) for v in row] for row in product_grid(s)]
    for _ in range(count):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        grid[i][j][k] = grid[i][j][k] + rand_scalar(rng, d)
    return LRStructure.from_table(s.algebra.with_field(d), table_of(grid))


@pytest.fixture(scope="module")
def passing_structures():
    return [h3_halved()] + [rep_to_lr(bundled_rep(slug)) for slug in
                            ("r3_to_h3", "r4_to_h3R", "r4_to_f4")]


class TestSparseKernels:
    @pytest.mark.parametrize("d", (1, 3))
    @pytest.mark.parametrize("n", (1, 3, 5))
    @pytest.mark.parametrize("density", (0.0, 0.3, 1.0))
    def test_product_matches_dense(self, d, n, density):
        rng = random.Random(100 * d + 10 * n + int(10 * density))
        for _ in range(5):
            s = LRStructure.from_table(abelian(n, d), table_of(
                [[[rand_scalar(rng, d, density) for _ in range(n)]
                  for _ in range(n)] for _ in range(n)]))
            x = tuple(rand_scalar(rng, d, density) for _ in range(n))
            y = tuple(rand_scalar(rng, d, 1 - density / 2) for _ in range(n))
            got = s.product(x, y)
            assert got == dense_product(s, x, y)
            assert all(c.d == d for c in got)

    @pytest.mark.parametrize("d", (1, 3))
    @pytest.mark.parametrize("count", (0, 1, 3))
    def test_check_lr_violations_match_reference(self, d, count,
                                                 passing_structures):
        rng = random.Random(10 * d + count)
        rejected = 0
        for s in passing_structures:
            for _ in range(2):
                p = perturbed(s, rng, d, count)
                report = check_lr(p)
                expected = reference_violations(p)
                assert list(report.violations) == expected
                assert report.ok == (not expected)
                if count == 0:
                    assert report.ok
                rejected += self.check_commuting_lefts(p, expected)
        assert (rejected > 0) == (count > 0)

    @staticmethod
    def check_commuting_lefts(s, expected):
        """check_complete refuses exactly when some identity (1) residual,
        a column of [L(X_i), L(X_j)], is nonzero, naming the first i < j."""
        pairs = sorted({v.where[:2] for v in expected
                        if v.identity == 1 and v.where[0] < v.where[1]})
        if not pairs:
            check_complete(s)   # decided by the flag, without raising
            return False
        i, j = pairs[0]
        with pytest.raises(PreconditionError,
                           match=fr"L\(X_{i}\) and L\(X_{j}\) do not"):
            check_complete(s)
        return True


def seeded_grid(rng, n, d, density):
    """A dense product grid of seeded scalars, zero entries kept as explicit
    zeros."""
    return [[[rand_scalar(rng, d, density) for _ in range(n)]
             for _ in range(n)] for _ in range(n)]


def table_of(grid):
    """The from_table input naming every entry of the grid, zeros too."""
    return {(i + 1, j + 1): [(k + 1, c) for k, c in enumerate(v)]
            for i, row in enumerate(grid) for j, v in enumerate(row)}


def stored_values(s):
    return [x for m in s.lefts for row in m._rows for x in row.values()]


STORED_CASES = [(d, density) for d in (1, 3) for density in (0.0, 0.3, 1.0)]


class TestStoredForm:
    """LRStructure stores L(X_i) only, as sparse matrix rows with no zero;
    product_basis reads the dense grid back from them."""

    @pytest.mark.parametrize("d, density", STORED_CASES)
    def test_lefts_hold_no_zero_and_give_back_the_grid(self, d, density):
        rng = random.Random(int(40 * density) + d)
        for n in (1, 3):
            grid = seeded_grid(rng, n, d, density)
            s = LRStructure.from_table(abelian(n, d), table_of(grid))
            assert all(stored_values(s))
            assert len(stored_values(s)) == sum(
                bool(c) for row in grid for v in row for c in v)
            assert product_grid(s) == tuple(tuple(tuple(v) for v in row)
                                       for row in grid)
            for i in range(n):
                assert s.lefts[i].d == d and s.lefts[i].rows == n

    @pytest.mark.parametrize("d, density", STORED_CASES)
    def test_constructor_table_and_json_agree(self, d, density):
        rng = random.Random(int(40 * density) + 10 * d)
        for n in (1, 3):
            L = abelian(n, d)
            grid = seeded_grid(rng, n, d, density)
            # every entry named, zeros too; only the nonzero ones; the file
            sparse = {ij: [(k, c) for k, c in terms if c]
                      for ij, terms in table_of(grid).items()}
            built = [LRStructure.from_table(L, table_of(grid)),
                     LRStructure.from_table(L, sparse)]
            built.append(lr_from_dict(lr_to_dict(built[0])))
            for other in built[1:]:
                assert other == built[0]
                assert hash(other) == hash(built[0])

    def test_rational_structure_equals_its_d3_copy(self):
        rng = random.Random(77)
        L = get_algebra("h3")
        grid = seeded_grid(rng, 3, 1, 0.3)
        s = LRStructure.from_table(L, table_of(grid))
        as_d3 = [[[Scalar.of(c, 3) for c in v] for v in row] for row in grid]
        copy = LRStructure.from_table(L, table_of(as_d3))
        assert copy == s and hash(copy) == hash(s)
        # the same values over Q(sqrt 3): only the algebra's context differs
        lifted = LRStructure.from_table(L.with_field(3), table_of(as_d3))
        assert lifted.lefts == s.lefts and hash(lifted.lefts) == hash(s.lefts)
        assert lifted != s and all(m.d == 3 for m in lifted.lefts)

    def test_from_table_rejects_bad_pairs_targets_and_floats(self):
        L = get_algebra("h3")
        for pair in ((0, 1), (4, 1), (1, 4)):
            with pytest.raises(ShapeError, match="pair"):
                LRStructure.from_table(L, {pair: ((3, 1),)})
        for k in (0, 4):
            with pytest.raises(ShapeError, match="target"):
                LRStructure.from_table(L, {(1, 2): ((k, 1),)})
        for c in (0.5, True):
            with pytest.raises(TypeError):
                LRStructure.from_table(L, {(1, 2): ((3, c),)})

    def test_no_dense_constructor(self):
        with pytest.raises(TypeError):
            LRStructure(abelian(1), [[[0]]])

    def test_json_writer_matches_dense_reference(self, passing_structures,
                                                 witnesses):
        structures = list(passing_structures)
        structures += [rep_to_lr(rep) for rep in bundled_reps().values()
                       if rep.source.is_abelian()]
        structures += [outcome.witness_lr for outcome in witnesses]
        for d, density in STORED_CASES:
            rng = random.Random(int(40 * density) + 100 * d)
            structures += [LRStructure.from_table(
                abelian(3, d), table_of(seeded_grid(rng, 3, d, density)))
                for _ in range(3)]
        for s in structures:
            assert lr_to_dict(s) == dense_lr_to_dict(s)


class TestIdentities:
    def test_halved_structure_passes(self):
        report = check_lr(h3_halved())
        assert report.ok and report.violations == ()

    def test_asymmetric_structure_passes(self):
        s = LRStructure.from_table(get_algebra("h3"), {(1, 2): ((3, 1),)})
        assert check_lr(s).ok

    def test_feedback_product_fails_identity_two_first(self):
        s = LRStructure.from_table(
            get_algebra("h3"), {(1, 2): ((3, 1),), (3, 1): ((1, 1),)})
        report = check_lr(s)
        assert not report.ok
        first = report.violations[0]
        assert first.identity == 2
        assert first.where == (1, 1, 2)
        assert first.residual == as_vector([-1, 0, 0], 1)

    def test_commutator_must_match_bracket(self):
        s = LRStructure.from_table(
            get_algebra("h3"), {(1, 2): ((3, HALF),), (2, 1): ((3, HALF),)})
        report = check_lr(s)
        assert not report.ok
        assert any(v.identity == 3 and v.where[:2] == (1, 2)
                   for v in report.violations)

    def test_commutator_restatement_on_random_vectors(self):
        s = h3_halved()
        L = s.algebra
        rng = random.Random(6)
        for _ in range(20):
            x = tuple(Scalar.of(Fraction(rng.randint(-4, 4)), 1) for _ in range(3))
            y = tuple(Scalar.of(Fraction(rng.randint(-4, 4)), 1) for _ in range(3))
            assert vec_sub(s.product(x, y), s.product(y, x)) == L.bracket(x, y)

    def test_left_operators_commute(self):
        for slug in ("r3_to_h3", "r4_to_h3R", "r4_to_f4"):
            s = rep_to_lr(bundled_rep(slug))
            n = s.algebra.dim
            for i in range(n):
                for j in range(n):
                    for a, b in ((s.lefts[i], s.lefts[j]),
                                 (s.right_matrix(i), s.right_matrix(j))):
                        assert (a @ b - b @ a).is_zero()

    def test_jacobi_precondition(self):
        broken = LieAlgebra.from_table(
            "notlie", 3, {(1, 2): ((3, 1),), (1, 3): ((1, 1),)})
        s = LRStructure.from_table(broken, {})
        with pytest.raises(PreconditionError):
            check_lr(s)


class TestCompleteness:
    def test_nilpotent_lefts_give_flag(self):
        s = h3_halved()
        verdict = check_complete(s)
        assert verdict.ok
        assert len(verdict.flag.basis) == 3
        for i in range(3):
            assert flag_triangularizes(verdict.flag, s.lefts[i])

    def test_idempotent_product_is_incomplete(self):
        s = LRStructure.from_table(abelian(1), {(1, 1): ((1, 1),)})
        verdict = check_complete(s)
        assert not verdict.ok
        assert isinstance(verdict.failure, EngelFailure)
        assert verdict.failure.stalled == ()

    def test_non_commuting_lefts_rejected(self):
        s = LRStructure.from_table(
            abelian(2), {(1, 1): ((2, 1),), (2, 1): ((1, 1),), (1, 2): ((1, 1),)})
        with pytest.raises(PreconditionError):
            check_complete(s)


# Algebras whose obstruct_abelian verdict is Found: the obstruction
# suite's negative controls and two filiform algebras L_n, [X_1, X_i] = X_{i+1}.
WITNESS_ALGEBRAS = [get_algebra(name) for name in
                    ("R1", "R2", "R3", "R4", "R5", "R6",
                     "h3", "h3+R", "f4", "h3+R2", "g5_6")] + [
    LieAlgebra.from_table(f"L{n}", n, {(1, i): [(i + 1, 1)]
                                       for i in range(2, n)})
    for n in (5, 6)]


@pytest.fixture(scope="module")
def witnesses():
    return [obstruct_abelian(L) for L in WITNESS_ALGEBRAS]


def reparametrized(rep):
    """The same action with its abelian source re-parametrized through an
    invertible A: t'_i = t(A e_i) and D'_i = D(A e_i), so the translations
    are no longer the identity."""
    n = rep.source.dim
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    rows[0][0], rows[1][0], rows[n - 1][1] = 2, 1, -3
    cols = [Matrix.from_rows(rows, rep.d).column(i) for i in range(n)]
    return AffineRep(rep.source, rep.target, [rep.t_matrix().apply(c) for c in cols],
                     [rep.D_of(c) for c in cols])


def assert_lr_correspondence(s):
    """The paper's theorem on one product read off a passing rep: it is a
    complete LR-structure, each -L(X_i) is a derivation, and the rebuilt
    rep passes and converts back to the same product."""
    assert check_lr(s).ok
    assert check_complete(s).ok
    for i in range(s.algebra.dim):
        assert _leibniz_failure(s.algebra, -s.lefts[i]) is None, i + 1
    back = lr_to_rep(s)
    assert check_simply_transitive(back).overall
    assert rep_to_lr(back) == s


class TestRoundTrips:
    def test_rep_to_lr_to_rep_exact(self, witnesses):
        reps = {slug: rep for slug, rep in bundled_reps().items()
                if rep.source.is_abelian()}
        assert len(reps) == 4
        for slug, rep in reps.items():
            s = rep_to_lr(rep)
            assert_lr_correspondence(s)
            assert lr_to_rep(s) == rep, slug
            moved = reparametrized(rep)
            assert moved.t_matrix() != rep.t_matrix()
            assert rep_to_lr(moved) == s, slug
        for outcome in witnesses:
            assert outcome.verdict == "Found", outcome.algebra.name
            s = rep_to_lr(outcome.witness_rep)
            assert s == outcome.witness_lr
            assert_lr_correspondence(s)
            assert lr_to_rep(s) == outcome.witness_rep, outcome.algebra.name

    def test_lr_to_rep_builds_identity_translations(self):
        rep = lr_to_rep(h3_halved())
        n = rep.target.dim
        for i in range(n):
            assert rep.t[i] == unit_vector(rep.target, i)
        assert rep.source == abelian(n)
        assert rep.D[0] == -h3_halved().lefts[0]

    def test_non_unit_translations_normalize_away(self):
        rep = bundled_rep("r3_to_h3")
        tgt = rep.target
        scaled_t = [unit_vector(tgt, 0), unit_vector(tgt, 1),
                    tuple(Scalar.of(2, 1) * x for x in unit_vector(tgt, 2))]
        scaled = AffineRep(rep.source, tgt, scaled_t, list(rep.D))
        s = rep_to_lr(scaled)
        assert product_grid(s) == product_grid(rep_to_lr(rep))
        assert lr_to_rep(s) == rep

    def test_incomplete_structure_cannot_rebuild(self):
        s = LRStructure.from_table(abelian(1), {(1, 1): ((1, 1),)})
        with pytest.raises(IncompleteStructureError) as exc:
            lr_to_rep(s)
        assert isinstance(exc.value.evidence, EngelFailure)

    def test_identity_violations_block_rebuild(self):
        s = LRStructure.from_table(
            get_algebra("h3"), {(1, 2): ((3, HALF),), (2, 1): ((3, HALF),)})
        with pytest.raises(PreconditionError):
            lr_to_rep(s)

    def test_non_abelian_source_rejected(self):
        with pytest.raises(PreconditionError) as caught:
            rep_to_lr(bundled_rep("h3_to_r3"))
        assert not isinstance(caught.value, NotSimplyTransitiveError)

    def test_failing_rep_rejected_with_reason(self):
        L = get_algebra("R3")
        rep = AffineRep(L, L, [(0, 0, 0)] * 3, [Matrix.zero(3, 3)] * 3)
        with pytest.raises(NotSimplyTransitiveError, match="bij"):
            rep_to_lr(rep)

    def test_rebuilt_linear_parts_satisfy_leibniz(self):
        from nilaffine.affine import validate_derivations
        validate_derivations(lr_to_rep(h3_halved()))


class TestLrJson:
    def test_round_trip(self):
        s = rep_to_lr(bundled_rep("r4_to_f4"))
        doc = lr_to_dict(s)
        assert product_grid(lr_from_dict(doc)) == product_grid(s)
        assert lr_from_dict(doc).algebra == s.algebra

    def test_zero_products_omitted(self):
        doc = lr_to_dict(h3_halved())
        pairs = {(row["i"], row["j"]) for row in doc["product"]}
        assert pairs == {(1, 2), (2, 1)}
        assert doc["algebra"] == "h3"

    def test_duplicate_pair_rejected(self):
        doc = lr_to_dict(h3_halved())
        doc["product"].append(dict(doc["product"][0]))
        with pytest.raises(ParseError, match="duplicate"):
            lr_from_dict(doc)

    def test_duplicate_target_rejected(self):
        # named once per term list, as in a bracket table; two terms that
        # cancel must not pass as a zero product
        doc = {"algebra": "R2", "product": [{"i": 1, "j": 2, "terms": [
            {"k": 2, "c": 1}, {"k": 2, "c": -1}]}]}
        with pytest.raises(ParseError, match=r"terms\[1\]\.k: duplicate target 2"):
            lr_from_dict(doc)

    def test_unknown_keys_rejected(self):
        doc = lr_to_dict(h3_halved())
        doc["spurious"] = True
        with pytest.raises(ParseError):
            lr_from_dict(doc)

    def test_irrational_context_round_trip(self):
        L = abelian(2, d=3)
        s = LRStructure.from_table(
            L, {(1, 2): ((1, Scalar(0, 1, 3)),), (2, 1): ((1, Scalar(0, 1, 3)),)})
        doc = lr_to_dict(s)
        assert doc["d"] == 3
        assert product_grid(lr_from_dict(doc)) == product_grid(s)
