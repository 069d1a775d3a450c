import random
from fractions import Fraction

import pytest

from nilaffine import linalg
from nilaffine.corpus import bundled_reps
from nilaffine.errors import ParseError, ShapeError
from nilaffine.linalg import (EngelFailure, Flag, Matrix, annihilator,
                              as_vector, engel_flag, matrix_from_json,
                              matrix_to_json, row_space_basis,
                              vector_from_json, vector_to_json)
from nilaffine.scalars import Scalar


def rand_matrix(rng, rows, cols, d=1, lo=-6, hi=6):
    return Matrix.from_rows(
        [[Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(cols)]
         for _ in range(rows)], d)


class TestRref:
    def test_identity_is_fixed(self):
        m = Matrix.identity(4)
        r = m.rref()
        assert r.matrix == m and r.rank == 4 and r.pivots == (0, 1, 2, 3)

    def test_zero_matrix(self):
        r = Matrix.zero(3, 5).rref()
        assert r.rank == 0 and r.pivots == ()

    def test_dependent_rows_collapse(self):
        m = Matrix.from_rows([[1, 2], [2, 4]])
        r = m.rref()
        assert r.rank == 1
        assert r.matrix.row(0) == as_vector([1, 2], 1)
        assert r.matrix.row(1) == as_vector([0, 0], 1)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(25):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            once = m.rref().matrix
            assert once.rref().matrix == once

    def test_rank_invariant_under_row_shuffle(self):
        rng = random.Random(4)
        for _ in range(25):
            m = rand_matrix(rng, 4, 5)
            rows = list(m.row_list())
            rng.shuffle(rows)
            assert Matrix.from_rows([list(r) for r in rows], 1).rank() == m.rank()


class TestNullspace:
    def test_convention_first_nonzero_is_one(self):
        ns = Matrix.from_rows([[1, 1]]).nullspace()
        assert ns == (as_vector([1, -1], 1),)

    def test_zero_matrix_gives_standard_basis(self):
        ns = Matrix.zero(2, 3).nullspace()
        assert ns == (as_vector([1, 0, 0], 1), as_vector([0, 1, 0], 1),
                      as_vector([0, 0, 1], 1))

    def test_members_are_killed_exactly(self):
        rng = random.Random(9)
        for _ in range(40):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            for v in m.nullspace():
                assert all(x.is_zero() for x in m.apply(v))

    def test_rank_nullity(self):
        rng = random.Random(10)
        for _ in range(40):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            assert m.rank() + len(m.nullspace()) == m.cols


class TestInverse:
    def test_round_trip(self):
        rng = random.Random(12)
        found = 0
        while found < 20:
            m = rand_matrix(rng, 4, 4)
            if m.rank() < 4:
                continue
            found += 1
            assert m @ m.inverse() == Matrix.identity(4)
            assert m.inverse() @ m == Matrix.identity(4)

    def test_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            Matrix.from_rows([[1, 2], [2, 4]]).inverse()

    def test_irrational_context(self):
        m = Matrix.from_rows([[Scalar(1, 1, 3), 0], [0, 1]], 3)
        assert m @ m.inverse() == Matrix.identity(2, 3)


class TestNilpotency:
    def test_zero_and_identity(self):
        assert Matrix.zero(3, 3).is_nilpotent()
        assert not Matrix.identity(3).is_nilpotent()

    def test_strict_lower_shift(self):
        m = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert m.is_strictly_lower_triangular() and m.is_nilpotent()

    def test_nilpotent_but_not_triangular(self):
        m = Matrix.from_rows([[1, -1], [1, -1]])
        assert not m.is_strictly_lower_triangular() and m.is_nilpotent()

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            Matrix.zero(2, 3).is_nilpotent()


class TestEngelFlag:
    def test_zero_family_full_flag(self):
        flag = engel_flag([Matrix.zero(3, 3)])
        assert flag and flag.size == 3

    def test_identity_fails(self):
        failure = engel_flag([Matrix.identity(3)])
        assert not failure
        assert isinstance(failure, EngelFailure)
        assert failure.stalled == ()

    def test_empty_family_needs_explicit_size(self):
        flag = engel_flag([], size=3, d=1)
        e = Matrix.identity(3)
        assert flag.basis == (e.row(2), e.row(1), e.row(0))

    def test_single_shift_orders_joint_kernel_last(self):
        m = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        flag = engel_flag([m])
        e = Matrix.identity(3)
        assert flag.basis == (e.row(2), e.row(1), e.row(0))
        assert flag.is_strict_for([m])

    def test_pair_with_shared_kernel(self):
        a = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
        b = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        flag = engel_flag([a, b])
        assert flag and flag.is_strict_for([a, b])
        for m in (a, b):
            assert flag.conjugate(m).is_strictly_lower_triangular()

    def test_conjugation_strictly_triangularizes(self):
        m = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        flag = engel_flag([m])
        assert flag.conjugate(m).is_strictly_lower_triangular()

    def test_mixed_family_fails_with_stalled_evidence(self):
        nil = Matrix.from_rows([[0, 0], [1, 0]])
        bad = Matrix.identity(2)
        failure = engel_flag([nil, bad])
        assert not failure and failure.stalled == ()

    def test_partial_stall(self):
        # fixes e1 but decreases nothing above it
        m = Matrix.from_rows([[1, 0], [0, 0]])
        failure = engel_flag([m])
        assert not failure
        assert len(failure.stalled) == 1

    def test_success_certifies_span_nilpotent(self):
        a = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        b = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
        flag = engel_flag([a, b])
        assert flag
        rng = random.Random(99)
        for _ in range(100):
            c1 = Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 1)
            c2 = Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 1)
            assert (c1 * a + c2 * b).is_nilpotent()


    def test_basis_is_the_greedy_selection_from_the_chain(self, monkeypatch):
        # the flag keeps each chain vector that raises the rank of those
        # kept before it, and lists them in reverse
        chain = []
        real = linalg.row_space_basis

        def recording(vectors, d, length):
            level = real(vectors, d, length)
            chain.append(level)
            return level
        monkeypatch.setattr(linalg, "row_space_basis", recording)
        families = [
            [Matrix.zero(3, 3)],
            [Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])],
            [Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
             Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])],
            [Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
             Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])],
        ] + [list(rep.D) for rep in bundled_reps().values()]
        for family in families:
            chain.clear()
            flag = engel_flag(family)
            d = family[0].d
            kept = []
            for v in (v for level in chain for v in level):
                if Matrix.from_rows(kept + [v], d).rref()[2] > len(kept):
                    kept.append(v)
            assert chain and flag.basis == tuple(reversed(kept))


class TestBasisHelpers:
    def test_row_space_basis_is_rref(self):
        vs = [as_vector([1, 2, 3], 1), as_vector([2, 4, 6], 1),
              as_vector([0, 1, 1], 1)]
        basis = row_space_basis(vs, 1, 3)
        assert len(basis) == 2
        assert basis[0][0] == Scalar.one(1)

    def test_annihilator_kills_and_complements(self):
        rng = random.Random(17)
        for _ in range(25):
            vs = [tuple(Scalar.of(Fraction(rng.randint(-4, 4)), 1)
                        for _ in range(4)) for _ in range(rng.randint(0, 3))]
            ann = annihilator(vs, 1, 4)
            for row in ann:
                for v in vs:
                    dot = sum((r * x for r, x in zip(row, v)), Scalar.zero(1))
                    assert dot.is_zero()
            assert len(ann) == 4 - len(row_space_basis(vs, 1, 4))


class TestMatrixOps:
    def test_matmul_and_apply_agree(self):
        rng = random.Random(23)
        m = rand_matrix(rng, 3, 4)
        v = tuple(Scalar.of(Fraction(rng.randint(-5, 5)), 1) for _ in range(4))
        assert m @ v == m.apply(v)

    def test_commutator_antisymmetry(self):
        rng = random.Random(29)
        a, b = rand_matrix(rng, 3, 3), rand_matrix(rng, 3, 3)
        assert a.commutator(b) == -(b.commutator(a))

    def test_scalar_rejects_bool(self):
        with pytest.raises(TypeError):
            Matrix.identity(2) * True

    def test_stack(self):
        a = Matrix.from_rows([[1, 2]])
        b = Matrix.from_rows([[3, 4]])
        assert Matrix.stack([a, b]) == Matrix.from_rows([[1, 2], [3, 4]])

    def test_from_columns_round_trip(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert Matrix.from_columns([m.column(0), m.column(1)], 1) == m

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Matrix.identity(2) + Matrix.identity(3)
        with pytest.raises(ShapeError):
            Matrix.identity(2) @ Matrix.zero(3, 2)


def sparse_rand_matrix(rng, rows, cols, d, density):
    """Seeded random entries, each zero with probability 1 - density."""
    def entry():
        if rng.random() >= density:
            return Scalar.zero(d)
        irr = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if d != 1 else 0
        return Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), irr, d)
    return Matrix(rows, cols, [entry() for _ in range(rows * cols)], d)


def dense_matmul(a, b):
    """(AB)_rc = sum_k a_rk b_kc over every k."""
    out = []
    for r in range(a.rows):
        for c in range(b.cols):
            acc = Scalar.zero(a.d)
            for k in range(a.cols):
                acc = acc + a.get(r, k) * b.get(k, c)
            out.append(acc)
    return Matrix(a.rows, b.cols, out, a.d)


class TestSparseMatmul:
    @pytest.mark.parametrize("d", (1, 3))
    @pytest.mark.parametrize("shape", ((1, 1, 1), (3, 3, 3), (6, 6, 6),
                                       (2, 5, 3), (5, 2, 4), (4, 7, 1),
                                       (1, 4, 6)))
    @pytest.mark.parametrize("density", (0.0, 0.2, 0.6, 1.0))
    def test_matches_dense(self, d, shape, density):
        rows, inner, cols = shape
        rng = random.Random(1000 * d + 100 * rows + 10 * inner + cols
                            + int(10 * density))
        for _ in range(4):
            a = sparse_rand_matrix(rng, rows, inner, d, density)
            b = sparse_rand_matrix(rng, inner, cols, d, 1 - density / 2)
            got = a @ b
            assert (got.rows, got.cols, got.d) == (rows, cols, d)
            assert got == dense_matmul(a, b)
            assert all(x.d == d for x in got.entries())

    def test_empty_inner_dimension(self):
        product = Matrix.zero(3, 0, 3) @ Matrix.zero(0, 2, 3)
        assert (product.rows, product.cols) == (3, 2)
        assert product.is_zero()


class TestJsonHelpers:
    def test_vector_round_trip(self):
        v = as_vector([Fraction(1, 2), Scalar(0, 1, 3), 0], 3)
        assert vector_from_json(vector_to_json(v), 3, 3, "v") == v

    def test_matrix_round_trip(self):
        m = Matrix.from_rows([[Fraction(1, 2), 0], [Scalar(1, -1, 2), 3]], 2)
        assert matrix_from_json(matrix_to_json(m), 2, 2, 2, "m") == m

    def test_length_mismatch(self):
        with pytest.raises(ParseError):
            vector_from_json([1, 2], 3, 1, "v")
        with pytest.raises(ParseError):
            matrix_from_json([[1, 2]], 2, 2, 1, "m")

    def test_not_a_list(self):
        with pytest.raises(ParseError):
            vector_from_json("nope", 2, 1, "v")
