import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from dense_reference import (dense_inverse, dense_matrix, dense_nullspace,
                             dense_rows, dense_rref, dense_row_space_basis,
                             flag_triangularizes)

from nilaffine import linalg
from nilaffine.corpus import bundled_reps
from nilaffine.errors import FieldMismatchError, ParseError, ShapeError
from nilaffine.linalg import (EngelFailure, Matrix, as_vector,
                              engel_flag, matrix_from_json, matrix_to_json,
                              vector_from_json, vector_to_json)
from nilaffine.scalars import Scalar, scalar_to_json


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
            rows = list(dense_rows(m))
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
        assert m.is_nilpotent()

    def test_nilpotent_but_not_triangular(self):
        m = Matrix.from_rows([[1, -1], [1, -1]])
        assert m.is_nilpotent()

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            Matrix.zero(2, 3).is_nilpotent()


class TestEngelFlag:
    def test_zero_family_full_flag(self):
        flag = engel_flag([Matrix.zero(3, 3)])
        assert flag and len(flag.basis) == 3

    def test_identity_fails(self):
        failure = engel_flag([Matrix.identity(3)])
        assert not failure
        assert isinstance(failure, EngelFailure)
        assert failure.stalled == ()

    @pytest.mark.parametrize("size, d, error", [
        (4, None, ShapeError), (4, 3, ShapeError), (None, 3, FieldMismatchError),
        (3, 3, FieldMismatchError)])
    def test_given_size_and_d_must_match_the_family(self, size, d, error):
        with pytest.raises(error):
            engel_flag([Matrix.zero(3, 3)], size=size, d=d)
        assert engel_flag([Matrix.zero(3, 3)], size=3, d=1)

    def test_empty_family_needs_explicit_size(self):
        flag = engel_flag([], size=3, d=1)
        e = Matrix.identity(3)
        assert flag.basis == (e.row(2), e.row(1), e.row(0))

    def test_single_shift_orders_joint_kernel_last(self):
        m = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        flag = engel_flag([m])
        e = Matrix.identity(3)
        assert flag.basis == (e.row(2), e.row(1), e.row(0))
        assert flag_triangularizes(flag, m)

    def test_pair_with_shared_kernel(self):
        a = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
        b = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        flag = engel_flag([a, b])
        assert flag
        for m in (a, b):
            assert flag_triangularizes(flag, m)

    def test_conjugation_strictly_triangularizes(self):
        m = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        flag = engel_flag([m])
        assert flag_triangularizes(flag, m)

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


    def test_basis_is_the_greedy_selection_from_the_chain(self):
        # the flag keeps each chain vector that raises the rank of those
        # kept before it, and lists them in reverse; the chain of joint
        # preimages U_{k+1} = {v : M v in U_k for all M} is recomputed
        # here by the dense reference elimination
        def reference_chain(family, size, d):
            chain, current = [], ()
            while len(current) < size:
                basis = Matrix.from_rows(current, d) if current else \
                    Matrix.zero(0, size, d)
                ann = Matrix.from_rows(dense_nullspace(basis), d)
                stacked = dense_matrix([row for m in family
                                        for row in dense_rows(ann @ m)], size, d)
                nxt = dense_row_space_basis(dense_nullspace(stacked), d, size)
                if len(nxt) == len(current):
                    break
                chain.append(nxt)
                current = nxt
            return chain

        families = [
            [Matrix.zero(3, 3)],
            [Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])],
            [Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
             Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])],
            [Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
             Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])],
        ] + [list(rep.D) for rep in bundled_reps().values()]
        for family in families:
            flag = engel_flag(family)
            d, size = family[0].d, family[0].rows
            chain = reference_chain(family, size, d)
            kept = []
            for v in (v for level in chain for v in level):
                if Matrix.from_rows(kept + [v], d).rref()[2] > len(kept):
                    kept.append(v)
            assert chain and flag.basis == tuple(reversed(kept))


class TestEngelChainEliminatesOnce:
    """Each Engel step is one elimination, the joint kernel: the annihilator
    of U_k is read off its RREF, so the chain of s steps makes s + 1
    ``_rref`` calls with the final pivot choice, and one ``_kernel`` call,
    the one kernel routine, per step."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = {"_rref": 0, "_kernel": 0}
        for name in counted:
            def counting(*args, real=getattr(linalg, name), name=name, **kw):
                counted[name] += 1
                return real(*args, **kw)
            monkeypatch.setattr(linalg, name, counting)
        return counted

    @pytest.mark.parametrize("size", (1, 3, 6))
    def test_shift_takes_one_step_per_dimension(self, calls, size):
        shift = Matrix.from_rows([[int(c == r + 1) for c in range(size)]
                                  for r in range(size)])
        assert engel_flag([shift])
        assert calls == {"_rref": size + 1, "_kernel": size}

    def test_zero_family_takes_one_step(self, calls):
        assert engel_flag([Matrix.zero(4, 4)])
        assert calls == {"_rref": 2, "_kernel": 1}

    def test_a_stall_makes_no_pivot_choice(self, calls):
        assert not engel_flag([Matrix.identity(3)])
        assert calls == {"_rref": 1, "_kernel": 1}

    @pytest.mark.parametrize("name", sorted(bundled_reps()))
    def test_bundled_families(self, calls, name):
        rep = bundled_reps()[name]
        calls["_kernel"] = calls["_rref"] = 0
        flag = engel_flag(list(rep.D))
        assert flag and calls["_rref"] == calls["_kernel"] + 1


class TestBasisHelpers:
    def test_row_space_basis_is_rref(self):
        pivots, basis = linalg._rref([{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6},
                                      {1: 1, 2: 1}])
        assert pivots == (0, 1)
        assert basis == [{0: 1, 2: 1}, {1: 1, 2: 1}]

    def test_annihilator_kills_and_complements(self):
        # the kernel of the rows is the annihilator of their span
        rng = random.Random(17)
        for _ in range(25):
            vs = [linalg._sparse([rng.randint(-4, 4) for _ in range(4)], 1)
                  for _ in range(rng.randint(0, 3))]
            ann = linalg._kernel(vs, 4, 1)
            for row in ann:
                for v in vs:
                    assert sum(c * v.get(k, 0) for k, c in row.items()) == 0
            assert len(ann) == 4 - len(linalg._rref(vs)[1])


class TestMatrixOps:
    def test_matmul_and_apply_agree(self):
        rng = random.Random(23)
        m = rand_matrix(rng, 3, 4)
        v = tuple(Scalar.of(Fraction(rng.randint(-5, 5)), 1) for _ in range(4))
        assert (m @ Matrix.from_columns([v])).column(0) == m.apply(v)

    def test_commutator_antisymmetry(self):
        rng = random.Random(29)
        a, b = rand_matrix(rng, 3, 3), rand_matrix(rng, 3, 3)
        assert a @ b - b @ a == -(b @ a - a @ b)

    def test_scalar_rejects_bool(self):
        with pytest.raises(TypeError):
            Matrix.identity(2) * True

    @pytest.mark.parametrize("d", (1, 3))
    def test_times_a_fraction(self, d):
        m = Matrix.from_rows([[1, "2/3"], [0, -4]], d)
        half = Matrix.from_rows([["1/2", "1/3"], [0, -2]], d)
        assert m * Fraction(1, 2) == Fraction(1, 2) * m == half
        assert m * Fraction(3) == m * 3 == m * Scalar.of(3, d)
        assert m * Fraction(0) == Matrix.zero(2, 2, d)
        with pytest.raises(TypeError):
            False * m

    def test_from_columns_round_trip(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert Matrix.from_columns([m.column(0), m.column(1)], 1) == m

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Matrix.identity(2) + Matrix.identity(3)
        with pytest.raises(ShapeError):
            Matrix.identity(2) @ Matrix.zero(3, 2)

    @pytest.mark.parametrize("d", (1, 3))
    def test_from_rows_rejects_floats_bools_and_ragged_rows(self, d):
        for bad in ([[1, 0.5]], [[0, True]]):
            with pytest.raises(TypeError):
                Matrix.from_rows(bad, d)
        with pytest.raises(ShapeError, match="ragged"):
            Matrix.from_rows([[1, 2], [3]], d)

    def test_no_dense_constructor(self):
        with pytest.raises(TypeError):
            Matrix(2, 2, [Scalar(1), Scalar(0), Scalar(0), Scalar(1)], 1)


def sparse_rand_matrix(rng, rows, cols, d, density):
    """Seeded random entries, each zero with probability 1 - density."""
    def entry():
        if rng.random() >= density:
            return Scalar.zero(d)
        irr = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if d != 1 else 0
        return Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), irr, d)
    return dense_matrix([[entry() for _ in range(cols)] for _ in range(rows)],
                        cols, d)


def dense_matmul(a, b):
    """(AB)_rc = sum_k a_rk b_kc over every k."""
    out = []
    for r in range(a.rows):
        out.append([])
        for c in range(b.cols):
            acc = Scalar.zero(a.d)
            for k in range(a.cols):
                acc = acc + a.get(r, k) * b.get(k, c)
            out[-1].append(acc)
    return dense_matrix(out, b.cols, a.d)


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
            assert all(x.d == d for row in dense_rows(got) for x in row)

    def test_empty_inner_dimension(self):
        product = Matrix.zero(3, 0, 3) @ Matrix.zero(0, 2, 3)
        assert (product.rows, product.cols) == (3, 2)
        assert product.is_zero()


def with_zero_and_repeated_rows(m):
    """m with a zero row, a repeat of its first row and a multiple of its
    last row inserted (an m with no rows gains only the zero row)."""
    rows = [list(r) for r in dense_rows(m)]
    zero = [Scalar.zero(m.d)] * m.cols
    if rows:
        rows.insert(len(rows) // 2, list(rows[0]))
        rows.append([Scalar(-3, 1, m.d) * x for x in rows[-1]])
    rows.insert(1 if rows else 0, zero)
    return dense_matrix(rows, m.cols, m.d)


KERNEL_SHAPES = ((0, 3), (3, 0), (1, 1), (0, 0), (4, 4), (6, 6),
                 (9, 4), (14, 6), (3, 8), (5, 12))


def assert_exact_rational(x):
    """An int or a Fraction; never a bool or a float."""
    assert type(x) in (int, Fraction), x


class TestRationalRows:
    """_rref and _kernel on int rows with non-unit pivots against the
    same rows as Scalars; rational results stay int where integral."""

    @staticmethod
    def int_rows(rng, rows, cols, density):
        # entries avoid +-1 half the time, so most pivots are not units
        values = (-6, -4, -3, -2, 2, 3, 4, 6, -1, 1)
        return [{c: rng.choice(values) for c in range(cols)
                 if rng.random() < density} for _ in range(rows)]

    @staticmethod
    def as_scalars(rows, d=1):
        return [{c: Scalar.of(x, d) for c, x in row.items()} for row in rows]

    @pytest.mark.parametrize("shape", KERNEL_SHAPES,
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("density", (0.2, 0.6, 1.0))
    def test_matches_scalar_rows(self, shape, density):
        rows, cols = shape
        rng = random.Random(f"int-{rows}-{cols}-{density}")
        for _ in range(4):
            ints = self.int_rows(rng, rows, cols, density)
            ints += [dict(ints[0])] if ints else []     # a dependent row
            before = [dict(row) for row in ints]
            pivots, reduced = linalg._rref(ints)
            assert ints == before                       # input not changed
            assert (pivots, self.as_scalars(reduced)) == \
                linalg._rref(self.as_scalars(ints))
            kernel = linalg._kernel(ints, cols, 1)
            assert self.as_scalars(kernel) == linalg._kernel(
                self.as_scalars(ints), cols, Scalar.one(1))
            for row in reduced + kernel:
                assert all(row.values())
                for x in row.values():
                    assert_exact_rational(x)

    def test_ints_stay_ints_while_every_division_is_exact(self):
        # echelon rows with leads +-1, then integer combinations of them:
        # every division is by +-1, so no Fraction may appear
        rng = random.Random("unit-pivots")
        for _ in range(20):
            leads = sorted(rng.sample(range(8), 4))
            rows = [{lead: rng.choice((-1, 1)),
                     **{c: rng.randint(-3, 3) for c in range(lead + 1, 8)}}
                    for lead in leads]
            rows = [{c: x for c, x in row.items() if x} for row in rows]
            combos = []
            for _ in range(3):
                acc = {}
                for row in rows:
                    linalg._axpy(acc, rng.choice((-2, 1, 3)), row)
                combos.append(acc)
            pivots, reduced = linalg._rref(rows + combos)
            assert pivots == tuple(leads)
            assert all(type(x) is int for row in reduced for x in row.values())

    def test_non_unit_pivot_scales_to_fractions_only_where_needed(self):
        pivots, reduced = linalg._rref([{0: 2, 1: 4, 2: 3}, {1: 3, 2: 6}])
        assert pivots == (0, 1)
        assert reduced == [{0: 1, 2: Fraction(-5, 2)}, {1: 1, 2: 2}]
        assert type(reduced[1][2]) is int
        assert linalg._kernel([{0: 2, 1: 4}], 2, 1) == [{0: 1, 1: Fraction(-1, 2)}]

    def test_matches_scalar_rows_in_another_context(self):
        rng = random.Random("int-d3")
        ints = self.int_rows(rng, 5, 7, 0.6)
        pivots, reduced = linalg._rref(self.as_scalars(ints, 3))
        assert all(x.d == 3 for row in reduced for x in row.values())
        assert (pivots, [{c: x.rat for c, x in row.items()} for row in reduced]) \
            == linalg._rref(ints)


def dense_kernel_rref(m):
    """The RREF basis of m's kernel, from the dense reference elimination."""
    want = dense_rref(dense_matrix(dense_nullspace(m), m.cols, m.d))
    return tuple(want.matrix.row(r) for r in range(want.rank))


class TestKernelMatchesDenseReference:
    """The sparse kernel against the dense elimination it replaced."""

    def matrices(self, d, shape, density):
        rows, cols = shape
        rng = random.Random(f"{d}-{rows}-{cols}-{density}")
        for _ in range(3):
            m = sparse_rand_matrix(rng, rows, cols, d, density)
            yield m
            yield with_zero_and_repeated_rows(m)

    @pytest.mark.parametrize("d", (1, 3))
    @pytest.mark.parametrize("shape", KERNEL_SHAPES,
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("density", (0.0, 0.15, 0.7, 1.0))
    def test_rref_nullspace_and_row_space(self, d, shape, density):
        for m in self.matrices(d, shape, density):
            got, want = m.rref(), dense_rref(m)
            assert (got.pivots, got.rank) == (want.pivots, want.rank)
            assert got.matrix == want.matrix
            assert all(x.d == d for row in dense_rows(got.matrix) for x in row)
            assert m.rank() == want.rank
            assert m.nullspace() == dense_kernel_rref(m)
            basis = linalg._rref(m._rows)[1]
            assert tuple(linalg._dense(r, m.cols, d) for r in basis) == \
                dense_row_space_basis(dense_rows(m), d, m.cols)

    @pytest.mark.parametrize("d", (1, 3))
    @pytest.mark.parametrize("n", (0, 1, 4, 6))
    @pytest.mark.parametrize("density", (0.0, 0.15, 0.7, 1.0))
    def test_inverse(self, d, n, density):
        rng = random.Random(f"{d}-{n}-{density}")
        for _ in range(3):
            m = sparse_rand_matrix(rng, n, n, d, density)
            rows = dense_rows(m)
            # and m with its last row made a repeat of the first: singular
            for m in (m, dense_matrix(rows[:-1] + rows[:1], n, d)):
                try:
                    want = dense_inverse(m)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        m.inverse()
                    continue
                assert m.inverse() == want


class TestCanonicalKernel:
    """``_kernel``, one elimination over the reversed columns, against the
    dense RREF of the dense nullspace."""

    @staticmethod
    def rows_of(kind, rng, rows, cols, density):
        """Seeded sparse rows of int, Fraction or d = 3 Scalar entries, with
        a dependent row added, and the 1 of their type."""
        if kind == "int":
            out = TestRationalRows.int_rows(rng, rows, cols, density)
            one = 1
        else:
            d = 1 if kind == "Fraction" else 3
            out = list(sparse_rand_matrix(rng, rows, cols, d, density)._rows)
            one = Scalar.one(d) if d != 1 else 1
        return out + [dict(out[0])] if out else out, one

    @staticmethod
    def reference(rows, cols, d):
        return dense_kernel_rref(
            dense_matrix([linalg._dense(row, cols, d) for row in rows], cols, d))

    @pytest.mark.parametrize("kind", ("int", "Fraction", "Scalar"))
    @pytest.mark.parametrize("shape", KERNEL_SHAPES,
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("density", (0.2, 0.6, 1.0))
    def test_matches_dense_rref_of_dense_nullspace(self, kind, shape, density):
        rng = random.Random(f"kernel-{kind}-{shape}-{density}")
        d = 3 if kind == "Scalar" else 1
        for _ in range(3):
            rows, one = self.rows_of(kind, rng, *shape, density)
            before = [dict(row) for row in rows]
            got = linalg._kernel(rows, shape[1], one)
            assert rows == before                       # input not changed
            assert tuple(linalg._dense(v, shape[1], d) for v in got) == \
                self.reference(rows, shape[1], d)
            for v in got:
                assert all(v.values())
                for x in v.values():
                    if d == 1:
                        assert_exact_rational(x)
                    else:
                        assert type(x) is Scalar and x.d == 3
            last = shape[1] - 1
            flipped = [{last - c: x for c, x in row.items()} for row in rows]
            assert linalg._kernel(flipped, shape[1], one, flipped=True) == got

    @pytest.mark.parametrize("kind", ("int", "Fraction", "Scalar"))
    @pytest.mark.parametrize("shape", ((1, 3), (2, 5), (3, 8), (5, 12)),
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("density", (0.6, 1.0))
    def test_matrix_nullspace_is_the_rref_basis(self, kind, shape, density):
        # kernels of dimension >= 2, where bases led by 1 need not be the RREF
        rng = random.Random(f"nullspace-{kind}-{shape}-{density}")
        d = 3 if kind == "Scalar" else 1
        for _ in range(3):
            rows, _ = self.rows_of(kind, rng, *shape, density)
            m = Matrix._of(rows, shape[1], d)
            got = m.nullspace()
            assert len(got) >= 2
            assert got == self.reference(rows, shape[1], d)

    def test_matrix_nullspace_of_one_row(self):
        assert Matrix.from_rows([[1, 1, 1]]).nullspace() == (
            as_vector([1, 0, -1], 1), as_vector([0, 1, -1], 1))

    @pytest.mark.parametrize("one", (1, Scalar.one(3)), ids=("d1", "d3"))
    def test_no_rows_give_the_identity_basis(self, one):
        assert linalg._kernel([], 4, one) == [{j: one} for j in range(4)]
        assert linalg._kernel([{}, {}], 3, one) == [{j: one} for j in range(3)]

    def test_full_column_rank_gives_no_vector(self):
        assert linalg._kernel([{0: 2, 1: 1}, {1: 3}], 2, 1) == []
        assert linalg._kernel([{0: 1, 2: 5}, {1: -1}, {2: 2}, {0: 4}], 3, 1) == []

    def test_no_columns(self):
        assert linalg._kernel([], 0, 1) == []
        assert linalg._kernel([{}], 0, 1) == []

    def test_pivots_are_last_columns_and_ints_stay_ints(self):
        # 2 x0 + x2 = 0 and x1 - x3 = 0 pivot at x2 and x3, so the free
        # x0 and x1 lead, and no division is needed
        got = linalg._kernel([{0: 2, 2: 1}, {1: 1, 3: -1}], 4, 1)
        assert got == [{0: 1, 2: -2}, {1: 1, 3: 1}]
        assert all(type(x) is int for v in got for x in v.values())
        # 2 x0 + 3 x1 = 0 pivots at x1: x1 = -2/3 x0
        assert linalg._kernel([{0: 2, 1: 3}], 2, 1) == [{0: 1, 1: Fraction(-2, 3)}]


class TestFreeVectors:
    """``_free_vectors`` reads a kernel off an RREF without eliminating. A
    ``_kernel`` output is an RREF led by min(v), and the kernel read off it
    is the row space of the rows it was the kernel of."""

    @pytest.mark.parametrize("kind", ("int", "Fraction", "Scalar"))
    @pytest.mark.parametrize("shape", KERNEL_SHAPES,
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_annihilates_a_kernel_and_spans_the_row_space(self, kind, shape):
        rng = random.Random(f"free-{kind}-{shape}")
        cols = shape[1]
        for density in (0.2, 0.6, 1.0):
            rows, one = TestCanonicalKernel.rows_of(kind, rng, *shape, density)
            kernel = linalg._kernel(rows, cols, one)
            free = linalg._free_vectors([min(v) for v in kernel], kernel,
                                        cols, one)
            for a in free:
                for v in kernel:
                    assert not sum(x * v[c] for c, x in a.items() if c in v)
            rank = len(linalg._rref(rows)[0])
            assert len(free) == cols - len(kernel) == rank
            assert len(linalg._rref(rows + free)[0]) == rank

    def test_reads_the_vectors_off_the_rows(self):
        # x0 + 2 x2 = 0 and x1 - x2 = 0 leave x2 and x3 free
        got = linalg._free_vectors((0, 1), [{0: 1, 2: 2}, {1: 1, 2: -1}], 4, 1)
        assert got == [{2: 1, 0: -2, 1: 1}, {3: 1}]
        assert linalg._free_vectors((), [], 2, 1) == [{0: 1}, {1: 1}]


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

    @pytest.mark.parametrize("d", (1, 3))
    def test_a_bad_entry_is_named_by_its_path(self, d):
        for bad, message in [("1/0", "not a rational literal"),
                             (True, "value must be an int"),
                             ([1, 2, 3], "scalar arrays must have exactly two")]:
            with pytest.raises(ParseError, match=r"^m\[1\]\[2\]: " + message):
                matrix_from_json([[0, 1, "1/2"], [2, 0, bad]], 2, 3, d, "m")

    def test_ints_read_straight_into_scalars(self):
        v = vector_from_json([0, 5, -2, 0], 4, 3, "v")
        assert v == as_vector([0, 5, -2, 0], 3)
        assert all(type(x) is Scalar and x.d == 3 for x in v)


# ------------------------------------------------------------------ storage


def lists(m):
    return [list(row) for row in dense_rows(m)]


def list_matmul(a, b, cols, d):
    """a b for a b with ``cols`` columns."""
    return [[sum((x * b[k][c] for k, x in enumerate(row)), Scalar.zero(d))
             for c in range(cols)] for row in a]


def list_det(a, d):
    """Laplace expansion along the first row."""
    if not a:
        return Scalar.one(d)
    total = Scalar.zero(d)
    for c, x in enumerate(a[0]):
        minor = [row[:c] + row[c + 1:] for row in a[1:]]
        term = x * list_det(minor, d)
        total = total + term if c % 2 == 0 else total - term
    return total


def list_str(a):
    if not a:
        return "[]"
    cells = [[str(x) for x in row] for row in a]
    widths = [max(len(row[c]) for row in cells) for c in range(len(a[0]))]
    return "\n".join("[" + "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
                     + "]" for row in cells)


def entries_of(d):
    """Small entries, zero about a third of the time, so sums and products
    cancel often; at d = 3 some have a sqrt(3) part."""
    irr = st.integers(-1, 1) if d != 1 else st.just(0)
    return st.builds(lambda r, i: Scalar(r, i, d), st.integers(-2, 2), irr)


def matrix_lists(d, rows, cols):
    return st.lists(st.lists(entries_of(d), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def stored_zero_free(m):
    return all(x for row in m._rows for x in row.values())


class TestStoredRows:
    """Matrix arithmetic on its stored sparse rows against plain lists."""

    @pytest.mark.parametrize("d", (1, 3))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_matches_lists(self, d, data):
        rows, cols, width = (data.draw(st.integers(0, 4)) for _ in range(3))
        a, b = (data.draw(matrix_lists(d, rows, cols)) for _ in range(2))
        inner = data.draw(matrix_lists(d, cols, width))
        c = data.draw(entries_of(d))
        v = data.draw(st.lists(entries_of(d), min_size=cols, max_size=cols))
        A, B = dense_matrix(a, cols, d), dense_matrix(b, cols, d)
        C = dense_matrix(inner, width, d)
        results = {
            "+": (A + B, [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)]),
            "-": (A - B, [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]),
            "neg": (-A, [[-x for x in p] for p in a]),
            "c*": (c * A, [[c * x for x in p] for p in a]),
            "0*": (0 * A, [[Scalar.zero(d)] * cols for _ in a]),
            "a-a": (A - A, [[Scalar.zero(d)] * cols for _ in a]),
            "@": (A @ C, list_matmul(a, inner, width, d)),
        }
        for op, (got, want) in results.items():
            assert stored_zero_free(got), op
            assert lists(got) == want, op
            assert str(got) == list_str(want), op
            assert matrix_to_json(got) == \
                [[scalar_to_json(x) for x in row] for row in want], op
        assert A.apply(tuple(v)) == \
            tuple(x[0] for x in list_matmul(a, [[y] for y in v], 1, d))
        assert A - A == Matrix.zero(rows, cols, d)
        assert hash(A - A) == hash(Matrix.zero(rows, cols, d))

    @pytest.mark.parametrize("d", (1, 3))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_square_predicates_and_inverse_match_lists(self, d, data):
        n = data.draw(st.integers(0, 4))
        a = data.draw(matrix_lists(d, n, n))
        if data.draw(st.booleans()):   # strictly lower: nilpotent
            a = [[x if k < r else Scalar.zero(d) for k, x in enumerate(p)]
                 for r, p in enumerate(a)]
        A = dense_matrix(a, n, d)
        power = [[Scalar.one(d) if r == k else Scalar.zero(d) for k in range(n)]
                 for r in range(n)]
        for _ in range(n):
            power = list_matmul(power, a, n, d)
        assert A.is_nilpotent() == all(x.is_zero() for p in power for x in p)
        identity = lists(Matrix.identity(n, d))
        if list_det(a, d).is_zero():
            with pytest.raises(ZeroDivisionError):
                A.inverse()
        else:
            inv = A.inverse()
            assert stored_zero_free(inv)
            assert list_matmul(a, lists(inv), n, d) == identity
            assert list_matmul(lists(inv), a, n, d) == identity

    def test_equality_and_hash_ignore_the_context_of_rational_entries(self):
        assert Matrix.zero(2, d=1) == Matrix.zero(2, d=3)
        assert hash(Matrix.zero(2, d=1)) == hash(Matrix.zero(2, d=3))
        a, b = Matrix.from_rows([[1, 0], ["1/2", -3]], 1), \
            Matrix.from_rows([[1, 0], ["1/2", -3]], 3)
        assert a == b and hash(a) == hash(b)
        assert Matrix.from_rows([[Scalar(0, 1, 3)]], 3) != \
            Matrix.from_rows([[Scalar(0, 1, 2)]], 2)

    def test_explicit_zeros_are_not_stored(self):
        z = Scalar.zero(3)
        m = dense_matrix([[z, Scalar(1, 1, 3)], [Scalar(0, 0, 3), z]], 2, 3)
        assert m._rows == ({1: Scalar(1, 1, 3)}, {})
        assert m == Matrix.from_rows([[0, Scalar(1, 1, 3)], [0, 0]], 3)
