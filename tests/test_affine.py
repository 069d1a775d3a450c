import random
from fractions import Fraction

import pytest
from dense_reference import (dense_matrix, dense_rows, flag_triangularizes,
                             unit_vector)

from nilaffine.affine import (AffineRep, HomViolation, _algebra_ref_to_json,
                              check_homomorphism, check_simply_transitive,
                              rep_from_dict, rep_of_files, rep_to_dict,
                              validate_derivations)
from nilaffine.corpus import bundled_rep, bundled_rep_names, bundled_reps
from nilaffine.errors import (DerivationError, FieldMismatchError, ParseError,
                              PreconditionError, ShapeError)
from nilaffine.io import write_json
from nilaffine.liealg import (LieAlgebra, _leibniz, _leibniz_failure,
                              algebra_to_dict, catalog_names, derivation_space,
                              get_algebra, transport)
from nilaffine.linalg import Matrix, _dense, as_vector
from nilaffine.lr import LRStructure, lr_to_dict, rep_to_lr
from nilaffine.scalars import Scalar


def rand_invertible(rng, n, d=1):
    while True:
        m = Matrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
             for _ in range(n)], d)
        if m.rank() == n:
            return m


def with_flipped_entry(rep, which, row, col, value):
    D = list(rep.D)
    rows = [list(r) for r in dense_rows(D[which])]
    rows[row][col] = Scalar.of(value, rep.d)
    D[which] = Matrix.from_rows(rows, rep.d)
    return AffineRep(rep.source, rep.target, list(rep.t), D, label="mutated")


class TestCorpusVerdicts:
    def test_all_bundled_reps_pass(self):
        for slug, rep in bundled_reps().items():
            verdict = check_simply_transitive(rep)
            assert verdict.overall, slug
            assert verdict.homomorphism.ok
            assert verdict.t_bijective.rank == rep.target.dim

    def test_sqrt3_example_is_exact(self):
        rep = bundled_rep("h3R2_to_g5_6")
        assert rep.d == 3
        assert rep.t[2][2] == Scalar(0, Fraction(1, 3), 3)
        assert check_simply_transitive(rep).overall

    def test_trivial_reps(self):
        # X -> (X, 0) is simply transitive on every nilpotent L
        for name in catalog_names():
            L = get_algebra(name)
            trivial = AffineRep(L, L, [unit_vector(L, i) for i in range(L.dim)],
                                [Matrix.zero(L.dim, L.dim, L.d)] * L.dim)
            assert check_simply_transitive(trivial).overall


class TestHomomorphism:
    def test_sign_flip_breaks_pair_one_two(self):
        rep = bundled_rep("r3_to_h3")
        bad = with_flipped_entry(rep, 1, 2, 0, Fraction(-1, 2))
        report = check_homomorphism(bad)
        assert not report.ok
        v = report.violations[0]
        assert v.pair == (1, 2)
        assert v.vector_residual == as_vector([0, 0, -1], 1)
        assert v.matrix_residual.is_zero()

    def test_matrix_part_violation_reported(self):
        # target needs a nonzero D_of at some bracket: use h3 -> R3 and
        # corrupt D_3, so [D_1, D_2] = 0 no longer matches it
        rep = bundled_rep("h3_to_r3")
        bad = with_flipped_entry(rep, 2, 0, 1, 1)
        report = check_homomorphism(bad)
        assert not report.ok
        v = report.violations[0]
        assert v.pair == (1, 2)
        assert not v.matrix_residual.is_zero()

    def test_source_jacobi_precondition(self):
        from nilaffine.liealg import LieAlgebra
        broken = LieAlgebra.from_table(
            "notlie", 3, {(1, 2): ((3, 1),), (1, 3): ((1, 1),)})
        assert not broken.check_jacobi().ok
        target = get_algebra("R3")
        rep = AffineRep(broken, target,
                        [unit_vector(target, i) for i in range(3)],
                        [Matrix.zero(3, 3)] * 3)
        with pytest.raises(PreconditionError):
            check_homomorphism(rep)

    def test_linearity_of_assignment_on_brackets(self):
        rng = random.Random(31)
        rep = bundled_rep("h3R_to_f4")
        L, t_of = rep.source, rep.t_matrix().apply
        for _ in range(20):
            x = tuple(Scalar.of(Fraction(rng.randint(-4, 4)), 1)
                      for _ in range(L.dim))
            y = tuple(Scalar.of(Fraction(rng.randint(-4, 4)), 1)
                      for _ in range(L.dim))
            dx, dy = rep.D_of(x), rep.D_of(y)
            assert rep.D_of(L.bracket(x, y)) == dx @ dy - dy @ dx
            assert t_of(L.bracket(x, y)) == tuple(
                a + b for a, b in
                zip(rep.target.bracket(t_of(x), t_of(y)),
                    tuple(p - q for p, q in
                          zip(rep.D_of(x).apply(t_of(y)),
                              rep.D_of(y).apply(t_of(x))))))


def dense_hom_violations(rep):
    """rep([X_i, X_j]) - [(t_i, D_i), (t_j, D_j)] on every source pair i < j,
    with rep taken by linearity and the semidirect bracket
    ([t_i, t_j] + D_i t_j - D_j t_i, D_i D_j - D_j D_i) written out entry
    by entry over every index."""
    S, T = rep.source, rep.target
    n = T.dim
    zero = Scalar.zero(rep.d)
    t = rep.t
    D = [[[M.get(r, c) for c in range(n)] for r in range(n)] for M in rep.D]

    def total(terms):
        acc = zero
        for x in terms:
            acc = acc + x
        return acc

    def apply(A, v):
        return [total(A[r][k] * v[k] for k in range(n)) for r in range(n)]

    def matmul(A, B):
        return [[total(A[r][k] * B[k][c] for k in range(n)) for c in range(n)]
                for r in range(n)]

    found = []
    for i in range(S.dim):
        for j in range(i + 1, S.dim):
            b = S.bracket_basis(i, j)
            lhs_vec = [total(b[k] * t[k][a] for k in range(S.dim))
                       for a in range(n)]
            lhs_mat = [[total(b[k] * D[k][r][c] for k in range(S.dim))
                        for c in range(n)] for r in range(n)]
            rhs_vec = [total(t[i][p] * t[j][q] * T.bracket_basis(p, q)[a]
                             for p in range(n) for q in range(n))
                       for a in range(n)]
            di_tj, dj_ti = apply(D[i], t[j]), apply(D[j], t[i])
            rhs_vec = [rhs_vec[a] + di_tj[a] - dj_ti[a] for a in range(n)]
            ij, ji = matmul(D[i], D[j]), matmul(D[j], D[i])
            dv = tuple(lhs_vec[a] - rhs_vec[a] for a in range(n))
            dm = dense_matrix([[lhs_mat[r][c] - (ij[r][c] - ji[r][c])
                                for c in range(n)] for r in range(n)], n, rep.d)
            if not (all(x.is_zero() for x in dv) and dm.is_zero()):
                found.append(HomViolation((i + 1, j + 1), dv, dm))
    return found


def perturbed_rep(rep, rng, count):
    """rep with ``count`` seeded shifts, each of one translation vector by a
    random vector or of one D_i by a random multiple of a derivation, so
    every D_i stays a derivation."""
    d, n = rep.d, rep.target.dim
    basis = derivation_space(rep.target).basis
    t, D = list(rep.t), list(rep.D)

    def rand_scalar():
        irr = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if d != 1 else 0
        return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), irr, d)
    for _ in range(count):
        i = rng.randrange(len(t))
        if rng.random() < 0.5:
            t[i] = tuple(a + rand_scalar() for a in t[i])
        else:
            D[i] = D[i] + rand_scalar() * rng.choice(basis)
    return AffineRep(rep.source, rep.target, t, D, label="perturbed")


def dense_leibniz(L, M):
    """D[X_i, X_j] - [D X_i, X_j] - [X_i, D X_j] on every basis pair i < j,
    entry by entry over every index, with c = bracket_basis."""
    n = L.dim
    c = [[L.bracket_basis(a, b) for b in range(n)] for a in range(n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            res = []
            for k in range(n):
                acc = Scalar.zero(L.d)
                for m in range(n):
                    acc = acc + M.get(k, m) * c[i][j][m] \
                        - M.get(m, i) * c[m][j][k] - M.get(m, j) * c[i][m][k]
                res.append(acc)
            out[(i, j)] = tuple(res)
    return out


def with_raw_shifts(rep, rng, count):
    """rep with ``count`` seeded shifts of single D_i entries, which in
    general break the Leibniz rule on a non-abelian target."""
    D = list(rep.D)
    n = rep.target.dim
    for _ in range(count):
        i, r, c = rng.randrange(len(D)), rng.randrange(n), rng.randrange(n)
        rows = [list(row) for row in dense_rows(D[i])]
        rows[r][c] = rows[r][c] + rng.choice((-2, -1, 1, 3))
        D[i] = Matrix.from_rows(rows, rep.d)
    return AffineRep(rep.source, rep.target, list(rep.t), D, label="shifted")


class TestSparseHomomorphismCheck:
    @pytest.mark.parametrize("count", (0, 1, 2))
    def test_violations_match_dense_reference(self, count):
        rng = random.Random(40 + count)
        broken = set()
        for slug in bundled_rep_names():
            for _ in range(2):
                rep = perturbed_rep(bundled_rep(slug), rng, count)
                report = check_homomorphism(rep)
                expected = dense_hom_violations(rep)
                assert list(report.violations) == expected, slug
                assert report.ok == (not expected)
                if count == 0:
                    assert report.ok
                if self.check_leibniz(with_raw_shifts(rep, rng, count + 1)):
                    broken.add(slug)
        # the shifts break derivations of non-abelian targets, h3R_to_f4's
        # non-abelian source among them
        assert len(broken) >= 4 and "h3R_to_f4" in broken

    @staticmethod
    def check_leibniz(rep):
        """The Leibniz residuals, the first pair that breaks Leibniz and the
        first DerivationError (index and pair) against dense_leibniz on
        every D_i."""
        first = None
        T = rep.target
        for i, M in enumerate(rep.D):
            residuals = dense_leibniz(T, M)
            bad = [pair for pair, r in residuals.items()
                   if not all(x.is_zero() for x in r)]
            assert _leibniz_failure(T, M) == (bad[0] if bad else None)
            cols = M._sparse_cols()
            for (a, b), r in residuals.items():
                assert _dense(_leibniz(T, cols, a, b), T.dim, T.d) == r
            if bad and first is None:
                first = (i + 1, (bad[0][0] + 1, bad[0][1] + 1))
        if first is None:
            validate_derivations(rep)
            return False
        with pytest.raises(DerivationError) as exc:
            validate_derivations(rep)
        assert (exc.value.index, exc.value.pair) == first
        return True


class TestBijectivity:
    def test_zero_translations_rank_zero(self):
        L = get_algebra("R3")
        rep = AffineRep(L, L, [(0, 0, 0)] * 3, [Matrix.zero(3, 3)] * 3)
        verdict = check_simply_transitive(rep)
        assert not verdict.t_bijective.ok
        assert verdict.t_bijective.rank == 0
        assert not verdict.overall

    def test_dimension_mismatch_reason(self):
        src = get_algebra("R2")
        tgt = get_algebra("h3")
        rep = AffineRep(src, tgt, [unit_vector(tgt, 0), unit_vector(tgt, 1)],
                        [Matrix.zero(3, 3)] * 2)
        report = check_simply_transitive(rep).t_bijective
        assert not report.ok
        assert report.source_dim == 2 and report.target_dim == 3
        assert "dimension" in report.reason


class TestNilpotencyPart:
    def test_non_nilpotent_part_fails_with_witness(self):
        L = get_algebra("R2")
        D = [Matrix.identity(2), Matrix.zero(2, 2)]
        rep = AffineRep(L, L, [unit_vector(L, 0), unit_vector(L, 1)], D)
        verdict = check_simply_transitive(rep)
        nil = verdict.linear_parts_nilpotent
        assert not nil.ok and not verdict.overall
        assert nil.witness is not None
        assert not nil.witness.matrix.is_nilpotent()

    def test_sampled_witness_when_each_part_is_nilpotent(self):
        # E_12 and E_21 are each nilpotent, so no basis matrix is a witness;
        # their span is not (E_12 + E_21 squares to I), and a seeded
        # combination is
        L = get_algebra("R2")
        e12 = Matrix.from_rows([[0, 1], [0, 0]])
        e21 = Matrix.from_rows([[0, 0], [1, 0]])
        rep = AffineRep(L, L, [unit_vector(L, 0), unit_vector(L, 1)],
                        [e12, e21])
        witnesses = [check_simply_transitive(rep).linear_parts_nilpotent.witness
                     for _ in range(2)]
        witness = witnesses[0]
        assert witness is not None
        assert witness.matrix == rep.D_of(witness.coefficients)
        assert not witness.matrix.is_nilpotent()
        assert all(c for c in witness.coefficients)
        assert witnesses[1] == witness

    def test_flag_conjugates_family_lower_triangular(self):
        rep = bundled_rep("r4_to_f4")
        nil = check_simply_transitive(rep).linear_parts_nilpotent
        assert nil.ok
        for m in rep.D:
            assert flag_triangularizes(nil.flag, m)


class TestValidation:
    def test_derivation_error_names_offender(self):
        h = get_algebra("h3")
        D = [Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
             Matrix.zero(3, 3), Matrix.zero(3, 3)]
        rep = AffineRep(get_algebra("R3"), h,
                        [unit_vector(h, i) for i in range(3)], D)
        with pytest.raises(DerivationError) as exc:
            validate_derivations(rep)
        assert exc.value.index == 1
        assert exc.value.pair == (1, 2)
        assert "D_1" in str(exc.value)

    def test_shape_errors_at_construction(self):
        L = get_algebra("R2")
        with pytest.raises(ShapeError):
            AffineRep(L, L, [unit_vector(L, 0)], [Matrix.zero(2, 2)] * 2)
        with pytest.raises(ShapeError):
            AffineRep(L, L, [unit_vector(L, 0), unit_vector(L, 1)],
                      [Matrix.zero(3, 3)] * 2)

    def test_field_mismatch_at_construction(self):
        L2 = get_algebra("R2").with_field(2)
        L3 = get_algebra("R2").with_field(3)
        with pytest.raises(FieldMismatchError):
            AffineRep(L2, L3, [unit_vector(L3, 0), unit_vector(L3, 1)],
                      [Matrix.zero(2, 2, 3)] * 2)


class TestInvariance:
    def test_source_base_change(self):
        rng = random.Random(41)
        for slug in ("r3_to_h3", "h3R_to_f4", "f4_to_h3R"):
            rep = bundled_rep(slug)
            L = rep.source
            p = rand_invertible(rng, L.dim)
            moved = AffineRep(
                transport(L, p), rep.target,
                [rep.t_matrix().apply(p.column(i)) for i in range(L.dim)],
                [rep.D_of(p.column(i)) for i in range(L.dim)])
            assert check_simply_transitive(moved).overall, slug

    def test_target_automorphism(self):
        # conjugating everything by exp(N), N a nilpotent derivation of
        # the target, gives another passing rep
        rep = bundled_rep("r3_to_h3")
        tgt = rep.target
        N = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        assert _leibniz_failure(tgt, N) is None
        phi = Matrix.identity(3) + N
        phi_inv = phi.inverse()
        moved = AffineRep(
            rep.source, tgt,
            [phi.apply(t) for t in rep.t],
            [phi @ m @ phi_inv for m in rep.D])
        assert check_simply_transitive(moved).overall


class TestRepJson:
    def test_round_trip_all_bundled(self):
        for slug in bundled_rep_names():
            rep = bundled_rep(slug)
            doc = rep_to_dict(rep)
            assert rep_from_dict(doc) == rep

    def test_catalog_algebras_serialize_by_name(self):
        doc = rep_to_dict(bundled_rep("r3_to_h3"))
        assert doc["source"] == "R3" and doc["target"] == "h3"
        assert "d" not in doc

    def test_field_context_spelled_out_when_irrational(self):
        doc = rep_to_dict(bundled_rep("h3R2_to_g5_6"))
        assert doc["d"] == 3

    def test_rendering_over_sqrt3_builds_no_algebra(self, monkeypatch):
        # a catalog algebra in Q(sqrt 3) is named by comparing its constants
        # with the entry's in place, not with a copy of the entry
        rep = bundled_rep("h3R2_to_g5_6")
        s = rep_to_lr(bundled_rep("r4_to_f4"))
        lifted = LRStructure._of(s.algebra.with_field(3),
                                 [m.with_field(3) for m in s.lefts])
        target = rep.target
        scaled = LieAlgebra(target.name, target.dim, {   # g5_6 times sqrt(3)
            pair: [(k, c * Scalar(0, 1, 3)) for k, c in terms]
            for pair, terms in target._upper().items()}, 3)
        built = []
        init = LieAlgebra.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(LieAlgebra, "__init__", counting_init)
        doc, lr_doc = rep_to_dict(rep), lr_to_dict(lifted)
        inline = _algebra_ref_to_json(scaled)
        assert built == []
        assert (doc["source"], doc["target"], lr_doc["algebra"]) == \
            ("h3+R2", "g5_6", "f4")
        assert inline == algebra_to_dict(scaled) and inline["d"] == 3

    def test_sqrt_scalar_in_rational_context_rejected(self):
        doc = rep_to_dict(bundled_rep("r3_to_h3"))
        doc["t"][0][0] = ["0", "1"]
        with pytest.raises(ParseError):
            rep_from_dict(doc)

    def test_unknown_keys_rejected(self):
        doc = rep_to_dict(bundled_rep("r3_to_h3"))
        doc["extra"] = 1
        with pytest.raises(ParseError):
            rep_from_dict(doc)

    def test_label_not_part_of_equality(self):
        a = bundled_rep("r4_to_f4")
        b = AffineRep(a.source, a.target, list(a.t), list(a.D), label="x")
        assert a == b

    def test_lenient_load_defers_derivation_check(self):
        # rep_from_dict accepts a non-derivation D; the checker reports it
        h = get_algebra("h3")
        doc = {
            "source": "R3", "target": "h3",
            "t": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "D": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                  [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                  [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
        }
        rep = rep_from_dict(doc)
        with pytest.raises(DerivationError):
            check_simply_transitive(rep)


class TestRepOfFiles:
    def test_round_trip(self, tmp_path):
        rep = bundled_rep("h3R_to_f4")
        sp = tmp_path / "src.json"
        tp = tmp_path / "tgt.json"
        rp = tmp_path / "rep.json"
        write_json(sp, algebra_to_dict(rep.source))
        write_json(tp, algebra_to_dict(rep.target))
        doc = rep_to_dict(rep)
        del doc["source"], doc["target"]
        write_json(rp, doc)
        assert rep_of_files(sp, tp, rp) == rep

    def test_conflicting_inline_algebra_rejected(self, tmp_path):
        rep = bundled_rep("r3_to_h3")
        sp = tmp_path / "src.json"
        tp = tmp_path / "tgt.json"
        rp = tmp_path / "rep.json"
        write_json(sp, algebra_to_dict(get_algebra("h3")))  # wrong on purpose
        write_json(tp, algebra_to_dict(rep.target))
        write_json(rp, rep_to_dict(rep))
        with pytest.raises(ParseError):
            rep_of_files(sp, tp, rp)

    def test_derivation_violation_raises_here(self, tmp_path):
        sp = tmp_path / "src.json"
        tp = tmp_path / "tgt.json"
        rp = tmp_path / "rep.json"
        write_json(sp, algebra_to_dict(get_algebra("R3")))
        write_json(tp, algebra_to_dict(get_algebra("h3")))
        write_json(rp, {
            "t": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "D": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                  [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                  [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
        })
        with pytest.raises(DerivationError):
            check_simply_transitive(rep_of_files(sp, tp, rp))
