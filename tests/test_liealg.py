import random
from fractions import Fraction

import pytest
from dense_reference import (dense_derivation_space, dense_nullspace,
                             dense_row_space_basis, dense_rows,
                             dense_unit_change, unit_vector, vec_add,
                             vec_is_zero)
from record_cli_golden import SQRT3_ALGEBRA

from nilaffine import liealg, linalg
from nilaffine.errors import ParseError, ShapeError
from nilaffine.liealg import (MAX_DIM, JacobiViolation, LieAlgebra, _leibniz,
                              _leibniz_failure, _semidirect_into,
                              _sparse_element, abelian, algebra_from_dict,
                              algebra_to_dict, catalog_names,
                              derivation_space, get_algebra, resolve_name,
                              transport)
from nilaffine.linalg import Matrix, _dense, as_vector
from nilaffine.scalars import Scalar

CATALOG_DER_DIMS = {
    "R1": 1, "R2": 4, "R3": 9, "R4": 16, "R5": 25, "R6": 36,
    "h3": 6, "h3+R": 10, "f4": 7, "h3+R2": 16, "g5_6": 8, "g6_18": 9,
}


def rand_vec(rng, L):
    return tuple(Scalar.of(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), L.d)
                 for _ in range(L.dim))


def rand_invertible(rng, n, d=1):
    while True:
        m = Matrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
             for _ in range(n)], d)
        if m.rank() == n:
            return m


class TestBrackets:
    def test_h3_bracket(self):
        h = get_algebra("h3")
        assert h.bracket_basis(0, 1) == as_vector([0, 0, 1], 1)
        assert h.bracket_basis(1, 0) == as_vector([0, 0, -1], 1)

    def test_g6_18_signs(self):
        g = get_algebra("g6_18")
        assert g.bracket_basis(2, 3) == as_vector([0, 0, 0, 0, 0, -1], 1)
        assert g.bracket_basis(3, 2) == as_vector([0, 0, 0, 0, 0, 1], 1)

    def test_bracket_of_vector_with_itself_vanishes(self):
        rng = random.Random(1)
        for name in ("h3", "f4", "g6_18"):
            L = get_algebra(name)
            for _ in range(20):
                x = rand_vec(rng, L)
                assert vec_is_zero(L.bracket(x, x))

    def test_bilinearity_and_antisymmetry(self):
        rng = random.Random(2)
        L = get_algebra("g5_6")
        for _ in range(50):
            x, y, z = (rand_vec(rng, L) for _ in range(3))
            c = Scalar.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), 1)
            lhs = L.bracket(vec_add(x, tuple(c * yi for yi in y)), z)
            rhs = vec_add(L.bracket(x, z),
                          tuple(c * b for b in L.bracket(y, z)))
            assert lhs == rhs
            assert L.bracket(x, y) == tuple(-b for b in L.bracket(y, x))

    def test_diagonal_table_entries_rejected(self):
        with pytest.raises(ShapeError):
            LieAlgebra("bad", 2, {(0, 0): ((1, Scalar.one(1)),)})


def rand_scalar(rng, d, density=1.0):
    """A seeded random scalar, zero with probability 1 - density."""
    if rng.random() >= density:
        return Scalar.zero(d)
    irr = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if d != 1 else 0
    return Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), irr, d)


def rand_table_algebra(rng, n, d, density):
    """Random structure constants; the bracket is bilinear without Jacobi."""
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = [(k, rand_scalar(rng, d)) for k in range(n)
                     if rng.random() < density]
            if terms:
                table[(i, j)] = terms
    return LieAlgebra("random", n, table, d)


def dense_bracket(L, x, y):
    """sum over every table entry (i, j) of (x_i y_j - x_j y_i) [X_i, X_j]."""
    out = [Scalar.zero(L.d)] * L.dim
    for (i, j), terms in L._upper().items():
        coeff = x[i] * y[j] - x[j] * y[i]
        for k, c in terms:
            out[k] = out[k] + coeff * c
    return tuple(out)


def dense_jacobi(L):
    """Cyclic sums on every basis triple i < j < k, entry by entry from the
    constants c[a][b] = dense_bracket(X_a, X_b):
    sum over m of c_ij^m c_mk + c_jk^m c_mi + c_ki^m c_mj."""
    n, zero = L.dim, Scalar.zero(L.d)
    e = [unit_vector(L, i) for i in range(n)]
    c = [[dense_bracket(L, e[a], e[b]) for b in range(n)] for a in range(n)]
    found = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res = [zero] * n
                for a, b, t in ((i, j, k), (j, k, i), (k, i, j)):
                    for m in range(n):
                        for l in range(n):
                            res[l] = res[l] + c[a][b][m] * c[m][t][l]
                if not vec_is_zero(res):
                    found.append(JacobiViolation((i + 1, j + 1, k + 1),
                                                 tuple(res)))
    return found


def assert_jacobi_matches_dense(L):
    report = L.check_jacobi()
    assert list(report.violations) == dense_jacobi(L)
    assert report.ok == (not report.violations)
    assert all(c.d == L.d for v in report.violations for c in v.residual)


class TestSparseBracket:
    @pytest.mark.parametrize("d", (1, 3))
    @pytest.mark.parametrize("n", (1, 2, 4, 7))
    @pytest.mark.parametrize("density", (0.0, 0.3, 1.0))
    def test_random_tables_match_dense(self, d, n, density):
        rng = random.Random(100 * d + 10 * n + int(10 * density))
        for _ in range(6):
            L = rand_table_algebra(rng, n, d, density)
            x = tuple(rand_scalar(rng, d, density) for _ in range(n))
            y = tuple(rand_scalar(rng, d, 1 - density / 2) for _ in range(n))
            got = L.bracket(x, y)
            assert got == dense_bracket(L, x, y)
            assert all(isinstance(c, Scalar) and c.d == d for c in got)
            assert_jacobi_matches_dense(L)

    @pytest.mark.parametrize("d", (1, 3))
    def test_catalog_matches_dense(self, d):
        rng = random.Random(d)
        for name in catalog_names():
            L = get_algebra(name).with_field(d)
            basis = [unit_vector(L, i) for i in range(L.dim)]
            for x in basis + [rand_vec(rng, L) for _ in range(3)]:
                for y in basis + [rand_vec(rng, L)]:
                    assert L.bracket(x, y) == dense_bracket(L, x, y)
            assert_jacobi_matches_dense(L)
            assert_jacobi_matches_dense(transport(L, rand_invertible(rng, L.dim, d)))


class TestJacobi:
    def test_catalog_all_valid(self):
        for name in catalog_names():
            L = get_algebra(name)
            report = L.check_jacobi()
            assert report.ok, name
            assert L.is_nilpotent(), name

    def test_jacobi_of_random_vectors(self):
        rng = random.Random(3)
        for name in ("h3", "f4", "g5_6", "g6_18"):
            L = get_algebra(name)
            for _ in range(10):
                x, y, z = (rand_vec(rng, L) for _ in range(3))
                total = vec_add(vec_add(L.bracket(L.bracket(x, y), z),
                                        L.bracket(L.bracket(y, z), x)),
                                L.bracket(L.bracket(z, x), y))
                assert vec_is_zero(total)

    def test_mutation_sweep_of_g6_18(self):
        # bump each structure constant by one; four of the five break the
        # cyclic identity at (1, 2, 4), the [X1,X3] constant survives
        # because X4 only feeds brackets that are zero anyway
        expectations = {
            (1, 2, 3): as_vector([0, 0, 0, 0, 0, -1], 1),
            (1, 3, 4): None,
            (1, 4, 5): as_vector([0, 0, 0, 0, 0, 1], 1),
            (2, 5, 6): as_vector([0, 0, 0, 0, 0, 1], 1),
            (3, 4, 6): as_vector([0, 0, 0, 0, 0, 1], 1),
        }
        base = {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1},
                (2, 5): {6: 1}, (3, 4): {6: -1}}
        for (i, j, k), residual in expectations.items():
            table = {pair: dict(terms) for pair, terms in base.items()}
            table[(i, j)][k] += 1
            mutated = LieAlgebra.from_table(
                "mutant", 6,
                {pair: tuple(terms.items()) for pair, terms in table.items()})
            report = mutated.check_jacobi()
            if residual is None:
                assert report.ok
            else:
                assert not report.ok
                first = report.violations[0]
                assert first.triple == (1, 2, 4)
                assert first.residual == residual

    def test_sign_flip_detected(self):
        table = {(1, 2): ((3, -1),), (1, 3): ((4, 1),), (1, 4): ((5, 1),),
                 (2, 5): ((6, 1),), (3, 4): ((6, -1),)}
        flipped = LieAlgebra.from_table("flipped", 6, table)
        report = flipped.check_jacobi()
        assert not report.ok
        assert report.violations[0].triple == (1, 2, 4)
        assert report.violations[0].residual == as_vector([0, 0, 0, 0, 0, 2], 1)


class TestSeries:
    def test_h3(self):
        h = get_algebra("h3")
        assert [len(b) for b in h.lower_central_series()] == [3, 1, 0]
        assert h.is_nilpotent() and not h.is_abelian()
        assert h.is_two_step_solvable()

    def test_f4(self):
        f = get_algebra("f4")
        assert [len(b) for b in f.lower_central_series()] == [4, 2, 1, 0]
        assert [len(b) for b in f.derived_series()] == [4, 2, 0]

    def test_g6_18_not_metabelian(self):
        g = get_algebra("g6_18")
        assert [len(b) for b in g.derived_series()] == [6, 4, 1, 0]
        assert not g.is_two_step_solvable()
        assert g.is_nilpotent()

    def test_g5_6_metabelian(self):
        assert get_algebra("g5_6").is_two_step_solvable()

    def test_abelian_catalog(self):
        for n in range(1, 7):
            L = get_algebra(f"R{n}")
            assert L.is_abelian()
            assert [len(b) for b in L.lower_central_series()] == [n, 0]

    def test_centers(self):
        assert len(get_algebra("h3").center()) == 1
        assert len(get_algebra("h3+R").center()) == 2
        assert len(get_algebra("g5_6").center()) == 1
        assert len(get_algebra("g6_18").center()) == 1


def dense_bracket(L, x, y):
    """[x, y] from the dense [X_i, X_j], in Scalar arithmetic."""
    out = (Scalar.zero(L.d),) * L.dim
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if not (a.is_zero() or b.is_zero()):
                out = vec_add(out, tuple(a * b * c for c in L.bracket_basis(i, j)))
    return out


def dense_series(L, derived):
    full = tuple(unit_vector(L, i) for i in range(L.dim))
    current, series = full, [full]
    while current:
        left = current if derived else full
        nxt = dense_row_space_basis([dense_bracket(L, a, b) for a in left
                                     for b in current], L.d, L.dim)
        if len(nxt) == len(current):
            break
        series.append(nxt)
        current = nxt
    return tuple(series)


def dense_center(L):
    """RREF basis of the solutions of sum_i x_i [X_i, X_j] = 0 for all j."""
    n = L.dim
    rows = [[L.bracket_basis(i, j)[k] for i in range(n)]
            for j in range(n) for k in range(n)]
    return dense_row_space_basis(dense_nullspace(Matrix.from_rows(rows, L.d)),
                                 L.d, n)


def dense_transport_of_g6_18():
    """g6_18 in the basis of the columns of P = lower * upper unitriangular,
    both seeded, so every entry of P may be nonzero."""
    rng = random.Random(5)

    def unitriangular(lower):
        return Matrix.from_rows([[1 if r == c else rng.randint(-2, 2)
                                  if (r > c) == lower else 0 for c in range(6)]
                                 for r in range(6)])
    p = unitriangular(True) @ unitriangular(False)
    return transport(get_algebra("g6_18"), p, "g6_18 dense")


PINNED = [get_algebra(name) for name in catalog_names()] + [
    algebra_from_dict(SQRT3_ALGEBRA), dense_transport_of_g6_18()]


@pytest.mark.parametrize("L", PINNED, ids=[L.name for L in PINNED])
def test_series_and_center_are_the_dense_rref_bases(L):
    assert L.derived_series() == dense_series(L, True)
    assert L.lower_central_series() == dense_series(L, False)
    assert L.center() == dense_center(L)
    for basis in (*L.derived_series(), *L.lower_central_series(), L.center()):
        assert all(type(x) is Scalar and x.d == L.d for v in basis for x in v)


class TestDerivations:
    def test_catalog_dimensions(self):
        for name, expected in CATALOG_DER_DIMS.items():
            space = derivation_space(get_algebra(name))
            assert space.dimension == expected, name

    def test_basis_members_satisfy_leibniz(self):
        for name in catalog_names():
            L = get_algebra(name)
            for E in derivation_space(L).basis:
                assert _leibniz_failure(L, E) is None
                cols = E._sparse_cols()
                for i in range(L.dim):
                    for j in range(i + 1, L.dim):
                        assert not _leibniz(L, cols, i, j)

    def test_g6_18_anchor_pattern(self):
        space = derivation_space(get_algebra("g6_18"))
        assert space.anchors == ((0, 0), (1, 1), (2, 0), (2, 1), (3, 0),
                                 (4, 0), (4, 1), (5, 0), (5, 1))

    def test_non_derivation_rejected(self):
        h = get_algebra("h3")
        # D[X1, X2] - [D X1, X2] - [X1, D X2] = X3 - 2 X3 for D = 1
        assert _leibniz_failure(h, Matrix.identity(3)) == (0, 1)

    def test_derivation_dim_invariant_under_transport(self):
        rng = random.Random(8)
        for name in ("h3", "f4"):
            L = get_algebra(name)
            p = rand_invertible(rng, L.dim)
            moved = transport(L, p)
            assert derivation_space(moved).dimension == \
                derivation_space(L).dimension


def filiform(n):
    """L_n: [X_1, X_i] = X_{i+1} for 2 <= i < n."""
    return LieAlgebra.from_table(f"L{n}", n,
                                 {(1, i): [(i + 1, 1)] for i in range(2, n)})


def heisenberg(k):
    """h_{2k+1}: [X_i, X_{k+i}] = X_{2k+1} for 1 <= i <= k."""
    n = 2 * k + 1
    return LieAlgebra.from_table(f"h{n}", n,
                                 {(i, k + i): [(n, 1)] for i in range(1, k + 1)})


def filiform_r(n):
    """R_n: L_n plus [X_2, X_j] = X_{j+2} for 3 <= j <= n - 2."""
    table = {(1, i): [(i + 1, 1)] for i in range(2, n)}
    table.update({(2, j): [(j + 2, 1)] for j in range(3, n - 1)})
    return LieAlgebra.from_table(f"R{n}", n, table)


# the algebras in seeded dense bases, where every constant may be nonzero
DENSE_TRANSPORTS = [transport(L, dense_unit_change(L.dim, seed),
                              name=f"{L.name}@{seed}")
                    for L in (get_algebra("h3"), get_algebra("f4"),
                              get_algebra("g5_6"), filiform(5))
                    for seed in (5, 6)]

SPARSE_DERIVATION_CASES = DENSE_TRANSPORTS + (
    [get_algebra(name) for name in catalog_names()]
    + [LieAlgebra(f"{name} d=3", get_algebra(name).dim,
                  get_algebra(name)._upper(), 3) for name in catalog_names()]
    + [filiform(n) for n in range(5, 9)] + [heisenberg(3), filiform_r(7)]
    + [transport(get_algebra("g6_18"), rand_invertible(random.Random(61), 6),
                 name="g6_18~"), abelian(0), abelian(1)])


@pytest.mark.parametrize("L", SPARSE_DERIVATION_CASES, ids=lambda L: L.name)
def test_derivation_space_matches_dense_reference(L):
    got, want = derivation_space(L), dense_derivation_space(L)
    assert got.anchors == want.anchors
    assert got.basis == want.basis
    assert all(x.d == L.d for m in got.basis
               for row in dense_rows(m) for x in row)


@pytest.mark.parametrize("L", DENSE_TRANSPORTS, ids=lambda L: L.name)
def test_center_after_a_dense_transport_is_the_dense_rref_basis(L):
    assert L.center() == dense_center(L)


class TestEachFactOnce:
    """Each canonical kernel is one elimination: no nullspace is reduced
    again to reach its RREF."""

    @pytest.fixture
    def rref_calls(self, monkeypatch):
        counted = []
        real = linalg._rref

        def counting(rows):
            counted.append(rows)
            return real(rows)
        monkeypatch.setattr(linalg, "_rref", counting)
        monkeypatch.setattr(liealg, "_rref", counting)
        return counted

    @pytest.mark.parametrize("L", [get_algebra("g6_18"), filiform(5)]
                             + DENSE_TRANSPORTS[:2], ids=lambda L: L.name)
    def test_derivation_space_eliminates_once(self, rref_calls, L):
        space = derivation_space(L)
        assert len(rref_calls) == 1
        assert space == dense_derivation_space(L)

    @pytest.mark.parametrize("name", ("h3+R", "g6_18"))
    def test_center_eliminates_once(self, rref_calls, name):
        L = get_algebra(name)
        L.center()
        assert len(rref_calls) == 1


def diagonal(entries):
    n = len(entries)
    return Matrix.from_rows([[entries[r] if r == c else 0 for c in range(n)]
                             for r in range(n)], 1)


# diagonal entries for non-integral transports; cycled from a seeded offset
DIAGONAL_ENTRIES = (Fraction(1, 2), 3, Fraction(-2, 3), -1, 2, Fraction(5, 7))


def non_integral_transport(L, seed):
    """L in the basis Y_i = s_i X_i, s cycling DIAGONAL_ENTRIES from a seeded
    offset; some structure constant is then not an integer."""
    offset = random.Random(seed).randrange(len(DIAGONAL_ENTRIES))
    entries = [DIAGONAL_ENTRIES[(offset + k) % len(DIAGONAL_ENTRIES)]
               for k in range(L.dim)]
    return transport(L, diagonal(entries), name=f"{L.name}~q{seed}")


RATIONAL_PATH_CASES = (
    [get_algebra(name) for name in catalog_names()]
    + [filiform(n) for n in range(5, 9)] + [heisenberg(3), filiform_r(7)]
    + [non_integral_transport(L, seed)
       for L in (get_algebra("g6_18"), get_algebra("g5_6"), filiform(5),
                 filiform(7), heisenberg(3), filiform_r(7))
       for seed in (0, 1)])


class TestRationalPath:
    """derivation_space eliminates over int-or-Fraction at d = 1 and over
    Scalars elsewhere; both must give the same canonical basis."""

    @pytest.mark.parametrize("L", RATIONAL_PATH_CASES, ids=lambda L: L.name)
    def test_matches_the_scalar_path(self, L):
        rational, scalar = derivation_space(L), derivation_space(L.with_field(3))
        assert all(x.d == 3 for m in scalar.basis
                   for row in dense_rows(m) for x in row)
        assert rational.anchors == scalar.anchors
        assert rational.basis == tuple(m.with_field(1) for m in scalar.basis)
        for x in [x for m in rational.basis for row in dense_rows(m) for x in row]:
            assert x.d == 1
            assert type(x.rat) is Fraction and type(x.irr) is Fraction

    def test_transports_reach_the_fraction_branch(self):
        for L in RATIONAL_PATH_CASES:
            if "~q" in L.name:
                assert any(Fraction(c).denominator != 1
                           for terms in L._upper().values() for _, c in terms)
        # and the reduced rows themselves hold a proper fraction somewhere
        assert any(x.rat.denominator != 1
                   for L in RATIONAL_PATH_CASES
                   for m in derivation_space(L).basis
                   for row in dense_rows(m) for x in row)


class TestTransport:
    def test_identity_is_noop(self):
        f = get_algebra("f4")
        assert transport(f, Matrix.identity(4)) == f

    def test_bracket_covariance(self):
        rng = random.Random(13)
        for name in ("h3", "g5_6"):
            L = get_algebra(name)
            p = rand_invertible(rng, L.dim)
            moved = transport(L, p)
            assert moved.check_jacobi().ok
            pinv = p.inverse()
            for _ in range(15):
                x, y = rand_vec(rng, L), rand_vec(rng, L)
                direct = moved.bracket(x, y)
                via = pinv.apply(L.bracket(p.apply(x), p.apply(y)))
                assert direct == via


def semidirect_bracket(L, a, b):
    """[(x, D), (y, E)] = ([x, y] + D y - E x, D E - E D), as the
    homomorphism check adds it, through liealg._semidirect_into."""
    vec, rows = {}, [{} for _ in range(L.dim)]
    _semidirect_into(L, vec, rows, _sparse_element(*a), _sparse_element(*b))
    return _dense(vec, L.dim, L.d), Matrix._of(rows, L.dim, L.d)


class TestSemidirect:
    def test_plain_vectors_use_the_bracket(self):
        h = get_algebra("h3")
        zero = Matrix.zero(3, 3)
        a = (unit_vector(h, 0), zero)
        b = (unit_vector(h, 1), zero)
        v, m = semidirect_bracket(h, a, b)
        assert v == as_vector([0, 0, 1], 1) and m.is_zero()

    def test_derivation_acts_on_vector_part(self):
        h = get_algebra("h3")
        D = derivation_space(h).basis[0]
        a = ((0, 0, 0), D)
        b = (unit_vector(h, 1), Matrix.zero(3, 3))
        v, m = semidirect_bracket(h, a, b)
        assert v == D.column(1) and m.is_zero()

    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(21)
        for name in ("h3", "f4"):
            L = get_algebra(name)
            basis = derivation_space(L).basis

            def rand_elt():
                m = Matrix.zero(L.dim, L.dim)
                for E in basis:
                    m = m + Scalar.of(
                        Fraction(rng.randint(-2, 2), rng.randint(1, 2)), 1) * E
                return rand_vec(rng, L), m

            def sbr(a, b):
                return semidirect_bracket(L, a, b)

            for _ in range(25):
                a, b, c = rand_elt(), rand_elt(), rand_elt()
                ab = sbr(a, b)
                ba = sbr(b, a)
                assert ab[0] == tuple(-x for x in ba[0])
                assert ab[1] == -ba[1]
                cyc1, cyc2, cyc3 = sbr(ab, c), sbr(sbr(b, c), a), sbr(sbr(c, a), b)
                assert vec_is_zero(vec_add(vec_add(cyc1[0], cyc2[0]), cyc3[0]))
                assert (cyc1[1] + cyc2[1] + cyc3[1]).is_zero()


class TestCatalog:
    def test_twelve_entries(self):
        assert len(catalog_names()) == 12
        assert catalog_names() == ("R1", "R2", "R3", "R4", "R5", "R6", "h3",
                                   "h3+R", "f4", "h3+R2", "g5_6", "g6_18")

    def test_normalized_names_are_the_catalog_keys_and_one_alias(self):
        assert liealg._keys_by_normalized() == {
            "r1": "R1", "r2": "R2", "r3": "R3", "r4": "R4", "r5": "R5",
            "r6": "R6", "h3": "h3", "h3+r": "h3+R", "h3+r1": "h3+R",
            "h3+r2": "h3+R2", "f4": "f4", "g56": "g5_6", "g618": "g6_18"}

    def test_alias_resolution(self):
        assert resolve_name("G6,18") == "g6_18"
        assert resolve_name("g_{6,18}") == "g6_18"
        assert resolve_name("H3") == "h3"
        assert resolve_name("h3+r1") == "h3+R"
        assert resolve_name("h₃⊕R²".replace("⊕", "+")) == "h3+R2"
        assert resolve_name("G5,6") == "g5_6"
        assert resolve_name("r4") == "R4"

    def test_unknown_name_lists_known(self):
        with pytest.raises(ParseError, match="g6_18"):
            resolve_name("borel")

    def test_describe_mentions_brackets(self):
        assert "[X1, X2] = X3" in get_algebra("h3").describe()

    def test_abelian_builder(self):
        L = abelian(4)
        assert L.name == "R4" and L.is_abelian() and L == get_algebra("R4")

    def test_with_field(self):
        h = get_algebra("h3").with_field(3)
        assert h.d == 3
        assert h.bracket_basis(0, 1)[2] == Scalar.one(3)
        with pytest.raises(ValueError):
            get_algebra("h3").with_field(4)

    def test_structural_equality_ignores_name(self):
        a = get_algebra("h3")
        assert LieAlgebra.from_table("other", 3, {(1, 2): [(3, 1)]}) == a
        assert a != get_algebra("R3")


class TestAlgebraJson:
    def test_round_trip_catalog(self):
        for name in catalog_names():
            L = get_algebra(name)
            back = algebra_from_dict(algebra_to_dict(L))
            assert back == L and back.name == L.name

    def test_round_trip_with_field(self):
        L = get_algebra("g5_6").with_field(3)
        doc = algebra_to_dict(L)
        assert doc["d"] == 3
        assert algebra_from_dict(doc) == L

    def test_missing_dim(self):
        with pytest.raises(ParseError, match="dim"):
            algebra_from_dict({"name": "x", "brackets": []})

    def test_unknown_keys(self):
        with pytest.raises(ParseError):
            algebra_from_dict({"dim": 2, "brackets": [], "extra": 1})

    def test_requires_lower_index_first(self):
        doc = {"dim": 3, "brackets": [
            {"i": 2, "j": 1, "terms": [{"k": 3, "c": 1}]}]}
        with pytest.raises(ParseError, match="i < j"):
            algebra_from_dict(doc)

    def test_duplicate_pair_rejected(self):
        doc = {"dim": 3, "brackets": [
            {"i": 1, "j": 2, "terms": [{"k": 3, "c": 1}]},
            {"i": 1, "j": 2, "terms": [{"k": 3, "c": 2}]}]}
        with pytest.raises(ParseError, match="duplicate"):
            algebra_from_dict(doc)

    def test_duplicate_target_rejected(self):
        doc = {"dim": 3, "brackets": [
            {"i": 1, "j": 2, "terms": [{"k": 3, "c": 1}, {"k": 3, "c": 1}]}]}
        with pytest.raises(ParseError, match="duplicate"):
            algebra_from_dict(doc)

    def test_bool_indices_rejected(self):
        doc = {"dim": 2, "brackets": [
            {"i": True, "j": 2, "terms": [{"k": 1, "c": 1}]}]}
        with pytest.raises(ParseError):
            algebra_from_dict(doc)

    def test_out_of_range_index(self):
        doc = {"dim": 2, "brackets": [
            {"i": 1, "j": 2, "terms": [{"k": 5, "c": 1}]}]}
        with pytest.raises(ParseError):
            algebra_from_dict(doc)

    def test_dimension_bound(self):
        assert MAX_DIM >= 8
        assert algebra_from_dict({"dim": MAX_DIM, "brackets": []}).dim == MAX_DIM
        for dim in (MAX_DIM + 1, 10**12):
            with pytest.raises(ParseError, match="largest supported"):
                algebra_from_dict({"dim": dim, "brackets": []})
