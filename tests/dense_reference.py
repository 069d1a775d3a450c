"""The dense elimination the package ran before its sparse kernel.

Verbatim copies of the old ``Matrix.rref``, ``Matrix.nullspace``,
``Matrix.inverse``, ``row_space_basis`` and ``derivation_space``, kept as
the reference the sparse kernel is compared with. The only edits: the
methods are plain functions of ``self``, each call of ``.rref()`` or
``.nullspace()`` goes to the copy here, so nothing below runs the kernel
under test, and the lines that wrap a result in a ``Matrix`` build it
with :func:`dense_matrix` from its rows, since ``Matrix`` no longer has a
constructor that takes a flat tuple of entries.

``dense_matrix`` is the one builder of a matrix from dense rows that the
tests use: ``Matrix.from_rows``, or ``Matrix.zero`` for a shape with no
rows, which ``from_rows`` cannot express. ``dense_rows`` reads a matrix
back as its dense rows, and ``unit_vector`` is the coordinate vector of
one basis element of an algebra.

``vec_add``, ``vec_sub`` and ``vec_is_zero`` are the dense vector helpers
the package no longer needs, kept here for the tests that compare against
dense arithmetic.

``flag_triangularizes`` decides whether P^-1 M P is strictly lower
triangular, for the matrix P of a flag's basis and P^-1 from
``dense_inverse``: whether the flag certifies M.

``dense_lr_to_dict`` is a copy of the old ``lr.lr_to_dict``, which read
every coordinate of the dense product grid, now through ``product_basis``;
it is the reference the sparse writer is compared with.

``PairScalar`` is the element rat + irr*sqrt(d) as a pair of Fractions,
the form ``Scalar`` had before it stored int parts over one denominator:
its arithmetic, equality, hash, ``str``, ``repr`` and JSON form are the
old ones, kept as the reference model the int form is compared with.

``dense_unit_change`` is a seeded dense change of basis, and
``transport_rep`` and ``transport_lr`` move a rep and an LR product to
new bases, so that a test can check that a verdict does not depend on
the basis.
"""

import random
from fractions import Fraction

from nilaffine.affine import AffineRep
from nilaffine.liealg import DerivationSpace, LieAlgebra, transport
from nilaffine.linalg import Flag, Matrix, RrefResult, Vector
from nilaffine.lr import LRStructure
from nilaffine.scalars import Scalar, scalar_to_json


def dense_matrix(rows, cols: int, d: int) -> Matrix:
    """The matrix with these dense rows, each of length cols, in context d."""
    return Matrix.from_rows(rows, d) if rows else Matrix.zero(0, cols, d)


def dense_rows(m: Matrix) -> tuple[Vector, ...]:
    return tuple(m.row(r) for r in range(m.rows))


def unit_vector(L: LieAlgebra, i: int) -> Vector:
    """X_i of L (0-based) as a coordinate vector of Scalars."""
    return Matrix.identity(L.dim, L.d).row(i)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_is_zero(a: Vector) -> bool:
    return all(x.is_zero() for x in a)


def dense_rref(self) -> RrefResult:
    rows = [list(self.row(r)) for r in range(self.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(self.cols):
        sel = None
        for i in range(r, self.rows):
            if not rows[i][c].is_zero():
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        # columns left of c are zero in every row from r down
        support = [j for j in range(c, self.cols) if not prow[j].is_zero()]
        inv = prow[c].inverse()
        for j in support:
            prow[j] = inv * prow[j]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and not f.is_zero():
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == self.rows:
            break
    return RrefResult(dense_matrix(rows, self.cols, self.d),
                      tuple(pivots), len(pivots))


def dense_nullspace(self) -> tuple[Vector, ...]:
    R, pivots, rank = dense_rref(self)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    zero, one = Scalar.zero(self.d), Scalar.one(self.d)
    for j in range(self.cols):
        if j in pivot_set:
            continue
        v = [zero] * self.cols
        v[j] = one
        for i, p in enumerate(pivots):
            v[p] = -R.get(i, j)
        for x in v:
            if not x.is_zero():
                if x != one:
                    inv = x.inverse()
                    v = [inv * y for y in v]
                break
        basis.append(tuple(v))
    return tuple(basis)


def dense_inverse(self) -> Matrix:
    n = self.rows
    aug = dense_matrix([(*self.row(r), *Matrix.identity(n, self.d).row(r))
                        for r in range(n)], 2 * n, self.d)
    R, pivots, rank = dense_rref(aug)
    if rank < n or any(p != i for i, p in enumerate(pivots)):
        raise ZeroDivisionError("matrix is singular")
    return dense_matrix([[R.get(r, n + c) for c in range(n)]
                         for r in range(n)], n, self.d)


def flag_triangularizes(flag: Flag, m: Matrix) -> bool:
    p = Matrix.from_columns(flag.basis, flag.d)
    conjugate = dense_inverse(p) @ m @ p
    return all(x.is_zero() for r in range(m.rows)
               for x in conjugate.row(r)[r:])


def dense_row_space_basis(vectors, d: int, length: int) -> tuple[Vector, ...]:
    vecs = [v for v in vectors if not vec_is_zero(v)]
    if not vecs:
        return ()
    R, _, rank = dense_rref(Matrix.from_rows(vecs, d))
    return tuple(R.row(i) for i in range(rank))


def dense_derivation_space(L: LieAlgebra) -> DerivationSpace:
    n = L.dim
    if n == 0:
        return DerivationSpace(L, (), ())
    zero, br = Scalar.zero(L.d), L._signed
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # row (i, j, k) holds coordinate k of D[X_i, X_j] - [D X_i, X_j]
    # - [X_i, D X_j] as a form in the entries D_ab, at column a * n + b;
    # with no basis pairs (n = 1) the identity is vacuous: one zero row
    rows = [[zero] * (n * n) for _ in range(max(len(pairs) * n, 1))]
    for p, (i, j) in enumerate(pairs):
        for m, c in br.get((i, j), {}).items():
            for k in range(n):
                rows[p * n + k][k * n + m] += c
        for m in range(n):
            for k, c in br.get((m, j), {}).items():
                rows[p * n + k][m * n + i] -= c
            for k, c in br.get((i, m), {}).items():
                rows[p * n + k][m * n + j] -= c
    system = Matrix.from_rows(rows, L.d)
    kernel = dense_nullspace(system)
    if not kernel:
        return DerivationSpace(L, (), ())
    reduced, pivots, rank = dense_rref(Matrix.from_rows(kernel, L.d))
    basis = tuple(dense_matrix([reduced.row(r)[a * n:(a + 1) * n] for a in range(n)],
                               n, L.d) for r in range(rank))
    anchors = tuple(divmod(p, n) for p in pivots)
    return DerivationSpace(L, basis, anchors)


def dense_lr_to_dict(s: LRStructure) -> dict:
    from nilaffine.affine import _algebra_ref_to_json

    product = []
    n = s.algebra.dim
    for i in range(n):
        for j in range(n):
            terms = [{"k": k + 1, "c": scalar_to_json(c)}
                     for k, c in enumerate(s.product_basis(i, j)) if not c.is_zero()]
            if terms:
                product.append({"i": i + 1, "j": j + 1, "terms": terms})
    doc = {"algebra": _algebra_ref_to_json(s.algebra), "product": product}
    if s.d != 1:
        doc["d"] = s.d
    return doc


def dense_unit_change(n: int, seed: int) -> Matrix:
    """An invertible n x n matrix with diagonal entries 1 and every other
    entry ``random.Random(seed).randint(-2, 2)``, drawn row by row and
    drawn again until the matrix is invertible."""
    rng = random.Random(seed)
    while True:
        p = Matrix.from_rows([[1 if r == c else rng.randint(-2, 2)
                               for c in range(n)] for r in range(n)])
        if dense_rref(p).rank == n:
            return p


def transport_rep(rep: AffineRep, q: Matrix, p: Matrix) -> AffineRep:
    """rep in the source basis of Q's columns and the target basis of P's
    columns: D'_i = sum_j Q_ji P^-1 D_j P and t'_i = sum_j Q_ji P^-1 t_j."""
    q, p = q.with_field(rep.d), p.with_field(rep.d)
    p_inv = dense_inverse(p)
    cols = [q.column(i) for i in range(rep.source.dim)]
    return AffineRep(transport(rep.source, q), transport(rep.target, p),
                     [p_inv.apply(rep.t_matrix().apply(x)) for x in cols],
                     [p_inv @ rep.D_of(x) @ p for x in cols], rep.label)


def transport_lr(s: LRStructure, p: Matrix) -> LRStructure:
    """s in the basis of P's columns: L'(X_i) = sum_j P_ji P^-1 L(X_j) P."""
    p = p.with_field(s.d)
    p_inv, n = dense_inverse(p), s.algebra.dim
    lefts = [sum((c * m for c, m in zip(p.column(i), s.lefts)),
                 Matrix.zero(n, n, s.d)) for i in range(n)]
    return LRStructure._of(transport(s.algebra, p),
                           [p_inv @ m @ p for m in lefts])


class PairScalar:
    """rat + irr*sqrt(d) as two Fractions; see the module docstring."""

    def __init__(self, rat, irr, d):
        rat, irr = Fraction(rat), Fraction(irr)
        if d == 1 and irr:
            rat, irr = rat + irr, Fraction(0)
        self.rat, self.irr, self.d = rat, irr, d

    def __add__(self, o):
        return PairScalar(self.rat + o.rat, self.irr + o.irr, self.d)

    def __sub__(self, o):
        return PairScalar(self.rat - o.rat, self.irr - o.irr, self.d)

    def __mul__(self, o):
        return PairScalar(self.rat * o.rat + self.irr * o.irr * self.d,
                          self.rat * o.irr + self.irr * o.rat, self.d)

    def inverse(self):
        if not self.irr:
            if not self.rat:
                raise ZeroDivisionError("division by zero scalar")
            return PairScalar(1 / self.rat, 0, self.d)
        n = self.rat * self.rat - self.irr * self.irr * self.d
        return PairScalar(self.rat / n, -self.irr / n, self.d)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.irr == 0 and self.rat == other
        if self.rat != other.rat or self.irr != other.irr:
            return False
        return self.d == other.d or (not self.irr and not other.irr)

    def __hash__(self):
        if not self.irr:
            return hash(self.rat)
        return hash((self.rat, self.irr, self.d))

    def __str__(self):
        if not self.irr:
            return str(self.rat)
        if self.irr == 1:
            root = f"sqrt({self.d})"
        elif self.irr == -1:
            root = f"-sqrt({self.d})"
        else:
            root = f"{self.irr}*sqrt({self.d})"
        if not self.rat:
            return root
        sign = "-" if self.irr < 0 else "+"
        mag = -self.irr if self.irr < 0 else self.irr
        tail = f"sqrt({self.d})" if mag == 1 else f"{mag}*sqrt({self.d})"
        return f"{self.rat} {sign} {tail}"

    def __repr__(self):
        return f"Scalar({str(self.rat)!r}, {str(self.irr)!r}, d={self.d})"

    def to_json(self):
        def encode(f):
            return int(f) if f.denominator == 1 else str(f)
        if not self.irr:
            return encode(self.rat)
        return [encode(self.rat), encode(self.irr)]
