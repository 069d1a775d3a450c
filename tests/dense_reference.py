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
rows, which ``from_rows`` cannot express.

``vec_add``, ``vec_sub`` and ``vec_is_zero`` are the dense vector helpers
the package no longer needs, kept here for the tests that compare against
dense arithmetic.

``flag_conjugate`` is P^-1 M P for the matrix P of a flag's basis, with
P^-1 from ``dense_inverse``: M in the flag's coordinates, where a flag
that certifies M makes it strictly lower triangular.

``dense_lr_to_dict`` is a verbatim copy of the old ``lr.lr_to_dict``, which
read every coordinate of the dense product grid ``products``; it is the
reference the sparse writer is compared with.
"""

from nilaffine.liealg import DerivationSpace, LieAlgebra
from nilaffine.linalg import Flag, Matrix, RrefResult, Vector
from nilaffine.lr import LRStructure
from nilaffine.scalars import Scalar, scalar_to_json


def dense_matrix(rows, cols: int, d: int) -> Matrix:
    """The matrix with these dense rows, each of length cols, in context d."""
    return Matrix.from_rows(rows, d) if rows else Matrix.zero(0, cols, d)


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


def flag_conjugate(flag: Flag, m: Matrix) -> Matrix:
    p = Matrix.from_columns(flag.basis, flag.d)
    return dense_inverse(p) @ m @ p


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
                     for k, c in enumerate(s.products[i][j]) if not c.is_zero()]
            if terms:
                product.append({"i": i + 1, "j": j + 1, "terms": terms})
    doc = {"algebra": _algebra_ref_to_json(s.algebra), "product": product}
    if s.d != 1:
        doc["d"] = s.d
    return doc
