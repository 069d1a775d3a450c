"""Exact dense linear algebra over Q(sqrt(d)).

Matrices are immutable, stored row-major as tuples of :class:`Scalar`.
Row reduction is deterministic: pivots are chosen in the leftmost nonzero
column using the topmost candidate row, so equal inputs always produce
identical output. On top of the basics this module provides the
simultaneous strict triangularization test (:func:`engel_flag`): a family
of matrices spans a nilpotent associative action exactly when iterated
joint kernels exhaust the space, and the algorithm either produces an
ordered basis witnessing strict lower-triangularity or the proper
invariant subspace where the joint kernel stopped growing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import FieldMismatchError, ParseError, ShapeError
from .scalars import RationalLike, Scalar, scalar_from_json, scalar_to_json

Vector = tuple[Scalar, ...]
EntryLike = Union[Scalar, RationalLike]


def as_vector(entries: Iterable[EntryLike], d: int) -> Vector:
    return tuple(e if isinstance(e, Scalar) and e.d == d else Scalar.of(e, d)
                 for e in entries)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_is_zero(a: Vector) -> bool:
    return all(x.is_zero() for x in a)


# A sparse vector is a dict {index: Scalar} that holds no zero value. The
# identity checks (Jacobi, Leibniz, homomorphism, LR) run on these and
# build a dense residual only for a violation.

def _sparse(v: Vector) -> dict[int, Scalar]:
    return {k: c for k, c in enumerate(v) if not c.is_zero()}


def _dense(v: dict[int, Scalar], n: int, d: int) -> Vector:
    zero = Scalar.zero(d)
    return tuple(v.get(k, zero) for k in range(n))


def _axpy(acc: dict[int, Scalar], a: Scalar, v: dict[int, Scalar]) -> None:
    """acc += a * v in place for a nonzero a, dropping entries that cancel."""
    for k, c in v.items():
        s = acc.get(k)
        if s is None:
            acc[k] = a * c
        else:
            s = s + a * c
            if s.is_zero():
                del acc[k]
            else:
                acc[k] = s


class RrefResult(NamedTuple):
    matrix: "Matrix"
    pivots: tuple[int, ...]
    rank: int


class Matrix:
    """Immutable dense matrix over Q(sqrt(d))."""

    __slots__ = ("rows", "cols", "d", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar], d: int):
        if rows < 0 or cols < 0:
            raise ShapeError("matrix dimensions must be non-negative")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries, got {len(entries)}")
        if any(not isinstance(e, Scalar) for e in entries):
            bad = next(e for e in entries if not isinstance(e, Scalar))
            raise TypeError(f"matrix entries must be Scalar, got {type(bad).__name__}")
        if any(e.d != d for e in entries):
            entries = tuple(Scalar.of(e, d) for e in entries)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_e", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -------------------------------------------------- constructors

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[EntryLike]], d: int = 1) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[Scalar] = []
        for row in rows:
            if len(row) != c:
                raise ShapeError("ragged rows")
            flat.extend(as_vector(row, d))
        return cls(r, c, flat, d)

    @classmethod
    def zero(cls, rows: int, cols: int | None = None, d: int = 1) -> "Matrix":
        if cols is None:
            cols = rows
        z = Scalar.zero(d)
        return cls(rows, cols, (z,) * (rows * cols), d)

    @classmethod
    def identity(cls, n: int, d: int = 1) -> "Matrix":
        z, o = Scalar.zero(d), Scalar.one(d)
        return cls(n, n, tuple(o if r == c else z
                               for r in range(n) for c in range(n)), d)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], d: int = 1) -> "Matrix":
        if not columns:
            return cls.zero(0, 0, d)
        n = len(columns[0])
        for col in columns:
            if len(col) != n:
                raise ShapeError("ragged columns")
        return cls(n, len(columns),
                   tuple(columns[c][r] for r in range(n) for c in range(len(columns))),
                   d)

    @classmethod
    def stack(cls, mats: Sequence["Matrix"]) -> "Matrix":
        """Vertical concatenation."""
        if not mats:
            raise ShapeError("cannot stack zero matrices")
        cols, d = mats[0].cols, mats[0].d
        flat: list[Scalar] = []
        total = 0
        for m in mats:
            if m.cols != cols or m.d != d:
                raise ShapeError("stack requires equal widths and contexts")
            flat.extend(m._e)
            total += m.rows
        return cls(total, cols, flat, d)

    # -------------------------------------------------- access

    def get(self, r: int, c: int) -> Scalar:
        return self._e[r * self.cols + c]

    def row(self, r: int) -> Vector:
        return self._e[r * self.cols:(r + 1) * self.cols]

    def column(self, c: int) -> Vector:
        return tuple(self._e[r * self.cols + c] for r in range(self.rows))

    def row_list(self) -> tuple[Vector, ...]:
        return tuple(self.row(r) for r in range(self.rows))

    def entries(self) -> tuple[Scalar, ...]:
        return self._e

    def _sparse_rows(self) -> list[dict[int, Scalar]]:
        return [_sparse(self.row(r)) for r in range(self.rows)]

    def _sparse_cols(self) -> list[dict[int, Scalar]]:
        return [_sparse(self.column(c)) for c in range(self.cols)]

    @classmethod
    def _of_sparse_rows(cls, rows: Sequence[dict[int, Scalar]], cols: int,
                        d: int) -> "Matrix":
        return cls(len(rows), cols,
                   tuple(x for r in rows for x in _dense(r, cols, d)), d)

    # -------------------------------------------------- arithmetic

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"shape mismatch: {self.rows}x{self.cols} vs "
                             f"{other.rows}x{other.cols}")
        if self.d != other.d:
            raise FieldMismatchError(
                f"mixed field contexts: d={self.d} and d={other.d}")

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self._e, other._e)), self.d)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self._e, other._e)), self.d)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self._e), self.d)

    def __mul__(self, other) -> "Matrix":
        if isinstance(other, (Scalar, int)) and not isinstance(other, bool):
            c = Scalar.of(other, self.d) if not isinstance(other, Scalar) else other
            if c.d != self.d:
                raise FieldMismatchError(
                    f"mixed field contexts: d={self.d} and d={c.d}")
            return Matrix(self.rows, self.cols,
                          tuple(c * a for a in self._e), self.d)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, tuple):
            return self.apply(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        if self.d != other.d:
            raise FieldMismatchError(
                f"mixed field contexts: d={self.d} and d={other.d}")
        # row r of the product is the sum of a_rk times row k of other
        other_rows = other._sparse_rows()
        rows = []
        for row in self._sparse_rows():
            acc: dict[int, Scalar] = {}
            for k, a in row.items():
                _axpy(acc, a, other_rows[k])
            rows.append(acc)
        return Matrix._of_sparse_rows(rows, other.cols, self.d)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ShapeError(f"vector of length {len(v)} for a "
                             f"{self.rows}x{self.cols} matrix")
        acc: dict[int, Scalar] = {}
        for k, a in _sparse(v).items():
            _axpy(acc, a, _sparse(self.column(k)))
        return _dense(acc, self.rows, self.d)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    # -------------------------------------------------- predicates

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self._e)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_strictly_lower_triangular(self) -> bool:
        return all(self.get(r, c).is_zero()
                   for r in range(self.rows) for c in range(r, self.cols))

    def is_nilpotent(self) -> bool:
        """Whether some power vanishes; decided by repeated squaring.

        For an n x n matrix M, nilpotency is equivalent to M^k = 0 for the
        first power of two k >= n.
        """
        if not self.is_square():
            raise ShapeError("nilpotency is defined for square matrices")
        if self.rows == 0:
            return True
        p = self
        k = 1
        while k < self.rows:
            if p.is_zero():
                return True
            p = p @ p
            k *= 2
        return p.is_zero()

    # -------------------------------------------------- reduction

    def rref(self) -> RrefResult:
        """Reduced row echelon form with deterministic pivoting.

        Row operations are sparse: the pivot row is scaled, and used for
        elimination, only over its nonzero columns, and rows that are
        already zero in the pivot column are left alone.
        """
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
        flat = [x for row in rows for x in row]
        return RrefResult(Matrix(self.rows, self.cols, flat, self.d),
                          tuple(pivots), len(pivots))

    def rank(self) -> int:
        return self.rref().rank

    def nullspace(self) -> tuple[Vector, ...]:
        """Basis of the right kernel {v : M v = 0}.

        One vector per free column, each scaled so its first nonzero
        coordinate is 1; for the zero matrix this yields the standard
        basis.
        """
        R, pivots, rank = self.rref()
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

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ShapeError("only square matrices can be inverted")
        n = self.rows
        aug = Matrix(n, 2 * n,
                     tuple(x for r in range(n)
                           for x in (*self.row(r), *Matrix.identity(n, self.d).row(r))),
                     self.d)
        R, pivots, rank = aug.rref()
        if rank < n or any(p != i for i, p in enumerate(pivots)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix(n, n, tuple(R.get(r, n + c)
                                  for r in range(n) for c in range(n)), self.d)

    # -------------------------------------------------- misc

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for a, b in zip(self._e, other._e))

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __str__(self):
        if not self.rows:
            return "[]"
        cells = [[str(self.get(r, c)) for c in range(self.cols)]
                 for r in range(self.rows)]
        widths = [max(len(cells[r][c]) for r in range(self.rows))
                  for c in range(self.cols)]
        return "\n".join(
            "[" + "  ".join(cells[r][c].rjust(widths[c])
                            for c in range(self.cols)) + "]"
            for r in range(self.rows))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, d={self.d})"


# ------------------------------------------------------------------ json


def vector_to_json(v: Vector) -> list:
    return [scalar_to_json(x) for x in v]


def vector_from_json(data: object, length: int, d: int, where: str) -> Vector:
    if not isinstance(data, list):
        raise ParseError(f"{where}: expected a list of {length} scalars")
    if len(data) != length:
        raise ParseError(f"{where}: expected {length} entries, got {len(data)}")
    return tuple(scalar_from_json(x, d, f"{where}[{k}]") for k, x in enumerate(data))


def matrix_to_json(m: Matrix) -> list:
    return [vector_to_json(m.row(r)) for r in range(m.rows)]


def matrix_from_json(data: object, rows: int, cols: int, d: int, where: str) -> Matrix:
    if not isinstance(data, list):
        raise ParseError(f"{where}: expected a list of {rows} rows")
    if len(data) != rows:
        raise ParseError(f"{where}: expected {rows} rows, got {len(data)}")
    parsed = [vector_from_json(row, cols, d, f"{where}[{r}]")
              for r, row in enumerate(data)]
    return Matrix.from_rows(parsed, d) if rows else Matrix.zero(0, cols, d)


# ------------------------------------------------------------------ subspaces


def row_space_basis(vectors: Sequence[Vector], d: int, length: int) -> tuple[Vector, ...]:
    """Canonical (RREF) basis of the span of the given coordinate vectors."""
    vecs = [v for v in vectors if not vec_is_zero(v)]
    if not vecs:
        return ()
    R, _, rank = Matrix.from_rows(vecs, d).rref()
    return tuple(R.row(i) for i in range(rank))


def annihilator(vectors: Sequence[Vector], d: int, length: int) -> tuple[Vector, ...]:
    """Basis of {c : c . v = 0 for every v in the span}."""
    if not vectors:
        return tuple(Matrix.identity(length, d).row(i) for i in range(length))
    return Matrix.from_rows(vectors, d).nullspace()


# ------------------------------------------------------------------ flags


@dataclass(frozen=True)
class Flag:
    """An ordered basis (A_1, ..., A_n) certifying strict triangularity.

    The suffix (A_i, ..., A_n) spans the i-th filtration subspace V_i, so a
    matrix M is compatible with the flag exactly when M V_i is contained in
    V_{i+1} for every i; in the new basis M becomes strictly lower
    triangular. The basis is ordered by iterated joint kernels: the last
    vectors span the joint kernel of the certified family.
    """

    basis: tuple[Vector, ...]
    d: int

    def __bool__(self) -> bool:
        return True

    @property
    def size(self) -> int:
        return len(self.basis)

    def change_of_basis(self) -> Matrix:
        """Matrix P whose columns are the flag basis vectors."""
        return Matrix.from_columns(self.basis, self.d)

    def conjugate(self, m: Matrix) -> Matrix:
        """P^{-1} M P, the matrix of M in flag coordinates."""
        p = self.change_of_basis()
        return p.inverse() @ m @ p

    def is_strict_for(self, family: Sequence[Matrix]) -> bool:
        return all(self.conjugate(m).is_strictly_lower_triangular()
                   for m in family)


@dataclass(frozen=True)
class EngelFailure:
    """Evidence that no strict common flag exists.

    ``stalled`` is a basis of a proper invariant subspace U such that the
    family acts on the quotient by U with zero joint kernel; by the Engel
    criterion the span of the family then contains a non-nilpotent
    operator, so no simultaneous strict triangularization is possible.
    """

    size: int
    d: int
    stalled: tuple[Vector, ...]

    def __bool__(self) -> bool:
        return False


def engel_flag(family: Sequence[Matrix], size: int | None = None,
               d: int | None = None) -> Flag | EngelFailure:
    """Simultaneously strictly triangularize a family of square matrices.

    Iteratively grows the chain of joint preimages U_0 = 0, U_{k+1} =
    {v : M v in U_k for all M}. If the chain exhausts the space, refining
    it yields a full flag strictly decreased by every family member; if it
    stalls on a proper subspace, the quotient action has zero joint kernel
    and the failure is returned with that subspace as evidence.
    """
    family = list(family)
    if family:
        size = family[0].rows
        d = family[0].d
        for m in family:
            if not m.is_square() or m.rows != size:
                raise ShapeError("engel_flag needs square matrices of equal size")
            if m.d != d:
                raise FieldMismatchError("engel_flag family mixes field contexts")
    elif size is None or d is None:
        raise ShapeError("engel_flag on an empty family needs explicit size and d")

    chain: list[tuple[Vector, ...]] = []
    current: tuple[Vector, ...] = ()
    while len(current) < size:
        if not family:
            nxt = tuple(Matrix.identity(size, d).row(i) for i in range(size))
        else:
            ann = annihilator(current, d, size)
            if not ann:
                nxt = current
            else:
                c = Matrix.from_rows(ann, d)
                stacked = Matrix.stack([c @ m for m in family])
                nxt_raw = stacked.nullspace()
                nxt = row_space_basis(nxt_raw, d, size)
        if len(nxt) == len(current):
            return EngelFailure(size=size, d=d, stalled=current)
        current = nxt
        chain.append(current)

    # keep each chain vector independent of those before it: the pivot columns
    vectors = [v for level in chain for v in level]
    _, pivots, _ = Matrix.from_columns(vectors, d).rref()
    return Flag(basis=tuple(vectors[p] for p in reversed(pivots)), d=d)
