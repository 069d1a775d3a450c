"""Exact linear algebra over Q(sqrt(d)).

A :class:`Matrix` stores each row once, as a ``{column: coefficient}`` dict
that holds no zero, each coefficient in the stored form of the context (see
:func:`nilaffine.scalars.stored`): ``int`` or ``Fraction`` at d = 1, else
``Scalar``; it is built only by ``Matrix._of`` or by a builder that
checks its input. Every elimination runs on one sparse kernel, :func:`_rref`,
over rows in that format: ``rank``, ``nullspace``, ``inverse``, row spaces,
the Leibniz system of ``liealg.derivation_space``, and, through its row
step :func:`_install`, the linear forcing of ``obstruction.LinearSystem``.
Products and sums combine rows with :func:`_axpy`. The kernels are generic
over the coefficient type: they test for zero by truthiness and divide
only through :func:`_divided`. The kernel returns the reduced row echelon
form, which is unique, so equal inputs always produce identical output.
The dense views (``get``, ``row``, ``column``, ``entries``, ``apply`` and
the report vectors) are tuples of :class:`Scalar`, built only for callers:
no code in the package reads one back, and the JSON writer reads the
rows. On top of the basics this module provides the simultaneous
strict triangularization test (:func:`engel_flag`): a family of matrices
spans a nilpotent associative action exactly when iterated joint kernels
exhaust the space, and the algorithm either produces an ordered basis
witnessing strict lower-triangularity or the proper invariant subspace
where the joint kernel stopped growing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import FieldMismatchError, ParseError, ShapeError
from .scalars import (Coefficient, Frozen, RationalLike, Scalar, as_scalar,
                      check_context, exact, quotient, scalar_from_json,
                      scalar_to_json, stored, unit)

Vector = tuple[Coefficient, ...]   # of Scalar in the public views
EntryLike = Union[Scalar, RationalLike]
SparseRow = dict[int, Coefficient]


def as_vector(entries: Iterable[EntryLike], d: int) -> Vector:
    """The entries in the stored form of context d."""
    return tuple(stored(e, d) for e in entries)


# A sparse vector is a dict {index: coefficient} that holds no zero value.
# Matrix rows are stored in this form, and the identity checks (Jacobi,
# Leibniz, homomorphism, LR) run on it and build a dense residual only for
# a violation.

def _sparse(v: Iterable[EntryLike], d: int) -> SparseRow:
    return {k: c for k, e in enumerate(v) if (c := stored(e, d))}


def _dense(v: SparseRow, n: int, d: int) -> Vector:
    zero = Scalar.zero(d)
    return tuple(as_scalar(v[k]) if k in v else zero for k in range(n))


def _axpy(acc: SparseRow, a: Coefficient, v: SparseRow) -> None:
    """acc += a * v in place for a nonzero a, dropping entries that cancel.
    On rational rows an integral result is stored as an int."""
    if not isinstance(a, Scalar):
        for k, c in v.items():
            s = acc.get(k)
            s = a * c if s is None else s + a * c
            if type(s) is Fraction and s.denominator == 1:   # exact(s) inline
                s = s.numerator
            if s:
                acc[k] = s
            else:
                del acc[k]
        return
    for k, c in v.items():
        s = acc.get(k)
        if s is None:
            acc[k] = a * c
        else:
            s = s + a * c
            if s:
                acc[k] = s
            else:
                del acc[k]


def _divided(row: SparseRow, lead: Coefficient) -> SparseRow:
    """row / lead for a nonzero lead: times one ``Scalar.inverse`` for Scalar
    rows, and by :func:`~nilaffine.scalars.quotient` for rational rows, so
    an entry that lead divides stays an int."""
    if isinstance(lead, Scalar):
        inv = lead.inverse()
        return {k: inv * x for k, x in row.items()}
    return {k: quotient(x, lead) for k, x in row.items()}


def _transpose(rows: Sequence[SparseRow], cols: int) -> list[SparseRow]:
    """The columns of the matrix with these sparse rows, as sparse rows."""
    out: list[SparseRow] = [{} for _ in range(cols)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[c][r] = x
    return out


def _reduced(row: SparseRow, pivots: dict[int, SparseRow]) -> SparseRow:
    """A copy of row with each pivot column cleared by that pivot's row."""
    row = dict(row)
    for p in [c for c in row if c in pivots]:
        _axpy(row, -row[p], pivots[p])
    return row


def _install(pivots: dict[int, SparseRow], row: SparseRow) -> None:
    """Make a nonzero row reduced by ``pivots`` the pivot row of its leftmost
    column: scaled to 1 there, and that column cleared from the other pivot
    rows, so an RREF stays one. A row led by 1 is stored, not copied."""
    c = min(row)
    if row[c] != 1:
        row = _divided(row, row[c])
    for prow in pivots.values():
        f = prow.get(c)
        if f is not None:
            _axpy(prow, -f, row)
    pivots[c] = row


def _rref(rows: Iterable[SparseRow]) -> tuple[tuple[int, ...], list[SparseRow]]:
    """Reduced row echelon form of the span of sparse rows: (pivots, rows),
    in pivot order. Each row is reduced by the pivot rows so far and
    installed if anything is left; the input dicts are not changed."""
    reduced: dict[int, SparseRow] = {}
    for row in rows:
        if row := _reduced(row, reduced):
            _install(reduced, row)
    pivots = tuple(sorted(reduced))
    return pivots, [reduced[p] for p in pivots]


def _nullspace(rows: Iterable[SparseRow], cols: int,
               one: Coefficient) -> list[SparseRow]:
    """Basis of {v : r . v = 0 for every row r}, over ``cols`` columns.

    One vector per free column j of the RREF R: v_j = 1 and v_p = -R[p, j]
    at each pivot p, scaled so its first nonzero coordinate is 1. With no
    rows this is the standard basis. ``one`` is the 1 of the rows'
    coefficient type, :func:`~nilaffine.scalars.unit`.
    """
    pivots, reduced = _rref(rows)
    free = set(range(cols)).difference(pivots)
    basis = {j: {j: one} for j in sorted(free)}
    for p, row in zip(pivots, reduced):
        for j, c in row.items():
            if j != p:
                basis[j][p] = -c
    for j, v in basis.items():
        lead = v[min(v)]
        if lead != 1:
            basis[j] = _divided(v, lead)
    return list(basis.values())


class RrefResult(NamedTuple):
    matrix: "Matrix"
    pivots: tuple[int, ...]
    rank: int


class Matrix(Frozen):
    """Immutable matrix over Q(sqrt(d)), stored as sparse rows; built only
    by ``_of`` or a checking builder (``from_rows``, ``from_columns``,
    ``zero``, ``identity``), so ``Matrix()`` raises TypeError.

    ``_rows`` holds one ``{column: coefficient}`` dict per row with the
    nonzero entries only, in stored form. The dicts are built once and
    never changed, so results of arithmetic may share them with their
    operands. ``get``, ``row``, ``column``, ``row_list``, ``entries``,
    ``apply`` and ``str`` are dense views of Scalars.
    """

    __slots__ = ("rows", "cols", "d", "_rows")

    # -------------------------------------------------- constructors

    @classmethod
    def _of(cls, rows: Iterable[SparseRow], cols: int, d: int) -> "Matrix":
        """Wrap sparse rows that hold no zero; they are stored, not copied."""
        rows = tuple(rows)
        return object.__new__(cls)._fill(len(rows), cols, d, rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[EntryLike]], d: int = 1) -> "Matrix":
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ShapeError("ragged rows")
        return cls._of([_sparse(row, d) for row in rows], c, d)

    @classmethod
    def zero(cls, rows: int, cols: int | None = None, d: int = 1) -> "Matrix":
        check_context(d)
        if cols is None:
            cols = rows
        if rows < 0 or cols < 0:
            raise ShapeError("matrix dimensions must be non-negative")
        return cls._of(({} for _ in range(rows)), cols, d)

    @classmethod
    def identity(cls, n: int, d: int = 1) -> "Matrix":
        one = unit(check_context(d))
        if n < 0:
            raise ShapeError("matrix dimensions must be non-negative")
        return cls._of(({r: one} for r in range(n)), n, d)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], d: int = 1) -> "Matrix":
        if not columns:
            return cls.zero(0, 0, d)
        n = len(columns[0])
        if any(len(col) != n for col in columns):
            raise ShapeError("ragged columns")
        return cls._of([_sparse([col[r] for col in columns], d) for r in range(n)],
                       len(columns), d)

    def with_field(self, d: int) -> "Matrix":
        """The same entries read in the field Q(sqrt(d))."""
        if d == self.d:
            return self
        return Matrix._of(({c: stored(x, d) for c, x in row.items()}
                           for row in self._rows), self.cols, d)

    # -------------------------------------------------- dense views

    def get(self, r: int, c: int) -> Scalar:
        return self.row(r)[c]

    def row(self, r: int) -> Vector:
        return _dense(self._rows[r], self.cols, self.d)

    def column(self, c: int) -> Vector:
        if not 0 <= c < self.cols:
            raise IndexError(f"column {c} out of range for {self.cols} columns")
        zero = Scalar.zero(self.d)
        return tuple(as_scalar(row[c]) if c in row else zero for row in self._rows)

    def row_list(self) -> tuple[Vector, ...]:
        return tuple(self.row(r) for r in range(self.rows))

    def entries(self) -> tuple[Scalar, ...]:
        return tuple(x for r in range(self.rows) for x in self.row(r))

    def _sparse_cols(self) -> list[SparseRow]:
        return _transpose(self._rows, self.cols)

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
        one = unit(self.d)
        return _combination(((one, self), (one, other)), self.rows, self.cols, self.d)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Matrix":
        return self * -1

    def __mul__(self, other) -> "Matrix":
        if isinstance(other, bool) or not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        if isinstance(other, Scalar) and other.d != self.d:
            raise FieldMismatchError(
                f"mixed field contexts: d={self.d} and d={other.d}")
        c = stored(other, self.d)
        # a product of nonzero field elements is nonzero
        return Matrix._of(({k: exact(c * x) for k, x in row.items()} if c else {}
                           for row in self._rows), self.cols, self.d)

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
        rows = []
        for row in self._rows:
            acc: SparseRow = {}
            for k, a in row.items():
                _axpy(acc, a, other._rows[k])
            rows.append(acc)
        return Matrix._of(rows, other.cols, self.d)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ShapeError(f"vector of length {len(v)} for a "
                             f"{self.rows}x{self.cols} matrix")
        v = as_vector(v, self.d)
        out = {r: s for r, row in enumerate(self._rows)
               if (s := sum(x * v[c] for c, x in row.items() if v[c]))}
        return _dense(out, self.rows, self.d)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    # -------------------------------------------------- predicates

    def is_zero(self) -> bool:
        return not any(self._rows)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_strictly_lower_triangular(self) -> bool:
        return all(c < r for r, row in enumerate(self._rows) for c in row)

    def is_nilpotent(self) -> bool:
        """Whether some power vanishes; decided by repeated squaring.

        For an n x n matrix M, nilpotency is equivalent to M^k = 0 for the
        first power of two k >= n.
        """
        if not self.is_square():
            raise ShapeError("nilpotency is defined for square matrices")
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
        """Reduced row echelon form (:func:`_rref`), zero rows last."""
        pivots, rows = _rref(self._rows)
        rows += ({} for _ in range(self.rows - len(rows)))
        return RrefResult(Matrix._of(rows, self.cols, self.d), pivots, len(pivots))

    def rank(self) -> int:
        return len(_rref(self._rows)[0])

    def nullspace(self) -> tuple[Vector, ...]:
        """Basis of the right kernel {v : M v = 0}; see :func:`_nullspace`."""
        return tuple(_dense(v, self.cols, self.d) for v in
                     _nullspace(self._rows, self.cols, unit(self.d)))

    def inverse(self) -> "Matrix":
        """The right half of the RREF of [M | I]."""
        if not self.is_square():
            raise ShapeError("only square matrices can be inverted")
        n, one = self.rows, unit(self.d)
        pivots, rows = _rref({**row, n + r: one}
                             for r, row in enumerate(self._rows))
        if pivots != tuple(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix._of(({c - n: x for c, x in row.items() if c >= n}
                           for row in rows), n, self.d)

    # -------------------------------------------------- misc

    def __eq__(self, other):
        # no stored zeros, so equal entries mean equal row dicts; a rational
        # equals the rational Scalar of any context, and hashes alike
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self._rows) == \
            (other.rows, other.cols, other._rows)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(row.items()) for row in self._rows)))

    def __str__(self):
        if not self.rows:
            return "[]"
        cells = [[str(x) for x in self.row(r)] for r in range(self.rows)]
        widths = [max(len(cells[r][c]) for r in range(self.rows))
                  for c in range(self.cols)]
        return "\n".join(
            "[" + "  ".join(cells[r][c].rjust(widths[c])
                            for c in range(self.cols)) + "]"
            for r in range(self.rows))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, d={self.d})"


def _combination(terms: Iterable[tuple[EntryLike, Matrix]], rows: int,
                 cols: int, d: int) -> Matrix:
    """The sum of c * M over the (c, M) terms, all rows x cols in context d."""
    acc: list[SparseRow] = [{} for _ in range(rows)]
    for c, m in terms:
        if c := stored(c, d):
            for a, row in zip(acc, m._rows):
                _axpy(a, c, row)
    return Matrix._of(acc, cols, d)


# ------------------------------------------------------------------ json


def vector_to_json(v: Vector) -> list:
    return [scalar_to_json(x) for x in v]


def vector_from_json(data: object, length: int, d: int, where: str) -> Vector:
    if not isinstance(data, list):
        raise ParseError(f"{where}: expected a list of {length} scalars")
    if len(data) != length:
        raise ParseError(f"{where}: expected {length} entries, got {len(data)}")
    return tuple(x if type(x) is int and d == 1 else   # stored as it is
                 scalar_from_json(x, d, f"{where}[{k}]") for k, x in enumerate(data))


def matrix_to_json(m: Matrix) -> list:
    return [[scalar_to_json(row[c]) if c in row else 0 for c in range(m.cols)]
            for row in m._rows]


def matrix_from_json(data: object, rows: int, cols: int, d: int, where: str) -> Matrix:
    if not isinstance(data, list):
        raise ParseError(f"{where}: expected a list of {rows} rows")
    if len(data) != rows:
        raise ParseError(f"{where}: expected {rows} rows, got {len(data)}")
    return Matrix._of([{c: x for c, x in enumerate(
        vector_from_json(row, cols, d, f"{where}[{r}]")) if x}
        for r, row in enumerate(data)], cols, d)


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

    # each U_k is kept as the sparse RREF basis of its span
    chain: list[list[SparseRow]] = []
    current: list[SparseRow] = []
    one = unit(d)
    while len(current) < size:
        # v is in U_{k+1} exactly when c . (M v) = 0 for every c in the
        # annihilator of U_k and every M: the rows of C M for every M. With
        # no M that is every v.
        c = Matrix._of(_nullspace(current, size, one), size, d)
        system = [row for m in family for row in (c @ m)._rows]
        nxt = _rref(_nullspace(system, size, one))[1]
        if len(nxt) == len(current):
            return EngelFailure(size=size, d=d, stalled=tuple(
                _dense(v, size, d) for v in current))
        current = nxt
        chain.append(current)

    # keep each chain vector independent of those before it: the pivot
    # columns of the matrix with the chain vectors as its columns
    vectors = [v for level in chain for v in level]
    _, pivots, _ = Matrix._of(_transpose(vectors, size), len(vectors), d).rref()
    return Flag(basis=tuple(_dense(vectors[p], size, d) for p in reversed(pivots)),
                d=d)
