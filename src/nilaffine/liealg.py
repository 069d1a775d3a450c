"""Finite dimensional Lie algebras given by structure constants.

An algebra lives on coordinate space Q(sqrt(d))^n with the bracket
determined by sparse structure constants. Indices are 0-based throughout
the API; the JSON file format and printed reports use 1-based labels, and
conversion happens only at those boundaries.

Everything here is exact. Jacobi checking, derivation spaces, central
series and the bundled catalog all reduce to the rational linear algebra
in :mod:`nilaffine.linalg`, so results are decisions, not approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ParseError, ShapeError
from .linalg import Matrix, Vector, _axpy, _dense, _sparse, row_space_basis
from .scalars import Scalar, scalar_from_json, scalar_to_json

BracketTable = Mapping[tuple[int, int], Iterable[tuple[int, object]]]

# Largest dimension a document may declare. derivation_space solves a dense
# system of n^2 (n - 1) / 2 equations in n^2 unknowns: about half a million
# cells at n = 16 (0.3 s and 36 MB for the filiform L16), and 16 million
# at n = 32. Without a bound a huge declared dim exhausts memory.
MAX_DIM = 16


class JacobiViolation(NamedTuple):
    triple: tuple[int, int, int]   # 1-based, printed as X_i labels
    residual: Vector


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    violations: tuple[JacobiViolation, ...]

    def __bool__(self) -> bool:
        return self.ok


class LieAlgebra:
    """A Lie algebra on Q(sqrt(d))^n with sparse structure constants.

    The table maps index pairs (i, j) with i < j to the coordinates of
    [X_i, X_j]; the bracket extends bilinearly and antisymmetrically.
    Construction normalizes the table but does not check Jacobi; call
    :meth:`check_jacobi` for that. The same constants are also kept as
    sparse vectors under both (i, j) and (j, i), signed, for the kernels.
    """

    __slots__ = ("name", "dim", "d", "table", "_signed")

    def __init__(self, name: str, dim: int, table: BracketTable, d: int = 1):
        if dim < 0:
            raise ShapeError("dimension must be non-negative")
        Scalar.zero(d)   # validates the field context
        norm: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]] = {}
        for (i, j), terms in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ShapeError(f"bracket index ({i}, {j}) out of range for dim {dim}")
            if i == j:
                raise ShapeError(f"bracket ({i}, {i}) of a vector with itself")
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            acc: dict[int, Scalar] = dict(norm.get((i, j), ()))
            for k, c in terms:
                if not 0 <= k < dim:
                    raise ShapeError(f"bracket target {k} out of range for dim {dim}")
                coeff = c if isinstance(c, Scalar) else Scalar.of(c, d)
                coeff = Scalar.of(coeff, d)
                if sign < 0:
                    coeff = -coeff
                acc[k] = acc.get(k, Scalar.zero(d)) + coeff
            cleaned = tuple(sorted((k, v) for k, v in acc.items() if not v.is_zero()))
            if cleaned:
                norm[(i, j)] = cleaned
            else:
                norm.pop((i, j), None)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "table", norm)
        object.__setattr__(self, "_signed", {
            **{pair: dict(terms) for pair, terms in norm.items()},
            **{(j, i): {k: -c for k, c in terms} for (i, j), terms in norm.items()}})

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def from_table(cls, name: str, dim: int,
                   brackets: Mapping[tuple[int, int], Iterable[tuple[int, object]]],
                   d: int = 1) -> "LieAlgebra":
        """Build from a 1-based table, the convention used in files and docs."""
        shifted = {(i - 1, j - 1): tuple((k - 1, c) for k, c in terms)
                   for (i, j), terms in brackets.items()}
        return cls(name, dim, shifted, d)

    # -------------------------------------------------- bracket

    def zero_vector(self) -> Vector:
        return (Scalar.zero(self.d),) * self.dim

    def basis_vector(self, i: int) -> Vector:
        z, o = Scalar.zero(self.d), Scalar.one(self.d)
        return tuple(o if k == i else z for k in range(self.dim))

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[X_i, X_j] as a coordinate vector (0-based indices)."""
        return _dense(self._signed.get((i, j), {}), self.dim, self.d)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeError(f"bracket arguments must have length {self.dim}")
        return _dense(self._bracket_into({}, _sparse(x), _sparse(y)),
                      self.dim, self.d)

    def _bracket_into(self, acc: dict[int, Scalar], x: dict[int, Scalar],
                      y: dict[int, Scalar]) -> dict[int, Scalar]:
        """acc += [x, y] for sparse x and y; returns acc."""
        for i, a in x.items():
            for j, b in y.items():
                terms = self._signed.get((i, j))
                if terms:
                    _axpy(acc, a * b, terms)
        return acc

    def ad(self, x: Vector) -> Matrix:
        """Matrix of y -> [x, y] in the coordinate basis."""
        cols = [self.bracket(x, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix.from_columns(cols, self.d) if cols else Matrix.zero(0, 0, self.d)

    # -------------------------------------------------- diagnostics

    def check_jacobi(self) -> JacobiReport:
        """Evaluate the Jacobi cyclic sum on every basis triple."""
        violations = []
        n, one, br = self.dim, Scalar.one(self.d), self._signed
        for i in range(n if self.table else 0):   # abelian: nothing to sum
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    res: dict[int, Scalar] = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        if (a, b) in br:
                            self._bracket_into(res, br[(a, b)], {c: one})
                    if res:
                        violations.append(JacobiViolation(
                            (i + 1, j + 1, k + 1), _dense(res, n, self.d)))
        return JacobiReport(not violations, tuple(violations))

    def _bracket_span(self, left: Sequence[Vector],
                      right: Sequence[Vector]) -> tuple[Vector, ...]:
        products = [self.bracket(a, b) for a in left for b in right]
        return row_space_basis(products, self.d, self.dim)

    def derived_series(self) -> tuple[tuple[Vector, ...], ...]:
        """Bases of g, [g, g], [[g, g], [g, g]], ... until stable or zero."""
        current = tuple(self.basis_vector(i) for i in range(self.dim))
        series = [current]
        while current:
            nxt = self._bracket_span(current, current)
            if len(nxt) == len(current):
                break
            series.append(nxt)
            current = nxt
        return tuple(series)

    def lower_central_series(self) -> tuple[tuple[Vector, ...], ...]:
        """Bases of g, [g, g], [g, [g, g]], ... until stable or zero."""
        full = tuple(self.basis_vector(i) for i in range(self.dim))
        current = full
        series = [current]
        while current:
            nxt = self._bracket_span(full, current)
            if len(nxt) == len(current):
                break
            series.append(nxt)
            current = nxt
        return tuple(series)

    def is_abelian(self) -> bool:
        return not self.table

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1] == ()

    def is_two_step_solvable(self) -> bool:
        """Whether the second derived algebra [[g,g],[g,g]] vanishes."""
        ds = self.derived_series()
        return len(ds) <= 3 and ds[-1] == ()

    def center(self) -> tuple[Vector, ...]:
        if self.dim == 0:
            return ()
        stacked = Matrix.stack([self.ad(self.basis_vector(i))
                                for i in range(self.dim)])
        return row_space_basis(stacked.nullspace(), self.d, self.dim)

    # -------------------------------------------------- derived objects

    def with_field(self, d: int) -> "LieAlgebra":
        """The same structure constants read in the field Q(sqrt(d))."""
        if d == self.d:
            return self
        table = {pair: tuple((k, Scalar.of(c, d)) for k, c in terms)
                 for pair, terms in self.table.items()}
        return LieAlgebra(self.name, self.dim, table, d)

    def renamed(self, name: str) -> "LieAlgebra":
        return LieAlgebra(name, self.dim, self.table, self.d)

    def __eq__(self, other):
        """Structural equality: same dimension, field and table; names differ freely."""
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (self.dim == other.dim and self.d == other.d
                and self.table == other.table)

    def __hash__(self):
        return hash((self.dim, self.d, tuple(sorted(self.table.items()))))

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim}, d={self.d})"

    def describe(self) -> str:
        """Human readable bracket list in 1-based labels."""
        if not self.table:
            return f"{self.name}: abelian, dim {self.dim}"
        parts = []
        for (i, j) in sorted(self.table):
            terms = []
            for k, c in self.table[(i, j)]:
                if c == Scalar.one(self.d):
                    terms.append(f"X{k + 1}")
                elif c == -Scalar.one(self.d):
                    terms.append(f"-X{k + 1}")
                else:
                    terms.append(f"({c})*X{k + 1}")
            rhs = " + ".join(terms).replace("+ -", "- ")
            parts.append(f"[X{i + 1}, X{j + 1}] = {rhs}")
        return f"{self.name}: dim {self.dim}, " + ", ".join(parts)


# ------------------------------------------------------------------ derivations


def _leibniz(L: LieAlgebra, cols: Sequence[dict[int, Scalar]],
             i: int, j: int) -> dict[int, Scalar]:
    """Sparse D[X_i, X_j] - [D X_i, X_j] - [X_i, D X_j], D by sparse columns."""
    acc: dict[int, Scalar] = {}
    for m, c in L._signed.get((i, j), {}).items():
        _axpy(acc, c, cols[m])
    minus = -Scalar.one(L.d)
    L._bracket_into(acc, cols[i], {j: minus})
    return L._bracket_into(acc, {i: minus}, cols[j])


def leibniz_residual(L: LieAlgebra, m: Matrix, i: int, j: int) -> Vector:
    """D[X_i, X_j] - [D X_i, X_j] - [X_i, D X_j] for basis indices (0-based)."""
    return _dense(_leibniz(L, m._sparse_cols(), i, j), L.dim, L.d)


def _leibniz_failure(L: LieAlgebra, m: Matrix) -> tuple[int, int] | None:
    """The first basis pair (i, j), i < j, where m breaks Leibniz, if any."""
    if m.rows != L.dim or m.cols != L.dim:
        raise ShapeError(f"expected a {L.dim}x{L.dim} matrix")
    cols = m._sparse_cols()
    return next(((i, j) for i in range(L.dim) for j in range(i + 1, L.dim)
                 if _leibniz(L, cols, i, j)), None)


def is_derivation(L: LieAlgebra, m: Matrix) -> bool:
    return _leibniz_failure(L, m) is None


@dataclass(frozen=True)
class DerivationSpace:
    """Canonical basis of the derivation algebra of ``algebra``.

    Basis matrices come from the reduced echelon form of the Leibniz
    solution space with entries flattened row by row, so each basis
    element owns one anchor entry (its pivot) that is 1 in that element
    and 0 in all others.
    """

    algebra: LieAlgebra
    basis: tuple[Matrix, ...]
    anchors: tuple[tuple[int, int], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def derivation_space(L: LieAlgebra) -> DerivationSpace:
    """Solve the Leibniz identity for all of gl(n) at once.

    Unknowns are the n^2 entries of D in row-major order; one linear
    equation per basis pair per coordinate. The kernel is canonicalized
    by row reduction, which makes basis order and anchor entries stable
    across runs and platforms.
    """
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
    kernel = system.nullspace()
    if not kernel:
        return DerivationSpace(L, (), ())
    reduced, pivots, rank = Matrix.from_rows(kernel, L.d).rref()
    basis = tuple(Matrix(n, n, reduced.row(r), L.d) for r in range(rank))
    anchors = tuple(divmod(p, n) for p in pivots)
    return DerivationSpace(L, basis, anchors)


# ------------------------------------------------------------------ semidirect


class SemidirectElement(NamedTuple):
    """Element (v, D) of the semidirect sum of g with its derivations."""
    vector: Vector
    matrix: Matrix


def semidirect_bracket(L: LieAlgebra, a: SemidirectElement | tuple[Vector, Matrix],
                       b: SemidirectElement | tuple[Vector, Matrix]) -> SemidirectElement:
    """[(x, D), (y, E)] = ([x, y] + D y - E x, D E - E D)."""
    vec: dict[int, Scalar] = {}
    rows: list[dict[int, Scalar]] = [{} for _ in range(L.dim)]
    _semidirect_into(L, vec, rows, _sparse_element(*a), _sparse_element(*b))
    return SemidirectElement(_dense(vec, L.dim, L.d),
                             Matrix._of_sparse_rows(rows, L.dim, L.d))


def _sparse_element(x: Vector, m: Matrix) -> tuple:
    """(x, D) as the sparse vector x with the sparse rows and columns of D."""
    return _sparse(x), m._sparse_rows(), m._sparse_cols()


def _semidirect_into(L: LieAlgebra, vec: dict[int, Scalar],
                     rows: Sequence[dict[int, Scalar]],
                     a: tuple, b: tuple) -> None:
    """Add the semidirect bracket [a, b] to vec and to the matrix rows."""
    (xa, ra, ca), (xb, rb, cb) = a, b
    L._bracket_into(vec, xa, xb)
    for q, c in xb.items():
        _axpy(vec, c, ca[q])
    for q, c in xa.items():
        _axpy(vec, -c, cb[q])
    for r, acc in enumerate(rows):
        for k, c in ra[r].items():
            _axpy(acc, c, rb[k])
        for k, c in rb[r].items():
            _axpy(acc, -c, ra[k])


def transport(L: LieAlgebra, p: Matrix, name: str | None = None) -> "LieAlgebra":
    """Structure constants of the same bracket in the basis given by P's columns.

    With Y_i = P e_i the new constants satisfy
    [Y_i, Y_j] = sum_k c'_{ijk} Y_k, i.e. c'-columns are P^{-1} [P e_i, P e_j].
    """
    if p.rows != L.dim or p.cols != L.dim:
        raise ShapeError(f"change of basis must be {L.dim}x{L.dim}")
    if p.d != L.d:
        p = Matrix(p.rows, p.cols, p.entries(), L.d)
    pinv = p.inverse()
    table: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]] = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            w = pinv.apply(L.bracket(p.column(i), p.column(j)))
            terms = tuple((k, c) for k, c in enumerate(w) if not c.is_zero())
            if terms:
                table[(i, j)] = terms
    return LieAlgebra(name or f"{L.name}~", L.dim, table, L.d)


# ------------------------------------------------------------------ catalog


def abelian(dim: int, d: int = 1, name: str | None = None) -> LieAlgebra:
    return LieAlgebra(name or f"R{dim}", dim, {}, d)


@cache
def _build_catalog() -> dict[str, LieAlgebra]:
    """The bundled algebras, built on first use and shared (they are immutable)."""
    cat: dict[str, LieAlgebra] = {}
    for n in range(1, 7):
        cat[f"R{n}"] = abelian(n)
    cat["h3"] = LieAlgebra.from_table("h3", 3, {(1, 2): [(3, 1)]})
    cat["h3+R"] = LieAlgebra.from_table("h3+R", 4, {(1, 2): [(3, 1)]})
    cat["f4"] = LieAlgebra.from_table("f4", 4, {(1, 2): [(3, 1)], (1, 3): [(4, 1)]})
    cat["h3+R2"] = LieAlgebra.from_table("h3+R2", 5, {(1, 2): [(3, 1)]})
    cat["g5_6"] = LieAlgebra.from_table(
        "g5_6", 5,
        {(1, 2): [(3, 1)], (1, 3): [(4, 1)], (1, 4): [(5, 1)], (2, 3): [(5, 1)]})
    cat["g6_18"] = LieAlgebra.from_table(
        "g6_18", 6,
        {(1, 2): [(3, 1)], (1, 3): [(4, 1)], (1, 4): [(5, 1)],
         (2, 5): [(6, 1)], (3, 4): [(6, -1)]})
    return cat


_UNICODE_MAP = str.maketrans({
    "₀": "0", "₁": "1", "₂": "2", "₃": "3", "₄": "4",
    "₅": "5", "₆": "6", "₇": "7", "₈": "8", "₉": "9",
    "⊕": "+", "²": "2", "³": "3",
})


def _normalize_name(name: str) -> str:
    s = name.translate(_UNICODE_MAP).lower()
    for ch in " \t{}_,^$\\":
        s = s.replace(ch, "")
    return s


_CANONICAL_BY_NORMALIZED = {
    "r1": "R1", "r2": "R2", "r3": "R3", "r4": "R4", "r5": "R5", "r6": "R6",
    "h3": "h3", "h3+r": "h3+R", "h3+r1": "h3+R", "h3+r2": "h3+R2",
    "f4": "f4", "g56": "g5_6", "g618": "g6_18",
}


def catalog() -> dict[str, LieAlgebra]:
    """Fresh dict of the bundled algebras, keyed by canonical name."""
    return dict(_build_catalog())


def catalog_names() -> tuple[str, ...]:
    return tuple(_build_catalog())


def _catalog_key(name: str) -> str | None:
    """Canonical catalog key for a (possibly aliased or unicode) name, or None."""
    return _CANONICAL_BY_NORMALIZED.get(_normalize_name(name))


def resolve_name(name: str) -> str:
    """Canonical catalog key for a (possibly aliased or unicode) name."""
    key = _catalog_key(name)
    if key is None:
        raise ParseError(f"unknown algebra name {name!r}; "
                         f"known: {', '.join(catalog_names())}")
    return key


def get_algebra(name: str) -> LieAlgebra:
    return _build_catalog()[resolve_name(name)]


# ------------------------------------------------------------------ file format


def algebra_to_dict(L: LieAlgebra) -> dict:
    """JSON-ready form with 1-based indices and exact scalar encoding."""
    brackets = []
    for (i, j) in sorted(L.table):
        terms = [{"k": k + 1, "c": scalar_to_json(c)} for k, c in L.table[(i, j)]]
        brackets.append({"i": i + 1, "j": j + 1, "terms": terms})
    return {"name": L.name, "dim": L.dim, "d": L.d, "brackets": brackets}


def _expect_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def algebra_from_dict(data: object, where: str = "algebra") -> LieAlgebra:
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = set(data) - {"name", "dim", "d", "brackets"}
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    if "dim" not in data:
        raise ParseError(f"{where}: missing required key 'dim'")
    dim = _expect_int(data["dim"], f"{where}.dim")
    if dim < 0:
        raise ParseError(f"{where}.dim: must be non-negative")
    if dim > MAX_DIM:
        raise ParseError(f"{where}.dim: {dim} exceeds the largest supported "
                         f"dimension {MAX_DIM}")
    d = _expect_int(data.get("d", 1), f"{where}.d")
    name = data.get("name", "L")
    if not isinstance(name, str):
        raise ParseError(f"{where}.name: expected a string")
    raw = data.get("brackets", [])
    if not isinstance(raw, list):
        raise ParseError(f"{where}.brackets: expected a list")
    table: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
    for bi, entry in enumerate(raw):
        loc = f"{where}.brackets[{bi}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{loc}: expected an object")
        for key in ("i", "j", "terms"):
            if key not in entry:
                raise ParseError(f"{loc}: missing key {key!r}")
        extra = set(entry) - {"i", "j", "terms"}
        if extra:
            raise ParseError(f"{loc}: unknown keys {sorted(extra)}")
        i = _expect_int(entry["i"], f"{loc}.i")
        j = _expect_int(entry["j"], f"{loc}.j")
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ParseError(f"{loc}: indices ({i}, {j}) out of range 1..{dim}")
        if i >= j:
            raise ParseError(f"{loc}: require i < j, got ({i}, {j})")
        if (i - 1, j - 1) in table:
            raise ParseError(f"{loc}: duplicate bracket ({i}, {j})")
        if not isinstance(entry["terms"], list):
            raise ParseError(f"{loc}.terms: expected a list")
        terms: list[tuple[int, Scalar]] = []
        seen: set[int] = set()
        for ti, term in enumerate(entry["terms"]):
            tloc = f"{loc}.terms[{ti}]"
            if not isinstance(term, dict) or set(term) != {"k", "c"}:
                raise ParseError(f"{tloc}: expected an object with keys 'k' and 'c'")
            k = _expect_int(term["k"], f"{tloc}.k")
            if not 1 <= k <= dim:
                raise ParseError(f"{tloc}.k: {k} out of range 1..{dim}")
            if k in seen:
                raise ParseError(f"{tloc}.k: duplicate target {k}")
            seen.add(k)
            terms.append((k - 1, scalar_from_json(term["c"], d, f"{tloc}.c")))
        table[(i - 1, j - 1)] = terms
    try:
        return LieAlgebra(name, dim, table, d)
    except (ShapeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
