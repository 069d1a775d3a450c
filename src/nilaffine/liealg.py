"""Finite dimensional Lie algebras given by structure constants.

An algebra lives on coordinate space Q(sqrt(d))^n with the bracket
determined by sparse structure constants. Indices are 0-based throughout
the API; the JSON file format and printed reports use 1-based labels, and
conversion happens only at those boundaries.

Everything here is exact. Jacobi checking, derivation spaces, central
series and the bundled catalog all reduce to the rational linear algebra
in :mod:`nilaffine.linalg`, so results are decisions, not approximations.
They run on the stored constants and on sparse RREF rows; the dense
Scalar vectors of ``bracket``, ``bracket_basis``, the series and
``center`` are built only to be returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ParseError, ShapeError, quoted
from .linalg import Matrix, Vector, _axpy, _dense, _kernel, _rref, _sparse
from .scalars import (Coefficient, Frozen, check_context, exact, scalar_from_json,
                      scalar_to_json, stored, unit)

BracketTable = Mapping[tuple[int, int], Iterable[tuple[int, object]]]

# Largest dimension a document may declare. derivation_space solves a
# sparse system of n^2 (n - 1) / 2 equations in n^2 unknowns, and the
# obstruction equations grow faster still. Without a bound a huge declared
# dim exhausts memory.
MAX_DIM = 16
# Most seeded candidates obstruct_abelian may draw. The search time grows
# linearly with them, so with no bound one argument can run for hours; a
# dense h3 draws them all and ends Undetermined in under a second here.
MAX_SAMPLES = 1000
# Largest field context d a document may declare. is_square_free decides d
# in O(d^(1/3)) trial divisions: under a second at this bound.
MAX_FIELD_D = 2 ** 63


class JacobiViolation(NamedTuple):
    triple: tuple[int, int, int]   # 1-based, printed as X_i labels
    residual: Vector


@dataclass(frozen=True)
class IdentityReport:
    """An identity's verdict and violations: of Jacobi from check_jacobi, of
    the homomorphism from check_homomorphism and of LR from check_lr."""

    ok: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.ok


class LieAlgebra(Frozen):
    """A Lie algebra on Q(sqrt(d))^n with sparse structure constants.

    The table maps index pairs (i, j) with i < j to the coordinates of
    [X_i, X_j]; the bracket extends bilinearly and antisymmetrically.
    Construction normalizes the table but does not check Jacobi; call
    :meth:`check_jacobi` for that. The constants are stored once, in stored
    form, as sparse vectors under both (i, j) and (j, i), signed, for the
    kernels.
    """

    __slots__ = ("name", "dim", "d", "_signed")

    def __init__(self, name: str, dim: int, table: BracketTable, d: int = 1):
        if dim < 0:
            raise ShapeError("dimension must be non-negative")
        check_context(d)
        norm: dict[tuple[int, int], tuple[tuple[int, Coefficient], ...]] = {}
        for (i, j), terms in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ShapeError(f"bracket index ({i}, {j}) out of range for dim {dim}")
            if i == j:
                raise ShapeError(f"bracket ({i}, {i}) of a vector with itself")
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            acc: dict[int, Coefficient] = dict(norm.get((i, j), ()))
            for k, c in terms:
                if not 0 <= k < dim:
                    raise ShapeError(f"bracket target {k} out of range for dim {dim}")
                coeff = stored(c, d) * sign
                acc[k] = exact(acc[k] + coeff) if k in acc else coeff
            cleaned = tuple(sorted((k, v) for k, v in acc.items() if v))
            if cleaned:
                norm[(i, j)] = cleaned
            else:
                norm.pop((i, j), None)
        self._fill(name, dim, d, {
            **{pair: dict(terms) for pair, terms in norm.items()},
            **{(j, i): {k: -c for k, c in terms} for (i, j), terms in norm.items()}})

    @classmethod
    def from_table(cls, name: str, dim: int,
                   brackets: BracketTable, d: int = 1) -> "LieAlgebra":
        """Build from a 1-based table, the convention used in files and docs."""
        shifted = {(i - 1, j - 1): tuple((k - 1, c) for k, c in terms)
                   for (i, j), terms in brackets.items()}
        return cls(name, dim, shifted, d)

    def _upper(self) -> dict[tuple[int, int], Iterable[tuple[int, Coefficient]]]:
        """The stored constants of the pairs i < j: (i, j) -> (k, c) pairs."""
        return {pair: terms.items() for pair, terms in self._signed.items()
                if pair[0] < pair[1]}

    # -------------------------------------------------- bracket

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[X_i, X_j] as a coordinate vector (0-based indices)."""
        return _dense(self._signed.get((i, j), {}), self.dim, self.d)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeError(f"bracket arguments must have length {self.dim}")
        return _dense(self._bracket_into({}, _sparse(x, self.d), _sparse(y, self.d)),
                      self.dim, self.d)

    def _bracket_into(self, acc: dict, x: dict, y: dict) -> dict:
        """acc += [x, y] for sparse x and y; returns acc."""
        for i, a in x.items():
            for j, b in y.items():
                terms = self._signed.get((i, j))
                if terms:
                    _axpy(acc, a * b, terms)
        return acc

    # -------------------------------------------------- diagnostics

    def check_jacobi(self) -> IdentityReport:
        """Evaluate the Jacobi cyclic sum on every basis triple."""
        violations = []
        n, one, br = self.dim, unit(self.d), self._signed
        for i in range(n if br else 0):   # abelian: nothing to sum
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    res: dict[int, Coefficient] = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        if (a, b) in br:
                            self._bracket_into(res, br[(a, b)], {c: one})
                    if res:
                        violations.append(JacobiViolation(
                            (i + 1, j + 1, k + 1), _dense(res, n, self.d)))
        return IdentityReport(not violations, tuple(violations))

    def _series(self, derived: bool) -> tuple[list[list[dict]], bool]:
        """Sparse RREF bases of g = g_0, g_1, ... until stable or zero, with
        g_(k+1) = [g_k, g_k] (derived) or [g, g_k] (lower central), and
        whether g is two-step solvable (derived) or nilpotent (lower central)."""
        one = unit(self.d)
        full = [{i: one} for i in range(self.dim)]
        current, series = full, [full]
        while current:
            pairs = combinations(current, 2) if derived else product(full, current)
            _, nxt = _rref(self._bracket_into({}, a, b) for a, b in pairs)
            if len(nxt) == len(current):
                break
            series.append(nxt)
            current = nxt
        return series, not series[-1] and (not derived or len(series) <= 3)

    def _dense_rows(self, rows: Iterable[dict]) -> tuple[Vector, ...]:
        return tuple(_dense(r, self.dim, self.d) for r in rows)

    def derived_series(self) -> tuple[tuple[Vector, ...], ...]:
        """Bases of g, [g, g], [[g, g], [g, g]], ... until stable or zero."""
        return tuple(map(self._dense_rows, self._series(True)[0]))

    def lower_central_series(self) -> tuple[tuple[Vector, ...], ...]:
        """Bases of g, [g, g], [g, [g, g]], ... until stable or zero."""
        return tuple(map(self._dense_rows, self._series(False)[0]))

    def is_abelian(self) -> bool:
        return not self._signed

    def is_nilpotent(self) -> bool:
        return self._series(False)[1]

    def is_two_step_solvable(self) -> bool:
        """Whether the second derived algebra [[g,g],[g,g]] vanishes."""
        return self._series(True)[1]

    def center(self) -> tuple[Vector, ...]:
        """RREF basis of {x : sum_i x_i [X_i, X_j] = 0 for every j}."""
        rows: dict[tuple[int, int], dict] = {}   # (j, k) -> {i: [X_i, X_j]_k}
        for (i, j), terms in self._signed.items():
            for k, c in terms.items():
                rows.setdefault((j, k), {})[i] = c
        return self._dense_rows(_kernel(rows.values(), self.dim, unit(self.d)))

    # -------------------------------------------------- derived objects

    def with_field(self, d: int) -> "LieAlgebra":
        """The same structure constants read in the field Q(sqrt(d))."""
        if d == self.d:
            return self
        return LieAlgebra(self.name, self.dim, self._upper(), d)

    def __eq__(self, other):
        """Structural equality: same dimension, field and table; names differ freely."""
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (self.dim == other.dim and self.d == other.d
                and self._signed == other._signed)

    def __hash__(self):
        return hash((self.dim, self.d, frozenset(
            (pair, frozenset(terms.items())) for pair, terms in self._signed.items())))

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim}, d={self.d})"

    def describe(self) -> str:
        """Human readable bracket list in 1-based labels."""
        upper = self._upper()
        if not upper:
            return f"{self.name}: abelian, dim {self.dim}"
        parts = []
        for (i, j) in sorted(upper):
            terms = [f"X{k + 1}" if c == 1 else f"-X{k + 1}" if c == -1
                     else f"({c})*X{k + 1}" for k, c in upper[(i, j)]]
            rhs = " + ".join(terms).replace("+ -", "- ")
            parts.append(f"[X{i + 1}, X{j + 1}] = {rhs}")
        return f"{self.name}: dim {self.dim}, " + ", ".join(parts)


# ------------------------------------------------------------------ derivations


def _leibniz(L: LieAlgebra, cols: Sequence[dict], i: int, j: int) -> dict:
    """Sparse D[X_i, X_j] - [D X_i, X_j] - [X_i, D X_j], D by sparse columns."""
    acc: dict[int, Coefficient] = {}
    for m, c in L._signed.get((i, j), {}).items():
        _axpy(acc, c, cols[m])
    minus = -unit(L.d)
    L._bracket_into(acc, cols[i], {j: minus})
    return L._bracket_into(acc, {i: minus}, cols[j])


def _leibniz_failure(L: LieAlgebra, m: Matrix) -> tuple[int, int] | None:
    """The first basis pair (i, j), i < j, where m breaks Leibniz, if any."""
    if m.rows != L.dim or m.cols != L.dim:
        raise ShapeError(f"expected a {L.dim}x{L.dim} matrix")
    cols = m._sparse_cols()
    return next(((i, j) for i in range(L.dim) for j in range(i + 1, L.dim)
                 if _leibniz(L, cols, i, j)), None)


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

    Unknowns are the n^2 entries of D in row-major order; one sparse
    linear equation per basis pair per coordinate. One elimination gives the
    kernel's unique RREF basis (:func:`~nilaffine.linalg._kernel`), so basis
    order and anchors (leading entries) are stable across runs. The system
    holds the stored form of the constants, so at d = 1 it is eliminated
    over int and Fraction coefficients (see :func:`nilaffine.scalars.exact`).
    """
    n, br = L.dim, L._signed
    last, system = n * n - 1, []
    for i in range(n):
        for j in range(i + 1, n):
            # row k holds coordinate k of D[X_i, X_j] - [D X_i, X_j]
            # - [X_i, D X_j] in the D_ab, at column a * n + b, flipped below
            rows: list[dict] = [{} for _ in range(n)]
            for m, c in br.get((i, j), {}).items():
                for k in range(n):
                    rows[k][k * n + m] = c
            for m in range(n):
                for col, pair in ((m * n + i, (m, j)), (m * n + j, (i, m))):
                    for k, c in br.get(pair, {}).items():
                        s = rows[k].get(col)
                        rows[k][col] = -c if s is None else s - c
            system += ({last - col: c for col, c in row.items() if c} for row in rows)
    kernel = _kernel(system, n * n, unit(L.d), flipped=True)
    basis = []
    for flat in kernel:   # row a holds the columns a * n + b of the flat row
        rows = [{} for _ in range(n)]
        for col, c in flat.items():
            rows[col // n][col % n] = c
        basis.append(Matrix._of(rows, n, L.d))
    return DerivationSpace(L, tuple(basis), tuple(divmod(min(v), n) for v in kernel))


# ------------------------------------------------------------------ semidirect


def _sparse_element(x: Vector, m: Matrix) -> tuple:
    """(x, D) as the sparse vector x with the sparse rows and columns of D."""
    return _sparse(x, m.d), m._rows, m._sparse_cols()


def _semidirect_into(L: LieAlgebra, vec: dict, rows: Sequence[dict],
                     a: tuple, b: tuple) -> None:
    """Add the semidirect bracket [a, b] to vec and to the matrix rows:
    [(x, D), (y, E)] = ([x, y] + D y - E x, D E - E D)."""
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
    p = p.with_field(L.d)
    cols, inv_cols = p._sparse_cols(), p.inverse()._sparse_cols()
    table: dict[tuple[int, int], tuple[tuple[int, Coefficient], ...]] = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            w: dict[int, Coefficient] = {}
            for m, c in L._bracket_into({}, cols[i], cols[j]).items():
                _axpy(w, c, inv_cols[m])
            if w:
                table[(i, j)] = tuple(w.items())
    return LieAlgebra(name or f"{L.name}~", L.dim, table, L.d)


# ------------------------------------------------------------------ catalog


def abelian(dim: int, d: int = 1) -> LieAlgebra:
    return LieAlgebra(f"R{dim}", dim, {}, d)


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


@cache
def _keys_by_normalized() -> dict[str, str]:
    """Each catalog key under its normalized name, and the alias h3+r1."""
    keys = {_normalize_name(key): key for key in _build_catalog()}
    keys["h3+r1"] = "h3+R"
    return keys


def catalog_names() -> tuple[str, ...]:
    return tuple(_build_catalog())


def _catalog_key(name: str) -> str | None:
    """Canonical catalog key for a (possibly aliased or unicode) name, or None."""
    return _keys_by_normalized().get(_normalize_name(name))


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


def _table_to_json(table: BracketTable) -> list:
    """The JSON list of a 0-based sparse table (i, j) -> [(k, c), ...]: the
    bracket and product format, 1-based, in pair and then target order."""
    return [{"i": i + 1, "j": j + 1,
             "terms": [{"k": k + 1, "c": scalar_to_json(c)}
                       for k, c in sorted(table[(i, j)])]}
            for (i, j) in sorted(table)]


def algebra_to_dict(L: LieAlgebra) -> dict:
    """JSON-ready form with 1-based indices and exact scalar encoding."""
    return {"name": L.name, "dim": L.dim, "d": L.d,
            "brackets": _table_to_json(L._upper())}


def _expect_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {quoted(value)}")
    return value


def _expect_field(value, where: str) -> int:
    d = _expect_int(value, where)
    if d > MAX_FIELD_D:
        raise ParseError(f"{where}: exceeds the largest supported field "
                         f"context {MAX_FIELD_D} (2^63)")
    try:
        return check_context(d)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _table_from_json(raw: object, dim: int, d: int, where: str
                     ) -> dict[tuple[int, int], tuple[tuple[int, Coefficient], ...]]:
    """Read the bracket and product format: a list of {i, j, terms} entries,
    each term {k, c}, every index in 1..dim, each pair named once and each k
    once per term list. Returns the 1-based table (i, j) -> ((k, c), ...)."""
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected a list")
    table: dict[tuple[int, int], tuple[tuple[int, Coefficient], ...]] = {}
    for ei, entry in enumerate(raw):
        loc = f"{where}[{ei}]"
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "terms"}:
            raise ParseError(f"{loc}: expected an object with keys i, j and terms")
        i = _expect_int(entry["i"], f"{loc}.i")
        j = _expect_int(entry["j"], f"{loc}.j")
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ParseError(f"{loc}: pair ({quoted(i)}, {quoted(j)}) "
                             f"out of range 1..{dim}")
        if (i, j) in table:
            raise ParseError(f"{loc}: duplicate pair ({i}, {j})")
        if not isinstance(entry["terms"], list):
            raise ParseError(f"{loc}.terms: expected a list")
        terms: dict[int, Coefficient] = {}
        for ti, term in enumerate(entry["terms"]):
            tloc = f"{loc}.terms[{ti}]"
            if not isinstance(term, dict) or set(term) != {"k", "c"}:
                raise ParseError(f"{tloc}: expected an object with keys k and c")
            k = _expect_int(term["k"], f"{tloc}.k")
            if not 1 <= k <= dim:
                raise ParseError(f"{tloc}.k: {quoted(k)} out of range 1..{dim}")
            if k in terms:
                raise ParseError(f"{tloc}.k: duplicate target {k}")
            terms[k] = scalar_from_json(term["c"], d, f"{tloc}.c")
        table[(i, j)] = tuple(terms.items())
    return table


def algebra_from_dict(data: object, where: str = "algebra") -> LieAlgebra:
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = set(data) - {"name", "dim", "d", "brackets"}
    if unknown:
        raise ParseError(f"{where}: unknown keys {quoted(sorted(unknown))}")
    if "dim" not in data:
        raise ParseError(f"{where}: missing required key 'dim'")
    dim = _expect_int(data["dim"], f"{where}.dim")
    if dim < 0:
        raise ParseError(f"{where}.dim: must be non-negative")
    if dim > MAX_DIM:
        raise ParseError(f"{where}.dim: {quoted(dim)} exceeds the largest "
                         f"supported dimension {MAX_DIM}")
    d = _expect_field(data.get("d", 1), f"{where}.d")
    name = data.get("name", "L")
    if not isinstance(name, str):
        raise ParseError(f"{where}.name: expected a string")
    table = _table_from_json(data.get("brackets", []), dim, d, f"{where}.brackets")
    for bi, (i, j) in enumerate(table):   # one table pair per entry, in order
        if i >= j:
            raise ParseError(f"{where}.brackets[{bi}]: require i < j, got ({i}, {j})")
    return LieAlgebra.from_table(name, dim, table, d)
