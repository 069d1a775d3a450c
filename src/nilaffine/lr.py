"""Bilinear products with commuting left and right multiplications.

An :class:`LRStructure` equips a Lie algebra with a product X.Y, stored as
the sparse left multiplications L(X_i) and built from them or from a
sparse product table. It is subject to three identities, checked exactly
on basis elements (multilinearity does the rest):

  (1) X.(Y.Z) = Y.(X.Z)        left multiplications commute
  (2) (X.Y).Z = (X.Z).Y        right multiplications commute
  (3) [X, Y] = X.Y - Y.X       the commutator recovers the bracket

The structure is complete when every left multiplication L(X) is
nilpotent. Because identity (1) makes the L-operators commute, this is
equivalent to the existence of a common strict flag for the basis family
{L(X_i)}, which is what :func:`check_complete` computes, keeping the flag
as a certificate.

Complete structures and simply transitive representations with abelian
source translate into one another: rep_to_lr reads the product off the
negated linear parts (normalizing translations to the identity first),
lr_to_rep rebuilds the representation. Each direction checks its input
and only builds its output: that a passing rep yields a complete
structure, and a complete structure a passing rep, is the theorem the
conversions rest on; the test suite checks it on the bundled reps and
the solver's witnesses.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .affine import (AffineRep, NilpotencyReport, _algebra_ref_from_json,
                     _algebra_ref_to_json, _resolve_context, _unit_translations,
                     check_simply_transitive)
from .errors import (IncompleteStructureError, LRIdentityError,
                     NotSimplyTransitiveError, PreconditionError, ShapeError)
from .liealg import (IdentityReport, LieAlgebra, _expect_object, _require_jacobi,
                     _table_from_json, _table_to_json, abelian)
from .linalg import (Matrix, Vector, _axpy, _combination, _dense, _transpose,
                     engel_flag)
from .scalars import Frozen, exact, stored, unit


class LRViolation(NamedTuple):
    identity: int                 # 1, 2 or 3
    where: tuple[int, ...]        # 1-based basis triple (identities 1, 2) or pair (3)
    residual: Vector


class LRStructure(Frozen):
    """Product constants over ordered basis pairs of a Lie algebra.

    lefts[i] is L(X_i), the sparse Matrix whose column j is X_i . X_j;
    ``product_basis`` reads one such column as a dense vector. A structure
    is built only by ``_of`` from its L(X_i) or by :meth:`from_table`, so
    ``LRStructure()`` raises TypeError. Building does not check the
    identities; :func:`check_lr` does.
    """

    __slots__ = ("algebra", "lefts")

    @classmethod
    def _of(cls, algebra: LieAlgebra, lefts: Iterable[Matrix]) -> "LRStructure":
        """Wrap the matrices L(X_i), n x n in the algebra's context."""
        return object.__new__(cls)._fill(algebra, tuple(lefts))

    @classmethod
    def from_table(cls, algebra: LieAlgebra,
                   table: Mapping[tuple[int, int], Iterable[tuple[int, object]]]
                   ) -> "LRStructure":
        """Build from a sparse 1-based table (i, j) -> [(k, c), ...]."""
        n, d = algebra.dim, algebra.d
        lefts = [[{} for _ in range(n)] for _ in range(n)]  # [i][k]: row k of L(X_i)
        for (i, j), terms in table.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise ShapeError(f"product pair ({i}, {j}) out of range 1..{n}")
            for k, c in terms:
                if not 1 <= k <= n:
                    raise ShapeError(f"product target {k} out of range 1..{n}")
                row = lefts[i - 1][k - 1]
                if s := exact(row.pop(j - 1, 0) + stored(c, d)):
                    row[j - 1] = s
        return cls._of(algebra, (Matrix._of(r, n, algebra.d) for r in lefts))

    @property
    def d(self) -> int:
        return self.algebra.d

    def product_basis(self, i: int, j: int) -> Vector:
        return self.lefts[i].column(j)

    def product(self, x: Vector, y: Vector) -> Vector:
        """x . y = (sum of x_i L(X_i)) y."""
        n = self.algebra.dim
        if len(x) != n or len(y) != n:
            raise ShapeError(f"product arguments must have length {n}")
        return _combination(zip(x, self.lefts), n, n, self.d).apply(y)

    def right_matrix(self, i: int) -> Matrix:
        """R(X_i): columns are X_j . X_i, column i of each L(X_j)."""
        return Matrix._of(_transpose([m._sparse_cols()[i] for m in self.lefts],
                                     self.algebra.dim), self.algebra.dim, self.d)

    def __eq__(self, other):
        if not isinstance(other, LRStructure):
            return NotImplemented
        return self.algebra == other.algebra and self.lefts == other.lefts

    def __hash__(self):
        return hash((self.algebra, self.lefts))

    def __repr__(self):
        return f"LRStructure(on {self.algebra.name!r}, dim={self.algebra.dim})"


# ------------------------------------------------------------------ checks


def _left_commutator(p: list, i: int, j: int, k: int) -> dict:
    """Sparse X_i.(X_j.X_k) - X_j.(X_i.X_k), column k of [L(X_i), L(X_j)]."""
    acc: dict = {}
    for m, c in p[j][k].items():
        _axpy(acc, c, p[i][m])
    for m, c in p[i][k].items():
        _axpy(acc, -c, p[j][m])
    return acc


def check_lr(s: LRStructure) -> IdentityReport:
    """Decide identities (1), (2), (3) on all basis triples and pairs."""
    _require_jacobi(s.algebra)
    n, d = s.algebra.dim, s.d
    p = [m._sparse_cols() for m in s.lefts]
    one = unit(d)
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r1 = _left_commutator(p, i, j, k)
                if r1:
                    violations.append(LRViolation(1, (i + 1, j + 1, k + 1),
                                                  _dense(r1, n, d)))
                # (X_i.X_j).X_k - (X_i.X_k).X_j
                r2: dict = {}
                for m, c in p[i][j].items():
                    _axpy(r2, c, p[m][k])
                for m, c in p[i][k].items():
                    _axpy(r2, -c, p[m][j])
                if r2:
                    violations.append(LRViolation(2, (i + 1, j + 1, k + 1),
                                                  _dense(r2, n, d)))
    for i in range(n):
        for j in range(i + 1, n):
            r3 = dict(s.algebra._signed.get((i, j), {}))
            _axpy(r3, -one, p[i][j])
            _axpy(r3, one, p[j][i])
            if r3:
                violations.append(LRViolation(3, (i + 1, j + 1),
                                              _dense(r3, n, d)))
    violations.sort(key=lambda v: (v.identity, v.where))
    return IdentityReport(not violations, tuple(violations))


def check_complete(s: LRStructure) -> NilpotencyReport:
    """Whether all left multiplications are nilpotent, via a common flag: the
    nilpotency criterion of lr_to_rep(s), D_i = -L(X_i), with no witness.

    Requires commuting left multiplications (identity (1)); without it a
    flag's absence would not certify a non-nilpotent L(X). That slice of
    check_lr is re-verified here since completeness is meaningless when it
    fails.
    """
    n = s.algebra.dim
    p = [m._sparse_cols() for m in s.lefts]
    for i in range(n):
        for j in range(i + 1, n):
            if any(_left_commutator(p, i, j, k) for k in range(n)):
                raise PreconditionError(
                    f"left multiplications L(X_{i + 1}) and L(X_{j + 1}) do "
                    f"not commute; identity (1) fails")
    flag = engel_flag(s.lefts, size=n, d=s.d)
    if flag:
        return NilpotencyReport(True, flag=flag)
    return NilpotencyReport(False, failure=flag)


# ------------------------------------------------------------------ the two directions


def rep_to_lr(rep: AffineRep) -> LRStructure:
    """Product X.Y = -D_X(Y) of a passing representation with abelian source.

    The representation is checked through the full simple-transitivity
    verdict first; a failing one raises NotSimplyTransitiveError naming
    the failed criteria. See :func:`_lr_of_passing_rep` for the conversion.
    """
    if not rep.source.is_abelian():
        raise PreconditionError(
            f"source algebra {rep.source.name!r} is not abelian")
    if rep.source.dim != rep.target.dim:
        raise PreconditionError(
            f"source dimension {rep.source.dim} differs from target "
            f"dimension {rep.target.dim}")
    verdict = check_simply_transitive(rep)
    if not verdict.overall:
        parts = []
        if not verdict.homomorphism:
            parts.append("homomorphism")
        if not verdict.t_bijective:
            parts.append("translation bijectivity")
        if not verdict.linear_parts_nilpotent:
            parts.append("nilpotency of linear parts")
        raise NotSimplyTransitiveError(
            "representation is not simply transitive; failing: "
            + ", ".join(parts))
    return _lr_of_passing_rep(rep)


def _lr_of_passing_rep(rep: AffineRep) -> LRStructure:
    """The product of a rep already known to pass check_simply_transitive.

    When the translation matrix is not the identity the source basis is
    re-parametrized through its inverse first (an automorphism, since the
    source is abelian), so the product is always read in target
    coordinates. The result is not re-checked: a passing rep gives a
    complete LR-structure by the theorem the module rests on.
    """
    tmat, parts_D, n = rep.t_matrix(), rep.D, rep.target.dim
    if tmat != Matrix.identity(tmat.rows, rep.d):
        parts_D = [_combination(((c, rep.D[k]) for k, c in col.items()), n, n, rep.d)
                   for col in tmat.inverse()._sparse_cols()]
    return LRStructure._of(rep.target, (-m for m in parts_D))


def lr_to_rep(s: LRStructure) -> AffineRep:
    """Representation with abelian source, identity translations, D_i = -L(X_i).

    Refuses structures that fail the identities (LRIdentityError, a
    PreconditionError, naming the first violation) or completeness
    (IncompleteStructureError, with the stalled-subspace evidence); a
    Jacobi failure of the algebra is a plain PreconditionError. Identity
    (1) is decided once, by check_lr; once it holds, the Engel flag alone
    decides completeness. The rep is not re-checked: the LR identities
    make each -L(X_i) a derivation, and completeness makes the rep simply
    transitive.
    """
    report = check_lr(s)
    if not report.ok:
        first = report.violations[0]
        raise LRIdentityError(
            f"product violates LR identity {first.identity} at {first.where}")
    n = s.algebra.dim
    flag = engel_flag(s.lefts, size=n, d=s.d)
    if not flag:
        raise IncompleteStructureError(
            "structure is not complete: left multiplications have no common "
            "strict flag", evidence=flag)
    return AffineRep(abelian(n, s.d), s.algebra, _unit_translations(n),
                     [-m for m in s.lefts],
                     label=f"abelian rep on {s.algebra.name}")


# ------------------------------------------------------------------ files


def lr_to_dict(s: LRStructure) -> dict:
    product = _table_to_json({(i, j): col.items() for i, m in enumerate(s.lefts)
                              for j, col in enumerate(m._sparse_cols()) if col})
    doc = {"algebra": _algebra_ref_to_json(s.algebra), "product": product}
    if s.d != 1:
        doc["d"] = s.d
    return doc


def lr_from_dict(data: object, where: str = "lr") -> LRStructure:
    _expect_object(data, where, ("algebra", "product", "d"), ("algebra",))
    d = _resolve_context(data, where)
    algebra = _algebra_ref_from_json(data["algebra"], d, f"{where}.algebra")
    return LRStructure.from_table(algebra, _table_from_json(
        data.get("product", []), algebra.dim, algebra.d, f"{where}.product"))
