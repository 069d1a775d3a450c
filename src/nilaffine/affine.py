"""Affine representations on the algebra level and their verification.

An :class:`AffineRep` sends each source basis vector X_i to a pair
(t_i, D_i): a translation vector in the target algebra and a derivation
of it, extended linearly to all of the source. The pair is a point in
the semidirect sum of the target with its derivation algebra, and the
representation is the differential of an affine action candidate.

Two facts get decided here, both exactly. First, whether the assignment
is a Lie algebra homomorphism into the semidirect sum. Second, whether
it satisfies the simple-transitivity criteria: the translation map is a
linear bijection and every linear part in the span of the D_i is
nilpotent. The nilpotency half is certified in one shot by a common
strict flag for the whole family (see :func:`nilaffine.linalg.engel_flag`)
instead of per-element checks, which is sound for the span because a
strict flag triangularizes every combination at once.

Indices in reports and error messages are 1-based (X_1, D_1, ...);
the Python API is 0-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (DerivationError, FieldMismatchError, ParseError,
                     PreconditionError, ShapeError, quoted)
from .liealg import (IdentityReport, LieAlgebra, _build_catalog, _catalog_key,
                     _expect_field, _leibniz_failure, _semidirect_into,
                     _sparse_element, algebra_from_dict, algebra_to_dict,
                     get_algebra)
from .linalg import (EngelFailure, Flag, Matrix, Vector, _axpy, _combination,
                     _dense, as_vector, engel_flag, matrix_from_json, matrix_to_json,
                     vector_from_json, vector_to_json)
from .scalars import Frozen, Scalar, unit


class AffineRep(Frozen):
    """Basis-indexed data of a map X_i -> (t_i, D_i).

    Shapes and the field context are validated at construction; the
    derivation property of the D_i and the homomorphism identity are not,
    so partially built or deliberately broken reps can be represented and
    then diagnosed. Use :func:`validate_derivations`,
    :func:`check_homomorphism` and :func:`check_simply_transitive`.
    """

    __slots__ = ("source", "target", "t", "D", "label")

    def __init__(self, source: LieAlgebra, target: LieAlgebra,
                 t: Sequence[Sequence], D: Sequence[Matrix],
                 label: str | None = None):
        if source.d != target.d:
            raise FieldMismatchError(
                f"source context d={source.d} differs from target d={target.d}")
        m, n = source.dim, target.dim
        if len(t) != m:
            raise ShapeError(f"expected {m} translation vectors, got {len(t)}")
        if len(D) != m:
            raise ShapeError(f"expected {m} linear parts, got {len(D)}")
        tv = []
        for i, row in enumerate(t):
            vec = as_vector(row, target.d)
            if len(vec) != n:
                raise ShapeError(f"translation vector {i + 1} has length "
                                 f"{len(vec)}, expected {n}")
            tv.append(vec)
        dm = []
        for i, mat in enumerate(D):
            if not isinstance(mat, Matrix):
                raise TypeError(f"linear part {i + 1} must be a Matrix")
            if mat.rows != n or mat.cols != n:
                raise ShapeError(f"linear part {i + 1} is {mat.rows}x{mat.cols}, "
                                 f"expected {n}x{n}")
            dm.append(mat.with_field(target.d))
        self._fill(source, target, tuple(tv), tuple(dm),
                   label or f"{source.name}->{target.name}")

    @property
    def d(self) -> int:
        return self.target.d

    def t_matrix(self) -> Matrix:
        """The target.dim x source.dim matrix whose columns are the t_i."""
        return Matrix.from_columns(self.t, self.d) if self.t else \
            Matrix.zero(self.target.dim, 0, self.d)

    def D_of(self, x: Vector) -> Matrix:
        """Linear part of an arbitrary source vector, by linearity."""
        if len(x) != self.source.dim:
            raise ShapeError(f"expected a source vector of length {self.source.dim}")
        n = self.target.dim
        return _combination(zip(x, self.D), n, n, self.d)

    def __eq__(self, other):
        if not isinstance(other, AffineRep):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.t == other.t and self.D == other.D)

    def __hash__(self):
        return hash((self.source, self.target, self.t, self.D))

    def __repr__(self):
        return (f"AffineRep({self.label!r}, {self.source.dim}->"
                f"{self.target.dim}, d={self.d})")


def validate_derivations(rep: AffineRep) -> None:
    """Raise DerivationError naming the first D_i violating Leibniz.

    The error carries 1-based labels: index is the offending i of D_i,
    pair the basis pair (a, b) of the target where the residual is nonzero.
    """
    for i, mat in enumerate(rep.D):
        pair = _leibniz_failure(rep.target, mat)
        if pair is not None:
            a, b = pair
            raise DerivationError(
                f"D_{i + 1} violates the Leibniz rule on the target "
                f"pair (X_{a + 1}, X_{b + 1})",
                index=i + 1, pair=(a + 1, b + 1))


# ------------------------------------------------------------------ verdicts


class HomViolation(NamedTuple):
    pair: tuple[int, int]          # 1-based source basis pair
    vector_residual: Vector
    matrix_residual: Matrix


def check_homomorphism(rep: AffineRep) -> IdentityReport:
    """Whether X_i -> (t_i, D_i) respects brackets into the semidirect sum.

    Preconditions (raised, not reported): the source satisfies Jacobi and
    every D_i is a derivation of the target. With those in place the map
    lands in an actual Lie algebra and the check is the identity
    rep([X_i, X_j]) = [(t_i, D_i), (t_j, D_j)] for all i < j, the right
    side being the semidirect bracket.
    """
    jac = rep.source.check_jacobi()
    if not jac.ok:
        first = jac.violations[0].triple
        raise PreconditionError(
            f"source algebra {rep.source.name!r} fails the Jacobi identity "
            f"at triple {first}")
    validate_derivations(rep)
    violations = []
    n, d = rep.target.dim, rep.d
    parts = [_sparse_element(t, mat) for t, mat in zip(rep.t, rep.D)]
    for i in range(rep.source.dim):
        for j in range(i + 1, rep.source.dim):
            # rep([X_i, X_j]) by linearity, then [(t_j, D_j), (t_i, D_i)],
            # which is minus the right side
            vec: dict = {}
            rows: list[dict] = [{} for _ in range(n)]
            for k, c in rep.source._signed.get((i, j), {}).items():
                _axpy(vec, c, parts[k][0])
                for acc, row in zip(rows, parts[k][1]):
                    _axpy(acc, c, row)
            _semidirect_into(rep.target, vec, rows, parts[j], parts[i])
            if vec or any(rows):
                violations.append(HomViolation(
                    (i + 1, j + 1), _dense(vec, n, d), Matrix._of(rows, n, d)))
    return IdentityReport(not violations, tuple(violations))


@dataclass(frozen=True)
class BijectivityReport:
    ok: bool
    rank: int
    source_dim: int
    target_dim: int
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class NonNilpotentWitness(NamedTuple):
    coefficients: tuple[Scalar, ...]   # combination over the source basis
    matrix: Matrix


@dataclass(frozen=True)
class NilpotencyReport:
    ok: bool
    flag: Flag | None = None
    failure: EngelFailure | None = None
    witness: NonNilpotentWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


_WITNESS_SAMPLES = 100


def _search_non_nilpotent(rep: AffineRep) -> NonNilpotentWitness | None:
    """Concrete non-nilpotent combination of the D_i, if sampling finds one.

    Tried in order: each basis matrix alone, then seeded random rational
    combinations. A stalled flag already proves non-nilpotency of the span;
    this only makes the evidence tangible for reports, so coming up empty
    is acceptable.
    """
    m, n, d = rep.source.dim, rep.target.dim, rep.d
    for i, mat in enumerate(rep.D):
        if not mat.is_nilpotent():
            return NonNilpotentWitness(_dense({i: unit(d)}, m, d), mat)
    rng = random.Random(0)
    for _ in range(_WITNESS_SAMPLES):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        mat = _combination(zip(coeffs, rep.D), n, n, d)
        if not mat.is_nilpotent():   # Scalars only for the report
            return NonNilpotentWitness(tuple(Scalar.of(c, d) for c in coeffs), mat)
    return None


@dataclass(frozen=True)
class RepVerdict:
    homomorphism: IdentityReport
    t_bijective: BijectivityReport
    linear_parts_nilpotent: NilpotencyReport
    overall: bool

    def __bool__(self) -> bool:
        return self.overall


def check_simply_transitive(rep: AffineRep) -> RepVerdict:
    """Full verdict: homomorphism, bijective translations, nilpotent span.

    The translation criterion asks the matrix with columns t_i to be a
    linear bijection, which already fails structurally when source and
    target dimensions differ (reported distinctly). The nilpotency
    criterion runs the common-flag construction on {D_1, ..., D_m}; on
    success the flag is kept in the verdict as the certificate, on failure
    the stalled subspace and (when sampling finds one) a concrete
    non-nilpotent combination are reported.
    """
    hom = check_homomorphism(rep)

    m, n = rep.source.dim, rep.target.dim
    rank = rep.t_matrix().rank()
    reason = (f"source dimension {m} differs from target dimension {n}"
              if m != n else None if rank == n else
              f"translation matrix has rank {rank} < {n}")
    bij = BijectivityReport(reason is None, rank=rank, source_dim=m,
                            target_dim=n, reason=reason)

    flag = engel_flag(rep.D, size=n, d=rep.d)
    if flag:
        nil = NilpotencyReport(True, flag=flag)
    else:
        nil = NilpotencyReport(False, failure=flag,
                               witness=_search_non_nilpotent(rep))

    return RepVerdict(hom, bij, nil, bool(hom) and bool(bij) and bool(nil))


# ------------------------------------------------------------------ files


def _algebra_ref_to_json(L: LieAlgebra) -> object:
    """Catalog name when the algebra is (a re-contexted) catalog entry."""
    key = _catalog_key(L.name)
    entry = _build_catalog().get(key)   # compared in place: rational Scalar == int
    if entry is not None and entry.dim == L.dim and entry._signed == L._signed:
        return key
    return algebra_to_dict(L)


def _algebra_ref_from_json(data: object, d: int | None, where: str) -> LieAlgebra:
    if isinstance(data, str):
        try:
            L = get_algebra(data)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        return L.with_field(d) if d is not None else L
    L = algebra_from_dict(data, where)
    if d is not None and L.d != d:
        if L.d != 1:
            raise ParseError(f"{where}: algebra declares d={L.d} but the "
                             f"representation uses d={d}")
        L = L.with_field(d)
    return L


def rep_to_dict(rep: AffineRep) -> dict:
    doc = {
        "source": _algebra_ref_to_json(rep.source),
        "target": _algebra_ref_to_json(rep.target),
        "t": [vector_to_json(v) for v in rep.t],
        "D": [matrix_to_json(m) for m in rep.D],
    }
    if rep.d != 1:
        doc["d"] = rep.d
    return doc


def _resolve_context(data: dict, where: str) -> int | None:
    """Field context for a rep/LR document.

    Explicit top-level "d" wins; otherwise inline algebras that agree on a
    non-default d set it; otherwise None (meaning: take the algebras as
    they come, default 1).
    """
    if "d" in data:
        return _expect_field(data["d"], f"{where}.d")
    ds = set()
    for key in ("source", "target", "algebra"):
        sub = data.get(key)
        if isinstance(sub, dict) and "d" in sub:
            ds.add(_expect_field(sub["d"], f"{where}.{key}.d"))
    if len(ds) > 1:
        raise ParseError(f"{where}: inline algebras disagree on d: {sorted(ds)}")
    return ds.pop() if ds else None


def rep_from_dict(data: object, where: str = "rep",
                  label: str | None = None) -> AffineRep:
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(data) - {"source", "target", "t", "D", "d"}
    if unknown:
        raise ParseError(f"{where}: unknown keys {quoted(sorted(unknown))}")
    for key in ("source", "target", "t", "D"):
        if key not in data:
            raise ParseError(f"{where}: missing required key {key!r}")
    d = _resolve_context(data, where)
    source = _algebra_ref_from_json(data["source"], d, f"{where}.source")
    target = _algebra_ref_from_json(data["target"], d, f"{where}.target")
    m, n = source.dim, target.dim
    raw_t, raw_D = data["t"], data["D"]
    if not isinstance(raw_t, list) or len(raw_t) != m:
        raise ParseError(f"{where}.t: expected {m} vectors")
    if not isinstance(raw_D, list) or len(raw_D) != m:
        raise ParseError(f"{where}.D: expected {m} matrices")
    t = [vector_from_json(v, n, target.d, f"{where}.t[{i}]")
         for i, v in enumerate(raw_t)]
    D = [matrix_from_json(mat, n, n, target.d, f"{where}.D[{i}]")
         for i, mat in enumerate(raw_D)]
    try:
        return AffineRep(source, target, t, D, label=label)
    except (ShapeError, FieldMismatchError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def rep_of_files(source_path: str, target_path: str, rep_path: str) -> AffineRep:
    """Load and validate a representation from three files.

    The source and target files pin the algebras; if the rep file also
    names or inlines them, they must agree structurally. The derivation
    precondition is left to check_homomorphism, which decides it once,
    after the source's Jacobi identity, as for a rep read from one file.
    """
    from .io import read_json

    source = algebra_from_dict(read_json(source_path), f"{source_path}: algebra")
    target = algebra_from_dict(read_json(target_path), f"{target_path}: algebra")
    data = read_json(rep_path)
    if not isinstance(data, dict):
        raise ParseError(f"{rep_path}: rep: expected an object")
    data = dict(data)
    declared = _resolve_context(data, f"{rep_path}: rep")
    if declared is None and (source.d != 1 or target.d != 1):
        declared = max(source.d, target.d)
        data["d"] = declared
    data.setdefault("source", algebra_to_dict(source))
    data.setdefault("target", algebra_to_dict(target))
    rep = rep_from_dict(data, f"{rep_path}: rep")
    if rep.source != source.with_field(rep.d):
        raise ParseError(f"{rep_path}: rep.source disagrees with {source_path}")
    if rep.target != target.with_field(rep.d):
        raise ParseError(f"{rep_path}: rep.target disagrees with {target_path}")
    return rep


def _unit_translations(n: int) -> list[tuple[int, ...]]:
    """t_i = X_i for i < n, as ints, which AffineRep stores in its context."""
    return [tuple(int(k == i) for k in range(n)) for i in range(n)]
