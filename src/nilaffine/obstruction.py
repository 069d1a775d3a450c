"""Existence of abelian simply transitive actions, decided with certificates.

For a nilpotent algebra n over the rationals, an abelian simply transitive
action corresponds (after normalizing translations to the identity) to a
choice of derivations D_1, ..., D_n of n satisfying

  translation conditions   0 = [X_i, X_j] + D_i(X_j) - D_j(X_i)
  commutator conditions    0 = [D_i, D_j]

for all i < j. Writing each D_i = sum_k u_ik E_k over a derivation-space
basis turns the first family into linear equations and the second into
quadratic ones in the coefficients u_ik, whose coefficients are the
structure constants [E_k, E_l] of the derivation basis. Round 1 is the
RREF of the translation equations on linalg's one elimination kernel
(:class:`LinearSystem`). Each commutator equation is then built with
that solution substituted, from the product u_ik u_jl of each pair with
[E_k, E_l] != 0, in a canonical tag order, so verdicts, forced values
and certificates do not depend on how the caller enumerated anything.

With Delta_i = D_i + 1/2 ad(X_i) the translation conditions, which are
LR identity (3) for X.Y = -D_X(Y), say Delta_i(X_j) = Delta_j(X_i); so
D_i = -1/2 ad(X_i), a derivation by Jacobi, always solves them, and
certificates come only from commutator entries. A derivation Delta has
[Delta, ad X] = ad(Delta X), so the cross terms cancel in

  [D_i, D_j] = 1/4 ad([X_i, X_j]) + [Delta_i, Delta_j],

a constant plus a quadratic form on the space S of such Delta. Round 1's
particular solution lies in S too, so an entry whose quadratic part
vanishes has a vanishing polar form, which is its linear part: no built
equation is affine (one that is raises InternalError). A constant one
(vanishing ones are left out) is an exact proof that no solution exists;
the verdict Obstructed carries the first in tag order as a certificate.
Otherwise the free coefficients are sampled (zeros first, then seeded
rationals) and any assignment satisfying the residual equations and the
full simple-transitivity verdict yields Found with the witness attached.
If neither happens the honest answer is Undetermined together with the
residual system; no general polynomial solving is attempted.

Coefficients. At d = 1 the structure constants and the derivation basis
are stored as ``int`` and ``Fraction`` (see :mod:`nilaffine.scalars`) and
enter the equations as they are, so the equations, the eliminated map and
the residuals hold ``int`` and ``Fraction`` coefficients. What leaves the
solver as a number is a ``Fraction``: the forced values, the certificate
constant, the witness assignment and coefficients, and
``Poly.constant_value`` and ``Poly.evaluate``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .affine import (AffineRep, _unit_translations, check_simply_transitive,
                     rep_to_dict)
from .errors import InternalError, PreconditionError, ShapeError, quoted
from .liealg import (MAX_SAMPLES, DerivationSpace, LieAlgebra, abelian,
                     derivation_space)
from .linalg import SparseRow, _combination, _install, _rref
from .lr import LRStructure, _lr_of_passing_rep, lr_to_dict
from .scalars import Frozen, Rational, Scalar, as_fraction, exact, scalar_to_json

Monomial = tuple[tuple[int, int], ...]   # ((var, exp), ...) sorted by var
_exponent = itemgetter(1)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged: dict[int, int] = {}
    for v, e in a:
        merged[v] = merged.get(v, 0) + e
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


class Poly(Frozen):
    """Sparse multivariate polynomial over Q with integer variable ids.

    Coefficients are ``int`` or ``Fraction`` (see :mod:`nilaffine.scalars`),
    and the values read off are ``Fraction``; a generic derivation over
    Q(sqrt(d)), d != 1, holds ``Scalar``s, and ``evaluate`` gives Scalars.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        cleaned = {m: c for m, c in (terms or {}).items() if c}
        object.__setattr__(self, "terms", cleaned)   # hot: not through _fill

    @classmethod
    def const(cls, c) -> "Poly":
        c = exact(as_fraction(c))
        return cls({(): c} if c else {})

    @classmethod
    def var(cls, v: int) -> "Poly":
        return cls({((v, 1),): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            f = exact(other)
            return Poly({m: c * f for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[Monomial, Rational] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> Fraction:
        return Fraction(self.terms.get((), 0))

    def substitute(self, subs: Mapping[int, "Poly"]) -> "Poly":
        """Replace each variable in subs by its polynomial, expand exactly."""
        if not self.terms:
            return self
        if not any(v in subs for m in self.terms for v, _ in m):
            return self
        out: dict[Monomial, Rational] = {}
        for m, c in self.terms.items():
            term: dict[Monomial, Rational] = {(): c}
            for v, e in m:
                factor = subs.get(v)
                if factor is None:
                    term = {_mono_mul(tm, ((v, e),)): tc
                            for tm, tc in term.items()}
                    continue
                for _ in range(e):
                    grown: dict[Monomial, Rational] = {}
                    for tm, tc in term.items():
                        for fm, fc in factor.terms.items():
                            k = _mono_mul(tm, fm)
                            grown[k] = grown.get(k, 0) + tc * fc
                    term = grown
            for tm, tc in term.items():
                out[tm] = out.get(tm, 0) + tc
        return _poly({m: c for m, c in out.items() if c})

    def evaluate(self, values: Mapping[int, Fraction]) -> Fraction:
        """The value at ``values``; every variable must have one (KeyError)."""
        total: Rational = 0
        for m, c in self.terms.items():
            prod = c
            for v, e in m:
                x = values[v]
                if not x:
                    prod = 0
                elif prod:
                    prod *= x if e == 1 else x ** e
            if prod:
                total += prod
        return total if type(total) is Scalar else Fraction(total)

    def render(self, name: Callable[[int], str]) -> str:
        return _render_many((self,), name)[0]

    def __repr__(self):
        return f"Poly({self.render(lambda v: f'x{v}')})"


def _render_many(polys: Sequence[Poly], name: Callable[[int], str]) -> list[str]:
    """The text of each poly, terms by degree and then monomial, from one
    sorted table of all their monomials, each of whose text is built once."""
    table = sorted(set().union(*[p.terms for p in polys]))
    table.sort(key=lambda m: sum(map(_exponent, m)))   # stable: by degree first
    rank = {m: k for k, m in enumerate(table)}.__getitem__
    text = ["*".join([name(v) if e == 1 else f"{name(v)}^{e}" for v, e in m])
            for m in table]
    plus = [" + " + body if body else None for body in text]
    minus = [" - " + body if body else None for body in text]
    out = []
    for p in polys:
        pieces = []
        for k, c in sorted(zip(map(rank, p.terms), p.terms.values())):
            piece = plus[k] if c == 1 else minus[k] if c == -1 else None
            if piece is None:
                # a Scalar with a sqrt(d) part is printed whole, in parentheses
                lead = (c.rat or c.irr) if type(c) is Scalar else c
                size = str(abs(lead)) if lead == c else f"({-c if lead < 0 else c})"
                sign = " - " if lead < 0 else " + "
                piece = sign + size + "*" + text[k] if text[k] else sign + size
            pieces.append(piece)
        line = "".join(pieces)   # the first sign: " - " is "-", " + " nothing
        out.append("-" + line[3:] if line[1:2] == "-" else line[3:] or "0")
    return out


def _poly(terms: dict[Monomial, Rational]) -> Poly:
    """Wrap a term dict that holds no zero coefficient, without copying it."""
    p = object.__new__(Poly)
    object.__setattr__(p, "terms", terms)   # hot: not through _fill
    return p


class ParametricMatrix(Frozen):
    """Square grid of polynomials; the symbolic form of a matrix of unknowns."""

    __slots__ = ("size", "grid")

    def __init__(self, grid: Sequence[Sequence[Poly]]):
        n = len(grid)
        rows = []
        for row in grid:
            if len(row) != n:
                raise ShapeError("parametric matrix must be square")
            rows.append(tuple(row))
        self._fill(n, tuple(rows))

    def entry(self, r: int, c: int) -> Poly:
        return self.grid[r][c]

    def commutator(self, other: "ParametricMatrix") -> "ParametricMatrix":
        """[self, other] = self other - other self, one entry at a time."""
        if other.size != self.size:
            raise ShapeError("size mismatch")
        return ParametricMatrix([[_commutator_entry(self, other, r, c)
                                  for c in range(self.size)]
                                 for r in range(self.size)])


def _commutator_entry(x: ParametricMatrix, y: ParametricMatrix, r: int,
                      c: int) -> Poly:
    """Entry (r, c) of x.commutator(y), without building the rest of it."""
    return sum((x.grid[r][m] * y.grid[m][c] - y.grid[r][m] * x.grid[m][c]
                for m in range(x.size)), Poly())


def parametric_derivation(L: LieAlgebra, index: int,
                          space: DerivationSpace) -> ParametricMatrix:
    """General derivation D_index = sum_k u_{index,k} E_k with fresh symbols,
    over the basis E_k of ``space``, the derivation space of L.

    Variable ids are index * r + k where r is the derivation space
    dimension, so distinct source indices never share symbols.
    """
    n, r = L.dim, space.dimension
    grid: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for k, E in enumerate(space.basis):
        u = ((index * r + k, 1),)   # each k its own monomial, so nothing adds up
        for a, row in enumerate(E._rows):
            for b, e in row.items():
                grid[a][b][u] = e
    return ParametricMatrix([[_poly(terms) for terms in row] for row in grid])


# ------------------------------------------------------------------ naming


_GREEK_ANCHORS = ((0, 0), (1, 1), (2, 0), (2, 1), (3, 0), (4, 0), (4, 1),
                  (5, 0), (5, 1))
_GREEK_CLASSES = (("alpha", ""), ("beta", ""), ("gamma", "1"), ("gamma", "2"),
                  ("delta", ""), ("epsilon", "1"), ("epsilon", "2"),
                  ("phi", "1"), ("phi", "2"))


def variable_namer(space: DerivationSpace) -> Callable[[int], str]:
    """Printable names for the coefficients u_{ik}.

    When the derivation-space anchor pattern is the known nine-parameter
    one on a six-dimensional algebra, coefficients get the traditional
    Greek names (alpha_i, beta_i, gamma_i1, gamma_i2, delta_i, epsilon_i1,
    epsilon_i2, phi_i1, phi_i2); otherwise the neutral form u{i}_{k},
    both 1-based.
    """
    r = space.dimension

    if space.algebra.dim == 6 and space.anchors == _GREEK_ANCHORS:
        def name(v: int) -> str:
            i, k = divmod(v, r)
            base, variant = _GREEK_CLASSES[k]
            return f"{base}_{i + 1}{variant}"
        return name

    def name(v: int) -> str:
        i, k = divmod(v, r)
        return f"u{i + 1}_{k + 1}"
    return name


# ------------------------------------------------------------------ linear elimination


class Contradiction(Exception):
    """Internal signal: an equation reduced to a nonzero constant."""

    def __init__(self, constant: Fraction):
        super().__init__(f"equation reduced to the nonzero constant {constant}")
        self.constant = constant


_CONST = sys.maxsize   # the constant column, after every variable id


def _factor(x: int | None, row: SparseRow | None):
    """x, or the terms of its form read off its row x + ... = 0, as
    (variable, coefficient) pairs; None stands for 1 in either place."""
    return ((x, None),) if row is None else [
        (None if v == _CONST else v, None if c == -1 else -c)
        for v, c in row.items() if v != x]


def _times(a: int | None, b: int | None) -> Monomial:
    """The monomial of a product of two factors, each 1 (None) or a variable."""
    if a is None or b is None:
        return () if a is b else ((b if a is None else a, 1),)
    if a == b:
        return ((a, 2),)
    return ((a, 1), (b, 1)) if a < b else ((b, 1), (a, 1))


def _affine_row(eq: Poly) -> SparseRow:
    """eq as a sparse row over the variable ids and ``_CONST``, if affine."""
    row: SparseRow = {}
    for m, c in eq.terms.items():
        if len(m) > 1 or m and m[0][1] > 1:
            raise ValueError(f"LinearSystem takes affine equations, got the term {m}")
        row[m[0][0] if m else _CONST] = c
    return row


class LinearSystem:
    """Exact incremental elimination on ``linalg._rref``'s row step.

    Round 1 is its constructor; ``reduce`` and ``add`` serve callers of
    the exported class and the perfbench tracer, not the pipeline. An
    affine equation is a sparse row over the variable ids and the
    constant column ``_CONST``; a term of higher degree raises ValueError.
    ``rows`` maps each pivot p to its row x_p + sum a_v x_v + c = 0, so
    x_p's solved form is -sum a_v x_v - c; it is always the RREF of the
    equations given and added, which is unique, so it does not depend on
    the order in which they came.
    """

    def __init__(self, equations: Iterable[Poly] = ()):
        """Start from the RREF of the affine ``equations``, by ``_rref``."""
        pivots, rows = _rref(map(_affine_row, equations))
        self.rows: dict[int, SparseRow] = dict(zip(pivots, rows))

    @property
    def solved(self) -> dict[int, Poly]:
        """The solved form of each pivot, as a new ``Poly`` map."""
        return {p: _poly({((v, 1),) if v != _CONST else (): -c
                          for v, c in row.items() if v != p})
                for p, row in self.rows.items()}

    def reduce(self, eq: Poly) -> Poly:
        """eq with each solved variable replaced by its affine form
        (``Poly.substitute``), for eq of degree <= 2 (else ValueError), the
        degree of the defining equations."""
        for m in eq.terms:
            if sum(map(_exponent, m)) > 2:
                raise ValueError(f"reduce takes degree <= 2, got the term {m}")
        return eq.substitute(self.solved)

    def add(self, eq: Poly) -> bool:
        """Incorporate one affine equation eq = 0.

        Returns True if it forced a new pivot, False if redundant; raises
        Contradiction when it reduces to a nonzero constant, and ValueError
        when it reduces to an equation that is not affine.
        """
        reduced = self.reduce(eq)
        if not reduced:
            return False
        if reduced.is_constant():
            raise Contradiction(reduced.constant_value())
        _install(self.rows, {v: exact(c) for v, c in _affine_row(reduced).items()})
        return True


# ------------------------------------------------------------------ outcomes


@dataclass(frozen=True)
class ObstructionCertificate:
    """Proof that the defining equations have no solution.

    There is one kind, "commutator": the equation is entry ``position``
    (1-based) of [D_i, D_j] for the source pair ``pair`` = (i, j), always
    with i < j, all indices in 1..n, n the dimension. Substituting the
    eliminated-variable map of the outcome into that equation leaves the
    nonzero ``constant``. The translation conditions always have a
    solution (see the module docstring), so ``coordinate`` is kept for
    readers of the record and is always None; the checker rejects a
    certificate that sets it, or of any other kind.
    """

    kind: str
    pair: tuple[int, int]
    constant: Fraction
    position: tuple[int, int] | None = None
    coordinate: int | None = None


@dataclass(frozen=True)
class ObstructionOutcome:
    """A verdict with the one copy of the solution it rests on.

    The eliminated map and, for Found, the assignment of the free
    coefficients are stored; the forced values, the witness rep and its
    LR product are read off them (the last two built once, on first use).
    """

    space: DerivationSpace
    verdict: str                                   # Obstructed | Found | Undetermined
    eliminated: tuple[tuple[int, Poly], ...]
    certificate: ObstructionCertificate | None = None
    witness_assignment: tuple[tuple[int, Fraction], ...] | None = None
    residual: tuple[tuple[tuple, Poly], ...] = ()
    samples: int = 0
    seed: int = 0
    two_step_solvable: bool | None = None          # as decided by the solver

    @property
    def algebra(self) -> LieAlgebra:
        return self.space.algebra

    @property
    def forced(self) -> tuple[tuple[int, Fraction], ...]:
        """The constant forms of the eliminated map, in variable order."""
        return tuple((v, form.constant_value()) for v, form in self.eliminated
                     if form.is_constant())

    @cached_property
    def coefficients(self) -> dict[int, Fraction] | None:
        """Every u_ik of the witness: the assignment, and the eliminated
        forms evaluated there (KeyError if the assignment misses one)."""
        if self.witness_assignment is None:
            return None
        u = dict(self.witness_assignment)
        for v, form in self.eliminated:
            u[v] = form.evaluate(u)
        return u

    @cached_property
    def witness_rep(self) -> AffineRep | None:
        """D_i = sum_k u_ik E_k with identity translations, on R^n -> L."""
        u = self.coefficients
        if u is None:
            return None
        L, basis = self.algebra, self.space.basis
        n, r = L.dim, len(basis)
        D = [_combination(((u[i * r + k], E) for k, E in enumerate(basis)), n, n, 1)
             for i in range(n)]
        return AffineRep(abelian(n), L, _unit_translations(n),
                         D, label=f"abelian witness on {L.name}")

    @cached_property
    def witness_lr(self) -> LRStructure | None:
        rep = self.witness_rep
        return None if rep is None else _lr_of_passing_rep(rep)

    def variable_name(self, v: int) -> str:
        return variable_namer(self.space)(v)

    def forced_named(self) -> dict[str, Fraction]:
        name = variable_namer(self.space)
        return {name(v): c for v, c in self.forced}

    def free_variables(self) -> tuple[int, ...]:
        total = self.algebra.dim * self.space.dimension
        solved = {v for v, _ in self.eliminated}
        return tuple(v for v in range(total) if v not in solved)

    def to_dict(self) -> dict:
        name = list(map(variable_namer(self.space),   # once per variable
                        range(self.algebra.dim * self.space.dimension))).__getitem__

        doc: dict = {
            "algebra": self.algebra.name,
            "verdict": self.verdict,
            "derivation_space_dim": self.space.dimension,
            "two_step_solvable": self.two_step_solvable,
            "forced": {name(v): scalar_to_json(c) for v, c in self.forced},
            "free_variables": sorted(name(v) for v in self.free_variables()),
            "samples": self.samples,
            "seed": self.seed,
            "certificate": None,
            "witness": None,
            "residual": [],
        }
        if self.certificate is not None:
            doc["certificate"] = {
                "kind": self.certificate.kind,
                "pair": list(self.certificate.pair),
                "constant": scalar_to_json(self.certificate.constant),
                "position": list(self.certificate.position),
            }
        if self.witness_rep is not None:
            doc["witness"] = {
                "assignment": {name(v): scalar_to_json(c)
                               for v, c in self.witness_assignment},
                "rep": rep_to_dict(self.witness_rep),
                "lr": lr_to_dict(self.witness_lr),
            }
        if self.residual:
            tags, polys = zip(*self.residual)
            doc["residual"] = [{"equation": "/".join(map(str, tag)), "poly": text}
                               for tag, text in zip(tags, _render_many(polys, name))]
        return doc


# ------------------------------------------------------------------ pipeline


def _translation_equations(L: LieAlgebra, space: DerivationSpace
                           ) -> list[tuple[tuple, Poly]]:
    """Coordinate a of the translation condition for i < j, tagged
    ("translation", i, j, a) (1-based), in tag order: with D_i = sum_k u_ik
    E_k it is [X_i, X_j]_a + sum_k E_k[a][j] u_ik - sum_k E_k[a][i] u_jk.
    Each k names a distinct monomial, and every coordinate is kept."""
    n, r = L.dim, space.dimension
    # linear[a][b] = [(k, E_k[a][b]), ...] over the nonzero entries only
    linear: list[list[list[tuple[int, Rational]]]] = \
        [[[] for _ in range(n)] for _ in range(n)]
    for k, E in enumerate(space.basis):
        for a, row in enumerate(E._rows):
            for b, e in row.items():
                linear[a][b].append((k, e))
    equations: list[tuple[tuple, Poly]] = []
    for i in range(n):
        for j in range(i + 1, n):
            bracket = L._signed.get((i, j), {})
            for a in range(n):
                terms: dict[Monomial, Rational] = {}
                if a in bracket:
                    terms[()] = bracket[a]
                for k, e in linear[a][j]:
                    terms[((i * r + k, 1),)] = e
                for k, e in linear[a][i]:
                    terms[((j * r + k, 1),)] = -e
                equations.append((("translation", i + 1, j + 1, a + 1),
                                  _poly(terms)))
    return equations


def _commutator_equations(L: LieAlgebra, space: DerivationSpace,
                          rows: Mapping[int, SparseRow]
                          ) -> list[tuple[tuple, Poly]]:
    """Entry (a, b) of [D_i, D_j] for i < j with the solved forms of
    ``rows`` (a ``LinearSystem.rows`` map) substituted, tagged
    ("commutator", i, j, a, b) (1-based), in tag order, leaving out the
    entries that vanish. The entry is sum_{k, l} C_kl[a][b] u_ik u_jl,
    C_kl = [E_k, E_l] (made once per k < l); each product u_ik u_jl is
    expanded once over the forms read off the rows and added into every
    entry where C_kl != 0, which is ``Poly.substitute`` of the entry, and
    a u_ik forced to 0 drops its products. With no rows these are the
    defining equations."""
    n, r = L.dim, space.dimension
    basis = [E._rows for E in space.basis]

    def product(x, y) -> dict[tuple[int, int], Rational]:
        out: dict[tuple[int, int], Rational] = {}
        for a, row in enumerate(x):
            for m, xv in row.items():
                for b, yv in y[m].items():
                    out[a, b] = out.get((a, b), 0) + xv * yv
        return out

    # bracket[k][l] = C_kl as {(a, b): C_kl[a][b]} over the nonzero entries
    bracket: list[dict[int, dict]] = [{} for _ in range(r)]
    for k in range(r):
        for l in range(k + 1, r):
            kl, lk = product(basis[k], basis[l]), product(basis[l], basis[k])
            if c := {pos: e for pos in kl.keys() | lk.keys()
                     if (e := kl.get(pos, 0) - lk.get(pos, 0))}:
                bracket[k][l] = c
                bracket[l][k] = {pos: -e for pos, e in c.items()}

    # factors[i][k]: u_ik, or the terms of its form (none when forced to 0)
    factors = [[_factor(v, rows.get(v)) for v in range(i * r, i * r + r)]
               for i in range(n)]
    equations: list[tuple[tuple, Poly]] = []
    for i, fi in enumerate(factors):
        for j in range(i + 1, n):
            fj, out = factors[j], {}
            for k, fk in enumerate(fi):
                for l, c in bracket[k].items():
                    for x, cx in fk:
                        for y, cy in fj[l]:
                            m = _times(x, y)
                            v = cy if cx is None else cx if cy is None else cx * cy
                            for pos, e in c.items():
                                if (terms := out.get(pos)) is None:
                                    terms = out[pos] = {}
                                e = e if v is None else e * v
                                terms[m] = terms[m] + e if m in terms else e
            for a, b in sorted(out):
                if poly := _poly({m: v for m, v in out[a, b].items() if v}):
                    equations.append((("commutator", i + 1, j + 1, a + 1,
                                       b + 1), poly))
    return equations


def _build_equations(L: LieAlgebra, space: DerivationSpace
                     ) -> list[tuple[tuple, Poly]]:
    """All defining equations, in tag order (commutators sort first)."""
    return _commutator_equations(L, space, {}) + _translation_equations(L, space)


def _sample_values(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(count)]


def _candidates(count: int, samples: int, seed: int) -> Iterator[list[Fraction]]:
    """The all-zero assignment, then ``samples`` seeded ones, drawn lazily."""
    yield [Fraction(0)] * count
    rng = random.Random(seed)
    for _ in range(samples):
        yield _sample_values(rng, count)


def obstruct_abelian(L: LieAlgebra, samples: int = 25, seed: int = 0
                     ) -> ObstructionOutcome:
    """Decide abelian simple transitivity on L, with exact certificates.

    See the module docstring for the method. Requires 0 <= samples <=
    ``MAX_SAMPLES``, a rational field context (d = 1), a valid bracket
    and nilpotency; violations raise PreconditionError. A
    non-two-step-solvable algebra can never carry such an action, so if
    the pipeline ends anywhere but Obstructed for one, an InternalError
    is raised rather than an unsound verdict returned.
    """
    if not 0 <= samples <= MAX_SAMPLES:
        raise PreconditionError(
            f"samples must lie in 0..{MAX_SAMPLES}, got {quoted(samples)}")
    if L.d != 1:
        raise PreconditionError(
            f"obstruction runs over the rationals only, got d={L.d}")
    jac = L.check_jacobi()
    if not jac.ok:
        raise PreconditionError(
            f"algebra {L.name!r} fails the Jacobi identity at triple "
            f"{jac.violations[0].triple}")
    if not L.is_nilpotent():
        raise PreconditionError(f"algebra {L.name!r} is not nilpotent")

    metabelian = L.is_two_step_solvable()
    space = derivation_space(L)
    n, r = L.dim, space.dimension

    # round 1 is the RREF of the (affine) translation conditions, a pivot
    # in the constant column if they are inconsistent; the commutator
    # conditions are then built on its map, each constant or quadratic
    system = LinearSystem(poly for _, poly in _translation_equations(L, space))
    if _CONST in system.rows:
        raise InternalError(
            f"the translation conditions on {L.name!r} have no solution, yet "
            f"D_i = -1/2 ad(X_i) always solves them; this is a bug")
    residual = tuple(_commutator_equations(L, space, system.rows))
    # quadratic from the first degree-2 term on; the rest must be constant
    low = [(tag, poly) for tag, poly in residual
           if not any(sum(map(_exponent, m)) == 2 for m in poly.terms)]
    if affine := next((tag for tag, poly in low if not poly.is_constant()), None):
        raise InternalError(
            f"commutator condition {affine} on {L.name!r} is affine after "
            f"round 1, yet it is a constant plus a quadratic form on round "
            f"1's solutions; this is a bug")

    eliminated = tuple(sorted(system.solved.items()))

    if low:
        (_, i, j, a, b), poly = low[0]
        return ObstructionOutcome(
            space=space, verdict="Obstructed", eliminated=eliminated,
            certificate=ObstructionCertificate(
                kind="commutator", pair=(i, j), constant=poly.constant_value(),
                position=(a, b)),
            samples=samples, seed=seed, two_step_solvable=metabelian)

    free = [v for v in range(n * r) if v not in system.rows]
    for values in _candidates(len(free), samples, seed):
        found = ObstructionOutcome(
            space=space, verdict="Found", eliminated=eliminated,
            witness_assignment=tuple(zip(free, values)), residual=residual,
            samples=samples, seed=seed, two_step_solvable=metabelian)
        # integral values as ints, so that evaluating runs on int arithmetic
        u = {v: exact(x) for v, x in found.coefficients.items()}
        if any(poly.evaluate(u) for _, poly in residual):
            continue
        if check_simply_transitive(found.witness_rep).overall:
            return found

    if not metabelian:
        raise InternalError(
            f"algebra {L.name!r} is not two-step solvable, which rules out "
            f"abelian simply transitive actions, yet the pipeline did not "
            f"reach Obstructed; this is a bug")
    return ObstructionOutcome(
        space=space, verdict="Undetermined", eliminated=eliminated,
        residual=residual, samples=samples, seed=seed,
        two_step_solvable=metabelian)


# ------------------------------------------------------------------ re-verification


def verify_certificate(outcome: ObstructionOutcome, L: LieAlgebra) -> bool:
    """Independent re-check of an outcome's claim; False on any mismatch.

    Obstructed: the certificate's commutator entry is rebuilt from
    scratch and the eliminated-variable map substituted in; the result
    must be exactly the stated nonzero constant (any other kind, or a set
    ``coordinate``, is rejected). Found: the claim is the witness rep,
    which must build from the outcome's coefficients, act on L and pass
    the full simple-transitivity verdict; its product and the forced
    values are read off the same data, so they cannot disagree with it.
    An Undetermined outcome makes no claim, so there is nothing to
    falsify and the result is vacuously True.
    """
    if outcome.verdict == "Undetermined":
        return True
    if outcome.algebra != L:   # the claim is about another algebra or field
        return False
    if outcome.verdict == "Found":
        try:
            rep = outcome.witness_rep
            return (rep is not None and rep.target == L
                    and check_simply_transitive(rep).overall)
        except Exception:
            return False

    cert = outcome.certificate
    if cert is None or not cert.constant or cert.kind != "commutator" \
            or cert.coordinate is not None:
        return False
    n = L.dim
    try:
        (i, j), (a, b) = cert.pair, cert.position
        if not (1 <= i < j <= n and 1 <= a <= n and 1 <= b <= n):
            return False
        space = derivation_space(L)
        if space.basis != outcome.space.basis:
            return False
        poly = _commutator_entry(parametric_derivation(L, i - 1, space),
                                 parametric_derivation(L, j - 1, space),
                                 a - 1, b - 1)
        reduced = poly.substitute(dict(outcome.eliminated))
        return reduced.is_constant() and reduced.constant_value() == cert.constant
    except Exception:
        return False
