"""Existence of abelian simply transitive actions, decided with certificates.

For a nilpotent algebra n over the rationals, an abelian simply transitive
action corresponds (after normalizing translations to the identity) to a
choice of derivations D_1, ..., D_n of n satisfying

  translation conditions   0 = [X_i, X_j] + D_i(X_j) - D_j(X_i)
  commutator conditions    0 = [D_i, D_j]

for all i < j. Writing each D_i = sum_k u_ik E_k over a derivation-space
basis turns the first family into linear equations and the second into
quadratic ones in the coefficients u_ik, whose coefficients are the
structure constants [E_k, E_l] of the derivation basis. The pipeline
solves every equation of degree <= 1 by exact elimination, substitutes,
and repeats until nothing new becomes linear. An equation reducing to a nonzero
constant is an exact proof that no solution exists; the verdict Obstructed
carries it as a certificate. Otherwise the free coefficients are sampled
(zeros first, then seeded rationals) and any assignment satisfying the
residual equations and the full simple-transitivity verdict yields Found
with the witness attached. If neither happens the honest answer is
Undetermined together with the residual system; no general polynomial
solving is attempted.

Equations are processed in a canonical sorted order, so verdicts, forced
values and certificates do not depend on how the caller happened to
enumerate anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

from .affine import AffineRep, check_simply_transitive
from .errors import InternalError, PreconditionError, ShapeError
from .liealg import DerivationSpace, LieAlgebra, abelian, derivation_space
from .linalg import Matrix
from .lr import LRStructure, _lr_of_passing_rep
from .scalars import Scalar

Monomial = tuple[tuple[int, int], ...]   # ((var, exp), ...) sorted by var


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


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class Poly:
    """Sparse multivariate polynomial over Q with integer variable ids."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        cleaned = {m: c for m, c in (terms or {}).items() if c}
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c) -> "Poly":
        c = Fraction(c)
        return cls({(): c} if c else {})

    @classmethod
    def var(cls, v: int) -> "Poly":
        return cls({((v, 1),): Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Poly({m: c * f for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                out[m] = out.get(m, Fraction(0)) + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def degree(self) -> int:
        return max((_mono_degree(m) for m in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def variables(self) -> set[int]:
        return {v for m in self.terms for v, _ in m}

    def affine_parts(self) -> tuple[Fraction, dict[int, Fraction]]:
        """(constant, {var: coefficient}) for a polynomial of degree <= 1."""
        if self.degree() > 1:
            raise ValueError("polynomial is not affine")
        const = Fraction(0)
        coeffs: dict[int, Fraction] = {}
        for m, c in self.terms.items():
            if m == ():
                const = c
            else:
                coeffs[m[0][0]] = c
        return const, coeffs

    def substitute(self, subs: Mapping[int, "Poly"]) -> "Poly":
        """Replace each variable in subs by its polynomial, expand exactly."""
        if not self.terms:
            return self
        if not any(v in subs for m in self.terms for v, _ in m):
            return self
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            term: dict[Monomial, Fraction] = {(): c}
            for v, e in m:
                factor = subs.get(v)
                if factor is None:
                    term = {_mono_mul(tm, ((v, e),)): tc
                            for tm, tc in term.items()}
                    continue
                for _ in range(e):
                    grown: dict[Monomial, Fraction] = {}
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
        total = Fraction(0)
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
        return total

    def render(self, name: Callable[[int], str]) -> str:
        if not self.terms:
            return "0"
        keyed = sorted(self.terms.items(),
                       key=lambda item: (_mono_degree(item[0]), item[0]))
        pieces = []
        for m, c in keyed:
            factors = []
            for v, e in m:
                factors.append(name(v) if e == 1 else f"{name(v)}^{e}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = f"{abs(c)}*" + "*".join(factors)
            sign = "-" if c < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Poly({self.render(lambda v: f'x{v}')})"


def _poly(terms: dict[Monomial, Fraction]) -> Poly:
    """Wrap a term dict that holds no zero coefficient, without copying it."""
    p = object.__new__(Poly)
    object.__setattr__(p, "terms", terms)
    return p


class ParametricMatrix:
    """Square grid of polynomials; the symbolic form of a matrix of unknowns."""

    __slots__ = ("size", "grid")

    def __init__(self, grid: Sequence[Sequence[Poly]]):
        n = len(grid)
        rows = []
        for row in grid:
            if len(row) != n:
                raise ShapeError("parametric matrix must be square")
            rows.append(tuple(row))
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "grid", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("ParametricMatrix is immutable")

    def entry(self, r: int, c: int) -> Poly:
        return self.grid[r][c]

    def __matmul__(self, other: "ParametricMatrix") -> "ParametricMatrix":
        if not isinstance(other, ParametricMatrix):
            return NotImplemented
        if other.size != self.size:
            raise ShapeError("size mismatch")
        n = self.size
        out = []
        for r in range(n):
            row = []
            for c in range(n):
                acc = Poly()
                for k in range(n):
                    a = self.grid[r][k]
                    if a:
                        b = other.grid[k][c]
                        if b:
                            acc = acc + a * b
                row.append(acc)
            out.append(row)
        return ParametricMatrix(out)

    def __sub__(self, other: "ParametricMatrix") -> "ParametricMatrix":
        if not isinstance(other, ParametricMatrix):
            return NotImplemented
        if other.size != self.size:
            raise ShapeError("size mismatch")
        return ParametricMatrix(
            [[self.grid[r][c] - other.grid[r][c] for c in range(self.size)]
             for r in range(self.size)])

    def commutator(self, other: "ParametricMatrix") -> "ParametricMatrix":
        return (self @ other) - (other @ self)

    def substitute(self, subs: Mapping[int, Poly]) -> "ParametricMatrix":
        return ParametricMatrix(
            [[p.substitute(subs) for p in row] for row in self.grid])

    def specialize(self, values: Mapping[int, Fraction], d: int = 1) -> Matrix:
        n = self.size
        return Matrix.from_rows(
            [[self.grid[r][c].evaluate(values) for c in range(n)]
             for r in range(n)], d) if n else Matrix.zero(0, 0, d)


def parametric_derivation(L: LieAlgebra, index: int,
                          space: DerivationSpace | None = None
                          ) -> ParametricMatrix:
    """General derivation D_index = sum_k u_{index,k} E_k with fresh symbols.

    Variable ids are index * r + k where r is the derivation space
    dimension, so distinct source indices never share symbols.
    """
    if space is None:
        space = derivation_space(L)
    n, r = L.dim, space.dimension
    grid = [[Poly() for _ in range(n)] for _ in range(n)]
    for k, E in enumerate(space.basis):
        u = Poly.var(index * r + k)
        for a in range(n):
            for b in range(n):
                e = E.get(a, b)
                if not e.is_zero():
                    grid[a][b] = grid[a][b] + u * e.rat
    return ParametricMatrix(grid)


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


# ------------------------------------------------------------------ linear forcing


class Contradiction(Exception):
    """Internal signal: an equation reduced to a nonzero constant."""

    def __init__(self, constant: Fraction):
        super().__init__(f"equation reduced to the nonzero constant {constant}")
        self.constant = constant


class LinearSystem:
    """Exact incremental elimination with a fully reduced solved map.

    Pivots are the lowest variable ids, mirroring reduced row echelon
    form with columns ordered by id; since the row span determines the
    echelon form uniquely, the final solved map depends only on the set
    of equations, not the insertion order.
    """

    def __init__(self):
        self.solved: dict[int, Poly] = {}

    def reduce(self, eq: Poly) -> Poly:
        return eq.substitute(self.solved)

    def add(self, eq: Poly) -> bool:
        """Incorporate one affine equation eq = 0.

        Returns True if it forced a new pivot, False if redundant; raises
        Contradiction when it reduces to a nonzero constant.
        """
        reduced = self.reduce(eq)
        if not reduced:
            return False
        if reduced.is_constant():
            raise Contradiction(reduced.constant_value())
        const, coeffs = reduced.affine_parts()
        pivot = min(coeffs)
        pc = coeffs[pivot]
        form_terms: dict[Monomial, Fraction] = {}
        if const:
            form_terms[()] = -const / pc
        for v, c in coeffs.items():
            if v != pivot:
                form_terms[((v, 1),)] = -c / pc
        form = _poly(form_terms)
        if self.solved:
            back = {pivot: form}
            self.solved = {v: p.substitute(back) for v, p in self.solved.items()}
        self.solved[pivot] = form
        return True


# ------------------------------------------------------------------ outcomes


@dataclass(frozen=True)
class ObstructionCertificate:
    """Proof that the defining equations have no solution.

    kind "commutator": the equation is entry ``position`` (1-based) of
    [D_i, D_j] for the source pair ``pair``; kind "translation": the
    equation is coordinate ``coordinate`` of the translation condition
    for ``pair``. In both cases substituting the eliminated-variable map
    of the outcome into that equation leaves the nonzero ``constant``.
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
        D = []
        for i in range(n):
            acc = Matrix.zero(n, n, 1)
            for k, E in enumerate(basis):
                coeff = u[i * r + k]
                if coeff:
                    acc = acc + Scalar.of(coeff, 1) * E
            D.append(acc)
        return AffineRep(abelian(n), L, [L.basis_vector(i) for i in range(n)],
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
        from .affine import rep_to_dict
        from .lr import lr_to_dict
        from .scalars import scalar_to_json

        name = variable_namer(self.space)

        def frac(value: Fraction):
            return scalar_to_json(Scalar.of(value, 1))

        doc: dict = {
            "algebra": self.algebra.name,
            "verdict": self.verdict,
            "derivation_space_dim": self.space.dimension,
            "two_step_solvable": self.two_step_solvable,
            "forced": {name(v): frac(c) for v, c in self.forced},
            "free_variables": sorted(name(v) for v in self.free_variables()),
            "samples": self.samples,
            "seed": self.seed,
            "certificate": None,
            "witness": None,
            "residual": [],
        }
        if self.certificate is not None:
            cert = {
                "kind": self.certificate.kind,
                "pair": list(self.certificate.pair),
                "constant": frac(self.certificate.constant),
            }
            if self.certificate.position is not None:
                cert["position"] = list(self.certificate.position)
            if self.certificate.coordinate is not None:
                cert["coordinate"] = self.certificate.coordinate
            doc["certificate"] = cert
        if self.witness_rep is not None:
            doc["witness"] = {
                "assignment": {name(v): frac(c)
                               for v, c in self.witness_assignment},
                "rep": rep_to_dict(self.witness_rep),
                "lr": lr_to_dict(self.witness_lr),
            }
        if self.residual:
            doc["residual"] = [
                {"equation": "/".join(str(part) for part in tag),
                 "poly": poly.render(name)}
                for tag, poly in self.residual]
        return doc


# ------------------------------------------------------------------ pipeline


def _build_equations(L: LieAlgebra, space: DerivationSpace
                     ) -> list[tuple[tuple, Poly]]:
    """All defining equations with canonical 1-based tags.

    Tags sort the work: ("commutator", i, j, r, c) and
    ("translation", i, j, a). The certificate, if any, inherits the tag
    of the first equation (in this order) that pins a nonzero constant.

    With D_i = sum_k u_ik E_k, entry (a, b) of [D_i, D_j] is
    sum_{k, l} C_kl[a][b] u_ik u_jl, where C_kl = [E_k, E_l] are the
    structure constants of the derivation basis, and coordinate a of the
    translation condition is [X_i, X_j]_a + sum_k E_k[a][j] u_ik
    - sum_k E_k[a][i] u_jk. For i < j every (k, l) and every k names a
    distinct monomial, so the coefficients go into the equations as they
    are. A commutator entry with no nonzero C_kl is identically zero and
    is left out; every translation coordinate is kept.
    """
    n, r = L.dim, space.dimension
    # rows[k] = {a: {b: E_k[a][b]}} and linear[a][b] = [(k, E_k[a][b]), ...],
    # both over the nonzero entries only
    rows: list[dict[int, dict[int, Fraction]]] = []
    linear: list[list[list[tuple[int, Fraction]]]] = \
        [[[] for _ in range(n)] for _ in range(n)]
    for k, E in enumerate(space.basis):
        sparse: dict[int, dict[int, Fraction]] = {}
        for a in range(n):
            for b in range(n):
                e = E.get(a, b).rat
                if e:
                    sparse.setdefault(a, {})[b] = e
                    linear[a][b].append((k, e))
        rows.append(sparse)

    def product(x, y) -> dict[tuple[int, int], Fraction]:
        out: dict[tuple[int, int], Fraction] = {}
        for a, row in x.items():
            for m, xv in row.items():
                for b, yv in y.get(m, {}).items():
                    out[a, b] = out.get((a, b), 0) + xv * yv
        return out

    # quadratic[(a, b)] = [(k, l, C_kl[a][b]), ...] over the nonzero entries
    quadratic: dict[tuple[int, int], list[tuple[int, int, Fraction]]] = {}
    for k in range(r):
        for l in range(k + 1, r):
            kl, lk = product(rows[k], rows[l]), product(rows[l], rows[k])
            for pos in kl.keys() | lk.keys():
                c = kl.get(pos, 0) - lk.get(pos, 0)
                if c:
                    quadratic.setdefault(pos, []).extend(((k, l, c), (l, k, -c)))

    symbols = [[(i * r + k, 1) for k in range(r)] for i in range(n)]
    equations: list[tuple[tuple, Poly]] = []
    for i in range(n):
        ui = symbols[i]
        for j in range(i + 1, n):
            uj = symbols[j]
            bracket = L.bracket_basis(i, j)
            for a in range(n):
                terms: dict[Monomial, Fraction] = {}
                if bracket[a].rat:
                    terms[()] = bracket[a].rat
                for k, e in linear[a][j]:
                    terms[(ui[k],)] = e
                for k, e in linear[a][i]:
                    terms[(uj[k],)] = -e
                equations.append((("translation", i + 1, j + 1, a + 1),
                                  _poly(terms)))
            for (a, b), entries in quadratic.items():
                equations.append((
                    ("commutator", i + 1, j + 1, a + 1, b + 1),
                    _poly({(ui[k], uj[l]): c for k, l, c in entries})))
    equations.sort(key=lambda item: item[0])
    return equations


def _certificate_from_tag(tag: tuple, constant: Fraction) -> ObstructionCertificate:
    if tag[0] == "commutator":
        return ObstructionCertificate(kind="commutator", pair=(tag[1], tag[2]),
                                      constant=constant,
                                      position=(tag[3], tag[4]))
    return ObstructionCertificate(kind="translation", pair=(tag[1], tag[2]),
                                  constant=constant, coordinate=tag[3])


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

    See the module docstring for the method. Requires samples >= 0, a
    rational field context (d = 1), a valid bracket and nilpotency;
    violations raise PreconditionError. A non-two-step-solvable algebra
    can never carry such an action, so if the pipeline ends anywhere but
    Obstructed for one, an InternalError is raised rather than an unsound
    verdict returned.
    """
    if samples < 0:
        raise PreconditionError(f"samples must be non-negative, got {samples}")
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
    equations = _build_equations(L, space)

    # Force every equation that is (or becomes) affine, in tag order, until
    # nothing changes. An equation reducing to a nonzero constant is an
    # inconsistency; it stays pending rather than poisoning the solved map,
    # and once the fixpoint is reached the first such reduction in tag
    # order becomes the certificate. Constants are stable under further
    # substitution, so deferring them never changes what they certify.
    system = LinearSystem()
    pending = list(equations)
    while True:
        progressed = False
        still_pending: list[tuple[tuple, Poly]] = []
        for tag, poly in pending:
            reduced = system.reduce(poly)
            if not reduced:
                continue
            if not reduced.is_constant() and reduced.degree() <= 1:
                system.add(reduced)
                progressed = True
            else:
                still_pending.append((tag, poly))
        pending = still_pending
        if not progressed:
            break

    eliminated = tuple(sorted(system.solved.items()))

    leftover = [(tag, system.reduce(poly)) for tag, poly in pending]
    for tag, reduced in leftover:
        if reduced and reduced.is_constant():
            return ObstructionOutcome(
                space=space, verdict="Obstructed", eliminated=eliminated,
                certificate=_certificate_from_tag(tag,
                                                  reduced.constant_value()),
                samples=samples, seed=seed, two_step_solvable=metabelian)

    residual = tuple((tag, reduced) for tag, reduced in leftover if reduced)

    free = [v for v in range(n * r) if v not in system.solved]
    for values in _candidates(len(free), samples, seed):
        found = ObstructionOutcome(
            space=space, verdict="Found", eliminated=eliminated,
            witness_assignment=tuple(zip(free, values)), residual=residual,
            samples=samples, seed=seed, two_step_solvable=metabelian)
        if any(poly.evaluate(found.coefficients) for _, poly in residual):
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

    Obstructed: the tagged equation is rebuilt from scratch and the
    eliminated-variable map substituted in; the result must be exactly
    the stated nonzero constant. Found: the claim is the witness rep,
    which must build from the outcome's coefficients, act on L and pass
    the full simple-transitivity verdict; its product and the forced
    values are read off the same data, so they cannot disagree with it.
    An Undetermined outcome makes no claim, so there is nothing to
    falsify and the result is vacuously True.
    """
    if outcome.verdict == "Undetermined":
        return True
    if outcome.verdict == "Found":
        try:
            rep = outcome.witness_rep
            return (rep is not None and rep.target == L
                    and check_simply_transitive(rep).overall)
        except Exception:
            return False

    cert = outcome.certificate
    if cert is None or not cert.constant:
        return False
    try:
        space = derivation_space(L)
        if space.basis != outcome.space.basis:
            return False
        if cert.kind == "commutator":
            if cert.position is None:
                return False
            i, j = cert.pair
            gi = parametric_derivation(L, i - 1, space)
            gj = parametric_derivation(L, j - 1, space)
            poly = gi.commutator(gj).entry(cert.position[0] - 1,
                                           cert.position[1] - 1)
        elif cert.kind == "translation":
            if cert.coordinate is None:
                return False
            i, j = cert.pair
            gi = parametric_derivation(L, i - 1, space)
            gj = parametric_derivation(L, j - 1, space)
            a = cert.coordinate - 1
            poly = Poly.const(L.bracket_basis(i - 1, j - 1)[a].rat) \
                + gi.entry(a, j - 1) - gj.entry(a, i - 1)
        else:
            return False
        reduced = poly.substitute(dict(outcome.eliminated))
    except Exception:
        return False
    return reduced.is_constant() and reduced.constant_value() == cert.constant
