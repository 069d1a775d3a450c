"""Seeded inputs for the three benchmark workloads.

Every input is drawn from a finite pool whose members are named by a key.
The seed picks members of the pool, and ``reference.json`` holds, per key,
the verdict and rendered output recorded from a known-good build, so every
timed decision can be checked against it (see ``record_reference.py``).

obstruct-refute
    ``g6_18`` and, for each of its 15 below-diagonal positions (r, c),
    TRANSPORTS_PER_POSITION transports by unit lower-triangular integer
    matrices I + k E_rc, k drawn from TRANSPORT_COEFFS. Two-step
    solvability is invariant under a change of basis, so every input is
    Obstructed by construction.
obstruct-scaling
    The filiform algebras L5 to L8, the Heisenberg algebra h7 and the
    filiform algebra R7, built from structure constants, each in one of
    BASES pooled bases Y_i = c_i X_i with c_i from BASIS_SCALES (the first
    pooled basis is its own). All are two-step solvable and come out Found.
check-rep
    The bundled rep files, read from the package data directory; a round
    trip rep -> LR -> rep of the abelian-source reps that pass; and
    seeded refutations, perturbed copies that by construction fail exactly
    one of the three criteria of the simple-transitivity verdict: one
    homomorphism refutation of each rep that has one, and
    REFUTATIONS_PER_CRITERION bijectivity and nilpotency refutations.

The seed must not move the cost of a pass, or the spread across seeds
hides a change of the program. A basis permutation moved the cost of one
algebra by 10-20 %, as much as the machine's own noise; rescaling basis
vectors by 2 still moved L7 by 20 %, since the constants of a filiform
chain grow like powers of the scale; and the seeded choice of which reps
to refute moved a check-rep pass by up to 25 %. So obstruct-refute
transports at every position, obstruct-scaling only flips the signs of
basis vectors (every structure constant keeps its magnitude, so the
elimination takes the same steps) and check-rep refutes every rep that
can be refuted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from nilaffine import (AffineRep, LieAlgebra, Matrix, Scalar, algebra_to_dict,
                       get_algebra, read_json, rep_from_dict, rep_to_dict,
                       transport, write_json)

WORKLOADS = ("obstruct-refute", "obstruct-scaling", "check-rep")

TRANSPORT_COEFFS = (-2, -1, 1, 2)
TRANSPORTS_PER_POSITION = 2
BASES = 8
BASIS_SCALES = (1, -1)
SCALE_FACTORS = (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3))
NIL_FACTORS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
REFUTATIONS_PER_CRITERION = 4

# criterion names, as the fields of nilaffine.RepVerdict
HOM, BIJ, NIL = "homomorphism", "t_bijective", "linear_parts_nilpotent"


@dataclass(frozen=True)
class Item:
    """One decision input.

    ``kind`` is "obstruct", "check-rep" or "round-trip"; ``file`` is the
    input document's path. ``fails`` names the one criterion a refutation
    must fail (None when the rep must pass); it is unused for obstruct
    items, whose expected verdict is in the reference.
    """

    key: str
    kind: str
    file: Path
    fails: str | None = None


# ------------------------------------------------------------------ algebras


def filiform(n: int) -> LieAlgebra:
    """L_n: [X_1, X_i] = X_{i+1} for 2 <= i < n."""
    return LieAlgebra.from_table(f"L{n}", n,
                                 {(1, i): [(i + 1, 1)] for i in range(2, n)})


def heisenberg(k: int) -> LieAlgebra:
    """h_{2k+1}: [X_i, X_{k+i}] = X_{2k+1} for 1 <= i <= k."""
    n = 2 * k + 1
    return LieAlgebra.from_table(f"h{n}", n,
                                 {(i, k + i): [(n, 1)] for i in range(1, k + 1)})


def filiform_r(n: int) -> LieAlgebra:
    """R_n: L_n plus [X_2, X_j] = X_{j+2} for 3 <= j <= n - 2."""
    table = {(1, i): [(i + 1, 1)] for i in range(2, n)}
    table.update({(2, j): [(j + 2, 1)] for j in range(3, n - 1)})
    return LieAlgebra.from_table(f"R{n}", n, table)


def scaling_family() -> dict[str, LieAlgebra]:
    family = {f"L{n}": filiform(n) for n in range(5, 9)}
    family["h7"] = heisenberg(3)
    family["R7"] = filiform_r(7)
    return family


def elementary(n: int, row: int, col: int, k: int) -> Matrix:
    """I + k E_{row,col} (0-based), unit lower triangular for row > col."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    rows[row][col] = k
    return Matrix.from_rows(rows, 1)


def diagonal(scales: tuple[int, ...]) -> Matrix:
    """P = diag(scales), so Y_i = scales[i] X_i."""
    n = len(scales)
    return Matrix.from_rows([[scales[r] if r == c else 0 for c in range(n)]
                             for r in range(n)], 1)


def basis_pool(name: str, n: int) -> list[tuple[int, ...]]:
    """BASES rescalings of an n-dimensional basis; the first is the identity."""
    rng = random.Random(f"basis:{name}")
    pool = [(1,) * n]
    while len(pool) < BASES:
        scales = tuple(rng.choice(BASIS_SCALES) for _ in range(n))
        if scales not in pool:
            pool.append(scales)
    return pool


# ------------------------------------------------------------------ pools


def refute_key(member: tuple[int, int, int] | None) -> str:
    if member is None:
        return "g6_18"
    r, c, k = member
    return f"g6_18+{k}E{r + 1}{c + 1}"


def refute_algebra(member: tuple[int, int, int] | None) -> LieAlgebra:
    g = get_algebra("g6_18")
    if member is None:
        return g
    return transport(g, elementary(6, *member), name=refute_key(member))


def scaling_key(name: str, index: int) -> str:
    return f"{name}/b{index}"


def scaling_algebra(name: str, index: int) -> LieAlgebra:
    L = scaling_family()[name]
    if index == 0:
        return L
    scales = basis_pool(name, L.dim)[index]
    return transport(L, diagonal(scales), name=scaling_key(name, index))


def bundled_files(data_dir: Path) -> list[Path]:
    return sorted((data_dir / "reps").glob("*.json"))


def hom_pool(reps: dict[str, AffineRep]) -> list[tuple[str, int, Fraction]]:
    """(rep, i, factor) such that rescaling D_i breaks only the homomorphism.

    Rescaling keeps D_i a derivation and keeps the span of the D_i, so
    nilpotency and the translations are untouched. The vector part of the
    identity for a pair (i, j) moves by (factor - 1) D_i t_j, so it breaks
    whenever D_i t_j is nonzero for some j != i.
    """
    pool = []
    for name, rep in sorted(reps.items()):
        for i, D in enumerate(rep.D):
            if any(any(not x.is_zero() for x in D.apply(rep.t[j]))
                   for j in range(len(rep.t)) if j != i):
                pool.extend((name, i, f) for f in SCALE_FACTORS)
    return pool


def nil_pool() -> list[tuple[int, Fraction]]:
    """(i, factor): D_i = factor E_ii on r4_to_r4, whose D_j are all zero.

    Only column i of D_i is nonzero and t is the identity, so D_i t_j = 0
    for j != i and the homomorphism identity still holds, while the
    diagonal entry makes D_i non-nilpotent.
    """
    return [(i, f) for i in range(4) for f in NIL_FACTORS]


def bij_pool() -> list[tuple[int, int]]:
    """(a, b): t_a := t_b on r4_to_r4, whose D_j are all zero.

    With zero linear parts and an abelian target every t is a
    homomorphism, so only bijectivity fails.
    """
    return [(a, b) for a in range(4) for b in range(4) if a != b]


def _fmt(f: Fraction) -> str:
    return str(f).replace("/", "|")


def hom_refutation(reps, member) -> tuple[str, AffineRep]:
    name, i, f = member
    rep = reps[name]
    factor = Scalar.of(f, rep.d)
    D = [factor * m if k == i else m for k, m in enumerate(rep.D)]
    key = f"{name}/hom:D{i + 1}*{_fmt(f)}"
    return key, AffineRep(rep.source, rep.target, rep.t, D, label=key)


def nil_refutation(reps, member) -> tuple[str, AffineRep]:
    i, f = member
    rep = reps["r4_to_r4"]
    D = list(rep.D)
    D[i] = Matrix.from_rows([[f if (r, c) == (i, i) else 0 for c in range(4)]
                             for r in range(4)], 1)
    key = f"r4_to_r4/nil:D{i + 1}={_fmt(f)}E{i + 1}{i + 1}"
    return key, AffineRep(rep.source, rep.target, rep.t, D, label=key)


def bij_refutation(reps, member) -> tuple[str, AffineRep]:
    a, b = member
    rep = reps["r4_to_r4"]
    t = list(rep.t)
    t[a] = t[b]
    key = f"r4_to_r4/bij:t{a + 1}=t{b + 1}"
    return key, AffineRep(rep.source, rep.target, t, rep.D, label=key)


def load_bundled(data_dir: Path) -> dict[str, AffineRep]:
    return {p.stem: rep_from_dict(read_json(p), where=str(p))
            for p in bundled_files(data_dir)}


def refutation_pool(reps) -> list[tuple]:
    """(builder, member, criterion) for every refutation in the pool."""
    return ([(hom_refutation, m, HOM) for m in hom_pool(reps)]
            + [(bij_refutation, m, BIJ) for m in bij_pool()]
            + [(nil_refutation, m, NIL) for m in nil_pool()])


# ------------------------------------------------------------------ prepare


def prepare(workload: str, seed: int | None, work: Path,
            data_dir: Path) -> list[Item]:
    """Write the inputs of one pass into ``work`` and return them as items.

    ``seed`` picks pool members; ``None`` takes the whole pool, which is
    what the reference is recorded over.
    """
    rng = None if seed is None else random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    items: list[Item] = []

    def emit(key: str, kind: str, doc: dict, fails: str | None = None):
        path = work / f"in{len(items):03d}.json"
        write_json(path, doc)
        items.append(Item(key, kind, path, fails))

    if workload == "obstruct-refute":
        positions = [(r, c) for r in range(6) for c in range(r)]
        members = [None] + [(r, c, k) for r, c in positions
                            for k in (rng.sample(TRANSPORT_COEFFS,
                                                 TRANSPORTS_PER_POSITION)
                                      if rng else TRANSPORT_COEFFS)]
        for member in members:
            emit(refute_key(member), "obstruct",
                 algebra_to_dict(refute_algebra(member)))
    elif workload == "obstruct-scaling":
        for name in scaling_family():
            for index in [rng.randrange(BASES)] if rng else range(BASES):
                emit(scaling_key(name, index), "obstruct",
                     algebra_to_dict(scaling_algebra(name, index)))
    elif workload == "check-rep":
        reps = load_bundled(data_dir)
        for path in bundled_files(data_dir):
            items.append(Item(path.stem, "check-rep", path))
        for path in bundled_files(data_dir):
            if reps[path.stem].source.is_abelian():
                items.append(Item(f"{path.stem}/round-trip", "round-trip",
                                  path))
        pool = refutation_pool(reps)
        for criterion in (HOM, BIJ, NIL):
            members = [(b, m) for b, m, c in pool if c == criterion]
            if rng and criterion == HOM:
                by_rep: dict[str, list] = {}
                for builder, member in members:
                    by_rep.setdefault(member[0], []).append((builder, member))
                members = [rng.choice(group) for group in by_rep.values()]
            elif rng:
                members = rng.sample(members, REFUTATIONS_PER_CRITERION)
            for builder, member in members:
                key, rep = builder(reps, member)
                emit(key, "check-rep", rep_to_dict(rep), criterion)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items
