"""End-to-end acceptance checks, one test per agreed deliverable.

Each test stands alone and reads as a claim about the shipped behavior;
run with -v to get one pass/fail line per claim. The first one asserts a
universal statement about bracket mutations that is knowingly too strong
for exactly one constant (bumping it rescales the algebra onto itself,
see test_liealg.py for the pinned per-constant behavior); it is kept
literal here rather than weakened, so it is expected to fail on that
sub-case.
"""

import copy
import random
import time
from fractions import Fraction

from nilaffine import cli
from nilaffine.affine import check_homomorphism, check_simply_transitive
from nilaffine.corpus import bundled_rep, bundled_reps, rep_path
from nilaffine.liealg import (algebra_from_dict, algebra_to_dict,
                              catalog_names, derivation_space, get_algebra)
from nilaffine.linalg import Matrix, as_vector, engel_flag
from nilaffine.lr import check_complete, check_lr, lr_to_rep, rep_to_lr
from nilaffine.obstruction import (Poly, obstruct_abelian,
                                   parametric_derivation, verify_certificate)
from nilaffine.scalars import Scalar

NEVER_OBSTRUCTED = ("R1", "R2", "R3", "R4", "R5", "R6",
                    "h3", "h3+R", "f4", "h3+R2")


def test_catalog_validity_and_bracket_rigidity():
    for name in catalog_names():
        L = get_algebra(name)
        assert L.check_jacobi().ok, name
        assert L.is_nilpotent(), name

    doc = algebra_to_dict(get_algebra("g6_18"))
    surviving = []
    for bi, row in enumerate(doc["brackets"]):
        for ti in range(len(row["terms"])):
            bumped = copy.deepcopy(doc)
            term = bumped["brackets"][bi]["terms"][ti]
            term["c"] = term["c"] + 1
            bumped["name"] = "mutant"
            jac = algebra_from_dict(bumped).check_jacobi()
            if jac.ok:
                surviving.append((row["i"], row["j"], term["k"]))
            else:
                assert jac.violations[0].triple
    assert not surviving, (
        f"bumping these constants by one left the Jacobi identity intact: "
        f"{surviving}")


def test_bundled_morphism_corpus_passes_exactly():
    reps = bundled_reps()
    by_dim = {3: [], 4: [], 5: []}
    for slug, rep in reps.items():
        by_dim[rep.source.dim].append(slug)
    assert len(by_dim[3]) == 2
    assert len(by_dim[4]) == 9
    assert len(by_dim[5]) == 1

    for slug, rep in reps.items():
        assert check_homomorphism(rep).ok, slug
        assert check_simply_transitive(rep).overall, slug

    surd = reps[by_dim[5][0]]
    assert surd.d == 3
    assert surd.t[2][2] == Scalar(0, Fraction(1, 3), 3)


def test_g6_18_derivation_space_pattern():
    L = get_algebra("g6_18")
    space = derivation_space(L)
    assert space.dimension == 9

    D = parametric_derivation(L, 0, space)
    a, b = Poly.var(0), Poly.var(1)
    diagonal = [D.entry(i, i) for i in range(6)]
    assert diagonal == [a, b, a + b, a * 2 + b, a * 3 + b, a * 3 + b * 2]
    assert D.entry(3, 2) == Poly.var(3)
    assert D.entry(5, 2) == -Poly.var(5)
    assert D.entry(5, 4) == -Poly.var(2)
    assert D.entry(5, 3) == Poly.var(4)


def test_g6_18_obstruction_certified_within_budget():
    L = get_algebra("g6_18")
    started = time.perf_counter()
    outcome = obstruct_abelian(L)
    elapsed = time.perf_counter() - started

    assert outcome.verdict == "Obstructed"
    named = outcome.forced_named()
    assert named["epsilon_41"] == Fraction(1, 2)
    assert named["gamma_12"] == Fraction(-1, 2)
    assert named["delta_3"] == Fraction(1, 2)
    for key in ("alpha_3", "beta_3", "gamma_32", "epsilon_31"):
        assert named[key] == 0

    cert = outcome.certificate
    assert cert.kind == "commutator" and cert.pair == (1, 2)
    assert isinstance(cert.constant, Fraction) and cert.constant != 0
    assert verify_certificate(outcome, L)
    assert elapsed <= 5.0


def test_abelian_rep_product_round_trip():
    for slug in ("r3_to_h3", "r4_to_h3R", "r4_to_f4"):
        rep = bundled_rep(slug)
        s = rep_to_lr(rep)
        assert check_lr(s).ok, slug
        assert check_complete(s).ok, slug
        assert lr_to_rep(s) == rep, slug

    h3_product = rep_to_lr(bundled_rep("r3_to_h3"))
    rng = random.Random(1)
    for _ in range(20):
        x = tuple(Scalar.of(Fraction(rng.randint(-5, 5)), 1) for _ in range(3))
        y = tuple(Scalar.of(Fraction(rng.randint(-5, 5)), 1) for _ in range(3))
        expected = as_vector(
            [0, 0, (x[0].rat * y[1].rat - x[1].rat * y[0].rat) / 2], 1)
        assert h3_product.product(x, y) == expected


def test_engel_flag_soundness_on_the_corpus():
    rng = random.Random(2026)
    for slug, rep in bundled_reps().items():
        n = rep.source.dim
        for _ in range(100):
            coeffs = tuple(
                Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                          rep.d)
                for _ in range(n))
            assert rep.D_of(coeffs).is_nilpotent(), slug

    for n in (3, 4, 6):
        assert not engel_flag([Matrix.identity(n)], size=n)
    rep = bundled_rep("r4_to_f4")
    assert not engel_flag(list(rep.D) + [Matrix.identity(4)], size=4)


def test_negative_controls_and_verdict_consistency():
    for name in NEVER_OBSTRUCTED:
        outcome = obstruct_abelian(get_algebra(name))
        assert outcome.verdict != "Obstructed", name
        assert outcome.verdict == "Found", name
        assert verify_certificate(outcome, get_algebra(name)), name

    L = get_algebra("g6_18")
    assert not L.is_two_step_solvable()
    outcome = obstruct_abelian(L)
    assert outcome.verdict != "Found"
    assert outcome.verdict == "Obstructed"


def test_cli_json_reports_are_deterministic(tmp_path, capsys):
    lr_file = tmp_path / "lr.json"
    assert cli.main(["rep-to-lr", str(rep_path("r4_to_f4")), "-o",
                     str(lr_file), "--quiet"]) == 0

    runs = [
        ["check-lie", "--algebra", "g6_18", "--json"],
        ["check-lie", "--algebra", "h3+R2", "--json"],
        ["derivations", "--algebra", "g6_18", "--json"],
        ["check-rep", str(rep_path("h3R2_to_g5_6")), "--json"],
        ["rep-to-lr", str(rep_path("r3_to_h3"))],
        ["lr-to-rep", str(lr_file)],
        ["check-lr", str(lr_file), "--json"],
        ["obstruct-abelian", "--algebra", "g6_18", "--samples", "25",
         "--seed", "0", "--json"],
        ["obstruct-abelian", "--algebra", "f4", "--samples", "25",
         "--seed", "0", "--json"],
        ["catalog", "list", "--json"],
        ["catalog", "show", "g5_6", "--json"],
    ]
    capsys.readouterr()
    for argv in runs:
        first_code = cli.main(argv)
        first = capsys.readouterr().out
        second_code = cli.main(argv)
        second = capsys.readouterr().out
        assert first_code == second_code, argv
        assert first, argv
        assert first == second, argv

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["catalog", "export", "g6_18", str(a), "--quiet"]) == 0
    assert cli.main(["catalog", "export", "g6_18", str(b), "--quiet"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
