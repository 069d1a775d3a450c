import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from record_cli_golden import SQRT3_ALGEBRA

from nilaffine import lr, obstruction
from nilaffine.affine import check_simply_transitive
from nilaffine.errors import InternalError, ParseError, PreconditionError
from nilaffine.liealg import (LieAlgebra, _leibniz_failure, algebra_from_dict,
                              catalog_names, derivation_space, get_algebra,
                              transport)
from nilaffine.io import stable_json
from nilaffine.linalg import Matrix, _rref
from nilaffine.lr import lr_to_rep, rep_to_lr
from nilaffine.obstruction import (Contradiction, LinearSystem, Poly,
                                   _build_equations, _certificate_from_tag,
                                   _commutator_entry, _commutator_equations,
                                   _force, _mono_degree, obstruct_abelian,
                                   parametric_derivation, variable_namer,
                                   verify_certificate)
from nilaffine.scalars import Scalar

NEGATIVE_CONTROLS = ("R1", "R2", "R3", "R4", "R5", "R6",
                     "h3", "h3+R", "f4", "h3+R2", "g5_6")


def variables(p: Poly) -> set[int]:
    return {v for m in p.terms for v, _ in m}


class TestPoly:
    def test_construction_and_truthiness(self):
        assert not Poly()
        assert not Poly.const(0)
        assert Poly.const(Fraction(1, 2))
        assert Poly.var(3) == Poly.var(3)
        assert Poly.var(3) != Poly.var(4)

    def test_product_expands(self):
        x = Poly.var(0)
        assert (x + Poly.const(1)) * (x - Poly.const(1)) == x * x - Poly.const(1)
        assert (x * x).degree() == 2

    def test_scalar_multiplication(self):
        assert Poly.var(1) * Fraction(1, 2) + Poly.var(1) * Fraction(1, 2) \
            == Poly.var(1)
        assert Poly.var(1) * 0 == Poly()

    def test_constant_queries(self):
        p = Poly.const(Fraction(-3, 4))
        assert p.is_constant() and p.constant_value() == Fraction(-3, 4)
        assert Poly().constant_value() == 0
        assert not (Poly.var(0) + Poly.const(5)).is_constant()

    def test_substitute_expands_powers(self):
        p = Poly.var(0) * Poly.var(0)
        q = p.substitute({0: Poly.var(1) + Poly.const(1)})
        assert q == Poly.var(1) * Poly.var(1) + Poly.var(1) * 2 + Poly.const(1)

    def test_substitute_power_absent_variable_and_cancellation(self):
        x, y, z = Poly.var(0), Poly.var(1), Poly.var(2)
        p = x * x * x * z + x * y * 3 - Poly.const(2)
        q = p.substitute({0: y * 2 - Poly.const(1)})
        expected = (y * 2 - Poly.const(1)) * (y * 2 - Poly.const(1)) \
            * (y * 2 - Poly.const(1)) * z \
            + (y * 2 - Poly.const(1)) * y * 3 - Poly.const(2)
        assert q == expected
        assert 2 in variables(q) and 0 not in variables(q)
        assert all(q.terms.values())
        # x*y - x - y with x = 1 cancels the y terms and leaves -1
        r = (x * y - x - y).substitute({0: Poly.const(1)})
        assert r == Poly.const(-1)
        assert all(r.terms.values())
        assert (x * x - y).substitute({1: x * x}).terms == {}

    def test_substitute_without_hit_is_identity(self):
        p = Poly.var(0) + Poly.const(2)
        assert p.substitute({5: Poly.const(1)}) is p

    def test_evaluate(self):
        p = Poly.var(0) * Poly.var(1) - Poly.const(Fraction(1, 3))
        assert p.evaluate({0: Fraction(1, 2), 1: Fraction(2, 3)}) == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_evaluate_matches_naive_formula(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                mono = tuple(sorted((v, rng.randint(1, 3)) for v in
                                    rng.sample(range(5), rng.randint(0, 3))))
                terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            p = Poly(terms)
            # about half of the values are zero
            values = {v: Fraction(rng.choice((0, rng.randint(-3, 3))),
                                  rng.randint(1, 3)) for v in range(5)}
            naive = Fraction(0)
            for m, c in p.terms.items():
                prod = c
                for v, e in m:
                    prod *= values[v] ** e
                naive += prod
            got = p.evaluate(values)
            assert got == naive and isinstance(got, Fraction)

    def test_evaluate_looks_up_every_variable(self):
        # x0 is zero, which makes the term zero, yet x1 must still be there
        p = Poly.var(0) * Poly.var(1) + Poly.var(2)
        assert p.evaluate({0: Fraction(0), 1: Fraction(5), 2: Fraction(0)}) == 0
        with pytest.raises(KeyError):
            p.evaluate({0: Fraction(0), 2: Fraction(1)})

    def test_render(self):
        def name(v):
            return f"x{v}"
        assert Poly().render(name) == "0"
        assert Poly.const(Fraction(-1, 4)).render(name) == "-1/4"
        p = Poly.const(1) + Poly.var(0) * 2 + Poly.var(0) * Poly.var(1)
        assert p.render(name) == "1 + 2*x0 + x0*x1"
        assert (Poly.var(0) * Poly.var(0) - Poly.var(1)).render(name) \
            == "-x1 + x0^2"

    def test_render_of_sqrt_coefficients(self):
        # signed by the leading part, whole in parentheses with a sqrt(d) part
        p = Poly({(): Scalar(-1, 1, 3), ((0, 1),): Scalar(0, -1, 3),
                  ((1, 1),): Scalar(1, 1, 3), ((2, 1),): Scalar(-2, 0, 3),
                  ((3, 1),): Scalar(0, Fraction(1, 3), 3)})
        assert p.render(lambda v: f"x{v}") == "-(1 - sqrt(3)) - (sqrt(3))*x0" \
            " + (1 + sqrt(3))*x1 - 2*x2 + (1/3*sqrt(3))*x3"

    def test_immutable(self):
        p = Poly.var(0)
        with pytest.raises(AttributeError):
            p.terms = {}


def consistent_random_system(rng, nvars=10, neqs=14):
    solution = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for v in range(nvars)}
    eqs = []
    for _ in range(neqs):
        support = rng.sample(range(nvars), rng.randint(1, 4))
        terms = Poly()
        total = Fraction(0)
        for v in support:
            c = Fraction(rng.randint(-3, 3))
            terms = terms + Poly.var(v) * c
            total += c * solution[v]
        eqs.append(terms - Poly.const(total))
    return eqs


class TestLinearSystem:
    def test_add_and_reduce(self):
        sys_ = LinearSystem()
        assert sys_.add(Poly.var(0) - Poly.var(1))
        assert sys_.reduce(Poly.var(0)) == Poly.var(1)
        assert not sys_.add((Poly.var(0) - Poly.var(1)) * 2)

    def test_contradiction_carries_constant(self):
        sys_ = LinearSystem()
        sys_.add(Poly.var(0) + Poly.const(1))
        with pytest.raises(Contradiction) as exc:
            sys_.add(Poly.var(0) + Poly.const(3))
        assert exc.value.constant == 2

    def test_solved_map_is_fully_reduced(self):
        rng = random.Random(11)
        for _ in range(5):
            sys_ = LinearSystem()
            for eq in consistent_random_system(rng):
                sys_.add(eq)
            pivots = set(sys_.solved)
            for form in sys_.solved.values():
                assert not (variables(form) & pivots)

    def test_insertion_order_is_irrelevant(self):
        rng = random.Random(7)
        for _ in range(10):
            eqs = consistent_random_system(rng)
            baseline = None
            for _ in range(5):
                rng.shuffle(eqs)
                sys_ = LinearSystem()
                for eq in eqs:
                    sys_.add(eq)
                if baseline is None:
                    baseline = sys_.solved
                else:
                    assert sys_.solved == baseline


class TestParametricDerivation:
    def test_abelian_grid_is_generic(self):
        L = get_algebra("R3")
        for index in (0, 2):
            pd = parametric_derivation(L, index)
            for a in range(3):
                for b in range(3):
                    assert pd.entry(a, b) == Poly.var(index * 9 + 3 * a + b)

    def test_h3_center_column_is_trace_linked(self):
        pd = parametric_derivation(get_algebra("h3"), 0)
        assert pd.entry(2, 2) == pd.entry(0, 0) + pd.entry(1, 1)
        assert not pd.entry(0, 2)
        assert not pd.entry(1, 2)

    def test_g6_18_row_six_linkages(self):
        L = get_algebra("g6_18")
        space = derivation_space(L)
        assert space.dimension == 9
        for index in (0, 3):
            pd = parametric_derivation(L, index, space)
            base = index * 9
            assert pd.entry(3, 2) == Poly.var(base + 3)
            assert pd.entry(5, 2) == -Poly.var(base + 5)
            assert pd.entry(5, 4) == -Poly.var(base + 2)
            assert pd.entry(5, 3) == Poly.var(base + 4)

    def test_specialization_is_a_derivation(self):
        rng = random.Random(3)
        for L in [get_algebra(name) for name in ("h3", "f4", "g6_18")] + [
                algebra_from_dict(SQRT3_ALGEBRA)]:   # its basis has sqrt(3)s
            space = derivation_space(L)
            pd = parametric_derivation(L, 1, space)
            values = {space.dimension + k:
                      Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for k in range(space.dimension)}
            n = L.dim
            m = Matrix.from_rows([[pd.entry(r, c).evaluate(values) for c in range(n)]
                                  for r in range(n)], L.d)
            assert _leibniz_failure(L, m) is None

    def test_greek_names(self):
        name = variable_namer(derivation_space(get_algebra("g6_18")))
        assert name(0) == "alpha_1"
        assert name(3) == "gamma_12"
        assert name(11) == "gamma_21"
        assert name(22) == "delta_3"
        assert name(32) == "epsilon_41"
        assert name(44) == "phi_52"
        assert name(53) == "phi_62"

    def test_fallback_names(self):
        name = variable_namer(derivation_space(get_algebra("R3")))
        assert name(0) == "u1_1"
        assert name(9 + 2) == "u2_3"
        assert name(26) == "u3_9"


class TestEquations:
    def test_tags_are_sorted_and_bounded(self):
        L = get_algebra("g6_18")
        eqs = _build_equations(L, derivation_space(L))
        tags = [tag for tag, _ in eqs]
        assert tags == sorted(tags)
        assert len(set(tags)) == len(tags)
        assert all(poly.degree() <= 2 for _, poly in eqs)
        translation = [t for t in tags if t[0] == "translation"]
        assert len(translation) == 15 * 6

    def test_commutator_tags_skip_zero_entries(self):
        L = get_algebra("R2")
        eqs = _build_equations(L, derivation_space(L))
        for tag, poly in eqs:
            if tag[0] == "commutator":
                assert poly


def reference_equations(L, space):
    """The defining equations built from generic derivation grids."""
    n = L.dim
    grids = [parametric_derivation(L, i, space) for i in range(n)]
    equations = []
    for i in range(n):
        for j in range(i + 1, n):
            bracket = L.bracket_basis(i, j)
            for a in range(n):
                poly = Poly.const(bracket[a].rat) \
                    + grids[i].entry(a, j) - grids[j].entry(a, i)
                equations.append((("translation", i + 1, j + 1, a + 1), poly))
            comm = grids[i].commutator(grids[j])
            for r in range(n):
                for c in range(n):
                    if comm.entry(r, c):
                        equations.append(
                            (("commutator", i + 1, j + 1, r + 1, c + 1),
                             comm.entry(r, c)))
    equations.sort(key=lambda item: item[0])
    return equations


def filiform(n):
    """L_n: [X_1, X_i] = X_{i+1} for 2 <= i < n."""
    return LieAlgebra.from_table(f"L{n}", n,
                                 {(1, i): [(i + 1, 1)] for i in range(2, n)})


def transported_g6_18():
    rows = [[int(r == c) for c in range(6)] for r in range(6)]
    rows[3][1] = 2
    rows[5][0] = -1
    return transport(get_algebra("g6_18"), Matrix.from_rows(rows, 1),
                     name="g6_18'")


class TestBuilderMatchesGrids:
    @pytest.mark.parametrize("L", [get_algebra(name) for name in catalog_names()]
                             + [transported_g6_18(), filiform(6)],
                             ids=lambda L: L.name)
    def test_same_tags_and_polys(self, L):
        space = derivation_space(L)
        built = _build_equations(L, space)
        expected = reference_equations(L, space)
        assert [tag for tag, _ in built] == [tag for tag, _ in expected]
        for (tag, poly), (_, want) in zip(built, expected):
            assert poly == want, tag
            assert all(poly.terms.values()), tag


@pytest.mark.parametrize("L", [get_algebra("g6_18"), transported_g6_18()],
                         ids=lambda L: L.name)
def test_commutator_entry_matches_the_full_commutator(L):
    space = derivation_space(L)
    grids = [parametric_derivation(L, i, space) for i in range(L.dim)]
    for i, j in [(0, 1), (0, 5), (2, 4), (4, 5)]:
        full = grids[i].commutator(grids[j])
        for r in range(L.dim):
            for c in range(L.dim):
                assert _commutator_entry(grids[i], grids[j], r, c) == \
                    full.entry(r, c), (i, j, r, c)


@pytest.fixture(scope="module")
def outcome():
    return obstruct_abelian(get_algebra("g6_18"))


class TestObstructed:
    def test_verdict_and_certificate(self, outcome):
        assert outcome.verdict == "Obstructed"
        cert = outcome.certificate
        assert cert.kind == "commutator"
        assert cert.pair == (1, 2)
        assert cert.position == (4, 1)
        assert cert.coordinate is None
        assert cert.constant == Fraction(-1, 4)

    def test_forced_constants(self, outcome):
        named = outcome.forced_named()
        assert len(named) == 40
        nonzero = {k: v for k, v in named.items() if v}
        assert nonzero == {
            "gamma_12": Fraction(-1, 2),
            "gamma_21": Fraction(1, 2),
            "delta_3": Fraction(1, 2),
            "epsilon_41": Fraction(1, 2),
            "phi_52": Fraction(1, 2),
        }
        for k in ("alpha_3", "beta_3", "gamma_32", "epsilon_31"):
            assert named[k] == 0
        sixth = {k for k in named if k.split("_")[1].startswith("6")}
        assert sixth == {"alpha_6", "beta_6", "gamma_61", "gamma_62", "delta_6",
                         "epsilon_61", "epsilon_62", "phi_61", "phi_62"}
        assert all(named[k] == 0 for k in sixth)

    def test_free_variables(self, outcome):
        free = {outcome.variable_name(v) for v in outcome.free_variables()}
        assert free == {"epsilon_22", "phi_11", "phi_21", "phi_22",
                        "phi_31", "phi_32", "phi_41", "phi_51"}

    def test_certificate_verifies(self, outcome):
        assert verify_certificate(outcome, get_algebra("g6_18"))

    def test_tampered_certificates_fail(self, outcome):
        good = outcome.certificate
        for bad in (
            dataclasses.replace(good, constant=Fraction(0)),
            dataclasses.replace(good, constant=Fraction(1, 4)),
            dataclasses.replace(good, position=(6, 2)),
            # out-of-range tags that negative indexing would read as valid
            dataclasses.replace(good, position=(-2, 1)),
            dataclasses.replace(good, position=(4, -5)),
            dataclasses.replace(good, position=(-2, -5)),
            dataclasses.replace(good, pair=(2, 1), constant=-good.constant),
            # a field the solver never sets for this kind
            dataclasses.replace(good, coordinate=3),
        ):
            tampered = dataclasses.replace(outcome, certificate=bad)
            assert not verify_certificate(tampered, get_algebra("g6_18"))

    def test_checker_does_not_use_the_builder(self, outcome, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the checker called the solver's builder")
        for builder in ("_build_equations", "_commutator_equations",
                        "_translation_equations"):
            monkeypatch.setattr(obstruction, builder, refuse)
        L = get_algebra("g6_18")
        assert verify_certificate(outcome, L)
        tampered = dataclasses.replace(
            outcome, certificate=dataclasses.replace(outcome.certificate,
                                                     constant=Fraction(1, 4)))
        assert not verify_certificate(tampered, L)

    def test_wrong_algebra_fails(self, outcome):
        assert not verify_certificate(outcome, get_algebra("h3"))
        found = obstruct_abelian(get_algebra("h3"))
        assert verify_certificate(found, get_algebra("h3"))
        assert not verify_certificate(found, get_algebra("R3"))
        # the same constants over Q(sqrt 3) are another algebra, for both verdicts
        for out, name in ((outcome, "g6_18"), (found, "h3")):
            assert not verify_certificate(out, get_algebra(name).with_field(3))

    def test_another_algebra_is_rejected_before_any_solve(self, outcome,
                                                          monkeypatch):
        """The Q(sqrt 3) copy and a transport are other algebras: rejected by
        comparing them with outcome.algebra, without rebuilding anything (a
        raising stub would be swallowed by the checker's own handler)."""
        calls, real = [], obstruction.derivation_space
        monkeypatch.setattr(obstruction, "derivation_space",
                            lambda L: calls.append(L) or real(L))
        for other in (get_algebra("g6_18").with_field(3), transported_g6_18()):
            assert not verify_certificate(outcome, other)
        assert calls == []

    def test_not_two_step_solvable_and_never_found(self, outcome):
        L = get_algebra("g6_18")
        assert not L.is_two_step_solvable()
        assert outcome.verdict != "Found"
        assert obstruct_abelian(L, samples=0).verdict == "Obstructed"

    def test_deterministic(self, outcome):
        again = obstruct_abelian(get_algebra("g6_18"))
        assert again.to_dict() == outcome.to_dict()

    def test_to_dict_shape(self, outcome):
        doc = outcome.to_dict()
        assert doc["verdict"] == "Obstructed"
        assert doc["two_step_solvable"] is False
        assert doc["derivation_space_dim"] == 9
        assert doc["witness"] is None
        assert doc["certificate"]["pair"] == [1, 2]
        assert doc["certificate"]["position"] == [4, 1]
        assert doc["certificate"]["constant"] == "-1/4"
        assert doc["forced"]["epsilon_41"] == "1/2"


class TestNegativeControls:
    @pytest.mark.parametrize("name", NEGATIVE_CONTROLS)
    def test_existence_is_found_and_verified(self, name):
        L = get_algebra(name)
        outcome = obstruct_abelian(L)
        assert outcome.verdict == "Found"
        assert verify_certificate(outcome, L)
        assert check_simply_transitive(outcome.witness_rep).overall
        assert outcome.witness_lr is not None
        assert outcome.witness_rep.target == L

    def test_abelian_witness_is_trivial(self):
        outcome = obstruct_abelian(get_algebra("R3"))
        assert all(c == 0 for _, c in outcome.witness_assignment)
        assert all(m.is_zero() for m in outcome.witness_rep.D)

    def test_zero_candidate_wins_without_drawing_samples(self, monkeypatch):
        calls = []
        real = obstruction._sample_values

        def counting(rng, count):
            calls.append(count)
            return real(rng, count)
        monkeypatch.setattr(obstruction, "_sample_values", counting)
        outcome = obstruct_abelian(get_algebra("h3"), samples=10**12)
        assert outcome.verdict == "Found"
        assert calls == []

    def test_found_survives_witness_tamper(self):
        L = get_algebra("h3")
        outcome = obstruct_abelian(L)
        wrong_target = dataclasses.replace(outcome)
        # witness_rep is a cached_property: seeding the instance cache with
        # R3's witness stands in for a Found claim whose rep was swapped.
        wrong_target.__dict__["witness_rep"] = (
            obstruct_abelian(get_algebra("R3")).witness_rep)
        assert wrong_target.witness_rep.target != L
        assert verify_certificate(outcome, L)
        assert not verify_certificate(wrong_target, L)


class TestForgedWitness:
    def test_rewritten_assignment_rejected(self):
        L = get_algebra("h3")
        outcome = obstruct_abelian(L)
        assert outcome.witness_assignment
        sevens = tuple((v, Fraction(7)) for v, _ in outcome.witness_assignment)
        forged = dataclasses.replace(outcome, witness_assignment=sevens)
        assert not verify_certificate(forged, L)

    def test_incomplete_assignment_rejected(self):
        L = get_algebra("h3")
        outcome = obstruct_abelian(L)
        forged = dataclasses.replace(
            outcome, witness_assignment=outcome.witness_assignment[1:])
        assert not verify_certificate(forged, L)


class TestWitnessDraws:
    """The search past the all-zero candidate. Every algebra the suite
    decides otherwise wins at zero, so the checker is patched to reject
    the zero candidate and the seeded draws run."""

    @staticmethod
    def reject_zero(monkeypatch, L):
        """Patch the solver's checker to turn down its first rep, the zero
        candidate; returns the list of the reps it is called on."""
        plain = obstruct_abelian(L)
        assert plain.verdict == "Found"
        assert not any(x for _, x in plain.witness_assignment)
        seen = []
        real = obstruction.check_simply_transitive

        def checker(rep):
            seen.append(rep)
            verdict = real(rep)
            if len(seen) == 1:
                assert rep.D == plain.witness_rep.D
                return dataclasses.replace(verdict, overall=False)
            return verdict
        monkeypatch.setattr(obstruction, "check_simply_transitive", checker)
        return plain, seen

    @staticmethod
    def first_passing_draw(plain, samples, seed):
        """Replay the seeded draws: the index and assignment of the first
        one whose residual vanishes and whose rep passes, else None."""
        free = [v for v, _ in plain.witness_assignment]
        rng = random.Random(seed)
        for index in range(samples):
            values = [Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                      for _ in free]
            trial = dataclasses.replace(
                plain, witness_assignment=tuple(zip(free, values)))
            if not any(poly.evaluate(trial.coefficients)
                       for _, poly in plain.residual) \
                    and check_simply_transitive(trial.witness_rep).overall:
                return index, trial.witness_assignment
        return None

    # R1 has no residual, and a draw passes when it is 0: at draw 12 for
    # seed 3, never in 25 draws for seed 0. h3's residual rejects every draw.
    @pytest.mark.parametrize("name, seed, draw", [
        ("R1", 3, 12), ("R1", 0, None), ("h3", 0, None), ("h3", 5, None)])
    def test_draws_replay_the_seed(self, monkeypatch, name, seed, draw):
        L, samples = get_algebra(name), 25
        plain, seen = self.reject_zero(monkeypatch, L)
        expected = self.first_passing_draw(plain, samples, seed)
        assert (expected and expected[0]) == draw
        outcome = obstruct_abelian(L, samples=samples, seed=seed)
        if expected is None:
            assert outcome.verdict == "Undetermined"
            assert outcome.witness_assignment is None
        else:
            assert outcome.verdict == "Found"
            assert outcome.witness_assignment == expected[1]
        if name == "R1":   # every draw reaches the checker
            drawn = samples if expected is None else expected[0] + 1
            assert len(seen) == 1 + drawn
        else:              # the residual turns every draw away first
            assert len(seen) == 1 and expected is None

    @pytest.mark.parametrize("name, seed", [("R1", 3), ("h3", 0)])
    def test_outcome_checks_and_renders(self, monkeypatch, name, seed):
        L = get_algebra(name)
        self.reject_zero(monkeypatch, L)
        outcome = obstruct_abelian(L, samples=25, seed=seed)
        monkeypatch.setattr(obstruction, "check_simply_transitive",
                            check_simply_transitive)
        assert verify_certificate(outcome, L)
        doc = outcome.to_dict()
        assert (doc["samples"], doc["seed"]) == (25, seed)
        assert [r["equation"] for r in doc["residual"]] == \
            ["/".join(map(str, tag)) for tag, _ in outcome.residual]
        assert len(doc["residual"]) == (0 if name == "R1" else 10)

    def test_unsound_pipeline_is_an_internal_error(self, monkeypatch):
        # with nothing forced or pending every candidate reaches the
        # checker, and g6_18, which is not two-step solvable, fails them all
        monkeypatch.setattr(obstruction, "_force", lambda system, pending: [])
        with pytest.raises(InternalError, match="two-step solvable"):
            obstruct_abelian(get_algebra("g6_18"), samples=2)


def filiform_found():
    L = filiform(5)
    outcome = obstruct_abelian(L)
    assert outcome.verdict == "Found"
    return L, outcome


class TestEachFactOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        real = obstruction.check_simply_transitive

        def counting(rep):
            counted.append(rep)
            return real(rep)
        monkeypatch.setattr(obstruction, "check_simply_transitive", counting)
        monkeypatch.setattr(lr, "check_simply_transitive", counting)
        return counted

    @pytest.fixture
    def lr_checks(self, monkeypatch):
        counted = {"check_lr": 0, "check_complete": 0}
        for name in counted:
            def counting(s, real=getattr(lr, name), name=name):
                counted[name] += 1
                return real(s)
            monkeypatch.setattr(lr, name, counting)
        return counted

    def test_found_decision_and_its_check(self, calls, lr_checks):
        L, outcome = filiform_found()
        assert len(calls) == 1
        assert verify_certificate(outcome, L)
        assert len(calls) == 2
        assert lr_checks == {"check_lr": 0, "check_complete": 0}

    def test_public_conversion_checks_once(self, calls, lr_checks):
        rep = filiform_found()[1].witness_rep
        calls.clear()
        rep_to_lr(rep)
        assert len(calls) == 1
        assert lr_checks["check_lr"] == 0

    def test_rebuild_checks_its_input_once(self, calls, lr_checks):
        s = filiform_found()[1].witness_lr
        calls.clear()
        lr_to_rep(s)
        assert calls == []
        assert lr_checks == {"check_lr": 1, "check_complete": 1}


class TestRenderedVerdictIsRecorded:
    @pytest.mark.parametrize("name", ("g6_18", "h3"))
    def test_to_dict_does_not_recompute(self, name, monkeypatch):
        outcome = obstruct_abelian(get_algebra(name))
        before = stable_json(outcome.to_dict())

        def refuse(self):
            raise AssertionError("to_dict recomputed two-step solvability")
        monkeypatch.setattr(LieAlgebra, "is_two_step_solvable", refuse)
        assert stable_json(outcome.to_dict()) == before
        assert outcome.two_step_solvable == (name == "h3")

    def test_off_catalog_render_raises_no_parse_error(self, monkeypatch):
        outcome = filiform_found()[1]
        raised = []
        real = ParseError.__init__

        def counting(self, *args):
            raised.append(args)
            real(self, *args)
        monkeypatch.setattr(ParseError, "__init__", counting)
        doc = outcome.to_dict()
        assert doc["witness"]["rep"]["target"]["name"] == "L5"
        assert raised == []


class TestPreconditions:
    def test_negative_samples_rejected(self):
        with pytest.raises(PreconditionError, match="samples"):
            obstruct_abelian(get_algebra("h3"), samples=-5)

    def test_irrational_context_rejected(self):
        with pytest.raises(PreconditionError, match="rationals"):
            obstruct_abelian(get_algebra("g5_6").with_field(3))

    def test_solvable_non_nilpotent_rejected(self):
        L = LieAlgebra.from_table("aff", 2, {(1, 2): ((2, 1),)})
        with pytest.raises(PreconditionError, match="nilpotent"):
            obstruct_abelian(L)

    def test_jacobi_violation_rejected(self):
        L = LieAlgebra.from_table("bad", 3,
                                  {(1, 2): ((3, 1),), (1, 3): ((1, 1),)})
        with pytest.raises(PreconditionError, match="Jacobi"):
            obstruct_abelian(L)


# ------------------------------------------------------------------ degree-2 forcing


def heisenberg(k):
    """h_{2k+1}: [X_i, X_{k+i}] = X_{2k+1} for 1 <= i <= k."""
    n = 2 * k + 1
    return LieAlgebra.from_table(f"h{n}", n,
                                 {(i, k + i): [(n, 1)] for i in range(1, k + 1)})


def filiform_r(n):
    """R_n: L_n plus [X_2, X_j] = X_{j+2} for 3 <= j <= n - 2."""
    table = {(1, i): [(i + 1, 1)] for i in range(2, n)}
    table.update({(2, j): [(j + 2, 1)] for j in range(3, n - 1)})
    return LieAlgebra.from_table(f"R{n}", n, table)


FORCING_FAMILY = ([get_algebra(name) for name in catalog_names()]
                  + [filiform(n) for n in range(5, 9)]
                  + [heisenberg(3), filiform_r(7), transported_g6_18()])


def forcing_rounds(L):
    """The defining equations and the solved map after each forcing round,
    by the round structure of obstruct_abelian, reducing with the general
    Poly.substitute."""
    equations = [poly for _, poly in _build_equations(L, derivation_space(L))]
    system, maps, pending = LinearSystem(), [], equations
    while True:
        progressed, still = False, []
        for poly in pending:
            reduced = poly.substitute(system.solved)
            if reduced and not reduced.is_constant() and reduced.degree() <= 1:
                system.add(reduced)
                progressed = True
            elif reduced:
                still.append(poly)
        maps.append(dict(system.solved))
        pending = still
        if not progressed:
            return equations, maps


def system_with(solved):
    """A LinearSystem whose rows hold the affine map ``solved``: the row of
    pivot p is p - form(p) = 0, its constant in the constant column."""
    system = LinearSystem()
    for p, form in solved.items():
        row = {p: 1}
        for m, c in form.terms.items():
            row[m[0][0] if m else obstruction._CONST] = -c
        system.rows[p] = row
    return system


def random_affine_map(rng, nvars):
    """A fully reduced affine map: pivots to forms over the other variables."""
    pivots = set(rng.sample(range(nvars), rng.randint(0, nvars - 1)))
    free = [v for v in range(nvars) if v not in pivots]
    solved = {}
    for v in pivots:
        form = Poly.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for u in rng.sample(free, rng.randint(0, min(3, len(free)))):
            form = form + Poly.var(u) * Fraction(rng.choice([-2, -1, 1, 1, 3]),
                                                 rng.randint(1, 2))
        solved[v] = form
    return solved


def random_quadratic(rng, nvars, terms):
    poly = Poly.const(rng.randint(-2, 2))
    for _ in range(terms):
        monomial = Poly.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 2)):
            monomial = monomial * Poly.var(rng.randrange(nvars))
        poly = poly + monomial
    return poly


class TestDegreeTwoReduce:
    @pytest.mark.parametrize("L", FORCING_FAMILY, ids=lambda L: L.name)
    def test_matches_substitute_after_first_and_last_round(self, L):
        equations, maps = forcing_rounds(L)
        assert tuple(sorted(maps[-1].items())) == \
            obstruct_abelian(L).eliminated
        for solved in (maps[0], maps[-1]):
            system = system_with(solved)
            assert system.solved == solved
            for eq in equations:
                assert system.reduce(eq) == eq.substitute(solved)

    @given(st.integers(0, 2 ** 32), st.integers(2, 9), st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_matches_substitute_on_random_maps(self, seed, nvars, terms):
        rng = random.Random(seed)
        solved = random_affine_map(rng, nvars)
        system = system_with(solved)
        eq = random_quadratic(rng, nvars, terms)
        assert system.reduce(eq) == eq.substitute(solved)
        assert all(system.reduce(eq).terms.values())

    def test_degree_three_raises(self):
        x, y = Poly.var(0), Poly.var(1)
        system = LinearSystem()
        system.add(x - y)
        for eq in (x * x * y, x * y * Poly.var(2) + Poly.const(1),
                   Poly.var(3) * Poly.var(3) * Poly.var(3)):
            with pytest.raises(ValueError):
                system.reduce(eq)

    @pytest.mark.parametrize("L", [heisenberg(3), filiform(8), filiform_r(7)],
                             ids=lambda L: L.name)
    def test_residual_is_the_original_equations_reduced(self, L):
        outcome = obstruct_abelian(L)
        solved = dict(outcome.eliminated)
        expected = []
        for tag, poly in _build_equations(L, outcome.space):
            reduced = poly.substitute(solved)
            if reduced:
                expected.append((tag, reduced))
        assert outcome.verdict == "Found"
        assert list(outcome.residual) == expected

    @pytest.mark.parametrize("L", FORCING_FAMILY, ids=lambda L: L.name)
    def test_commutators_built_on_the_first_round_map(self, L):
        space = derivation_space(L)
        _, maps = forcing_rounds(L)
        defining = [(tag, poly) for tag, poly in _build_equations(L, space)
                    if tag[0] == "commutator"]
        substituted = [(tag, poly.substitute(maps[0]))
                       for tag, poly in defining]
        built = _commutator_equations(L, space, system_with(maps[0]).rows)
        assert built == [(tag, poly) for tag, poly in substituted if poly]
        assert all(all(poly.terms.values()) for _, poly in built)

    @pytest.mark.parametrize("name", ["g6_18", "h3"])
    def test_checker_does_not_use_the_solver_reduce(self, name, monkeypatch):
        L = get_algebra(name)
        outcome = obstruct_abelian(L)

        def refuse(self, eq):
            raise AssertionError("the checker must not call LinearSystem.reduce")
        monkeypatch.setattr(LinearSystem, "reduce", refuse)
        assert verify_certificate(outcome, L)


def comm(index):
    return ("commutator", 1, 2, 1, index)


def trans(index):
    return ("translation", 1, 2, index)


class TestLaterRounds:
    """The fixpoint loop on synthetic tagged equations, in tag order."""

    x0, x1, x2, x3 = (Poly.var(v) for v in range(4))

    def test_commutator_becomes_affine_after_round_one(self):
        system = LinearSystem()
        pending = _force(system, [(comm(1), self.x0 * self.x1 - self.x2),
                                  (trans(1), self.x0 - Poly.const(1))])
        assert pending == []
        assert system.solved == {0: Poly.const(1), 1: self.x2}

    def test_certificate_is_the_first_constant_in_tag_order(self):
        # trans(2) turns constant in round 1, comm(2) only in round 2, yet
        # comm(2) sorts first; comm(1) stays quadratic
        system = LinearSystem()
        pending = _force(system, [
            (comm(1), self.x2 * self.x3 + self.x1),
            (comm(2), self.x0 * self.x1 - self.x1 - Poly.const(2)),
            (trans(1), self.x0 - Poly.const(1)),
            (trans(2), self.x0 - Poly.const(2))])
        assert pending == [(comm(1), self.x2 * self.x3 + self.x1),
                           (comm(2), Poly.const(-2)),
                           (trans(2), Poly.const(-1))]
        tag, poly = next((tag, poly) for tag, poly in pending
                         if poly.is_constant())
        certificate = _certificate_from_tag(tag, poly.constant_value())
        assert (certificate.kind, certificate.position,
                certificate.constant) == ("commutator", (1, 2), -2)

    def test_reduces_only_after_a_new_pivot(self, monkeypatch):
        calls = []
        reduce = LinearSystem.reduce

        def counted(self, eq):
            calls.append(eq)
            return reduce(self, eq)
        system = LinearSystem()
        system.add(self.x0 - Poly.const(1))
        monkeypatch.setattr(LinearSystem, "reduce", counted)
        quadratic = self.x1 * self.x2 + self.x3
        assert _force(system, [(comm(1), quadratic)]) == [(comm(1), quadratic)]
        assert calls == []


def render_before(poly, name):
    """Poly.render as it was before the one-pass rewrite, kept verbatim."""
    self = poly
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


class TestRenderIsUnchanged:
    @pytest.mark.parametrize("L", [filiform(n) for n in range(5, 9)]
                             + [heisenberg(3), filiform_r(7)],
                             ids=lambda L: L.name)
    def test_every_residual(self, L):
        outcome = obstruct_abelian(L)
        name = variable_namer(outcome.space)
        assert outcome.residual
        for _, poly in outcome.residual:
            assert poly.render(name) == render_before(poly, name)

    def test_seeded_random_polys(self):
        rng = random.Random(2024)
        coefficients = [1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2),
                        Fraction(-7, 3), Fraction(5, 4), Fraction(-1, 1)]
        names = [lambda v: f"x{v}", lambda v: f"u{v // 3 + 1}_{v % 3 + 1}"]
        polys = [Poly(), Poly.const(-1), Poly.const(Fraction(-2, 3)),
                 Poly.const(5), Poly.var(0) * Poly.var(0),
                 Poly.var(1) * Poly.var(1) * -1 + Poly.var(0) * Fraction(-1, 2)]
        for _ in range(300):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                monomial = {}
                for _ in range(rng.randint(0, 3)):
                    v = rng.randrange(5)
                    monomial[v] = monomial.get(v, 0) + 1
                terms[tuple(sorted(monomial.items()))] = \
                    Fraction(rng.choice(coefficients))
            polys.append(Poly(terms))
        for poly in polys:
            for name in names:
                assert poly.render(name) == render_before(poly, name)


# ------------------------------------------------------------------ exact types


def diagonal_transport(L, entries, tag):
    n = L.dim
    p = Matrix.from_rows([[entries[r % len(entries)] if r == c else 0
                           for c in range(n)] for r in range(n)], 1)
    return transport(L, p, name=f"{L.name}~{tag}")


NON_INTEGRAL_DIAGONALS = {
    "a": (Fraction(1, 2), 3, Fraction(-2, 3)),
    "b": (1, 3, 2, Fraction(1, 2), Fraction(-2, 3)),
}
NON_INTEGRAL_TRANSPORTS = [
    diagonal_transport(L, entries, tag)
    for L in (get_algebra("g6_18"), filiform(5), get_algebra("g5_6"),
              get_algebra("h3+R"), heisenberg(3))
    for tag, entries in NON_INTEGRAL_DIAGONALS.items()]
EXACTNESS_CASES = ([get_algebra(name) for name in catalog_names()]
                   + [transported_g6_18()] + NON_INTEGRAL_TRANSPORTS)


def assert_coefficients_exact(poly):
    # type(...) rules out bool, a subclass of int, as well as float
    for c in poly.terms.values():
        assert type(c) in (int, Fraction), (c, type(c))


class TestExactTypes:
    """Inside the solver coefficients are int or Fraction; every value it
    hands out is a Fraction."""

    def test_transports_have_non_integral_constants(self):
        for L in NON_INTEGRAL_TRANSPORTS:
            assert any(c.rat.denominator != 1
                       for terms in L.table.values() for _, c in terms), L.name

    @pytest.mark.parametrize("L", EXACTNESS_CASES, ids=lambda L: L.name)
    def test_equations_and_outcome_coefficients(self, L):
        space = derivation_space(L)
        for _, poly in _build_equations(L, space):
            assert_coefficients_exact(poly)
        outcome = obstruct_abelian(L)
        for _, form in outcome.eliminated:
            assert_coefficients_exact(form)
        for _, poly in outcome.residual:
            assert_coefficients_exact(poly)

    @pytest.mark.parametrize("L", EXACTNESS_CASES, ids=lambda L: L.name)
    def test_public_values_are_fractions(self, L):
        outcome = obstruct_abelian(L)
        assert all(type(c) is Fraction for _, c in outcome.forced)
        assert all(type(c) is Fraction for c in outcome.forced_named().values())
        zeros = {v: Fraction(0) for v in range(L.dim * outcome.space.dimension)}
        for _, form in outcome.eliminated:
            assert type(form.constant_value()) is Fraction
            assert type(form.evaluate(zeros)) is Fraction
        if outcome.verdict == "Obstructed":
            assert type(outcome.certificate.constant) is Fraction
            assert outcome.witness_assignment is None
        else:
            assert outcome.verdict == "Found"
            assert all(type(c) is Fraction
                       for _, c in outcome.witness_assignment)
            assert all(type(c) is Fraction
                       for c in outcome.coefficients.values())
            for _, poly in outcome.residual:
                assert type(poly.evaluate(outcome.coefficients)) is Fraction
                assert type(poly.constant_value()) is Fraction

    def test_poly_values_are_fractions(self):
        p = Poly.var(0) * 2 + Poly.const(3)
        assert p.terms == {((0, 1),): 2, (): 3}
        assert all(type(c) is int for c in p.terms.values())
        assert type(p.constant_value()) is Fraction
        assert type(Poly().constant_value()) is Fraction
        assert type(p.evaluate({0: 1})) is Fraction
        assert type(Poly().evaluate({})) is Fraction
        assert type(Poly.const(Fraction(4, 2)).terms[()]) is int
        with pytest.raises(TypeError):
            Poly.const(0.5)
        with pytest.raises(TypeError):
            Poly.var(0) * 0.5

    @pytest.mark.parametrize("L", NON_INTEGRAL_TRANSPORTS, ids=lambda L: L.name)
    def test_integral_eliminated_coefficients_are_ints(self, L):
        # the obstruct pool members are checked in test_reference_gate.py
        coefficients = [c for _, form in obstruct_abelian(L).eliminated
                        for c in form.terms.values()]
        assert coefficients
        assert [c for c in coefficients
                if type(c) is Fraction and c.denominator == 1] == []

    @pytest.mark.parametrize("own", [get_algebra("g6_18"), filiform(5)],
                             ids=lambda L: L.name)
    @pytest.mark.parametrize("tag", sorted(NON_INTEGRAL_DIAGONALS))
    def test_non_integral_basis_keeps_the_verdict(self, own, tag):
        L = diagonal_transport(own, NON_INTEGRAL_DIAGONALS[tag], tag)
        moved = obstruct_abelian(L)
        assert moved.verdict == obstruct_abelian(own).verdict
        assert moved.verdict == ("Obstructed" if own.name == "g6_18"
                                 else "Found")
        assert verify_certificate(moved, L)


# ------------------------------------------------------------------ shared kernel


def naive_solved(equations):
    """The solved map of LinearSystem, by the textbook method: reduce each
    equation by every solved form, pivot on its lowest variable and
    substitute the new form into every solved form."""
    solved = {}
    for eq in equations:
        reduced = eq.substitute(solved)
        if not reduced:
            continue
        if reduced.is_constant():
            raise Contradiction(reduced.constant_value())
        pivot = min(variables(reduced))
        coeff = reduced.terms[((pivot, 1),)]
        form = (Poly.var(pivot) * coeff - reduced) * (Fraction(1) / coeff)
        solved = {v: p.substitute({pivot: form}) for v, p in solved.items()}
        solved[pivot] = form
    return solved


def affine_system(rng, nvars, count):
    """Affine equations with non-unit coefficients, many of them linear
    combinations of earlier ones, so that terms cancel on back-substitution."""
    coefficients = (-3, -2, 2, 3, 4, Fraction(1, 2), Fraction(-2, 3), 1, -1)
    equations = []
    for _ in range(count):
        if equations and rng.random() < 0.4:
            eq = Poly()
            for base in rng.sample(equations, min(len(equations), 3)):
                eq = eq + base * rng.choice(coefficients)
            eq = eq + Poly.var(rng.randrange(nvars)) * rng.choice((0, 0, 1, 2))
        else:
            eq = Poly.const(rng.randint(-4, 4))
            for v in rng.sample(range(nvars), rng.randint(1, min(4, nvars))):
                eq = eq + Poly.var(v) * rng.choice(coefficients)
        equations.append(eq)
    return equations


def kernel_rows(equations):
    """The affine equations as linalg's sparse rows: one column per
    variable id and the constant column last."""
    return [{m[0][0] if m else obstruction._CONST: c
             for m, c in eq.terms.items()} for eq in equations]


class TestSharedKernel:
    """LinearSystem eliminates on linalg's kernel: its rows are the RREF
    of the equations added, and its solved map is the textbook one."""

    @given(st.integers(0, 2 ** 32), st.integers(2, 12), st.integers(1, 16))
    @settings(max_examples=300, deadline=None)
    def test_solved_map_equals_full_back_substitution(self, seed, nvars,
                                                      count):
        rng = random.Random(seed)
        equations = affine_system(rng, nvars, count)
        system = LinearSystem()
        try:
            want = naive_solved(equations)
        except Contradiction as exc:
            with pytest.raises(Contradiction) as got:
                for eq in equations:
                    system.add(eq)
            assert got.value.constant == exc.constant
            return
        for eq in equations:
            system.add(eq)
        assert system.solved == want
        pivots, rows = _rref(kernel_rows(equations))
        assert system.rows == dict(zip(pivots, rows))
        assert all(p < nvars for p in system.rows)
        for form in system.solved.values():
            assert_coefficients_exact(form)

    def test_cancellation_drops_the_variable_from_the_rows(self):
        system = LinearSystem()
        system.add(Poly.var(0) - Poly.var(2) * 2 - Poly.var(3))   # x0 = 2x2 + x3
        system.add(Poly.var(1) + Poly.var(2) * 3)                 # x1 = -3x2
        system.add(Poly.var(2) * 2 + Poly.var(3) - Poly.const(5))  # x2 = (5 - x3)/2
        assert system.solved == {0: Poly.const(5),
                                 1: Poly.var(3) * Fraction(3, 2)
                                 - Poly.const(Fraction(15, 2)),
                                 2: Poly.const(Fraction(5, 2))
                                 - Poly.var(3) * Fraction(1, 2)}
        const = obstruction._CONST
        assert system.rows == {0: {0: 1, const: -5},
                               1: {1: 1, 3: Fraction(-3, 2),
                                   const: Fraction(15, 2)},
                               2: {2: 1, 3: Fraction(1, 2),
                                   const: Fraction(-5, 2)}}
        assert type(system.solved[0].terms[()]) is int
