import dataclasses
import random
from fractions import Fraction

import pytest

from nilaffine import lr, obstruction
from nilaffine.affine import check_simply_transitive
from nilaffine.errors import ParseError, PreconditionError
from nilaffine.liealg import (LieAlgebra, catalog_names, derivation_space,
                              get_algebra, is_derivation, transport)
from nilaffine.io import stable_json
from nilaffine.linalg import Matrix
from nilaffine.lr import lr_to_rep, rep_to_lr
from nilaffine.obstruction import (Contradiction, LinearSystem, Poly,
                                   _build_equations, obstruct_abelian,
                                   parametric_derivation, variable_namer,
                                   verify_certificate)

NEGATIVE_CONTROLS = ("R1", "R2", "R3", "R4", "R5", "R6",
                     "h3", "h3+R", "f4", "h3+R2", "g5_6")


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

    def test_variables(self):
        p = Poly.var(2) * Poly.var(7) + Poly.var(2)
        assert p.variables() == {2, 7}

    def test_affine_parts(self):
        p = Poly.const(2) + Poly.var(1) * 3 - Poly.var(4)
        const, coeffs = p.affine_parts()
        assert const == 2
        assert coeffs == {1: Fraction(3), 4: Fraction(-1)}
        with pytest.raises(ValueError):
            (Poly.var(0) * Poly.var(1)).affine_parts()

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
        assert 2 in q.variables() and 0 not in q.variables()
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
                assert not (form.variables() & pivots)

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
        for name in ("h3", "f4", "g6_18"):
            L = get_algebra(name)
            space = derivation_space(L)
            pd = parametric_derivation(L, 1, space)
            values = {space.dimension + k:
                      Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for k in range(space.dimension)}
            assert is_derivation(L, pd.specialize(values))

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
        ):
            tampered = dataclasses.replace(outcome, certificate=bad)
            assert not verify_certificate(tampered, get_algebra("g6_18"))

    def test_checker_does_not_use_the_builder(self, outcome, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the checker called the solver's builder")
        monkeypatch.setattr(obstruction, "_build_equations", refuse)
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
