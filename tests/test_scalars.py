import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from dense_reference import PairScalar, unit_vector
from hypothesis import given, settings
from hypothesis import strategies as st

from nilaffine.errors import FieldMismatchError, ParseError
from nilaffine.scalars import (Scalar, as_fraction, check_context,
                               is_square_free, scalar_from_json,
                               scalar_to_json, stored)


def s(rat, irr=0, d=1):
    return Scalar(Fraction(rat), Fraction(irr), d)


class TestConstruction:
    def test_d_one_folds_irrational_part(self):
        assert Scalar(1, 2, 1) == Scalar(3, 0, 1)
        assert Scalar(Fraction(1, 2), Fraction(1, 2), 1).rat == 1

    def test_of_recontexts_rationals(self):
        a = Scalar.of(Fraction(2, 3), 5)
        assert a.d == 5 and a.rat == Fraction(2, 3) and a.irr == 0
        b = Scalar.of(s(1, 1, 3), 3)
        assert b.d == 3

    def test_of_rejects_cross_context_irrationals(self):
        with pytest.raises(FieldMismatchError):
            Scalar.of(s(0, 1, 2), 3)

    def test_square_free_context_enforced(self):
        assert is_square_free(6) and not is_square_free(12)
        with pytest.raises(ValueError):
            check_context(4)
        with pytest.raises(ValueError):
            Scalar(1, 1, 8)

    def test_public_constructors_reject_bad_contexts_every_time(self):
        for _ in range(2):
            for build in (lambda: Scalar(1, 0, 12), lambda: Scalar.zero(4),
                          lambda: Scalar.one(0), lambda: Scalar.of(1, 18),
                          lambda: scalar_from_json(1, 9)):
                with pytest.raises(ValueError):
                    build()
        with pytest.raises(TypeError):
            Scalar(1, 0, True)

    def test_each_context_is_trial_divided_once(self, monkeypatch):
        from nilaffine import scalars
        from nilaffine.affine import AffineRep, check_simply_transitive
        from nilaffine.liealg import get_algebra
        from nilaffine.linalg import Matrix
        calls = {}

        def counting(d):
            calls[d] = calls.get(d, 0) + 1
            return is_square_free(d)

        monkeypatch.setattr(scalars, "is_square_free", counting)
        monkeypatch.setattr(scalars, "_accepted_contexts", set())
        L = get_algebra("h3").with_field(1000000007)
        assert check_simply_transitive(AffineRep(
            L, L, [unit_vector(L, i) for i in range(3)], [Matrix.zero(3, 3, L.d)] * 3))
        assert calls[1000000007] == 1
        assert all(count <= 1 for count in calls.values()), calls

    def test_stored_matches_of_slot_for_slot(self):
        rng = random.Random(31)
        values = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(50)] + [0] + [
            Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(50)]
        for x in values:
            got, want = stored(x, 3), Scalar.of(x, 3)
            assert type(got) is Scalar
            assert [getattr(got, n) for n in Scalar.__slots__] == \
                [getattr(want, n) for n in Scalar.__slots__]

    def test_stored_still_rejects_bad_contexts_and_bools(self):
        with pytest.raises(ValueError):
            stored(1, 4)
        with pytest.raises(TypeError):
            stored(True, 3)

    def test_as_fraction_rejects_floats(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)


class TestArithmetic:
    def test_componentwise_addition(self):
        assert s(1, 2, 3) + s(4, 5, 3) == s(5, 7, 3)

    def test_sqrt_squares_to_d(self):
        r = Scalar(0, 1, 3)
        assert r * r == Scalar.of(3, 3)

    def test_inverse_of_one_plus_sqrt3(self):
        x = s(1, 1, 3)
        assert x.inverse() == s(Fraction(-1, 2), Fraction(1, 2), 3)
        assert x * x.inverse() == Scalar.one(3)

    def test_division_by_zero(self):
        for d in (1, 2):
            with pytest.raises(ZeroDivisionError):
                Scalar.zero(d).inverse()

    def test_mixed_context_rejected(self):
        with pytest.raises(FieldMismatchError):
            s(0, 1, 2) + s(0, 1, 3)

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a.__rsub__(b),
        lambda a, b: a * b, lambda a, b: a * b.inverse()])
    @pytest.mark.parametrize("a, b", [
        (s(1, 1, 2), s(2, 1, 3)),   # both irrational
        (s(1, 0, 2), s(2, 0, 3)),   # both rational, as on the fast path
        (s(1, 0, 1), s(2, 0, 5))])
    def test_every_operator_rejects_mixed_contexts(self, op, a, b):
        with pytest.raises(FieldMismatchError):
            op(a, b)
        with pytest.raises(FieldMismatchError):
            op(b, a)

    def test_rational_literals_mix_in(self):
        assert s(1, 1, 5) + 1 == s(2, 1, 5)
        assert 2 * s(1, 1, 5) == s(2, 2, 5)
        assert 3 - s(1, 1, 5) == s(2, -1, 5)

    def test_conjugate_and_norm(self):
        x = s(2, 3, 5)
        assert x * s(2, -3, 5) == 4 - 9 * 5

    def test_inverse_is_the_only_division(self):
        x = s(1, 1, 2)
        for op in (lambda: x / x, lambda: 1 / x, lambda: x ** 2, lambda: +x):
            with pytest.raises(TypeError):
                op()

    def test_seeded_inverse_and_cancellation_sweep(self):
        rng = random.Random(20260817)
        for _ in range(1000):
            d = rng.choice([1, 2, 3, 5])
            a = Scalar(Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                       Fraction(rng.randint(-30, 30), rng.randint(1, 12)), d)
            b = Scalar(Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                       Fraction(rng.randint(-30, 30), rng.randint(1, 12)), d)
            assert (a + b) - b == a
            if not b.is_zero():
                assert (a * b.inverse()) * b == a


fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


def scalars(d):
    return st.builds(lambda r, i: Scalar(r, i, d), fractions, fractions)


class TestFieldAxioms:
    @given(scalars(2), scalars(2), scalars(2))
    @settings(max_examples=200)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(scalars(3))
    @settings(max_examples=200)
    def test_inverses(self, a):
        assert a + (-a) == Scalar.zero(3)
        if not a.is_zero():
            assert a * a.inverse() == Scalar.one(3)


# numerators up to 10^30 over denominators up to 10^12, and small ones
wide = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12))
narrow = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
parts = st.one_of(narrow, wide, st.just(Fraction(0)))


def canonical(x: Scalar) -> bool:
    """(a + b sqrt(d))/q stored as ints with q > 0 and gcd(a, b, q) = 1."""
    a, b, q, d = (getattr(x, name) for name in Scalar.__slots__)
    return (type(a) is type(b) is type(q) is int and q > 0
            and gcd(a, b, q) == 1 and (d != 1 or b == 0))


def agree(x: Scalar, model: PairScalar) -> bool:
    return canonical(x) and (x.rat, x.irr, x.d) == (model.rat, model.irr, model.d) \
        and type(x.rat) is type(x.irr) is Fraction


class TestAgainstThePairModel:
    """The int form against the pair-of-Fraction Scalar it replaced."""

    @given(st.sampled_from((1, 2, 3, 5, 6)), parts, parts, parts, parts)
    @settings(max_examples=400, derandomize=True)
    def test_arithmetic(self, d, r, i, u, v):
        x, y = Scalar(r, i, d), Scalar(u, v, d)
        X, Y = PairScalar(r, i, d), PairScalar(u, v, d)
        assert agree(x, X) and agree(y, Y)
        assert agree(x + y, X + Y) and agree(x - y, X - Y)
        assert agree(x * y, X * Y) and agree(-x, PairScalar(0, 0, d) - X)
        U, seven = PairScalar(u, 0, d), PairScalar(7, 0, d)
        assert agree(x + u, X + U) and agree(u - x, U - X)
        assert agree(x * u, X * U) and agree(x * 7, X * seven)
        if X.rat or X.irr:
            assert agree(x.inverse(), X.inverse())
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()

    @given(st.sampled_from((1, 2, 3, 5, 6)), parts, parts, parts)
    @settings(max_examples=300, derandomize=True)
    def test_equality_hash_text_and_documents(self, d, r, i, u):
        x, X = Scalar(r, i, d), PairScalar(r, i, d)
        for other in (u, r, Fraction(u.numerator), u.numerator):
            assert (x == other) == (X == other) and (other == x) == (X == other)
        for e in (2, 3, 5, 6):   # rational values are equal across contexts
            if e != d and not X.irr:
                assert x == Scalar.of(x, e) and hash(x) == hash(Scalar.of(x, e))
            elif e != d:
                assert x != Scalar(r, i, e)
        assert (x == Scalar(u, i, d)) == (X == PairScalar(u, i, d))
        if not X.irr:
            assert hash(x) == hash(X) == hash(X.rat)
        assert hash(x) == hash(Scalar(X.rat, X.irr, d))
        assert str(x) == str(X) and repr(x) == repr(X)
        assert scalar_to_json(x) == X.to_json()
        assert scalar_from_json(scalar_to_json(x), d) == x
        if not X.irr:
            assert scalar_to_json(X.rat) == X.to_json()
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert twin == x and agree(twin, X)


class TestHashing:
    def test_rational_scalars_hash_like_equal_numbers(self):
        for value in (0, 3, -7, Fraction(-2, 9)):
            for d in (1, 2, 5):
                x = Scalar.of(value, d)
                assert x == value and hash(x) == hash(value)
                assert value in {x} and x in {value}
        assert Scalar.of(Fraction(1, 2), 3) in {Fraction(1, 2)}
        assert len({Scalar(3), Scalar.of(3, 2), 3, Fraction(3)}) == 1

    def test_irrational_scalars_keep_their_context(self):
        assert s(1, 1, 2) != s(1, 1, 3)
        assert len({s(1, 1, 2), s(1, 1, 3), s(1, 1, 2)}) == 2
        assert hash(s(1, 1, 2)) == hash(s(1, 1, 2))


class TestSerialization:
    def test_integer_form(self):
        assert scalar_to_json(Scalar.of(3, 1)) == 3
        assert scalar_from_json(3, 1) == Scalar.of(3, 1)

    def test_fraction_form(self):
        assert scalar_to_json(Scalar.of(Fraction(-1, 2), 1)) == "-1/2"
        assert scalar_from_json("-1/2", 1) == Scalar.of(Fraction(-1, 2), 1)

    def test_pair_form(self):
        x = s(Fraction(1, 2), Fraction(-2, 3), 3)
        assert scalar_to_json(x) == ["1/2", "-2/3"]
        assert scalar_from_json(["1/2", "-2/3"], 3) == x

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(200):
            d = rng.choice([1, 2, 3])
            x = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 9)), d)
            assert scalar_from_json(scalar_to_json(x), d) == x

    def test_malformed_inputs(self):
        with pytest.raises(ParseError):
            scalar_from_json("1/0", 1)
        with pytest.raises(ParseError):
            scalar_from_json({"rat": 1}, 1)
        with pytest.raises(ParseError):
            scalar_from_json([1, 2, 3], 3)
        with pytest.raises(ParseError):
            scalar_from_json(0.5, 1)

    def test_irrational_part_needs_context(self):
        with pytest.raises(ParseError):
            scalar_from_json(["1/2", "1/3"], 1)

    @pytest.mark.parametrize("obj, d, calls", [
        (3, 1, 1), ("-1/2", 1, 1), (0, 5, 1),
        (["1/2", "-2/3"], 3, 2), ([4, 0], 1, 2)])
    def test_each_part_is_parsed_once(self, monkeypatch, obj, d, calls):
        from nilaffine import scalars
        parsed = []

        def counting(value):
            parsed.append(value)
            return as_fraction(value)
        monkeypatch.setattr(scalars, "as_fraction", counting)
        x = scalar_from_json(obj, d)
        assert len(parsed) == calls
        parts = obj if isinstance(obj, list) else [obj, 0]
        assert x == Scalar(as_fraction(parts[0]), as_fraction(parts[1]), d)
        if d == 1:   # the stored form: an int when integral, else a Fraction
            assert type(x) is (int if x == int(x) else Fraction)
        else:
            assert type(x.rat) is Fraction and type(x.irr) is Fraction
            assert x.d == d


def square_free_by_squares(d):
    """is_square_free as it was before the cube-root bound, kept verbatim."""
    if d < 1:
        return False
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


class TestSquareFree:
    def test_agrees_with_trial_division_by_squares(self):
        assert all(is_square_free(d) == square_free_by_squares(d)
                   for d in range(-3, 50000))

    @pytest.mark.parametrize("d, expected", [
        (10 ** 18 + 3, True), (2 ** 61 - 1, True), ((2 ** 31 - 1) ** 2, False),
        ((2 ** 31 - 1) * (2 ** 31 + 11), True), (4 * (10 ** 18 + 3), False),
        (1000003 ** 2 * 7, False)])
    def test_large_contexts(self, d, expected):
        assert is_square_free(d) is expected

    def test_long_literal_is_quoted_briefly(self):
        with pytest.raises(ValueError) as exc:
            as_fraction("1x" + "9" * 5000)
        message = str(exc.value)
        assert len(message) < 120 and "5002 characters" in message
        with pytest.raises(ValueError, match="not a rational literal: '1x'$"):
            as_fraction("1x")
