"""Exact arithmetic in the real quadratic field Q(sqrt(d)).

A :class:`Scalar` is ``(a + b*sqrt(d))/q`` for three ints with ``q > 0``
and ``gcd(a, b, q) = 1``: one integral numerator over one denominator, the
standard form of a number-field element, on which arithmetic runs with one
gcd per result. ``d`` is square-free, positive and fixed per computation
context. ``d = 1`` encodes the plain rationals: a nonzero irrational part
is folded into the rational part on construction, so ``b == 0`` there.
Values from contexts with different ``d`` never mix silently: combining
them raises :class:`~nilaffine.errors.FieldMismatchError`.

Floats are rejected everywhere; all arithmetic is exact. ``Scalar`` is the
type of the public API; its read-only ``rat`` (a/q) and ``irr`` (b/q) are
always ``Fraction``. The package stores and computes on coefficients in the
stored form of their context (:func:`stored`): a ``Scalar`` when d != 1,
and at d = 1 an ``int`` or a ``Fraction``, because int arithmetic is many
times faster; :func:`as_scalar` makes the ``Scalar`` an accessor returns.
Rationals enter through :func:`exact`, which makes every integral value an
int, and every division goes through :func:`quotient`, which gives an int
when it leaves no remainder; so a ``Fraction`` appears only for a value
that is not integral or that was computed from one. :meth:`Scalar.inverse`
multiplies by the conjugate over ints; ``Scalar`` has no ``/`` or ``**``.
Every value type of the package derives from :class:`Frozen`, the one
immutability guard.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

from .errors import FieldMismatchError, ParseError, quoted

RationalLike = Union[int, str, Fraction]
Rational = Union[int, Fraction]   # a stored rational, see exact()
Coefficient = Union["Scalar", Rational]   # one type per context, see stored()


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact rational representation to Fraction.

    Accepts int, Fraction and strings like ``"3"`` or ``"-5/7"``. Floats
    and bools are rejected.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {quoted(value)}") from exc
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def exact(q: Rational) -> Rational:
    """q as an int when it is integral, else the Fraction q."""
    if type(q) is Fraction and q.denominator == 1:
        return q.numerator
    return q


def quotient(a: Rational, b: Rational) -> Rational:
    """a / b for exact rationals and a nonzero b: an int when b divides a,
    else a Fraction (ZeroDivisionError when b is zero)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return exact(Fraction(a, b))


def is_square_free(d: int) -> bool:
    """Trial division while p^3 <= d, O(d^(1/3)), leaves 1, a prime, a product
    of two distinct primes or a prime squared: square-free unless a square."""
    if d < 1:
        return False
    p = 2
    while p * p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return False
        p += 1
    return d == 1 or isqrt(d) ** 2 != d


# Contexts that passed check_context. Trial division costs O(d^(1/3)), so
# each distinct d is tested once per process, not once per Scalar.
_accepted_contexts: set[int] = set()


def check_context(d: int) -> int:
    """Validate a field context constant. Returns d unchanged."""
    if isinstance(d, bool) or not isinstance(d, int):
        raise TypeError(f"field context d must be an int, got {type(d).__name__}")
    if d not in _accepted_contexts:
        if not is_square_free(d):
            raise ValueError(
                "field context d must be square-free and positive, "
                f"got {quoted(d)}")
        _accepted_contexts.add(d)
    return d


class Frozen:
    """Base of the value types: immutable and always whole. Slots are set
    once, through ``_fill`` (``object.__new__(cls)._fill(...)`` without a public
    constructor); the hot ``_scalar``, ``Poly.__init__`` and ``_poly`` skip it."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} has no public constructor")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _fill(self, *values):
        """Set every slot of the instance's type, in order; returns self."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)
        return self

    def __reduce__(self):
        """Copy, deepcopy and pickle rebuild the value from its slots."""
        return _rebuild, (type(self), *(getattr(self, n) for n in self.__slots__))


def _rebuild(cls, *values):
    return object.__new__(cls)._fill(*values)


class Scalar(Frozen):
    """An element (a + b*sqrt(d))/q of Q(sqrt(d)), immutable; see the module."""

    __slots__ = ("_a", "_b", "_q", "d")

    def __init__(self, rat: RationalLike = 0, irr: RationalLike = 0, d: int = 1):
        check_context(d)
        r = as_fraction(rat)
        i = as_fraction(irr)
        if d == 1 and i:
            # sqrt(1) = 1, fold into the rational part
            r, i = r + i, Fraction(0)
        self._fill(*_parts(r, i), d)

    # -------------------------------------------------- constructors

    @classmethod
    def zero(cls, d: int = 1) -> "Scalar":
        return _scalar(0, 0, 1, check_context(d))

    @classmethod
    def one(cls, d: int = 1) -> "Scalar":
        return _scalar(1, 0, 1, check_context(d))

    @classmethod
    def of(cls, value: "Scalar | RationalLike", d: int = 1) -> "Scalar":
        """Coerce a rational-like value into context d."""
        if isinstance(value, Scalar):
            if value.d != d and not value.is_rational():
                raise FieldMismatchError(
                    f"cannot move sqrt({value.d}) value into context d={d}")
            return cls(value.rat, value.irr, d) if value.d != d else value
        return cls(value, 0, d)

    # the public parts a/q and b/q, read-only Fractions
    rat = property(lambda self: Fraction(self._a, self._q))
    irr = property(lambda self: Fraction(self._b, self._q))

    # -------------------------------------------------- predicates

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_rational(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        # is_zero inlined: elimination tests every entry by truthiness
        return not (not self._a and not self._b)

    # -------------------------------------------------- arithmetic

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            if other.d != self.d:
                raise FieldMismatchError(
                    f"mixed field contexts: d={self.d} and d={other.d}")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return _scalar(other.numerator, 0, other.denominator, self.d)
        return None

    # Results of arithmetic on valid operands are built by _scalar, which
    # skips validation and divides the parts by their gcd. At d = 1 both
    # b are zero, so the same formulas are those of the rationals.

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q = self._q, o._q
        return _scalar(self._a * q + o._a * p, self._b * q + o._b * p, p * q, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q = self._q, o._q
        return _scalar(self._a * q - o._a * p, self._b * q - o._b * p, p * q, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        return _scalar(a * c + b * e * self.d, a * e + b * c, self._q * o._q, self.d)

    __rmul__ = __mul__

    def __neg__(self):
        return _scalar(-self._a, -self._b, self._q, self.d)

    def norm(self) -> Fraction:
        """The field norm rat^2 - irr^2 * d, a rational."""
        return self.rat * self.rat - self.irr * self.irr * self.d

    def inverse(self) -> "Scalar":
        """Multiplicative inverse via the conjugate: q(a - b sqrt(d))/(a^2 - d b^2)."""
        a, b, q = self._a, self._b, self._q
        n = a * a - b * b * self.d
        if not n:
            # for square-free d the norm vanishes only at zero
            raise ZeroDivisionError("division by zero scalar")
        if n < 0:
            a, b, n = -a, -b, -n
        return _scalar(q * a, -q * b, n, self.d)

    # -------------------------------------------------- comparison

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return not self._b and self._a == other.numerator \
                and self._q == other.denominator
        if not isinstance(other, Scalar):
            return NotImplemented
        if self._a != other._a or self._b != other._b or self._q != other._q:
            return False
        # rational values are equal across contexts
        return self.d == other.d or not self._b

    def __hash__(self):
        # rational values equal ints and Fractions, so they hash alike
        if not self._b:
            return hash(self._a) if self._q == 1 else hash(self.rat)
        return hash((self._a, self._b, self._q, self.d))

    # -------------------------------------------------- formatting

    def __str__(self):
        rat, irr = self.rat, self.irr
        if not irr:
            return str(rat)
        if irr == 1:
            root = f"sqrt({self.d})"
        elif irr == -1:
            root = f"-sqrt({self.d})"
        else:
            root = f"{irr}*sqrt({self.d})"
        if not rat:
            return root
        sign = "-" if irr < 0 else "+"
        mag = -irr if irr < 0 else irr
        tail = f"sqrt({self.d})" if mag == 1 else f"{mag}*sqrt({self.d})"
        return f"{rat} {sign} {tail}"

    def __repr__(self):
        return f"Scalar({str(self.rat)!r}, {str(self.irr)!r}, d={self.d})"


_ZERO = Fraction(0)
_new_scalar = object.__new__
_set_a, _set_b, _set_q, _set_d = (getattr(Scalar, n).__set__ for n in Scalar.__slots__)


def _scalar(a: int, b: int, q: int, d: int) -> Scalar:
    """(a + b*sqrt(d))/q from valid int parts (q > 0), divided by their gcd."""
    g = gcd(a, b, q)
    if g != 1:
        a, b, q = a // g, b // g, q // g
    s = _new_scalar(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_q(s, q)
    _set_d(s, d)
    return s


def _parts(rat: Fraction, irr: Fraction) -> tuple[int, int, int]:
    """(a, b, q) of rat + irr*sqrt(d); q = lcm of the denominators leaves gcd 1."""
    q = lcm(rat.denominator, irr.denominator)
    return (rat.numerator * (q // rat.denominator),
            irr.numerator * (q // irr.denominator), q)


def stored(x: "Scalar | RationalLike", d: int) -> Coefficient:
    """x in context d: its exact rational at d = 1, else its Scalar."""
    if d != 1:
        return x if type(x) is Scalar and x.d == d else Scalar.of(x, d)
    if type(x) is int:
        return x
    return exact(Scalar.of(x, 1).rat if isinstance(x, Scalar) else as_fraction(x))


def unit(d: int) -> Coefficient:
    """The 1 of context d, in stored form."""
    return 1 if d == 1 else Scalar.one(d)


def as_scalar(x: Coefficient) -> Scalar:
    """The public Scalar of a stored coefficient."""
    return x if type(x) is Scalar else _scalar(x.numerator, 0, x.denominator, 1)


def _encode(n: int, q: int):   # n/q as an int or a "p/q" string
    g = gcd(n, q)
    return n // g if g == q else f"{n // g}/{q // g}"


def scalar_to_json(s: Coefficient):
    """Canonical serialized form: int, "p/q" string, or a two-element list."""
    if type(s) is not Scalar:
        return _encode(s.numerator, s.denominator)
    if not s._b:
        return _encode(s._a, s._q)
    return [_encode(s._a, s._q), _encode(s._b, s._q)]


def scalar_from_json(obj, d: int, where: str = "scalar") -> Coefficient:
    """Parse the serialized scalar form straight into the stored form of
    context d (see :func:`stored`), reading each part once.

    Accepts ints, "p/q" strings and two-element [rat, irr] arrays. A
    nonzero irrational component under d = 1 is rejected, matching the
    invariant that d = 1 means plain rationals.
    """
    def part(value, label) -> Fraction:
        if isinstance(value, bool) or isinstance(value, float):
            raise ParseError(f"{where}: {label} must be an int or a 'p/q' string, "
                             f"got {value!r}")
        try:
            return as_fraction(value)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where}: {exc}") from exc

    check_context(d)
    if isinstance(obj, (list, tuple)):
        if len(obj) != 2:
            raise ParseError(f"{where}: scalar arrays must have exactly two "
                             f"entries [rat, irr], got {len(obj)}")
        rat, irr = part(obj[0], "rational part"), part(obj[1], "irrational part")
        if d == 1 and irr:
            raise ParseError(f"{where}: nonzero sqrt-component not allowed "
                             f"in a d=1 (rational) context")
    else:
        rat, irr = part(obj, "value"), _ZERO
    return exact(rat) if d == 1 else _scalar(*_parts(rat, irr), d)
