"""Exact arithmetic in the real quadratic field Q(sqrt(d)).

A :class:`Scalar` is a pair of rationals ``(rat, irr)`` standing for
``rat + irr*sqrt(d)``, with ``d`` a square-free positive integer fixed per
computation context. ``d = 1`` encodes the plain rationals; a nonzero
irrational part is folded into the rational part on construction in that
case, so the invariant ``d == 1 implies irr == 0`` always holds. Values
from contexts with different ``d`` never mix silently: combining them
raises :class:`~nilaffine.errors.FieldMismatchError`.

Floats are rejected everywhere; all arithmetic is exact. ``Scalar`` is the
type of the public API, and ``Scalar.rat`` and ``Scalar.irr`` are always
``Fraction``. The package stores and computes on coefficients in the
stored form of their context (:func:`stored`): a ``Scalar`` when d != 1,
and at d = 1 an ``int`` or a ``Fraction``, because int arithmetic is many
times faster; :func:`as_scalar` makes the ``Scalar`` an accessor returns.
Rationals enter through :func:`exact`, which makes every integral value an
int, and every division goes through :func:`quotient`, which gives an int
when it leaves no remainder; so a ``Fraction`` appears only for a value
that is not integral or that was computed from one. ``quotient`` and
:meth:`Scalar.inverse` are the only places that divide. Every value type
of the package derives from :class:`Frozen`, the one immutability guard.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
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
    """Base of the value types: immutable and always whole. A type sets its
    ``__slots__`` once, through ``_fill``; one without a public constructor
    of its own is built as ``object.__new__(cls)._fill(...)``."""

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
    """An element rat + irr*sqrt(d) of Q(sqrt(d)), immutable."""

    __slots__ = ("rat", "irr", "d")

    def __init__(self, rat: RationalLike = 0, irr: RationalLike = 0, d: int = 1):
        check_context(d)
        r = as_fraction(rat)
        i = as_fraction(irr)
        if d == 1 and i:
            # sqrt(1) = 1, fold into the rational part
            r, i = r + i, Fraction(0)
        self._fill(r, i, d)

    # -------------------------------------------------- constructors

    @classmethod
    def zero(cls, d: int = 1) -> "Scalar":
        return _scalar(_ZERO, _ZERO, check_context(d))

    @classmethod
    def one(cls, d: int = 1) -> "Scalar":
        return _scalar(_ONE, _ZERO, check_context(d))

    @classmethod
    def sqrt(cls, d: int) -> "Scalar":
        """The square root of d itself, as an element of Q(sqrt(d))."""
        return cls(0, 1, d)

    @classmethod
    def of(cls, value: "Scalar | RationalLike", d: int = 1) -> "Scalar":
        """Coerce a rational-like value into context d."""
        if isinstance(value, Scalar):
            if value.d != d and not value.is_rational():
                raise FieldMismatchError(
                    f"cannot move sqrt({value.d}) value into context d={d}")
            return cls(value.rat, value.irr, d) if value.d != d else value
        return cls(value, 0, d)

    # -------------------------------------------------- predicates

    def is_zero(self) -> bool:
        return not self.rat and not self.irr

    def is_rational(self) -> bool:
        return not self.irr

    def __bool__(self) -> bool:
        # is_zero inlined: elimination tests every entry by truthiness
        return not (not self.rat and not self.irr)

    # -------------------------------------------------- arithmetic

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            if other.d != self.d:
                raise FieldMismatchError(
                    f"mixed field contexts: d={self.d} and d={other.d}")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return _scalar(as_fraction(other), _ZERO, self.d)
        return None

    # Results of arithmetic on valid operands are built by _scalar, which
    # skips validation. When both irrational parts are zero (always so at
    # d = 1) only the rational part is computed.

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.irr and not o.irr:
            return _scalar(self.rat + o.rat, _ZERO, self.d)
        return _scalar(self.rat + o.rat, self.irr + o.irr, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.irr and not o.irr:
            return _scalar(self.rat - o.rat, _ZERO, self.d)
        return _scalar(self.rat - o.rat, self.irr - o.irr, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.irr and not o.irr:
            return _scalar(self.rat * o.rat, _ZERO, self.d)
        return _scalar(self.rat * o.rat + self.irr * o.irr * self.d,
                       self.rat * o.irr + self.irr * o.rat, self.d)

    __rmul__ = __mul__

    def __neg__(self):
        return _scalar(-self.rat, -self.irr if self.irr else _ZERO, self.d)

    def __pos__(self):
        return self

    def conjugate(self) -> "Scalar":
        """The field conjugate rat - irr*sqrt(d)."""
        return _scalar(self.rat, -self.irr, self.d)

    def norm(self) -> Fraction:
        """The field norm rat^2 - irr^2 * d, a rational."""
        return self.rat * self.rat - self.irr * self.irr * self.d

    def inverse(self) -> "Scalar":
        """Multiplicative inverse via the conjugate: 1/s = conj(s)/norm(s)."""
        if not self.irr:
            if not self.rat:
                raise ZeroDivisionError("division by zero scalar")
            return _scalar(1 / self.rat, _ZERO, self.d)
        n = self.norm()
        if not n:
            # for square-free d the norm vanishes only at zero
            raise ZeroDivisionError("division by zero scalar")
        return _scalar(self.rat / n, -self.irr / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        out = Scalar.one(self.d)
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    # -------------------------------------------------- comparison

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.irr == 0 and self.rat == other
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.rat != other.rat or self.irr != other.irr:
            return False
        # rational values are equal across contexts
        return self.d == other.d or (not self.irr and not other.irr)

    def __hash__(self):
        # rational values equal ints and Fractions, so they hash alike
        if not self.irr:
            return hash(self.rat)
        return hash((self.rat, self.irr, self.d))

    # -------------------------------------------------- formatting

    def __str__(self):
        if not self.irr:
            return str(self.rat)
        if self.irr == 1:
            root = f"sqrt({self.d})"
        elif self.irr == -1:
            root = f"-sqrt({self.d})"
        else:
            root = f"{self.irr}*sqrt({self.d})"
        if not self.rat:
            return root
        sign = "-" if self.irr < 0 else "+"
        mag = -self.irr if self.irr < 0 else self.irr
        tail = f"sqrt({self.d})" if mag == 1 else f"{mag}*sqrt({self.d})"
        return f"{self.rat} {sign} {tail}"

    def __repr__(self):
        return f"Scalar({str(self.rat)!r}, {str(self.irr)!r}, d={self.d})"


_ZERO, _ONE = Fraction(0), Fraction(1)
_new_scalar = object.__new__
_set_rat, _set_irr, _set_d = Scalar.rat.__set__, Scalar.irr.__set__, Scalar.d.__set__


def _scalar(rat: Fraction, irr: Fraction, d: int) -> Scalar:
    """Build a Scalar from parts already known valid: Fractions, d accepted,
    and irr zero when d = 1."""
    s = _new_scalar(Scalar)
    _set_rat(s, rat)
    _set_irr(s, irr)
    _set_d(s, d)
    return s


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
    return x if type(x) is Scalar else _scalar(Fraction(x), _ZERO, 1)


def _encode_fraction(f: Fraction):
    return int(f) if f.denominator == 1 else str(f)


def scalar_to_json(s: Coefficient):
    """Canonical serialized form: int, "p/q" string, or a two-element list."""
    if not isinstance(s, Scalar):
        return _encode_fraction(s)
    if not s.irr:
        return _encode_fraction(s.rat)
    return [_encode_fraction(s.rat), _encode_fraction(s.irr)]


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
    return exact(rat) if d == 1 else _scalar(rat, irr, d)
