"""Exception types shared across the package."""


def quoted(value: object) -> str:
    """repr of a value for an error message; past 40 characters only its
    first 40 and its length, so a huge input is never echoed whole."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 40:
        return repr(value)
    head = repr(text[:40]) if isinstance(value, str) else text[:40]
    return f"{head}... ({len(text)} characters)"


class NilaffineError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(NilaffineError):
    """Two values from quadratic fields with different d were combined."""


class ShapeError(NilaffineError):
    """Dimensions of vectors, matrices or algebras do not line up."""


class ParseError(NilaffineError):
    """A file or JSON document is malformed.

    The message carries a location: either line/column for JSON syntax
    errors or a path such as ``brackets[2].terms[0].k`` for semantic ones.
    """


class DerivationError(NilaffineError):
    """A matrix that must be a derivation fails the Leibniz identity.

    Carries the index of the offending matrix (0-based) and the basis
    pair where the identity breaks.
    """

    def __init__(self, message: str, index: int | None = None,
                 pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.index = index
        self.pair = pair


class PreconditionError(NilaffineError):
    """An operation was invoked on input violating its stated preconditions."""


class LRIdentityError(PreconditionError):
    """A left-symmetric product fails an LR identity, so it has no rep."""


class NotSimplyTransitiveError(PreconditionError):
    """A representation to convert fails the simple-transitivity verdict."""


class IncompleteStructureError(NilaffineError):
    """A left-symmetric product is not complete; carries the evidence."""

    def __init__(self, message: str, evidence=None):
        super().__init__(message)
        self.evidence = evidence


class InternalError(NilaffineError):
    """An internal consistency cross-check failed; indicates a bug."""
