"""Exception types shared across the package."""


class RevlabError(Exception):
    pass


class ParseError(RevlabError, ValueError):
    """Malformed input text; carries the offset (or line) where parsing failed."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class UnknownAtomError(ParseError):
    def __init__(self, atom: str, position: int | None = None):
        self.atom = atom
        super().__init__(f"unknown atom {atom!r}", position)


class TooLargeError(RevlabError, ValueError):
    """Exhaustive enumeration requested beyond the supported size bound."""


class InvariantError(RevlabError, ValueError):
    """A structural invariant of a value would be violated."""


class PreconditionError(RevlabError, ValueError):
    """An operation's stated precondition does not hold."""


class ScopeMismatchError(PreconditionError):
    """State scope differs from the fixed scope of an inherence-limited operator."""


class TableMissError(RevlabError, KeyError):
    """An extensional operator has no entry for the requested (state, input)."""

    __str__ = Exception.__str__  # the bare message: KeyError's would quote it


class NonWeakOrderError(RevlabError, ValueError):
    """A pairwise relation reconstructed from an operator is not total/transitive.

    Raised by the canonical-assignment construction; signals that the
    operator violates the postulates the construction relies on.
    """

    def __init__(self, message: str, witness: tuple | None = None):
        self.witness = witness
        super().__init__(message)
