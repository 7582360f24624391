"""Exception types shared across the toolkit."""


class QbdError(Exception):
    """Base class for all toolkit errors."""


class DomainError(QbdError):
    """A variable is missing from (or clashes with) the expected domain."""


class TautologyError(QbdError):
    """A clause contains a literal and its negation."""


class ArityError(QbdError):
    """An atom has more literals than its context allows."""


class ClassError(QbdError):
    """An atom or formula violates the declared base class."""


class ParseError(QbdError):
    """Malformed input text.

    Carries an optional line so CLI diagnostics can point at it.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingVarError(QbdError):
    """The named variable does not occur where required."""


class QuantifierError(QbdError):
    """A variable has the wrong quantifier for the operation."""


class InnermostError(QbdError):
    """The variable is not the innermost one of its equation."""


class PreconditionError(QbdError):
    """A documented precondition of the algorithm does not hold."""


class GraphError(QbdError):
    """A partitioned graph is malformed (self-loop, unknown vertex, bad part)."""


class ParamError(QbdError):
    """Generator or solver parameters are out of range."""


class CapError(QbdError):
    """The instance exceeds a configured size cap."""


class ShapeError(QbdError):
    """A strategy tree does not match the formula's prefix."""


class UnknownTag(QbdError):
    """No function or class is registered under the given tag."""


class InternalError(QbdError):
    """An internal invariant failed; indicates a bug, not bad input."""
