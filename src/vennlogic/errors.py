"""Exception types shared across the package."""


class VennLogicError(Exception):
    """Base class for every error this package raises on purpose; each
    subclass sets exit_code, the status the command line exits with."""

    exit_code: int


class DomainError(VennLogicError, ValueError):
    """A numeric argument is outside its admissible range."""

    exit_code = 3


class DisjointnessViolation(VennLogicError):
    """Disjoint aggregation applied to values whose truth mass is too large."""

    exit_code = 3


class LengthMismatch(VennLogicError):
    """Sequences that must share a common length do not."""

    exit_code = 2


class TooManyVariables(VennLogicError):
    """Requested diagram size exceeds the supported maximum."""

    exit_code = 2


class UnknownVariable(VennLogicError):
    """An expression uses a variable missing from the declared ordering."""

    exit_code = 2


class ArityMismatch(VennLogicError, ValueError):
    """Variables that do not fit together: n < 1, an empty or repeated name
    list, or an assignment that does not fit its diagram or logic."""

    exit_code = 2


class OracleTooLarge(VennLogicError):
    """A brute-force expansion would exceed its term budget."""

    exit_code = 3


class VerificationFailure(VennLogicError):
    """A numeric cross-check deviated beyond its tolerance."""

    exit_code = 3


class SelfTestFailure(VennLogicError):
    """A selftest suite found a counterexample."""

    exit_code = 4


class ParseError(VennLogicError):
    """Bad surface syntax.

    Carries the character offset of the failure in the text it came from and
    the set of token kinds that would have been accepted there.
    """

    exit_code = 2

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.expected = frozenset(expected)
