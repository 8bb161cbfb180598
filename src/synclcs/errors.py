"""Exception types shared across the toolkit."""


class SyncLCSError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(SyncLCSError):
    """Shapes or moduli of operands disagree."""


class NotPrime(SyncLCSError):
    """A modulus failed the primality check."""


class RowOutOfRange(SyncLCSError):
    """A 1-based row index is outside 1..m."""


class EnumerationTooLarge(SyncLCSError):
    """An enumeration would exceed the configured cap."""


class ModulusTooLarge(EnumerationTooLarge):
    """A modulus exceeds the largest one certification runs over."""


class NotASolution(SyncLCSError):
    """A vector claimed as a solution does not satisfy its equation(s)."""


class SearchBudgetExceeded(SyncLCSError):
    """A backtracking search ran out of its node budget before finishing.

    Distinct from a definite "not found": when this is raised the search
    was inconclusive.
    """


class NonCommutingFactors(SyncLCSError):
    """Generator images within one row fail to commute within tolerance."""


class ParseError(SyncLCSError):
    """A file or string does not match the documented schema."""


class UnitarityViolation(SyncLCSError):
    """A generator image is not unitary within tolerance."""


class JNotIdentified(SyncLCSError):
    """image(J) differs from omega*I, so the quotient identification fails."""


class UnknownExample(SyncLCSError):
    """Requested built-in example name does not exist."""
