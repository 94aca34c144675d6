"""Exception types raised across the package.

Every error raised by this package derives from IncgradeError, so callers
can catch one type at the boundary (the CLI maps them to exit code 2).
The only other type the CLI maps to 2 is the OSError of an input file
that cannot be opened or read.
"""

import sys


class IncgradeError(Exception):
    """Base class for all errors raised by this package."""


class CycleError(IncgradeError):
    """The input relation relates two distinct elements in both directions."""


class DuplicateLabelError(IncgradeError):
    """Two poset elements carry the same label."""


class EmptyPosetError(IncgradeError):
    """An operation that needs a nonempty poset received an empty one."""


class NotComparableError(IncgradeError):
    """A pair (x, y) with x not below y was used where comparability is required."""


class PosetMismatchError(IncgradeError):
    """Two values built over different posets were combined."""


class NotInvertibleError(IncgradeError):
    """An incidence function with a zero diagonal entry cannot be inverted."""


class NotMultiplicativeError(IncgradeError):
    """A function failed the multiplicativity test where one was required."""


class NotAutomorphismError(IncgradeError):
    """A basis-image table does not extend to an algebra automorphism."""


class MalformedInputError(IncgradeError):
    """A poset, function or morphism JSON document has the wrong shape."""


class InvalidGroupError(IncgradeError):
    """A group specification violates a group axiom or is malformed."""


class MismatchError(IncgradeError):
    """Two gradings over different posets or groups were compared."""


class NotChainTransitiveError(IncgradeError):
    """A check that needs a chain-transitive poset received one that is not."""


class BudgetExceededError(IncgradeError):
    """An enumeration would walk more maps, automorphisms, chains or words
    than poset.MAX_MAPS."""


class CapExceededError(IncgradeError):
    """A command-line multidegree or degree limit is above cli.DEGREE_CAP."""


class ResultTooLongError(IncgradeError):
    """A result holds an integer with more decimal digits than the
    interpreter writes (sys.get_int_max_str_digits())."""

    def __init__(self):
        super().__init__(
            "a result has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits, too long to write")


class DegreeMismatchError(IncgradeError):
    """A multidegree is empty, or m pairs do not meet m! coefficients."""


class DimensionMismatchError(IncgradeError):
    """Two matrices with incompatible dimensions were combined."""


class VerificationError(IncgradeError):
    """A cross-check that should always hold failed; indicates a bug."""
