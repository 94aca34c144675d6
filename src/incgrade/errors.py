"""Exception types raised across the package.

Every error raised by this package derives from IncgradeError, so callers
can catch one type at the boundary (the CLI maps them to exit code 2).
The only other type the CLI maps to 2 is the OSError of an input file
that cannot be opened or read. A class names a kind of failure that a
caller could act on, not the check that found it: an input that is not
a poset, group or grading is MalformedInputError, and values that do
not fit together are MismatchError, each told apart by its message.
"""

import sys


class IncgradeError(Exception):
    """Base class for all errors raised by this package."""


class NotComparableError(IncgradeError):
    """A pair (x, y) with x not below y was used where comparability is required."""


class NotInvertibleError(IncgradeError):
    """An incidence function with a zero diagonal entry cannot be inverted."""


class NotMultiplicativeError(IncgradeError):
    """A function failed the multiplicativity test where one was required."""


class NotAutomorphismError(IncgradeError):
    """A basis-image table does not extend to an algebra automorphism."""


class MalformedInputError(IncgradeError):
    """An input is not what it claims to be: a poset, function, morphism or
    group document of the wrong shape, a poset that is empty, has two
    elements with one label or a cycle, a group spec that is unknown or
    violates a group axiom, an unknown group element, or a theta value
    outside the group."""


class MismatchError(IncgradeError):
    """Values that do not fit together: functions, morphisms or gradings
    over different posets or groups, a grading with the wrong number of
    values, matrices or rows of incompatible dimensions, or an empty
    multidegree or one whose pairs do not meet m! coefficients."""


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


class VerificationError(IncgradeError):
    """A cross-check that should always hold failed; indicates a bug."""
