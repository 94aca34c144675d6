"""Exact rational linear algebra: canonical echelon forms and nullspaces.

Integers are the working number format: RationalMatrix keeps int and
Fraction entries as given, each input row is scaled to integers once, and
RowReducer eliminates fraction-free on primitive integer rows. Fractions
are built only for the canonical bases that rref, nullspace and
RowReducer.matrix() return. Matrices are immutable once built;
RowReducer is the single mutable object, meant for streaming rows into a
canonical reduced echelon basis one at a time.
"""

import re
from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter, mul

from .errors import (
    DimensionMismatchError,
    MalformedInputError,
    ResultTooLongError,
    VerificationError,
)

ZERO = Fraction(0)
_EXACT_TYPES = frozenset((int, Fraction))
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_MAX_DIGITS = 4300  # CPython's default limit on int() of a digit string
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def parse_rational(text):
    """Parse 'num' or 'num/den' (ASCII digits, num optionally signed) into
    a Fraction. Any other form, exponents and decimal points included, a
    part of over _MAX_DIGITS digits or a zero denominator is malformed."""
    match = _RATIONAL.fullmatch(str(text).strip())
    if match is None:
        raise MalformedInputError(
            f"rational must be 'num' or 'num/den', got {text!r}")
    num, den = match.groups()
    if max(len(num.lstrip("+-")), len(den or "")) > _MAX_DIGITS:
        raise MalformedInputError(
            f"rational part has more than {_MAX_DIGITS} digits")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise MalformedInputError(f"zero denominator in {text!r}") from None


def format_rational(value):
    """Canonical string form: 'num' for integers, 'num/den' otherwise."""
    value = Fraction(value)
    try:
        return str(value)
    except ValueError:  # a part past sys.get_int_max_str_digits()
        raise ResultTooLongError() from None


class RationalMatrix:
    """Dense matrix of exact rationals with a fixed column count.

    A row of int and Fraction entries is kept as given; any other row (one
    holding a str or float, say) is converted through Fraction. As 1 ==
    Fraction(1) with equal hashes, equality and hashing ignore the format.
    The column count must be given explicitly when there are no rows, so
    empty bases still know their ambient dimension.
    """

    def __init__(self, rows, ncols=None):
        converted = [tuple(row) if _EXACT_TYPES.issuperset(map(type, row))
                     else tuple(map(Fraction, row)) for row in rows]
        if converted:
            width = len(converted[0])
            if any(len(row) != width for row in converted):
                raise DimensionMismatchError("rows have differing lengths")
            if ncols is not None and ncols != width:
                raise DimensionMismatchError(
                    f"declared {ncols} columns, rows have {width}")
            ncols = width
        elif ncols is None:
            raise DimensionMismatchError("column count required for empty matrix")
        self.rows = tuple(converted)
        self.ncols = ncols

    @property
    def nrows(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(v) for v in row) for row in self.rows)
        return f"RationalMatrix({self.nrows}x{self.ncols}: {body})"


class RowReducer:
    """Incrementally maintained canonical reduced echelon basis.

    add() folds one row into the basis and reports whether the rank grew.
    Each stored row is a primitive integer multiple of one row of the
    RREF: its entries have gcd 1, its pivot is positive, and it is zero in
    every other stored row's pivot column. matrix() divides each row by
    its pivot once, so it is the unique RREF of everything added so far
    with zero rows dropped. The constructor adds the given rows in order.
    """

    def __init__(self, ncols, rows=()):
        if ncols < 0:
            raise DimensionMismatchError("negative column count")
        self.ncols = ncols
        self._rows = []      # primitive integer rows, sorted by pivot column
        self._pivots = []    # pivot column of each stored row
        for row in rows:
            self.add(row)

    @property
    def rank(self):
        return len(self._rows)

    def _reduce(self, row):
        """Row minus its projection onto the stored rows, scaled by a
        positive integer to stay integral. The stored rows vanish in each
        other's pivot columns, so each clears its own column alone."""
        work = _integer_row(row)
        if len(work) != self.ncols:
            raise DimensionMismatchError(
                f"row has {len(work)} entries, expected {self.ncols}")
        for prow, pcol in zip(self._rows, self._pivots):
            factor = work[pcol]
            if factor:
                common = gcd(prow[pcol], factor)
                a, b = prow[pcol] // common, factor // common
                work = [a * w - b * p for w, p in zip(work, prow)]
        return work

    def add(self, row):
        """Fold a row in; return True iff it was independent of the basis."""
        work = self._reduce(row)
        lead = next((j for j, v in enumerate(work) if v), None)
        if lead is None:
            return False
        content = gcd(*work) if work[lead] > 0 else -gcd(*work)
        work = [v // content for v in work]
        pivot = work[lead]
        for i, prow in enumerate(self._rows):
            factor = prow[lead]
            if factor:
                common = gcd(pivot, factor)
                a, b = pivot // common, factor // common
                prow = [a * p - b * w for p, w in zip(prow, work)]
                content = gcd(*prow)
                self._rows[i] = [p // content for p in prow]
        at = bisect(self._pivots, lead)
        self._rows.insert(at, work)
        self._pivots.insert(at, lead)
        return True

    def contains(self, row):
        """True iff row lies in the span of the rows added so far."""
        return not any(self._reduce(row))

    def kernel(self):
        """Integer basis of the right kernel of the rows added so far, one
        vector per free column f in ascending order: L at f, zero at the
        other free columns, and -row[f] * L / pivot at the pivot column of
        each stored row, where L is the lcm of the pivots involved."""
        pivots = set(self._pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivots:
                continue
            hits = [(prow, pcol) for prow, pcol in zip(self._rows, self._pivots)
                    if prow[free]]
            scale = lcm(*(prow[pcol] for prow, pcol in hits))
            vec = [0] * self.ncols
            vec[free] = scale
            for prow, pcol in hits:
                vec[pcol] = -prow[free] * (scale // prow[pcol])
            basis.append(vec)
        return basis

    def matrix(self):
        return RationalMatrix([_normalized(row, row[pcol]) for row, pcol
                               in zip(self._rows, self._pivots)], self.ncols)


def _integer_row(row):
    """The row times the lcm of its denominators: integers, same span.
    A row of ints is returned as it is, and a row of Fractions with
    denominator 1 takes the mapped fast path; any other row is converted
    through Fraction first."""
    types = set(map(type, row))
    if types <= {int}:
        return row
    if not types <= _EXACT_TYPES:
        row = [Fraction(v) for v in row]
    scale = lcm(*map(_denominator, row))
    if scale == 1:
        return list(map(_numerator, row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _normalized(row, lead):
    """The integer row divided by its leading entry, as Fractions."""
    return [Fraction(v, lead) if v else ZERO for v in row]


def rref(matrix):
    """Unique reduced row echelon form with zero rows trimmed."""
    return RowReducer(matrix.ncols, matrix.rows).matrix()


def nullspace(matrix):
    """Canonical echelon basis of the right kernel {v : M v = 0}.

    The rows are reduced with their columns in reverse order. Read back in
    the original order, the kernel vector of free column f is nonzero only
    at f and at pivot columns right of f, and every other kernel vector is
    zero at f, so these vectors, taken by ascending f, already form the
    canonical echelon basis. Each is checked against every row of M in
    integer arithmetic, over its nonzero entries only, before it is returned.
    """
    ncols = matrix.ncols
    rows = [_integer_row(row) for row in matrix.rows]
    reducer = RowReducer(ncols)
    for row in rows:
        if reducer.rank == ncols:
            break
        reducer.add(row[::-1])
    kernel = [vec[::-1] for vec in reversed(reducer.kernel())]
    for vec in kernel:
        # Column 0 rides along with weight 0, so pick returns a tuple even
        # when vec has a single nonzero entry.
        support = [j for j, v in enumerate(vec) if v]
        pick = itemgetter(0, *support)
        weights = [0] + [vec[j] for j in support]
        if any(sum(map(mul, pick(row), weights)) for row in rows):
            raise VerificationError("nullspace vector fails M v = 0")
    return RationalMatrix(
        [_normalized(vec, next(v for v in vec if v)) for vec in kernel], ncols)
