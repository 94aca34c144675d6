"""Exact linear algebra for identity slices: the canonical kernel basis
of an integer matrix.

A slice is the kernel of a 0/1 evaluation matrix, so integers are the
only input format and the kernel stays in integers: RowReducer
eliminates fraction-free on primitive integer rows, and nullspace
returns the canonical basis with each vector scaled to primitive
integers. The rational text helpers (parse_rational, format_rational)
read and write a rational as the integer pair (num, den). Matrices are
immutable once built; RowReducer is the single mutable object, meant for
streaming rows into a canonical reduced echelon basis one at a time.
"""

import re
import sys
from bisect import bisect
from math import gcd, lcm
from operator import itemgetter, mul

from .errors import (
    MalformedInputError,
    MismatchError,
    ResultTooLongError,
    VerificationError,
)

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text):
    """Parse 'num' or 'num/den' (ASCII digits, num optionally signed) into
    the integers (num, den) in lowest terms, den positive. Any other form,
    exponents and decimal points included, a part of more digits than
    int() converts (sys.get_int_max_str_digits(), 0 for no limit) or a
    zero denominator is malformed."""
    match = _RATIONAL.fullmatch(str(text).strip())
    if match is None:
        raise MalformedInputError(
            f"rational must be 'num' or 'num/den', got {text!r}")
    num, den = match.groups()
    limit = sys.get_int_max_str_digits()
    if limit and max(len(num.lstrip("+-")), len(den or "")) > limit:
        raise MalformedInputError(f"rational part has more than {limit} digits")
    num, den = int(num), int(den or 1)
    if not den:
        raise MalformedInputError(f"zero denominator in {text!r}")
    content = gcd(num, den)
    return num // content, den // content


def format_rational(num, den=1):
    """Canonical string form of num / den (den positive) in lowest terms:
    'num' for an integer, 'num/den' otherwise."""
    content = gcd(num, den)
    num, den = num // content, den // content
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # a part past sys.get_int_max_str_digits()
        raise ResultTooLongError() from None


class RationalMatrix:
    """Dense matrix of integers with a fixed column count, such as a 0/1
    evaluation matrix or a kernel basis in primitive integer rows. The
    column count must be given explicitly when there are no rows, so
    empty bases still know their ambient dimension.
    """

    def __init__(self, rows, ncols=None):
        rows = tuple(map(tuple, rows))
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise MismatchError("rows have differing lengths")
            if ncols is not None and ncols != width:
                raise MismatchError(
                    f"declared {ncols} columns, rows have {width}")
            ncols = width
        elif ncols is None:
            raise MismatchError("column count required for empty matrix")
        self.rows = rows
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
        body = "; ".join(" ".join(map(str, row)) for row in self.rows)
        return f"RationalMatrix({self.nrows}x{self.ncols}: {body})"


class RowReducer:
    """Incrementally maintained reduced echelon basis of integer rows.

    add() folds one row into the basis and reports whether the rank grew.
    Each stored row is primitive (its entries have gcd 1), its pivot is its
    last nonzero entry and positive, and it is zero in every other stored
    row's pivot column. kernel() reads the canonical kernel basis, in
    primitive integer vectors, off the stored rows.
    """

    def __init__(self, ncols):
        if ncols < 0:
            raise MismatchError("negative column count")
        self.ncols = ncols
        self._rows = []      # primitive integer rows, sorted by pivot column
        self._pivots = []    # pivot column of each stored row

    @property
    def rank(self):
        return len(self._rows)

    def add(self, row):
        """Fold an integer row in; return True iff it was independent of
        the basis. The row minus its projection onto the stored rows is
        kept integral by positive integer scaling; the stored rows vanish
        in each other's pivot columns, so each clears its own column alone."""
        if len(row) != self.ncols:
            raise MismatchError(
                f"row has {len(row)} entries, expected {self.ncols}")
        work = row
        for prow, pcol in zip(self._rows, self._pivots):
            factor = work[pcol]
            if factor:
                common = gcd(prow[pcol], factor)
                a, b = prow[pcol] // common, factor // common
                work = [a * w - b * p for w, p in zip(work, prow)]
        lead = next((j for j in reversed(range(self.ncols)) if work[j]), None)
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

    def kernel(self):
        """Integer basis of the right kernel of the rows added so far, one
        vector per free column f in ascending order: L at f, zero at the
        other free columns, and -row[f] * L / pivot at the pivot column of
        each stored row, where L is the lcm of the pivots involved; then the
        vector is divided by the gcd of its entries. Only rows pivoting
        right of f are nonzero at f, so f's vector leads at f with a
        positive entry, where every other vector is zero: the canonical
        echelon basis, each vector scaled to primitive integers with a
        positive leading entry."""
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
            content = gcd(*vec)
            basis.append([v // content for v in vec])
        return basis


def nullspace(matrix):
    """Canonical echelon basis of the right kernel {v : M v = 0} of a
    matrix of ints, each vector scaled to primitive integers with a
    positive leading entry.

    RowReducer.kernel() reads that basis off the reduced rows. Each vector
    is checked against every row of M in integer arithmetic, over its
    nonzero entries only, before it is returned. Two such bases are equal
    exactly when their spaces are.
    """
    ncols = matrix.ncols
    reducer = RowReducer(ncols)
    for row in matrix.rows:
        if reducer.rank == ncols:
            break
        reducer.add(row)
    kernel = reducer.kernel()
    for vec in kernel:
        # Column 0 rides along with weight 0, so pick returns a tuple even
        # when vec has a single nonzero entry.
        support = [j for j, v in enumerate(vec) if v]
        pick = itemgetter(0, *support)
        weights = [0] + [vec[j] for j in support]
        if any(sum(map(mul, pick(row), weights)) for row in matrix.rows):
            raise VerificationError("nullspace vector fails M v = 0")
    return RationalMatrix(kernel, ncols)
