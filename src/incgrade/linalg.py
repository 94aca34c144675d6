"""Exact rational linear algebra: canonical echelon forms, nullspaces,
subspace equality and intersection.

All arithmetic uses fractions.Fraction. Matrices are immutable once built;
RowReducer is the single mutable object, meant for streaming rows into a
canonical reduced echelon basis one at a time.
"""

from fractions import Fraction

from .errors import DimensionMismatchError, VerificationError

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text):
    """Parse 'num' or 'num/den' into a Fraction."""
    return Fraction(str(text).strip())


def format_rational(value):
    """Canonical string form: 'num' for integers, 'num/den' otherwise."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class RationalMatrix:
    """Dense matrix of Fractions with a fixed column count.

    The column count must be given explicitly when there are no rows, so
    empty bases still know their ambient dimension.
    """

    def __init__(self, rows, ncols=None):
        converted = [tuple(Fraction(v) for v in row) for row in rows]
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
    The pivot rows are kept fully reduced at all times, so matrix() is the
    unique RREF of everything added so far with zero rows dropped.
    """

    def __init__(self, ncols):
        if ncols < 0:
            raise DimensionMismatchError("negative column count")
        self.ncols = ncols
        self._rows = []      # pivot rows as lists, sorted by pivot column
        self._pivots = []    # pivot column of each stored row

    @property
    def rank(self):
        return len(self._rows)

    def reduce_row(self, row):
        """Return row minus its projection onto the stored pivot rows."""
        work = [Fraction(v) for v in row]
        if len(work) != self.ncols:
            raise DimensionMismatchError(
                f"row has {len(work)} entries, expected {self.ncols}")
        for prow, pcol in zip(self._rows, self._pivots):
            factor = work[pcol]
            if factor:
                for j in range(pcol, self.ncols):
                    work[j] -= factor * prow[j]
        return work

    def add(self, row):
        """Fold a row in; return True iff it was independent of the basis."""
        work = self.reduce_row(row)
        lead = next((j for j, v in enumerate(work) if v), None)
        if lead is None:
            return False
        inv = ONE / work[lead]
        for j in range(lead, self.ncols):
            work[j] *= inv
        for prow in self._rows:
            factor = prow[lead]
            if factor:
                for j in range(lead, self.ncols):
                    prow[j] -= factor * work[j]
        at = next((i for i, p in enumerate(self._pivots) if p > lead),
                  len(self._pivots))
        self._rows.insert(at, work)
        self._pivots.insert(at, lead)
        return True

    def contains(self, row):
        """True iff row lies in the span of the rows added so far."""
        return all(v == 0 for v in self.reduce_row(row))

    def pivot_columns(self):
        return tuple(self._pivots)

    def matrix(self):
        return RationalMatrix([tuple(r) for r in self._rows], self.ncols)


def rref(matrix):
    """Unique reduced row echelon form with zero rows trimmed."""
    reducer = RowReducer(matrix.ncols)
    for row in matrix.rows:
        reducer.add(row)
    return reducer.matrix()


def nullspace(matrix):
    """Canonical echelon basis of the right kernel {v : M v = 0}."""
    reduced = rref(matrix)
    pivots = set()
    col_of_row = []
    for row in reduced.rows:
        lead = next(j for j, v in enumerate(row) if v)
        pivots.add(lead)
        col_of_row.append(lead)
    basis = []
    for free in range(matrix.ncols):
        if free in pivots:
            continue
        vec = [ZERO] * matrix.ncols
        vec[free] = ONE
        for row, pcol in zip(reduced.rows, col_of_row):
            vec[pcol] = -row[free]
        basis.append(vec)
    result = rref(RationalMatrix(basis, matrix.ncols))
    for vec in result.rows:
        for row in matrix.rows:
            if sum(a * b for a, b in zip(row, vec)) != 0:
                raise VerificationError("nullspace vector fails M v = 0")
    return result


def subspace_equal(a, b):
    """True iff the row spaces coincide (identical canonical bases)."""
    if a.ncols != b.ncols:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ncols} vs {b.ncols}")
    return rref(a) == rref(b)


def subspace_intersect(a, b):
    """Canonical basis of rowspace(a) ∩ rowspace(b).

    A vector lies in a row space iff it is annihilated by that space's
    kernel basis, so the intersection is the kernel of the two kernel
    bases stacked.
    """
    if a.ncols != b.ncols:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ncols} vs {b.ncols}")
    constraints = list(nullspace(a).rows) + list(nullspace(b).rows)
    result = nullspace(RationalMatrix(constraints, a.ncols))
    for side in (a, b):
        reducer = RowReducer(side.ncols)
        for row in side.rows:
            reducer.add(row)
        for vec in result.rows:
            if not reducer.contains(vec):
                raise VerificationError("intersection vector escapes a factor")
    return result
