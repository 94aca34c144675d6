"""Exact linear algebra for identity slices: the canonical kernel basis
of an integer matrix.

A slice is the kernel of a 0/1 evaluation matrix, so the kernel stays in
integers: RowReducer eliminates fraction-free on primitive integer rows,
and nullspace returns the canonical basis with each vector scaled to
primitive integers. Matrices are immutable once built; RowReducer is the
one mutable object, streaming rows into a reduced echelon basis.
"""

from math import gcd, lcm

from .errors import MismatchError, VerificationError


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


def _cancel(row, prow, col):
    """a * row - b * prow, zero at col, for a = prow[col] / g and
    b = row[col] / g, g = gcd(prow[col], row[col]); a > 0 at a pivot."""
    common = gcd(prow[col], row[col])
    a, b = prow[col] // common, row[col] // common
    return [a * r - b * p for r, p in zip(row, prow)]


class RowReducer:
    """Incrementally maintained reduced echelon basis of integer rows.

    add() folds one row into the basis and reports whether the rank grew.
    Each stored row, kept by its pivot column, is dense and primitive (its
    entries have gcd 1); its pivot is its last nonzero entry and positive,
    and it is zero in every other stored row's pivot column. kernel()
    reads the canonical kernel basis, in primitive integer vectors, off
    the stored rows.
    """

    def __init__(self, ncols):
        if ncols < 0:
            raise MismatchError("negative column count")
        self.ncols = ncols
        self._rows = {}   # pivot column -> primitive integer row

    @property
    def rank(self):
        return len(self._rows)

    def add(self, row):
        """Fold an integer row in; return True iff it was independent of
        the basis. The row minus its projection onto the stored rows is
        kept integral by positive integer scaling. The stored rows vanish
        in each other's pivot columns, so each, in any order, clears its
        own column alone."""
        if len(row) != self.ncols:
            raise MismatchError(
                f"row has {len(row)} entries, expected {self.ncols}")
        work = row
        for pcol, prow in self._rows.items():
            if work[pcol]:
                work = _cancel(work, prow, pcol)
        lead = next((j for j in reversed(range(self.ncols)) if work[j]), None)
        if lead is None:
            return False
        content = gcd(*work) if work[lead] > 0 else -gcd(*work)
        work = [v // content for v in work]
        for pcol, prow in self._rows.items():
            if prow[lead]:
                prow = _cancel(prow, work, lead)
                content = gcd(*prow)
                self._rows[pcol] = [p // content for p in prow]
        self._rows[lead] = work
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
        basis = []
        for free in range(self.ncols):
            if free in self._rows:
                continue
            hits = [(pcol, prow) for pcol, prow in self._rows.items()
                    if prow[free]]
            scale = lcm(*(prow[pcol] for pcol, prow in hits))
            vec = [0] * self.ncols
            vec[free] = scale
            for pcol, prow in hits:
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
        support = [(j, v) for j, v in enumerate(vec) if v]
        if any(sum(row[j] * v for j, v in support) for row in matrix.rows):
            raise VerificationError("nullspace vector fails M v = 0")
    return RationalMatrix(kernel, ncols)
