import itertools
import random
from fractions import Fraction

import pytest

from incgrade import linalg
from incgrade.errors import MismatchError, VerificationError
from incgrade.linalg import RationalMatrix, RowReducer, nullspace
from util import (
    fraction_nullspace,
    fraction_row_reducer,
    in_span,
    pairwise_subspace_intersect,
    primitive,
    rref,
    subspace_equal,
)


def mat(rows, ncols=None):
    return RationalMatrix(rows, ncols=ncols)


def random_matrix(rng, nrows, ncols):
    return mat([[rng.randint(-5, 5) for _ in range(ncols)]
                for _ in range(nrows)])


class TestRref:
    # The Fraction oracle's RREF, which subspace_equal and the other test
    # oracles read, and the integer reducer's rank against it.
    def test_identity_fixed(self):
        m = mat([[1, 0], [0, 1]])
        assert rref(m) == m

    def test_dependent_rows_collapse(self):
        assert rref(mat([[2, 4], [1, 2]])) == mat([[1, 2]])

    def test_oracle_matrices_print(self):
        # The oracle keeps Fractions in a RationalMatrix; a failing
        # comparison must still show it.
        assert repr(rref(mat([[2, 3]]))) == "RationalMatrix(1x2: 1 3/2)"
        assert repr(mat([], ncols=2)) == "RationalMatrix(0x2: )"

    def test_zero_matrix_empty(self):
        assert rref(mat([[0, 0], [0, 0]])).nrows == 0

    def test_idempotent_on_random(self):
        rng = random.Random(11)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            once = rref(m)
            assert rref(once) == once

    def test_streaming_matches_batch(self):
        rng = random.Random(12)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 4))
            reducer = RowReducer(m.ncols)
            grew = [reducer.add(row) for row in m.rows]
            assert reducer.rank == sum(grew) == rref(m).nrows


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert nullspace(mat([[1, 0], [0, 1]])).nrows == 0

    def test_single_constraint(self):
        assert nullspace(mat([[1, 1]])) == mat([[1, -1]])

    def test_repeated_constraint(self):
        assert nullspace(mat([[1, 0], [1, 0]])) == mat([[0, 1]])

    def test_vectors_are_primitive_integers(self):
        # (3, -2), not (1, -2/3): scaled to coprime integers with a
        # positive leading entry, whatever the scale of the constraints.
        for row in ([2, 3], [-4, -6]):
            kernel = nullspace(mat([row]))
            assert kernel.rows == ((3, -2),)
            assert {type(v) for v in kernel.rows[0]} == {int}

    def test_empty_matrix_gives_full_space(self):
        result = nullspace(mat([], ncols=3))
        assert result == mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_rank_nullity_on_random(self):
        rng = random.Random(13)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert rref(m).nrows + nullspace(m).nrows == m.ncols

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(14)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(2, 5))
            for vec in nullspace(m).rows:
                for row in m.rows:
                    assert sum(a * b for a, b in zip(row, vec)) == 0


class TestSubspaces:
    def test_equal_to_itself(self):
        a = mat([[1, 2], [0, 1]])
        assert subspace_equal(a, a)
        assert pairwise_subspace_intersect(a, a) == rref(a)

    def test_scaled_basis_is_same_space(self):
        assert subspace_equal(mat([[1, 2]]), mat([[3, 6]]))

    def test_axes_meet_trivially(self):
        a, b = mat([[1, 0]]), mat([[0, 1]])
        assert not subspace_equal(a, b)
        assert pairwise_subspace_intersect(a, b).nrows == 0

    def test_plane_meets_line(self):
        plane = mat([[1, 0], [0, 1]])
        line = mat([[1, 1]])
        assert pairwise_subspace_intersect(plane, line) == mat([[1, 1]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(MismatchError,
                           match="^ambient dimensions differ: 2 vs 3$"):
            subspace_equal(mat([[1, 0]]), mat([[1, 0, 0]]))
        with pytest.raises(MismatchError,
                           match="^ambient dimensions differ: 2 vs 3$"):
            pairwise_subspace_intersect(mat([[1, 0]]), mat([[1, 0, 0]]))

    def test_intersection_contained_in_both(self):
        rng = random.Random(15)
        for _ in range(20):
            ncols = rng.randint(2, 5)
            a = random_matrix(rng, rng.randint(1, 3), ncols)
            b = random_matrix(rng, rng.randint(1, 3), ncols)
            meet = pairwise_subspace_intersect(a, b)
            for side in (a, b):
                for vec in meet.rows:
                    assert in_span(side, vec)

    def test_modular_dimension_law(self):
        # dim(A) + dim(B) = dim(A + B) + dim(A ∩ B)
        rng = random.Random(16)
        for _ in range(20):
            ncols = rng.randint(2, 5)
            a = random_matrix(rng, rng.randint(1, 3), ncols)
            b = random_matrix(rng, rng.randint(1, 3), ncols)
            total = rref(mat(list(a.rows) + list(b.rows), ncols=ncols))
            meet = pairwise_subspace_intersect(a, b)
            assert (rref(a).nrows + rref(b).nrows
                    == total.nrows + meet.nrows)

    def test_stacked_kernel_is_meet_of_kernels(self):
        # ker A ∩ ker B = ker [A; B], which chain reduction relies on.
        rng = random.Random(17)
        for _ in range(60):
            ncols = rng.randint(1, 6)
            sides = [random_rows(rng, rng.randint(0, 4), ncols)
                     for _ in range(rng.randint(1, 4))]
            want = nullspace(mat(sides[0], ncols=ncols))
            for side in sides[1:]:
                want = pairwise_subspace_intersect(
                    want, nullspace(mat(side, ncols=ncols)))
            stacked = [row for side in sides for row in side]
            assert nullspace(mat(stacked, ncols=ncols)) == primitive(want)


class TestSelfChecks:
    def test_nullspace_check_raises_verification_error(self, monkeypatch):
        # [[1, 0], [1, 1]] has a trivial kernel; a kernel step that yields
        # (1, 1) anyway must be caught by the M v = 0 check.
        monkeypatch.setattr(linalg.RowReducer, "kernel",
                            lambda self: [[1] * self.ncols])
        with pytest.raises(VerificationError):
            nullspace(mat([[1, 0], [1, 1]]))

    def test_nullspace_check_reads_every_input_row(self, monkeypatch):
        # A reducer that keeps only the first row yields (0, 1, 0) and
        # (0, 0, 1) as the kernel; only the second input row, which never
        # reached the reducer, shows that (0, 1, 0) is wrong.
        add = linalg.RowReducer.add
        monkeypatch.setattr(linalg.RowReducer, "add",
                            lambda self, row: self.rank == 0 and add(self, row))
        with pytest.raises(VerificationError):
            nullspace(mat([[1, 0, 0], [0, 1, 0]]))

    def test_intersection_check_raises_verification_error(self, monkeypatch):
        # A kernel of everything makes the whole plane the "intersection",
        # which escapes the line.
        monkeypatch.setattr("util.fraction_nullspace",
                            lambda m: mat([[1, 0], [0, 1]]))
        with pytest.raises(VerificationError):
            pairwise_subspace_intersect(mat([[1, 0]]), mat([[1, 0]]))


class TestRowReducer:
    def test_add_detects_span_membership(self):
        reducer = RowReducer(3)
        reducer.add([1, 0, 1])
        reducer.add([0, 1, 1])
        assert not reducer.add([1, 1, 2])
        assert reducer.rank == 2
        assert reducer.add([1, 1, 0])
        assert reducer.rank == 3

    def test_add_rejects_a_row_of_the_wrong_length(self):
        with pytest.raises(MismatchError, match="expected 3"):
            RowReducer(3).add([1, 0])

    def test_add_reports_rank_growth(self):
        reducer = RowReducer(2)
        assert reducer.add([1, 1])
        assert not reducer.add([2, 2])
        assert reducer.add([1, 0])
        assert reducer.rank == 2


def random_rows(rng, nrows, ncols):
    """Integer rows with negative entries, some rows zero and some
    repeated or scaled copies of earlier ones."""
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if pick < 0.15:
            rows.append([0] * ncols)
        elif pick < 0.35 and rows:
            scale = rng.choice([-3, -1, 2, 5])
            rows.append([scale * v for v in rng.choice(rows)])
        else:
            rows.append([rng.randint(-6, 6) if rng.random() < 0.6 else 0
                         for _ in range(ncols)])
    return rows


class TestAgainstFractionOracle:
    def test_reducer_matches_oracle(self):
        rng = random.Random(31)
        for _ in range(200):
            ncols = rng.randint(0, 6)
            rows = random_rows(rng, rng.randint(0, 8), ncols)
            oracle = fraction_row_reducer(ncols, [])
            reducer = RowReducer(ncols)
            for row in rows:
                assert reducer.add(row) == oracle.add(row)
                assert reducer.rank == oracle.rank
            kernel = mat(reducer.kernel(), ncols=ncols)
            assert subspace_equal(kernel, fraction_nullspace(
                mat(rows, ncols=ncols)))

    def test_nullspace_matches_oracle(self):
        rng = random.Random(32)
        for _ in range(200):
            ncols = rng.randint(0, 6)
            m = mat(random_rows(rng, rng.randint(0, 7), ncols), ncols=ncols)
            kernel = nullspace(m)
            assert kernel == primitive(fraction_nullspace(m))
            assert {type(v) for row in kernel.rows for v in row} <= {int}

    def test_kernel_is_canonical_as_read(self):
        # kernel() vectors, in the order given and each scaled by its
        # leading entry, are already the canonical echelon basis.
        rng = random.Random(35)
        for _ in range(200):
            ncols = rng.randint(0, 7)
            rows = random_rows(rng, rng.randint(0, 8), ncols)
            reducer = RowReducer(ncols)
            for row in rows:
                reducer.add(row)
            scaled = [[Fraction(v, next(x for x in vec if x)) for v in vec]
                      for vec in reducer.kernel()]
            assert mat(scaled, ncols=ncols) == fraction_nullspace(
                mat(rows, ncols=ncols))

    def test_zero_one_int_rows_match_oracle(self):
        # Identity slices hand nullspace 0/1 int rows; the kernel must be
        # the oracle's for the same rows given as Fractions, in primitive
        # integers.
        rng = random.Random(34)
        for _ in range(200):
            ncols = rng.randint(0, 7)
            rows = [[int(rng.random() < 0.4) for _ in range(ncols)]
                    for _ in range(rng.randint(0, 8))]
            ints = mat(rows, ncols=ncols)
            twin = mat([[Fraction(v) for v in row] for row in rows], ncols=ncols)
            assert {type(v) for row in ints.rows for v in row} <= {int}
            assert ints == twin and hash(ints) == hash(twin)
            kernel = nullspace(ints)
            assert kernel == primitive(fraction_nullspace(twin))
            assert {type(v) for row in kernel.rows for v in row} <= {int}

    def test_slice_shaped_rows_match_oracle(self):
        # Rows in the shape identity slices stream: 24 or 120 columns
        # (m = 4, 5), up to 60 rows of about 5 nonzeros, 0/1 or small
        # signed ints, some rows sums of earlier ones. Half the runs add
        # rows by decreasing last nonzero column, so the reducer stores
        # rows out of pivot column order.
        rng = random.Random(36)
        out_of_order = 0
        for ncols, values, by_pivot in itertools.product(
                [24, 120], [[1], [-3, -2, -1, 1, 2, 3]], [False, True]):
            rows = []
            for _ in range(rng.randint(1, 60)):
                if rows and rng.random() < 0.2:
                    a, b = rng.choice(rows), rng.choice(rows)
                    rows.append([x + y for x, y in zip(a, b)])
                    continue
                row = [0] * ncols
                for j in rng.sample(range(ncols), rng.randint(3, 7)):
                    row[j] = rng.choice(values)
                rows.append(row)
            if by_pivot:
                rows.sort(key=lambda row: max(
                    (j for j, v in enumerate(row) if v), default=-1),
                    reverse=True)
            oracle = fraction_row_reducer(ncols, [])
            reducer = RowReducer(ncols)
            for row in rows:
                assert reducer.add(row) == oracle.add(row)
                assert reducer.rank == oracle.rank
            out_of_order += list(reducer._rows) != sorted(reducer._rows)
            m = mat(rows, ncols=ncols)
            want = primitive(fraction_nullspace(m))
            assert mat(reducer.kernel(), ncols=ncols) == want
            assert nullspace(m) == want
        assert out_of_order

    def test_nullspace_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(33)
        for _ in range(60):
            ncols = rng.randint(1, 6)
            m = mat(random_rows(rng, rng.randint(1, 6), ncols), ncols=ncols)
            kernel = sympy.Matrix([list(row) for row in m.rows]).nullspace()
            expected = (sympy.Matrix.hstack(*kernel).T.rref()[0].tolist()
                        if kernel else [])
            assert nullspace(m) == primitive(mat(
                [[Fraction(str(v)) for v in row] for row in expected],
                ncols=ncols))
