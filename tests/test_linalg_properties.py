"""Property tests of the integer row reducer against the Fraction oracle."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from incgrade.linalg import RationalMatrix, RowReducer, nullspace  # noqa: E402
from util import (  # noqa: E402
    fraction_nullspace,
    fraction_row_reducer,
    primitive,
    subspace_equal,
)

ENTRIES = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw):
    ncols = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         max_size=6))
    return RationalMatrix(rows, ncols)


SETTINGS = hypothesis.settings(max_examples=80, deadline=None)


@SETTINGS
@hypothesis.given(matrices())
def test_reducer_matches_oracle(m):
    reducer = RowReducer(m.ncols)
    oracle = fraction_row_reducer(m.ncols, [])
    for row in m.rows:
        assert reducer.add(row) == oracle.add(row)
    assert reducer.rank == oracle.rank
    assert subspace_equal(RationalMatrix(reducer.kernel(), m.ncols),
                          fraction_nullspace(m))


@SETTINGS
@hypothesis.given(matrices())
def test_nullspace_matches_oracle(m):
    kernel = nullspace(m)
    assert kernel == primitive(fraction_nullspace(m))
    assert all(sum(a * b for a, b in zip(row, vec)) == Fraction(0)
               for vec in kernel.rows for row in m.rows)


@st.composite
def zero_one_rows(draw):
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=ncols,
                                  max_size=ncols), max_size=8))
    return rows, ncols


@SETTINGS
@hypothesis.given(zero_one_rows())
def test_zero_one_int_rows_match_fraction_twin(case):
    rows, ncols = case
    ints = RationalMatrix(rows, ncols)
    twin = RationalMatrix([[Fraction(v) for v in row] for row in rows], ncols)
    assert ints == twin and hash(ints) == hash(twin)
    assert nullspace(ints) == primitive(fraction_nullspace(twin))
