"""Property tests of the incidence algebra axioms on random posets and
rational functions."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from incgrade.algebra import (  # noqa: E402
    IncidenceFunction,
    convolve,
    decompose_automorphism,
    delta,
    induced_auto,
    inner_auto,
    invert,
    mult_auto,
)
from incgrade.poset import Poset, automorphisms  # noqa: E402

from util import compose_chain_decompose  # noqa: E402

VALUES = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def posets(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    below = [(i, j) for i in range(n) for j in range(i + 1, n)]
    covers = [pair for pair, keep in zip(
        below, draw(st.lists(st.booleans(), min_size=len(below),
                             max_size=len(below)))) if keep]
    return Poset([f"e{i}" for i in range(n)], covers)


def functions(poset, invertible=False):
    pairs = poset.comparable_pairs()
    values = [VALUES.filter(bool) if invertible and x == y else VALUES
              for (x, y) in pairs]
    return st.tuples(*values).map(
        lambda vs: IncidenceFunction(poset, dict(zip(pairs, vs))))


SETTINGS = hypothesis.settings(max_examples=80, deadline=None)


@SETTINGS
@hypothesis.given(st.data())
def test_convolve_is_associative(data):
    p = data.draw(posets())
    f, g, h = (data.draw(functions(p)) for _ in range(3))
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


@SETTINGS
@hypothesis.given(st.data())
def test_convolve_is_distributive(data):
    p = data.draw(posets())
    f, g, h = (data.draw(functions(p)) for _ in range(3))
    assert convolve(f, g + h) == convolve(f, g) + convolve(f, h)
    assert convolve(f + g, h) == convolve(f, h) + convolve(g, h)


@SETTINGS
@hypothesis.given(st.data())
def test_delta_is_two_sided_unit(data):
    p = data.draw(posets())
    f = data.draw(functions(p))
    assert convolve(delta(p), f) == f == convolve(f, delta(p))


@SETTINGS
@hypothesis.given(st.data())
def test_invert_is_two_sided_inverse(data):
    p = data.draw(posets())
    f = data.draw(functions(p, invertible=True))
    g = invert(f)
    assert convolve(f, g) == delta(p) == convolve(g, f)


@SETTINGS
@hypothesis.given(st.data())
def test_decompose_matches_compose_chain(data):
    p = data.draw(posets(max_n=7))
    r = data.draw(functions(p, invertible=True))
    weights = data.draw(st.lists(VALUES.filter(bool), min_size=p.n,
                                 max_size=p.n))
    s = IncidenceFunction(p, {(x, y): weights[y] / weights[x]
                              for (x, y) in p.comparable_pairs()})
    sigma = data.draw(st.sampled_from(automorphisms(p)))
    phi = inner_auto(r).compose(mult_auto(s)).compose(induced_auto(p, sigma))
    assert decompose_automorphism(phi) == compose_chain_decompose(phi)
