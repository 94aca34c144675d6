"""Fuzz of the library's error contract: JSON-shaped values fed to each
data argument of the constructors and of the calls that take indices or a
degree. Each call must return or raise an IncgradeError; no Python error
may leak. The poset, group and grading arguments stay valid objects (the
diamond, C2 and a grading of it), so the values reach the checks behind
them. The enumeration budget is lowered for the test, so that a drawn
degree sweeps at most a thousand words. Integers include some of more
digits than str() writes, which must not leak the ValueError of str() or
repr() from a label or a message.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from incgrade import poset as poset_module  # noqa: E402
from incgrade.algebra import (AlgebraMorphism, IncidenceFunction,  # noqa: E402
                              e_basis, evaluate, induced_auto)
from incgrade.corpus import load_poset  # noqa: E402
from incgrade.errors import IncgradeError  # noqa: E402
from incgrade.grading import (EquivalenceWitness, FiniteGroup,  # noqa: E402
                              GradingMap, cyclic_group)
from incgrade.identities import (identity_slice,  # noqa: E402
                                 monomial_identities, slices_equal_upto,
                                 verify_chain_reduction)
from incgrade.poset import Poset, segment, subposet  # noqa: E402

DIAMOND = load_poset("diamond")
C2 = cyclic_group(2)
THETA = GradingMap(DIAMOND, C2, (0, 1, 0, 1))

# None, bools, ints small, negative, huge and too long for str(), floats
# with NaN and the infinities, strings, and lists and objects of them.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5),
    st.sampled_from([-1, 2 ** 64, -(2 ** 64), 10 ** 30, -(10 ** 4000)]),
    # Built by map, as hypothesis writes a sampled_from list with repr().
    st.sampled_from([1, -1]).map(lambda sign: sign * 10 ** 5000),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([math.nan]),
    st.text(max_size=3))
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=2), inner,
                                                 max_size=3)), max_leaves=10)
# Mostly valid shapes with JSON-shaped parts, so that the draws also get
# past the first check of each call.
PAIRS = st.lists(st.one_of(st.lists(SCALARS, max_size=3),
                           st.tuples(st.integers(-1, 4), st.integers(-1, 4))),
                 max_size=5)
TABLES = st.dictionaries(st.tuples(st.integers(-1, 4), SCALARS), JSON,
                         max_size=3)
VALUES = st.one_of(JSON, PAIRS, TABLES, st.lists(st.integers(-1, 4), max_size=5))

CALLS = {
    "Poset": lambda a, b: Poset(a, b),
    "FiniteGroup": lambda a, b: FiniteGroup(a, b),
    "GradingMap": lambda a, _: GradingMap(DIAMOND, C2, a),
    "IncidenceFunction": lambda a, b: IncidenceFunction(DIAMOND, a, b),
    "AlgebraMorphism": lambda a, _: AlgebraMorphism(DIAMOND, a),
    "subposet": lambda a, _: subposet(DIAMOND, a),
    "segment": lambda a, b: segment(DIAMOND, a, b),
    "e_basis": lambda a, b: e_basis(DIAMOND, a, b),
    "evaluate": lambda a, b: evaluate(DIAMOND, a, b),
    "induced_auto": lambda a, _: induced_auto(DIAMOND, a),
    "compose_with_automorphism": lambda a, _: THETA.compose_with_automorphism(a),
    "EquivalenceWitness": lambda a, b: EquivalenceWitness(a, b).check(THETA, THETA),
    "identity_slice": lambda a, _: identity_slice(THETA, a),
    "verify_chain_reduction": lambda a, _: verify_chain_reduction(THETA, a),
    "slices_equal_upto": lambda a, _: slices_equal_upto(THETA, THETA, a),
    "monomial_identities": lambda a, _: monomial_identities(THETA, a),
}


@hypothesis.seed(37)
@hypothesis.settings(max_examples=400, deadline=None, database=None,
                     suppress_health_check=[
                         hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(name=st.sampled_from(sorted(CALLS)), first=VALUES,
                  second=VALUES)
def test_every_call_returns_or_raises_a_package_error(monkeypatch, name,
                                                      first, second):
    monkeypatch.setattr(poset_module, "MAX_MAPS", 1000)
    try:
        CALLS[name](first, second)
    except IncgradeError:
        pass
