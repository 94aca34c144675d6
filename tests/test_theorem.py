"""The paper's main theorem on the Boolean lattice B3.

The abstract states: if P is bounded, Aut(P) acts transitively on the
maximal chains of P, and two elementary G-gradings of the incidence
algebra satisfy the same graded identities, then they are graded
isomorphic. On B3 over C2 the gradings theta = (bc -> h) and
mu = (ac, bc -> h) meet every hypothesis, agree on every identity slice
through degree 5, and are still not isomorphic: their h-components differ
in dimension. Every multilinear identity evaluates along a multichain and
every multichain lies in a maximal chain, so gradings with the same
covering-degree words on the maximal chains ("chain words") have the same
slices at every degree; theta and mu have the same chain words.
"""

import pytest

from incgrade.grading import (
    GradingMap,
    burnside_class_count,
    classify_gradings,
    cyclic_group,
    equivalent,
    group_from_spec,
)
from incgrade.identities import slices_equal_upto
from incgrade.poset import is_chain_transitive, maximal_chains, poset_from_covers

LETTERS = "abc"


def boolean_lattice_b3():
    """Subsets of {a, b, c} ordered by inclusion, labelled '0', 'a', ...,
    'abc'; element i is the subset with bit mask i."""
    labels = ["".join(LETTERS[b] for b in range(3) if i >> b & 1) or "0"
              for i in range(8)]
    covers = [(i, i | 1 << b) for i in range(8) for b in range(3)
              if not i >> b & 1]
    return poset_from_covers(labels, covers)


B3 = boolean_lattice_b3()
C2 = cyclic_group(2)
H = C2.index_of("h")


def grading(*graded_h):
    return GradingMap(B3, C2, [H if label in graded_h else C2.identity
                               for label in B3.elements])


THETA = grading("bc")
MU = grading("ac", "bc")


def chain_words(g):
    return {tuple(g.grade_of_pair(x, y) for x, y in zip(chain, chain[1:]))
            for chain in maximal_chains(g.poset)}


class TestB3Certificate:
    def test_hypotheses_hold(self):
        full = (1 << B3.n) - 1
        assert [x for x in range(B3.n) if B3.up[x] == full] == [0]
        assert [y for y in range(B3.n) if B3.down[y] == full] == [7]
        assert len(maximal_chains(B3)) == 6
        transitive, witnesses = is_chain_transitive(B3)
        assert transitive
        assert len(witnesses) == 36

    def test_same_chain_words(self):
        e = C2.identity
        assert chain_words(THETA) == chain_words(MU) == {(e, e, e), (e, H, H)}

    def test_not_equivalent(self):
        assert equivalent(THETA, MU) is None

    def test_h_components_differ_in_dimension(self):
        # A graded isomorphism preserves each component's dimension.
        assert len(THETA.components()[H]) == 4
        assert len(MU.components()[H]) == 8

    def test_same_identity_slices_through_degree_5(self):
        assert slices_equal_upto(THETA, MU, 5) == (True, None)


@pytest.mark.parametrize("spec, classes", [("C2", 40), ("S3", 50616)])
def test_b3_classification(spec, classes):
    group = group_from_spec(spec)
    assert len(classify_gradings(B3, group)) == classes
    assert burnside_class_count(B3, group) == classes
