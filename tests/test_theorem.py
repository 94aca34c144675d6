"""Counterexamples to the paper's main theorem: the Boolean lattice B3
and the 5-element lattice M3.

The abstract states: if P is bounded, Aut(P) acts transitively on the
maximal chains of P, and two elementary G-gradings of the incidence
algebra satisfy the same graded identities, then they are graded
isomorphic. Two posets over C2 meet every hypothesis and fail the
conclusion; in each, the two gradings agree on every identity slice
through degree 5 and are still not isomorphic, because their
h-components differ in dimension:
- B3, the subsets of {a, b, c}, with theta = (bc -> h) and
  mu = (ac, bc -> h);
- M3 = 0 < a, b, c < 1, with theta = (a -> h) and mu = (a, b -> h).
Every multilinear identity evaluates along a multichain and every
multichain lies in a maximal chain, so gradings with the same
covering-degree words on the maximal chains ("chain words") have the same
slices at every degree; in both pairs theta and mu have the same chain
words.
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
from incgrade.identities import chain_words, slices_equal_upto
from incgrade.poset import (
    Poset,
    automorphisms,
    is_chain_transitive,
    maximal_chains,
)

from util import slice_search_upto

LETTERS = "abc"


def boolean_lattice_b3():
    """Subsets of {a, b, c} ordered by inclusion, labelled '0', 'a', ...,
    'abc'; element i is the subset with bit mask i."""
    labels = ["".join(LETTERS[b] for b in range(3) if i >> b & 1) or "0"
              for i in range(8)]
    covers = [(i, i | 1 << b) for i in range(8) for b in range(3)
              if not i >> b & 1]
    return Poset(labels, covers)


B3 = boolean_lattice_b3()
# 0 below a, b and c, all three below 1.
M3 = Poset(["0", "a", "b", "c", "1"],
           [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
C2 = cyclic_group(2)
H = C2.index_of("h")


def grading(poset, *graded_h):
    return GradingMap(poset, C2, [H if label in graded_h else C2.identity
                                  for label in poset.elements])


THETA = grading(B3, "bc")
MU = grading(B3, "ac", "bc")
M3_THETA = grading(M3, "a")
M3_MU = grading(M3, "a", "b")


def bottom_and_top(p):
    full = (1 << p.n) - 1
    return ([x for x in range(p.n) if p.up[x] == full],
            [y for y in range(p.n) if p.down[y] == full])


class TestB3Certificate:
    def test_hypotheses_hold(self):
        assert bottom_and_top(B3) == ([0], [7])
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
        # slices_equal_upto answers from the chain words alone, so the
        # slices themselves are computed by the full search.
        assert (slices_equal_upto(THETA, MU, 5)
                == slice_search_upto(THETA, MU, 5) == (True, None))


class TestM3Certificate:
    def test_hypotheses_hold(self):
        assert bottom_and_top(M3) == ([0], [4])
        assert len(maximal_chains(M3)) == 3
        assert len(automorphisms(M3)) == 6
        transitive, witnesses = is_chain_transitive(M3)
        assert transitive
        assert len(witnesses) == 9

    def test_same_chain_words(self):
        e = C2.identity
        assert chain_words(M3_THETA) == chain_words(M3_MU) == {(e, e), (H, H)}

    def test_not_equivalent(self):
        assert equivalent(M3_THETA, M3_MU) is None

    def test_h_components_differ_in_dimension(self):
        assert len(M3_THETA.components()[H]) == 2
        assert len(M3_MU.components()[H]) == 4

    def test_same_identity_slices_through_degree_5(self):
        assert (slices_equal_upto(M3_THETA, M3_MU, 5)
                == slice_search_upto(M3_THETA, M3_MU, 5) == (True, None))

    def test_classification(self):
        assert len(classify_gradings(M3, C2)) == 8
        assert burnside_class_count(M3, C2) == 8


@pytest.mark.parametrize("spec, classes", [("C2", 40), ("S3", 50616)])
def test_b3_classification(spec, classes):
    group = group_from_spec(spec)
    assert len(classify_gradings(B3, group)) == classes
    assert burnside_class_count(B3, group) == classes
