import itertools
import math
import random

import pytest

from incgrade import identities, poset
from incgrade.algebra import evaluate
from incgrade.corpus import corpus_posets
from incgrade.errors import (
    BudgetExceededError,
    MismatchError,
    NotChainTransitiveError,
    NotComparableError,
)
from incgrade.grading import GradingMap, cyclic_group, equivalent, group_from_spec
from incgrade.identities import (
    chain_transitivity_identity_check,
    chain_words,
    identity_slice,
    monomial_identities,
    slices_equal_upto,
    verify_chain_reduction,
    words,
)
from incgrade.linalg import nullspace
from incgrade.poset import automorphisms, maximal_chains, subposet

from util import (
    brute_force_slice,
    in_span,
    monomial_vanishes_by_products,
    pairwise_chain_reduction,
    primitive,
    random_grading,
    random_poset,
    slice_search_upto,
)

CORPUS = corpus_posets()


def gm(poset, group, names):
    return GradingMap(poset, group, [group.index_of(v) for v in names])


def trivial_grading(poset):
    return GradingMap(poset, group_from_spec("C1"), [0] * poset.n)


# [x1, x2][x3, x4] expanded over the lex-ordered monomials.
COMMUTATOR_PRODUCT = [
    {(1, 2, 3, 4): 1, (1, 2, 4, 3): -1, (2, 1, 3, 4): -1,
     (2, 1, 4, 3): 1}.get(perm, 0)
    for perm in itertools.permutations((1, 2, 3, 4))]


def test_words_are_shortest_first_in_product_order():
    assert list(words("ab", 2)) == [
        ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    assert list(words("ab", 0)) == []
    assert list(words("", 3)) == []


class TestEvaluate:
    def test_commutator_on_chain(self):
        value = evaluate(CORPUS["c2"], [1, -1], [(0, 1), (1, 1)])
        assert value(0, 1) == 1
        assert value.support() == ((0, 1),)

    def test_substitution_length_checked(self):
        # m pairs take exactly m! coefficients, and m is at least 1.
        p = CORPUS["c3"]
        for coefficients, pairs in [([1, -1], [(0, 0)]),
                                    ([1], [(0, 0), (0, 1)]),
                                    ([1] * 6, [(0, 0), (0, 1)]),
                                    ([1], [])]:
            with pytest.raises(MismatchError, match=(
                    f"^{len(coefficients)} coefficients for {len(pairs)} "
                    r"pairs, need m! with m >= 1$")):
                evaluate(p, coefficients, pairs)

    def test_pairs_must_be_comparable(self):
        # Even a pair that only a zero coefficient would use is checked.
        p = CORPUS["c2"]
        for pairs in ([(1, 0), (0, 1)], [(0, 1), (0, 2)]):
            with pytest.raises(NotComparableError):
                evaluate(p, [0, 0], pairs)


class TestIdentitySlice:
    def test_two_chain_trivial_grading_has_no_degree_two_identities(self):
        theta = trivial_grading(CORPUS["c2"])
        assert identity_slice(theta, (0, 0)).nrows == 0

    def test_empty_component_gives_full_slice(self):
        p = CORPUS["c2"]
        g = cyclic_group(3)
        theta = gm(p, g, ["1", "h"])
        missing = g.index_of("h^2")
        assert identity_slice(theta, (missing,)).nrows == 1
        assert identity_slice(theta, (missing, missing)).nrows == 2

    def test_singleton_component_squares_to_zero(self):
        p = CORPUS["example"]
        g = cyclic_group(3)
        theta = gm(p, g, ["1", "1", "h", "1"])
        h = g.index_of("h")
        assert theta.component_basis(h) == ((1, 2),)
        assert identity_slice(theta, (h, h)).nrows == 2

    def test_empty_multidegree_rejected(self):
        with pytest.raises(MismatchError,
                           match="^multidegree must have length >= 1$"):
            identity_slice(trivial_grading(CORPUS["c2"]), ())

    def test_degree_cap(self):
        # The library has no degree cap. UT_2 has multilinear codimension
        # 2^(m-1) (m-2) + 2, which is 50 of the 120 monomials at m = 5.
        theta = trivial_grading(CORPUS["c2"])
        s = identity_slice(theta, (0,) * 5)
        assert s.nrows == 120 - 50
        assert s == primitive(brute_force_slice(theta, (0,) * 5))

    def test_commutator_product_is_an_identity_on_two_chain(self):
        # The algebra of a 2-chain is 2x2 upper triangular matrices.
        theta = trivial_grading(CORPUS["c2"])
        s = identity_slice(theta, (0, 0, 0, 0))
        assert in_span(s, COMMUTATOR_PRODUCT)

    def test_commutator_product_fails_on_three_chain(self):
        theta = trivial_grading(CORPUS["c3"])
        s = identity_slice(theta, (0, 0, 0, 0))
        assert not in_span(s, COMMUTATOR_PRODUCT)

    def test_slice_members_vanish_on_random_substitutions(self):
        rng = random.Random(50)
        g = cyclic_group(2)
        for name in ("c3", "diamond", "example"):
            theta = random_grading(rng, CORPUS[name], g)
            for multidegree in [(0, 0), (0, 1), (1, 1), (0, 0, 1)]:
                s = identity_slice(theta, multidegree)
                bases = [theta.component_basis(d) for d in multidegree]
                if any(not b for b in bases):
                    continue
                for row in s.rows:
                    for _ in range(50):
                        sub = [rng.choice(b) for b in bases]
                        assert not evaluate(theta.poset, row, sub).entries

    def test_vectors_outside_slice_have_witnesses(self):
        # Anything the nullspace rejects must fail on some substitution.
        theta = trivial_grading(CORPUS["c2"])
        s = identity_slice(theta, (0, 0))
        bases = [theta.component_basis(0)] * 2
        for vector in ([1, 0], [0, 1], [1, 1]):
            assert not in_span(s, vector)
            hits = [sub for sub in itertools.product(*bases)
                    if evaluate(theta.poset, vector, sub).entries]
            assert hits

    @pytest.mark.parametrize("spec", ["C2", "C3", "S3"])
    def test_matches_brute_force_slice(self, spec):
        # Every multidegree up to length 4 over the grading's support; any
        # other degree has an empty component and a full slice on both
        # sides. Theta takes at most three values, so the support has at
        # most four elements and the oracle stays affordable.
        g = group_from_spec(spec)
        rng = random.Random(60 + g.order)
        posets = list(CORPUS.values()) + [random_poset(rng, 6)
                                          for _ in range(10)]
        for p in posets:
            values = rng.sample(range(g.order), min(g.order, 3))
            theta = GradingMap(p, g, [rng.choice(values) for _ in range(p.n)])
            for m in range(1, 5):
                for multidegree in itertools.product(theta.support(), repeat=m):
                    assert (identity_slice(theta, multidegree) == primitive(
                        brute_force_slice(theta, multidegree))), (
                                p, theta.theta, multidegree)

    def test_evaluation_rows_reach_nullspace_as_ints(self, monkeypatch):
        seen = []

        def spy(matrix):
            seen.append(matrix)
            return nullspace(matrix)

        monkeypatch.setattr(identities, "nullspace", spy)
        identities._slice_matrix.cache_clear()
        theta = trivial_grading(CORPUS["c2"])
        s = identity_slice(theta, (0, 0, 0, 0))
        identities._slice_matrix.cache_clear()
        assert len(seen) == 1
        assert {type(v) for row in seen[0].rows for v in row} == {int}
        assert s.nrows > 0
        assert {type(v) for row in s.rows for v in row} == {int}
        for row in s.rows:
            assert next(v for v in row if v) > 0
            assert math.gcd(*row) == 1

    def test_slice_cache_is_bounded(self):
        slice_matrix = identities._slice_matrix
        slice_matrix.cache_clear()
        for i in range(slice_matrix.cache_info().maxsize + 100):
            assert slice_matrix((i + 1,), 11).nrows == 10
        assert slice_matrix.cache_info().currsize <= 1024
        slice_matrix.cache_clear()


class TestSliceComparison:
    def test_equal_to_itself(self):
        rng = random.Random(51)
        theta = random_grading(rng, CORPUS["example"], cyclic_group(3))
        assert (slices_equal_upto(theta, theta, 2)
                == slice_search_upto(theta, theta, 2) == (True, None))

    def test_first_difference_reported(self):
        p = CORPUS["c2"]
        g = cyclic_group(2)
        theta = gm(p, g, ["1", "1"])
        mu = gm(p, g, ["1", "h"])
        equal, where = slices_equal_upto(theta, mu, 1)
        assert not equal
        assert where == (g.index_of("h"),)

    def test_equivalent_gradings_share_all_slices(self):
        rng = random.Random(52)
        p = CORPUS["diamond"]
        g = cyclic_group(2)
        auts = automorphisms(p)
        for _ in range(5):
            theta = random_grading(rng, p, g)
            sigma = rng.choice(auts)
            shift = [rng.randrange(g.order)]
            mu = theta.compose_with_automorphism(sigma).shift(shift)
            assert equivalent(theta, mu) is not None
            assert (slices_equal_upto(theta, mu, 2)
                    == slice_search_upto(theta, mu, 2) == (True, None))

    def test_inequivalent_gradings_can_share_all_slices(self):
        # Swapping the degrees of the two isolated strict pairs gives a
        # grading nobody can reach by shifts or automorphisms, yet every
        # slice up to degree 3 agrees.
        p = CORPUS["example"]
        g = cyclic_group(3)
        theta = gm(p, g, ["1", "h", "h^2", "1"])
        mu = gm(p, g, ["1", "h^2", "h", "1"])
        assert equivalent(theta, mu) is None
        assert (slices_equal_upto(theta, mu, 3)
                == slice_search_upto(theta, mu, 3) == (True, None))

    def test_degree_cap(self):
        # Degree 5 computes, and a shift of theta shares all its slices.
        g = cyclic_group(2)
        theta = gm(CORPUS["c2"], g, ["1", "h"])
        assert (slices_equal_upto(theta, theta.shift([1]), 5)
                == slice_search_upto(theta, theta.shift([1]), 5)
                == (True, None))
        flat = gm(CORPUS["c2"], g, ["1", "1"])
        assert slices_equal_upto(theta, flat, 5) == (False, (1,))


class TestChainWords:
    def test_diamond_words(self):
        # bot < a, b < top. (1, h, h, 1) reads (h, h) up both chains;
        # (1, 1, h, h) reads (1, h) up one and (h, 1) up the other.
        p = CORPUS["diamond"]
        g = cyclic_group(2)
        e, h = g.identity, g.index_of("h")
        assert chain_words(gm(p, g, ["1", "h", "h", "1"])) == {(h, h)}
        assert chain_words(gm(p, g, ["1", "1", "h", "h"])) == {(e, h), (h, e)}
        # An isolated element is a chain of one element: the empty word.
        assert chain_words(trivial_grading(CORPUS["antichain2"])) == {()}

    @pytest.mark.parametrize("spec", ["C2", "C3", "S3"])
    def test_equal_words_give_equal_slices(self, spec):
        # Seeded gradings of random posets of at most 6 elements, grouped
        # by their chain words: every pair in a group has the same slices
        # through degree 3 by the full search, inequivalent pairs too.
        g = group_from_spec(spec)
        rng = random.Random(70 + g.order)
        pairs = 0
        for _ in range(20):
            p = random_poset(rng, 6)
            by_words = {}
            for _ in range(16):
                theta = random_grading(rng, p, g)
                by_words.setdefault(frozenset(chain_words(theta)),
                                    {})[theta.theta] = theta
            for same in by_words.values():
                for theta, mu in itertools.combinations(same.values(), 2):
                    assert (slices_equal_upto(theta, mu, 3)
                            == slice_search_upto(theta, mu, 3)
                            == (True, None)), (p, theta.theta, mu.theta)
                    pairs += 1
        assert pairs >= 200

    def test_equal_words_compute_no_slice(self, monkeypatch):
        # On the diamond, theta and its image under the swap of a and b
        # share their words, so no slice is computed. A pair with different
        # words is still searched, and the first differing multidegree is
        # (h, h), as before the shortcut.
        calls = []

        def spy(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(identities, name, wrapper)

        spy("nullspace", nullspace)
        spy("_slice_rows", identities._slice_rows)
        identities._slice_matrix.cache_clear()
        p = CORPUS["diamond"]
        g = cyclic_group(2)
        h = g.index_of("h")
        theta = gm(p, g, ["1", "1", "h", "1"])
        assert slices_equal_upto(theta, gm(p, g, ["1", "h", "1", "1"]), 3) == (
            True, None)
        assert calls == []
        mu = gm(p, g, ["1", "1", "h", "h"])
        assert slices_equal_upto(gm(p, g, ["1", "h", "h", "1"]), mu, 3) == (
            False, (h, h))
        assert "nullspace" in calls and "_slice_rows" in calls
        identities._slice_matrix.cache_clear()

    def test_too_many_chains_fall_back_to_the_search(self, monkeypatch):
        # 0 < a, b, c < 1 has three maximal chains. With a budget of two,
        # the two words of degree 1 are swept but the chain words cannot be
        # read, so the slice search answers as before. The poset is built
        # here, as a poset keeps its maximal chains once read.
        monkeypatch.setattr(poset, "MAX_MAPS", 2)
        p = poset.Poset(["0", "a", "b", "c", "1"],
                        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        g = cyclic_group(2)
        theta = gm(p, g, ["1", "h", "1", "1", "1"])
        with pytest.raises(BudgetExceededError):
            chain_words(theta)
        mu = gm(p, g, ["1", "1", "h", "1", "1"])
        assert slices_equal_upto(theta, mu, 1) == (True, None)
        flat = gm(p, g, ["1"] * 5)
        assert slices_equal_upto(theta, flat, 1) == (False, (g.index_of("h"),))


class TestChainReduction:
    def test_single_chain_is_trivial(self):
        rng = random.Random(53)
        theta = random_grading(rng, CORPUS["c3"], cyclic_group(2))
        equal, report = verify_chain_reduction(theta, (0, 0))
        assert equal
        assert report["chain_dimensions"] == [report["whole_dimension"]]
        assert report["intersection_dimension"] == report["whole_dimension"]

    def test_empty_multidegree_rejected(self):
        with pytest.raises(MismatchError,
                           match="^multidegree must have length >= 1$"):
            verify_chain_reduction(trivial_grading(CORPUS["c3"]), ())

    def test_worked_example_dimensions(self):
        # theta = (1, h, h^2, 1) on the N-shaped poset, degree type (1, 1).
        # By hand: the whole slice is 0; the chains through the middle both
        # keep only the commutator, the outer chain kills it.
        p = CORPUS["example"]
        g = cyclic_group(3)
        theta = gm(p, g, ["1", "h", "h^2", "1"])
        equal, report = verify_chain_reduction(theta, (0, 0))
        assert equal
        assert report["whole_dimension"] == 0
        assert report["chain_dimensions"] == [0, 1, 1]
        assert report["intersection_dimension"] == 0

    def test_random_gradings_on_diamond(self):
        rng = random.Random(54)
        g = cyclic_group(2)
        for _ in range(5):
            theta = random_grading(rng, CORPUS["diamond"], g)
            for multidegree in [(0, 0), (0, 0, 0), (0, 1, 1)]:
                equal, report = verify_chain_reduction(theta, multidegree)
                assert equal, report

    def test_whole_slice_lies_in_every_chain_slice(self):
        rng = random.Random(55)
        p = CORPUS["example"]
        g = cyclic_group(3)
        theta = random_grading(rng, p, g)
        multidegree = (0, 0)
        whole = identity_slice(theta, multidegree)
        for chain in maximal_chains(p):
            restricted = GradingMap(subposet(p, chain), g,
                                    [theta.theta[i] for i in chain])
            piece = identity_slice(restricted, multidegree)
            for row in whole.rows:
                assert in_span(piece, row)


    def test_matches_pairwise_fold(self):
        # Every multidegree of length <= 3 over the support, on a seeded
        # grading of each fixture by C2 and C3 and of 10 random posets.
        rng = random.Random(56)
        groups = [cyclic_group(2), cyclic_group(3)]
        gradings = [random_grading(rng, p, g)
                    for _, p in sorted(CORPUS.items()) for g in groups]
        gradings += [random_grading(rng, random_poset(rng, 6), rng.choice(groups))
                     for _ in range(10)]
        outcomes = set()
        for theta in gradings:
            support = theta.support()
            for m in range(1, 4):
                for multidegree in itertools.product(support, repeat=m):
                    got = verify_chain_reduction(theta, multidegree)
                    assert got == pairwise_chain_reduction(theta, multidegree)
                    outcomes.add(len(got[1]["chain_dimensions"]) > 1)
        assert outcomes == {True, False}

    def test_whole_rows_are_the_union_of_chain_rows(self):
        # Every substitution that chains walks a chain of the poset, so the
        # whole poset's evaluation rows are the union of its maximal
        # chains' rows, and the meet's kernel is the whole slice's memo hit.
        rng = random.Random(57)
        for _ in range(40):
            p = random_poset(rng, 6)
            g = cyclic_group(rng.choice((2, 3)))
            theta = random_grading(rng, p, g)
            components = theta.components()
            chains = [set(chain) for chain in maximal_chains(p)]
            for m in range(1, 4):
                for multidegree in itertools.product(range(g.order), repeat=m):
                    bases = [components.get(g, ()) for g in multidegree]
                    union = set()
                    for members in chains:
                        union.update(identities._slice_rows(tuple(
                            tuple(pair for pair in basis
                                  if members.issuperset(pair))
                            for basis in bases)))
                    assert identities._slice_rows(tuple(bases)) == tuple(
                        sorted(union)), (p, theta.theta, multidegree)

    def test_meet_of_equal_chain_rows_costs_no_kernel(self, monkeypatch):
        # Each chain of the diamond has the whole poset's evaluation rows
        # here, so the chain slices and their meet are all memo hits.
        seen = []

        def spy(matrix):
            seen.append(matrix)
            return nullspace(matrix)

        monkeypatch.setattr(identities, "nullspace", spy)
        g = cyclic_group(2)
        theta = gm(CORPUS["diamond"], g, ["1", "h", "1", "h"])
        for names in (["1"], ["h"], ["1", "h"], ["h", "h", "1"]):
            identities._slice_matrix.cache_clear()
            del seen[:]
            equal, report = verify_chain_reduction(
                theta, [g.index_of(v) for v in names])
            assert equal and len(report["chain_dimensions"]) == 2
            assert len(seen) == 1, names
        identities._slice_matrix.cache_clear()


class TestMonomialIdentities:
    def test_trivial_grading_has_none(self):
        theta = trivial_grading(CORPUS["c2"])
        assert monomial_identities(theta, 3) == set()

    def test_two_chain_square_of_top_degree(self):
        p = CORPUS["c2"]
        g = cyclic_group(2)
        theta = gm(p, g, ["1", "h"])
        h = g.index_of("h")
        assert monomial_identities(theta, 2) == {(h, h)}

    def test_three_chain_alternating_word_survives(self):
        # With theta = (1, h, 1) the word h,1,h chains through the middle:
        # e12 followed by e22 followed by e23 is nonzero.
        p = CORPUS["c3"]
        g = cyclic_group(2)
        theta = gm(p, g, ["1", "h", "1"])
        h = g.index_of("h")
        found = monomial_identities(theta, 3)
        assert (h, h, h) in found
        assert (h, g.identity, h) not in found

    def test_matches_product_oracle(self):
        rng = random.Random(56)
        cases = [
            (CORPUS["c2"], cyclic_group(2)),
            (CORPUS["c3"], cyclic_group(2)),
            (CORPUS["example"], cyclic_group(3)),
        ]
        for p, g in cases:
            theta = random_grading(rng, p, g)
            found = monomial_identities(theta, 3)
            for m in range(1, 4):
                for word in itertools.product(range(g.order), repeat=m):
                    assert (word in found) == monomial_vanishes_by_products(
                        theta, word)

    def test_degree_cap(self):
        # Degree 5 computes: on the 2-chain graded (1, h), a monomial
        # vanishes exactly when it has two variables of degree h.
        theta = gm(CORPUS["c2"], cyclic_group(2), ["1", "h"])
        found = monomial_identities(theta, 5)
        assert found == {w for w in words((0, 1), 5) if w.count(1) >= 2}
        assert len(found) == 1 + 4 + 11 + 26


class TestTransitivityProbe:
    def test_two_chain_classes_separate(self):
        report = chain_transitivity_identity_check(
            CORPUS["c2"], cyclic_group(2))
        assert report["classes"] == 2
        assert report["pairs_checked"] == 1
        assert report["separated"]
        assert report["unseparated"] == []

    def test_singleton_poset(self):
        report = chain_transitivity_identity_check(
            CORPUS["c1"], cyclic_group(3))
        assert report["classes"] == 1
        assert report["pairs_checked"] == 0
        assert report["separated"]

    def test_three_chain_has_one_blind_pair(self):
        # (1,1,h) and (1,h,h) both make exactly the words with at most one
        # h-letter nonzero, so monomial identities cannot tell them apart.
        p = CORPUS["c3"]
        g = cyclic_group(2)
        report = chain_transitivity_identity_check(p, g)
        assert report["degree"] == 3
        assert report["classes"] == 4
        assert len(report["unseparated"]) == 1
        a, b = report["unseparated"][0]
        assert {a.theta, b.theta} == {(0, 0, 1), (0, 1, 1)}
        assert equivalent(a, b) is None
        sig_a = monomial_identities(a, 3)
        sig_b = monomial_identities(b, 3)
        assert sig_a == sig_b
        for word in sorted(sig_a):
            assert monomial_vanishes_by_products(a, word)
            assert monomial_vanishes_by_products(b, word)

    def test_diamond_blind_pairs(self):
        p = CORPUS["diamond"]
        g = cyclic_group(2)
        report = chain_transitivity_identity_check(p, g)
        got = {frozenset((a.theta, b.theta))
               for a, b in report["unseparated"]}
        assert got == {
            frozenset({(0, 0, 0, 1), (0, 0, 1, 1)}),
            frozenset({(0, 0, 0, 1), (0, 1, 1, 1)}),
            frozenset({(0, 0, 1, 0), (0, 1, 1, 0)}),
            frozenset({(0, 0, 1, 1), (0, 1, 1, 1)}),
        }
        for a, b in report["unseparated"]:
            assert equivalent(a, b) is None

    def test_requires_chain_transitivity(self):
        with pytest.raises(NotChainTransitiveError):
            chain_transitivity_identity_check(
                CORPUS["example"], cyclic_group(2))
        with pytest.raises(NotChainTransitiveError):
            chain_transitivity_identity_check(
                CORPUS["c2_disjoint_c3"], cyclic_group(2))
