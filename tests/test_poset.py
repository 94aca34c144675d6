import random

import pytest

from incgrade.corpus import corpus_posets, load_poset
from incgrade.errors import (
    CycleError,
    DuplicateLabelError,
    EmptyPosetError,
    NotComparableError,
)
from incgrade import poset
from incgrade.poset import (
    Poset,
    automorphisms,
    bound,
    connected_components,
    is_chain_transitive,
    linear_extension,
    maximal_chains,
    poset_from_covers,
    poset_from_json,
    poset_to_json,
    segment,
    subposet,
)

from util import (
    brute_force_automorphisms,
    brute_force_chains,
    brute_force_components,
    loop_close,
    loop_poset_covers,
    random_poset,
)

CORPUS = corpus_posets()


def labels(poset, chain):
    return tuple(poset.elements[i] for i in chain)


class TestConstruction:
    def test_singleton(self):
        p = poset_from_covers(["a"], [])
        assert p.n == 1
        assert p.leq == ((True,),)

    def test_example_closure(self):
        p = CORPUS["example"]
        assert p.elements == ("p1", "p2", "p3", "p4")
        assert p.leq[0][3] and p.leq[1][2] and p.leq[1][3]
        assert not p.leq[0][1] and not p.leq[0][2] and not p.leq[2][3]

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            poset_from_covers(["x", "y"], [(0, 1), (1, 0)])

    def test_longer_cycle_rejected(self):
        with pytest.raises(CycleError):
            poset_from_covers(["x", "y", "z"], [(0, 1), (1, 2), (2, 0)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabelError):
            poset_from_covers(["a", "a"], [])

    def test_empty_rejected(self):
        with pytest.raises(EmptyPosetError):
            poset_from_covers([], [])

    def test_axioms_on_corpus(self):
        for p in CORPUS.values():
            n = p.n
            for i in range(n):
                assert p.leq[i][i]
                for j in range(n):
                    if i != j:
                        assert not (p.leq[i][j] and p.leq[j][i])
                    for k in range(n):
                        if p.leq[i][j] and p.leq[j][k]:
                            assert p.leq[i][k]

    def test_diamond_covers(self):
        assert CORPUS["diamond"].covers == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_json_round_trip(self):
        for p in CORPUS.values():
            assert poset_from_json(poset_to_json(p)) == p

    def test_json_relation_form(self):
        p = poset_from_json({"elements": ["a", "b", "c"],
                             "relation": [[0, 1], [1, 2], [0, 2]]})
        assert p == poset_from_covers(["a", "b", "c"], [(0, 1), (1, 2)])
        assert p.covers == ((0, 1), (1, 2))


class TestAgainstLoopOracle:
    """Poset's bitmask validation and cover search against the triple
    loops they replaced."""

    @staticmethod
    def build(build, elements, leq):
        try:
            return ("covers", build(elements, leq))
        except (ValueError, CycleError) as exc:
            return (type(exc), str(exc))

    def test_errors_and_covers_match(self):
        rng = random.Random(70)
        seen = set()
        for _ in range(400):
            p = random_poset(rng, 7)
            leq = [list(row) for row in p.leq]
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                i, j = rng.randrange(p.n), rng.randrange(p.n)
                leq[i][j] = not leq[i][j]
            got = self.build(lambda e, m: Poset(e, m).covers, p.elements, leq)
            want = self.build(loop_poset_covers, p.elements, leq)
            assert got == want
            seen.add("covers" if want[0] == "covers" else next(
                kind for kind in ("reflexive", "mutually", "transitive")
                if kind in want[1]))
        assert seen == {"covers", "reflexive", "mutually", "transitive"}

    @staticmethod
    def close(close, n, edges):
        try:
            return close(n, edges)
        except ValueError as exc:
            return str(exc)

    def test_close_matches_triple_loop(self):
        # Random relations, cycles included; a few pairs reach one index
        # past either end.
        rng = random.Random(71)
        kinds = set()
        for _ in range(300):
            n = rng.randint(1, 9)

            def index():
                return (rng.choice((-1, n)) if rng.random() < 0.02
                        else rng.randrange(n))

            edges = [(index(), index()) for _ in range(rng.randint(0, 2 * n))]
            want = self.close(loop_close, n, edges)
            assert self.close(poset._close, n, edges) == want
            kinds.add(type(want))
        assert kinds == {list, str}


class TestSegment:
    def test_whole_chain(self):
        p = CORPUS["c3"]
        assert segment(p, 0, 2).elements == p.elements

    def test_example_interval(self):
        p = CORPUS["example"]
        assert segment(p, 1, 3).elements == ("p2", "p4")

    def test_reflexive_singleton(self):
        for p in CORPUS.values():
            assert segment(p, 0, 0).elements == (p.elements[0],)

    def test_incomparable_rejected(self):
        with pytest.raises(NotComparableError):
            segment(CORPUS["example"], 0, 1)

    def test_subposet_keeps_order(self):
        p = CORPUS["diamond"]
        sub = subposet(p, (0, 1, 3))
        assert sub.elements == ("bot", "a", "top")
        assert sub.leq[0][2] and sub.leq[1][2]


class TestMaximalChains:
    def test_example_chains(self):
        p = CORPUS["example"]
        assert [labels(p, c) for c in maximal_chains(p)] == [
            ("p1", "p4"), ("p2", "p3"), ("p2", "p4")]

    def test_chain_is_its_own_chain(self):
        for name in ("c1", "c2", "c3", "c4"):
            p = CORPUS[name]
            assert maximal_chains(p) == (tuple(range(p.n)),)

    def test_antichain_singletons(self):
        p = CORPUS["antichain2"]
        assert maximal_chains(p) == ((0,), (1,))

    def test_brute_force_agreement(self):
        for p in CORPUS.values():
            assert sorted(maximal_chains(p)) == brute_force_chains(p)

    def test_chain_properties(self):
        for p in CORPUS.values():
            chains = maximal_chains(p)
            covered = set()
            for chain in chains:
                for a, b in zip(chain, chain[1:]):
                    assert p.leq[a][b] and a != b
                covered.update(chain)
            assert covered == set(range(p.n))
            for chain in chains:
                for other in chains:
                    if chain != other:
                        assert not set(chain) < set(other)


class TestComponents:
    def test_example_connected(self):
        assert connected_components(CORPUS["example"]) == ((0, 1, 2, 3),)

    def test_antichain_discrete(self):
        assert connected_components(CORPUS["antichain4"]) == (
            (0,), (1,), (2,), (3,))

    def test_disjoint_union(self):
        assert connected_components(CORPUS["c2_disjoint_c3"]) == (
            (0, 1), (2, 3, 4))

    def test_brute_force_agreement(self):
        for p in CORPUS.values():
            assert list(connected_components(p)) == brute_force_components(p)


class TestBound:
    def test_chains(self):
        for n in (1, 2, 3, 4):
            assert bound(CORPUS[f"c{n}"]) == n

    def test_example(self):
        assert bound(CORPUS["example"]) == 2

    def test_antichain(self):
        assert bound(CORPUS["antichain4"]) == 1

    def test_matches_longest_maximal_chain(self):
        for p in CORPUS.values():
            assert bound(p) == max(len(c) for c in maximal_chains(p))

    def test_linear_extension_is_topological(self):
        for p in CORPUS.values():
            order = linear_extension(p)
            position = {v: i for i, v in enumerate(order)}
            for x in range(p.n):
                for y in range(p.n):
                    if x != y and p.leq[x][y]:
                        assert position[x] < position[y]


class TestAutomorphisms:
    def test_chain_rigid(self):
        for name in ("c1", "c2", "c3", "c4"):
            p = CORPUS[name]
            assert automorphisms(p) == (tuple(range(p.n)),)

    def test_example_rigid(self):
        assert automorphisms(CORPUS["example"]) == ((0, 1, 2, 3),)

    def test_antichain_full_symmetric(self):
        assert automorphisms(CORPUS["antichain2"]) == ((0, 1), (1, 0))
        assert len(automorphisms(CORPUS["antichain4"])) == 24

    def test_diamond_swap(self):
        assert automorphisms(CORPUS["diamond"]) == (
            (0, 1, 2, 3), (0, 2, 1, 3))

    def test_identity_first(self):
        for p in CORPUS.values():
            assert automorphisms(p)[0] == tuple(range(p.n))

    def test_brute_force_agreement(self):
        for p in CORPUS.values():
            assert list(automorphisms(p)) == brute_force_automorphisms(p)

    def test_group_closure(self):
        for p in CORPUS.values():
            auts = set(automorphisms(p))
            for a in auts:
                inverse = [0] * p.n
                for i, v in enumerate(a):
                    inverse[v] = i
                assert tuple(inverse) in auts
                for b in auts:
                    assert tuple(a[b[i]] for i in range(p.n)) in auts


class TestChainTransitivity:
    def test_single_chain(self):
        ok, table = is_chain_transitive(CORPUS["c3"])
        assert ok and table[(0, 0)] == (0, 1, 2)

    def test_example_fails(self):
        ok, witness = is_chain_transitive(CORPUS["example"])
        assert not ok
        i, j = witness
        assert i != j

    def test_antichain_swaps(self):
        ok, table = is_chain_transitive(CORPUS["antichain2"])
        assert ok
        assert table[(0, 1)] == (1, 0)

    def test_diamond_transitive(self):
        ok, _ = is_chain_transitive(CORPUS["diamond"])
        assert ok

    def test_disjoint_union_fails(self):
        ok, _ = is_chain_transitive(CORPUS["c2_disjoint_c3"])
        assert not ok

    def test_witness_table_works(self):
        for p in CORPUS.values():
            ok, table = is_chain_transitive(p)
            if not ok:
                continue
            chains = maximal_chains(p)
            for (i, j), sigma in table.items():
                assert tuple(sigma[x] for x in chains[i]) == chains[j]


class TestCorpusLoader:
    def test_loads_by_path(self, tmp_path):
        target = tmp_path / "poset.json"
        target.write_text('{"elements": ["u", "v"], "covers": [[0, 1]]}')
        p = load_poset(str(target))
        assert p.elements == ("u", "v")

    def test_unknown_name_rejected(self):
        with pytest.raises(FileNotFoundError):
            load_poset("not_a_fixture")
