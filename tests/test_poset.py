import gc
import random
import time
import weakref

import pytest

from incgrade.corpus import corpus_posets, load_poset
from incgrade.errors import (
    BudgetExceededError,
    MalformedInputError,
    NotComparableError,
)
from incgrade import poset
from incgrade.algebra import IncidenceFunction, e_basis
from incgrade.grading import (
    GradingMap,
    classify_gradings,
    cyclic_group,
    equivalent,
)
from incgrade.identities import chain_transitivity_identity_check
from incgrade.poset import (
    Poset,
    automorphisms,
    bound,
    component_index,
    connected_components,
    is_chain_transitive,
    linear_extension,
    maximal_chains,
    poset_from_json,
    poset_to_json,
    segment,
    subposet,
)

import oracle
from util import (
    leq_matrix,
    loop_close,
    loop_poset_covers,
    matrix_of,
    random_poset,
    reference_leq,
    scan_chain_transitive,
)

CORPUS = corpus_posets()


def long_chain(n):
    return Poset([f"x{i}" for i in range(n)],
                 [(i, i + 1) for i in range(n - 1)])


def boolean_lattice(k):
    """The subsets of a k-set under inclusion, as bit masks."""
    return Poset(
        [str(a) for a in range(1 << k)],
        [(a, a | 1 << b) for a in range(1 << k) for b in range(k)
         if not a >> b & 1])


def antichain(n):
    return Poset([f"a{i}" for i in range(n)], [])


def reference_components(poset):
    return tuple(map(tuple, oracle.components(reference_leq(poset))))


def labels(poset, chain):
    return tuple(poset.elements[i] for i in chain)


class TestConstruction:
    def test_singleton(self):
        p = Poset(["a"], [])
        assert p.n == 1
        assert leq_matrix(p) == [[True]]

    def test_example_closure(self):
        p = CORPUS["example"]
        leq = leq_matrix(p)
        assert p.elements == ("p1", "p2", "p3", "p4")
        assert leq[0][3] and leq[1][2] and leq[1][3]
        assert not leq[0][1] and not leq[0][2] and not leq[2][3]

    def test_two_cycle_rejected(self):
        with pytest.raises(MalformedInputError,
                           match="^'x' and 'y' are mutually comparable$"):
            Poset(["x", "y"], [(0, 1), (1, 0)])

    def test_longer_cycle_rejected(self):
        with pytest.raises(MalformedInputError,
                           match="^'x' and 'y' are mutually comparable$"):
            Poset(["x", "y", "z"], [(0, 1), (1, 2), (2, 0)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(MalformedInputError,
                           match="^duplicate label 'a'$"):
            Poset(["a", "a"], [])

    def test_empty_rejected(self):
        with pytest.raises(MalformedInputError,
                           match="^poset needs at least one element$"):
            Poset([], [])

    def test_axioms_on_corpus(self):
        for p in CORPUS.values():
            n, leq = p.n, leq_matrix(p)
            for i in range(n):
                assert leq[i][i]
                for j in range(n):
                    if i != j:
                        assert not (leq[i][j] and leq[j][i])
                    for k in range(n):
                        if leq[i][j] and leq[j][k]:
                            assert leq[i][k]

    def test_diamond_covers(self):
        assert CORPUS["diamond"].covers == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_json_round_trip(self):
        for p in CORPUS.values():
            assert poset_from_json(poset_to_json(p)) == p

    def test_json_relation_form(self):
        p = poset_from_json({"elements": ["a", "b", "c"],
                             "relation": [[0, 1], [1, 2], [0, 2]]})
        assert p == Poset(["a", "b", "c"], [(0, 1), (1, 2)])
        assert p.covers == ((0, 1), (1, 2))


class TestAgainstLoopOracle:
    """Poset's closure, cycle check and cover search against the triple
    loops they replaced, which read boolean matrices: the bit rows are
    converted at the boundary."""

    @staticmethod
    def build(build, elements, relation):
        try:
            return ("covers", build(elements, relation))
        except MalformedInputError as exc:
            return (type(exc), str(exc))

    @staticmethod
    def loop_build(elements, relation):
        return loop_poset_covers(elements, loop_close(len(elements), relation))

    def test_errors_and_covers_match(self):
        rng = random.Random(70)
        seen = set()
        for _ in range(400):
            p = random_poset(rng, 7)
            leq = leq_matrix(p)
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                i, j = rng.randrange(p.n), rng.randrange(p.n)
                leq[i][j] = not leq[i][j]
            relation = [(i, j) for i in range(p.n) for j in range(p.n)
                        if leq[i][j]]
            got = self.build(lambda e, rel: Poset(e, rel).covers,
                             p.elements, relation)
            want = self.build(self.loop_build, p.elements, relation)
            assert got == want
            seen.add("covers" if want[0] == "covers" else "mutually"
                     if "mutually" in want[1] else want[1])
        assert seen == {"covers", "mutually"}

    def test_subposet_and_rebuild_match(self):
        # The random posets of test_errors_and_covers_match.
        rng = random.Random(70)
        for _ in range(400):
            p = random_poset(rng, 7)
            indices = rng.sample(range(p.n), rng.randint(1, p.n))
            labels = tuple(p.elements[i] for i in indices)
            whole = leq_matrix(p)
            leq = [[whole[a][b] for b in indices] for a in indices]
            sub = subposet(p, indices)
            assert sub.elements == labels
            assert leq_matrix(sub) == leq
            assert sub.covers == loop_poset_covers(labels, leq)
            rebuilt = Poset(p.elements, p.covers)
            assert rebuilt == p and hash(rebuilt) == hash(p)

    @staticmethod
    def close(close, n, edges):
        try:
            return close(n, edges)
        except MalformedInputError as exc:
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
            got = self.close(lambda n, e: matrix_of(poset._close(n, e), n),
                             n, edges)
            assert got == want
            kinds.add(type(want))
        assert kinds == {list, str}

    def test_cyclic_relation_names_the_oracles_pair(self):
        # The least element on a cycle and the least other member of its
        # strongly connected component, as the triple loop finds them.
        rng = random.Random(72)
        for _ in range(200):
            n = rng.randint(2, 9)
            edges = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(n, 2 * n))]
            labels = [f"e{i}" for i in range(n)]
            want = self.build(self.loop_build, labels, edges)
            got = self.build(lambda e, rel: Poset(e, rel).covers, labels, edges)
            assert got == want

    @pytest.mark.parametrize("n, edges, top_row", [
        (20000, [], 1),
        (3000, [(i, i + 1) for i in range(2999)], (1 << 3000) - 1),
    ], ids=["antichain-20000", "chain-3000"])
    def test_close_takes_one_pass(self, n, edges, top_row):
        # One pass over the edges; n**2 row tests take minutes on the
        # antichain, and a pass over every comparable pair for the covers
        # over a second on the chain.
        started = time.perf_counter()
        up = poset._close(n, edges)
        assert time.perf_counter() - started < 0.5
        assert up[0] == top_row and up[-1] == 1 << n - 1
        labels = [f"e{i}" for i in range(n)]
        started = time.perf_counter()
        p = Poset(labels, edges)
        assert time.perf_counter() - started < 0.5
        assert p.up == tuple(up) and p.covers == tuple(edges)


def test_out_of_range_pairs_are_not_comparable():
    # Index -1 would read the last row and index 5 would overrun c3.
    p = CORPUS["c3"]
    theta = GradingMap(p, cyclic_group(2), (0, 1, 0))
    cases = [
        (lambda: e_basis(p, 0, -1), "('x1', -1) is not a comparable pair"),
        (lambda: segment(p, 0, -1), "'x1' is not below -1"),
        (lambda: theta.grade_of_pair(0, -1), "('x1', -1) is not a comparable pair"),
        (lambda: IncidenceFunction(p, {(0, 5): 1}),
         "('x1', 5) is not a comparable pair"),
    ]
    for call, message in cases:
        with pytest.raises(NotComparableError) as info:
            call()
        assert str(info.value) == message


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
        leq = leq_matrix(sub)
        assert leq[0][2] and leq[1][2]


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
            assert sorted(maximal_chains(p)) == oracle.maximal_chains(
                reference_leq(p))

    def test_long_chain_walks_without_recursion(self):
        # More elements than the default recursion limit of 1000 frames.
        p = long_chain(1100)
        assert maximal_chains(p) == (tuple(range(1100)),)
        assert automorphisms(p) == (tuple(range(1100)),)

    def test_chain_properties(self):
        for p in CORPUS.values():
            chains = maximal_chains(p)
            leq = leq_matrix(p)
            covered = set()
            for chain in chains:
                for a, b in zip(chain, chain[1:]):
                    assert leq[a][b] and a != b
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
            assert connected_components(p) == reference_components(p)

    def test_random_posets_match_brute_force(self):
        # The covers join exactly the zig-zag comparable elements.
        rng = random.Random(74)
        for _ in range(200):
            p = random_poset(rng, 9)
            assert connected_components(p) == reference_components(p)

    def test_wide_antichain_takes_one_pass(self):
        # One pass over the covers; walking bit rows rescans each lone bit.
        n = 20000
        p = Poset([f"e{i}" for i in range(n)], [])
        started = time.perf_counter()
        components = connected_components(p)
        assert time.perf_counter() - started < 0.5
        assert components == tuple((i,) for i in range(n))


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
            leq = leq_matrix(p)
            for x in range(p.n):
                for y in range(p.n):
                    if x != y and leq[x][y]:
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
            assert list(automorphisms(p)) == oracle.automorphisms(
                reference_leq(p))

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


    def test_matches_per_pair_scan(self):
        rng = random.Random(90)
        posets = list(CORPUS.values()) + [random_poset(rng, 7)
                                          for _ in range(60)]
        outcomes = set()
        for p in posets:
            got = is_chain_transitive(p)
            assert got == scan_chain_transitive(p)
            outcomes.add(got[0] and len(got[1]) > 1)
        assert outcomes == {False, True}


class TestBudget:
    # Each guard is tested by lowering the budget on a small poset.

    def test_automorphisms_are_counted_as_found(self, monkeypatch):
        # The 5-antichain has 120 automorphisms; the 24th stops the search.
        monkeypatch.setattr(poset, "MAX_MAPS", 23)
        with pytest.raises(BudgetExceededError, match=(
                "^24 automorphisms exceed the enumeration budget 23$")):
            automorphisms(antichain(5))
        monkeypatch.setattr(poset, "MAX_MAPS", 24)
        assert len(automorphisms(antichain(4))) == 24

    def test_maximal_chains_are_counted_as_found(self, monkeypatch):
        # B3 has 6 maximal chains; the 5th stops the walk.
        monkeypatch.setattr(poset, "MAX_MAPS", 4)
        with pytest.raises(BudgetExceededError, match=(
                "^5 maximal chains exceed the enumeration budget 4$")):
            maximal_chains(boolean_lattice(3))
        monkeypatch.setattr(poset, "MAX_MAPS", 6)
        assert len(maximal_chains(boolean_lattice(3))) == 6

    def test_chain_pairs_are_checked_before_the_table(self, monkeypatch):
        # The diamond's 2 chains pass a budget of 3, their 4 pairs do not,
        # and Aut(P) is not enumerated for the refused table.
        monkeypatch.setattr(poset, "MAX_MAPS", 3)
        p = boolean_lattice(2)
        with pytest.raises(BudgetExceededError, match=(
                "^4 chain pairs exceed the enumeration budget 3$")):
            is_chain_transitive(p)
        assert "automorphisms" not in p._derived
        monkeypatch.setattr(poset, "MAX_MAPS", 4)
        assert is_chain_transitive(p)[0]

    def test_refused_results_are_not_stored(self, monkeypatch):
        p = antichain(3)
        monkeypatch.setattr(poset, "MAX_MAPS", 5)
        with pytest.raises(BudgetExceededError):
            automorphisms(p)
        monkeypatch.setattr(poset, "MAX_MAPS", 6)
        assert len(automorphisms(p)) == 6

    def test_classify_counts_automorphisms(self, monkeypatch):
        # One normal form over C1, but 24 automorphisms to act with.
        monkeypatch.setattr(poset, "MAX_MAPS", 23)
        with pytest.raises(BudgetExceededError, match="^24 automorphisms"):
            classify_gradings(antichain(4), cyclic_group(1))


class TestDerivedOnce:
    """Aut(P), the components and the maximal chains are derived once
    per Poset and stored on it."""

    DERIVED = (automorphisms, connected_components, component_index,
               maximal_chains, Poset.comparable_pairs)

    @pytest.mark.parametrize("run", [
        lambda p, g: chain_transitivity_identity_check(p, g),
        lambda p, g: classify_gradings(p, g),
        lambda p, g: equivalent(GradingMap(p, g, [0] * p.n),
                                GradingMap(p, g, [1] * p.n)),
    ], ids=["transitivity-check", "classify", "equiv"])
    def test_one_enumeration_per_call(self, run, monkeypatch):
        # _signatures runs once at the start of each backtracking search.
        calls = []
        signatures = poset._signatures
        monkeypatch.setattr(
            poset, "_signatures", lambda p: calls.append(p) or signatures(p))
        run(boolean_lattice(3), cyclic_group(2))
        assert len(calls) == 1

    def test_results_stored_on_the_poset(self):
        p = boolean_lattice(3)
        first = [derive(p) for derive in self.DERIVED]
        assert all(derive(p) is result
                   for derive, result in zip(self.DERIVED, first))
        # An equal poset built separately derives its own.
        assert automorphisms(boolean_lattice(3)) is not first[0]

    def test_results_die_with_their_poset(self):
        p = boolean_lattice(3)
        for derive in self.DERIVED:
            derive(p)
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None


class TestAgainstNetworkx:
    """The order structure against networkx graph algorithms, on posets
    beyond the reach of the n! brute-force oracles."""

    def test_structure_matches(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import DiGraphMatcher

        rng = random.Random(92)
        for _ in range(60):
            p = random_poset(rng, 14, min_n=8)
            leq = leq_matrix(p)
            strict = nx.DiGraph()
            strict.add_nodes_from(range(p.n))
            strict.add_edges_from((i, j) for i in range(p.n)
                                  for j in range(p.n) if i != j and leq[i][j])
            auts = sorted(tuple(m[i] for i in range(p.n)) for m in
                          DiGraphMatcher(strict, strict).isomorphisms_iter())
            assert list(automorphisms(p)) == auts
            cover = nx.transitive_reduction(strict)
            sources = [v for v in cover if cover.in_degree(v) == 0]
            sinks = [v for v in cover if cover.out_degree(v) == 0]
            paths = [(s,) for s in sources if s in sinks] + [
                tuple(path) for s in sources for t in sinks if s != t
                for path in nx.all_simple_paths(cover, s, t)]
            assert list(maximal_chains(p)) == sorted(paths)
            assert list(connected_components(p)) == sorted(
                tuple(sorted(c)) for c in nx.weakly_connected_components(strict))
            assert bound(p) == nx.dag_longest_path_length(strict) + 1


class TestCorpusLoader:
    def test_loads_by_path(self, tmp_path):
        target = tmp_path / "poset.json"
        target.write_text('{"elements": ["u", "v"], "covers": [[0, 1]]}')
        p = load_poset(str(target))
        assert p.elements == ("u", "v")

    def test_unknown_name_rejected(self):
        with pytest.raises(FileNotFoundError):
            load_poset("not_a_fixture")
