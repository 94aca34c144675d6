import itertools
import json
import random
import re
import tracemalloc

import pytest

from incgrade.corpus import corpus_posets
from incgrade.errors import (
    BudgetExceededError,
    MalformedInputError,
    MismatchError,
)
from incgrade.grading import (
    EquivalenceWitness,
    FiniteGroup,
    GradingMap,
    burnside_class_count,
    classify_gradings,
    count_distinct_gradings,
    cyclic_group,
    equivalent,
    group_from_spec,
    product_group,
    symmetric_group,
)
from incgrade.poset import (
    Poset,
    automorphisms,
    connected_components,
)

import oracle
from util import (
    brute_force_burnside,
    brute_force_witness,
    is_associative,
    leq_matrix,
    product_table,
    random_grading,
    random_poset,
    reference_group,
    reference_leq,
    relabelled_group,
)

CORPUS = corpus_posets()


def gm(poset, group, names):
    return GradingMap(poset, group, [group.index_of(v) for v in names])


def chain(n):
    return Poset([f"c{i}" for i in range(n)],
                 [(i, i + 1) for i in range(n - 1)])


class TestGroups:
    def test_cyclic_names_and_table(self):
        g = cyclic_group(3)
        assert g.names == ("1", "h", "h^2")
        assert g.mul(g.index_of("h"), g.index_of("h^2")) == g.identity
        assert g.inv(g.index_of("h")) == g.index_of("h^2")

    def test_trivial_group(self):
        g = group_from_spec("C1")
        assert g.names == ("1",)
        assert g.identity == 0

    def test_klein_four(self):
        g = group_from_spec("C2xC2")
        assert g.order == 4
        for a in range(4):
            assert g.mul(a, a) == g.identity

    def test_symmetric_three(self):
        g = symmetric_group(3)
        assert g.names == ("1", "(23)", "(12)", "(123)", "(132)", "(13)")
        # Products apply the right factor first.
        assert g.mul(g.index_of("(12)"), g.index_of("(23)")) == g.index_of("(123)")
        assert g.mul(g.index_of("(23)"), g.index_of("(12)")) == g.index_of("(132)")

    def test_symmetric_non_abelian(self):
        g = group_from_spec("S3")
        assert any(g.mul(a, b) != g.mul(b, a)
                   for a in range(g.order) for b in range(g.order))

    def test_product_names(self):
        g = product_group(cyclic_group(2), cyclic_group(3))
        assert g.order == 6
        assert "1|1" in g.names and "h|h^2" in g.names
        assert g.mul(g.index_of("h|h"), g.index_of("h|h^2")) == g.index_of("1|1")

    def test_spec_string_product(self):
        assert group_from_spec("C2xS3").order == 12

    def test_bad_spec_strings(self):
        for bad, message in [
                ("C0", "cyclic group order must be positive"),
                ("S5", "symmetric groups supported up to S4"),
                ("D4", "unrecognized group spec 'D4'"),
                ("", "unrecognized group spec ''"),
                ("Cx2", "unrecognized group spec 'C'")]:
            with pytest.raises(MalformedInputError,
                               match=f"^{re.escape(message)}$"):
                group_from_spec(bad)

    @pytest.mark.parametrize("spec", ["C\u00b2", "C\u0663", "C2xS\u00b2"])
    def test_non_ascii_digits_are_unrecognized(self, spec):
        bad = spec.split("x")[-1]
        with pytest.raises(MalformedInputError,
                           match=f"^unrecognized group spec {bad!r}$"):
            group_from_spec(spec)

    @pytest.mark.parametrize("digits", [1000, 5000])
    def test_long_sizes_are_refused_unconverted(self, digits):
        # Converted, 1000 digits would name the order and 5000 would pass
        # int's string-length limit; neither is converted.
        with pytest.raises(MalformedInputError, match=(
                f"^group factor C with a {digits}-digit size exceeds "
                "the cap of 256 elements$")):
            group_from_spec("C" + "9" * digits)
        assert group_from_spec("C" + "0" * digits + "2").order == 2

    def test_order_cap_admits_256_elements(self, monkeypatch):
        # C16xC16 passes the cap, so its first factor gets built.
        class Built(Exception):
            pass

        def build(*args):
            raise Built

        monkeypatch.setattr("incgrade.grading.FiniteGroup", build)
        with pytest.raises(Built):
            group_from_spec("C16xC16")
        with pytest.raises(MalformedInputError, match=(
                "^group order 272 exceeds the cap of 256 elements$")):
            group_from_spec("C16xC17")

    def test_json_table_spec(self):
        g = group_from_spec(json.dumps({
            "names": ["e", "a"],
            "table": [[0, 1], [1, 0]],
        }))
        assert g.identity == g.index_of("e")
        assert g.mul(1, 1) == g.identity

    def test_json_table_validation(self):
        with pytest.raises(MalformedInputError,
                           match="^no inverse for 'a'$"):
            group_from_spec(json.dumps({
                "names": ["e", "a"],
                "table": [[0, 1], [1, 1]],
            }))

    # An order-5 loop: it has an identity and inverses, but
    # (1 * 1) * 2 = 2 while 1 * (1 * 2) = 4.
    _LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
              [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    # Its product with C2: the first generator found, the central
    # element of order 2, associates with everything.
    _LOOP5_C2 = product_table(_LOOP5, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("names, table, message", [
        ([], [], "a group needs at least one element"),
        (["e", "e"], [[0, 1], [1, 0]], "element names must be distinct"),
        (["e", "a"], [[0, 1]], "Cayley table must be square"),
        (["e", "a"], [[0, 1], [1, 2]], "Cayley table entry out of range"),
        (["e", "a"], [[0, 0], [1, 1]], "no identity element"),
        (["e", "a"], [[0, 1], [1, 1]], "no inverse for 'a'"),
        (list("eabcd"), _LOOP5, "multiplication is not associative"),
        (list("0123456789"), _LOOP5_C2, "multiplication is not associative"),
    ], ids=["empty", "duplicate-names", "non-square", "out-of-range",
            "no-identity", "no-inverse", "not-associative",
            "not-associative-past-first-generator"])
    def test_each_group_axiom_is_checked(self, names, table, message):
        spec = json.dumps({"names": names, "table": table})
        with pytest.raises(MalformedInputError,
                           match=f"^{re.escape(message)}$"):
            group_from_spec(spec)

    @pytest.mark.parametrize("seed", range(40))
    def test_associativity_check_matches_all_triples(self, seed):
        # Relabelled groups, and the same tables with two entries of one
        # row swapped: identity and inverses survive the swap, so only
        # the associativity check can refuse the table.
        rng = random.Random(seed)
        group = group_from_spec(rng.choice(
            ["C4", "C6", "C2xC2", "S3", "C2xC2xC2", "C3xC3", "S3xC2", "S4"]))
        order = list(range(group.order))
        rng.shuffle(order)
        table = [list(row) for row in relabelled_group(group, order).table]
        if seed % 4:
            e = next(i for i in range(len(table)) if table[i][i] == i)
            a = rng.choice([x for x in range(len(table)) if x != e])
            b, c = rng.sample([x for x in range(len(table))
                               if table[a][x] not in (e, a)], 2)
            table[a][b], table[a][c] = table[a][c], table[a][b]
        spec = json.dumps({"names": list(group.names), "table": table})
        if is_associative(table):
            assert group_from_spec(spec).table == tuple(map(tuple, table))
        else:
            with pytest.raises(MalformedInputError,
                               match="^multiplication is not associative$"):
                group_from_spec(spec)

    def test_unknown_element_name(self):
        with pytest.raises(MalformedInputError,
                           match="^unknown group element 'g'$"):
            cyclic_group(2).index_of("g")

    @pytest.mark.parametrize("table", [[[0.0, 1.2], [1, 0]],
                                       [["0", "1"], [1, 0]],
                                       [[0, None], [1, 0]]])
    def test_table_entries_are_not_truncated(self, table):
        # 1.2 is not read as 1: an entry must be an int (or a bool).
        with pytest.raises(MalformedInputError,
                           match="^Cayley table entries must be integers$"):
            FiniteGroup(["e", "a"], table)

    def test_table_takes_ints_and_bools(self):
        group = FiniteGroup(["e", "a"], [[False, True], [1, 0]])
        assert group.table == ((0, 1), (1, 0))
        assert {type(v) for row in group.table for v in row} == {int}


class TestGradingMap:
    def test_grades_are_label_differences(self):
        p = CORPUS["example"]
        g = cyclic_group(3)
        theta = gm(p, g, ["1", "1", "h", "1"])
        assert g.names[theta.grade_of_pair(1, 2)] == "h"
        assert g.names[theta.grade_of_pair(1, 3)] == "1"
        assert g.names[theta.grade_of_pair(2, 2)] == "1"

    def test_support_and_components(self):
        p = CORPUS["example"]
        g = cyclic_group(3)
        theta = gm(p, g, ["1", "h", "h^2", "1"])
        assert {g.names[v] for v in theta.support()} == {"1", "h", "h^2"}
        assert theta.component_basis(g.index_of("h")) == ((1, 2),)
        assert theta.component_basis(g.index_of("h^2")) == ((1, 3),)
        assert set(theta.component_basis(g.identity)) == {
            (0, 0), (1, 1), (2, 2), (3, 3), (0, 3)}

    def test_component_closure(self):
        # Component products land in the product component.
        rng = random.Random(40)
        for p in CORPUS.values():
            g = group_from_spec("S3")
            theta = random_grading(rng, p, g)
            leq = leq_matrix(p)
            for (x, y) in p.comparable_pairs():
                for (u, v) in p.comparable_pairs():
                    if y == u and leq[x][v]:
                        a = theta.grade_of_pair(x, y)
                        b = theta.grade_of_pair(u, v)
                        assert theta.grade_of_pair(x, v) == g.mul(a, b)

    def test_shift_preserves_components(self):
        rng = random.Random(41)
        p = CORPUS["c2_disjoint_c3"]
        g = cyclic_group(3)
        theta = random_grading(rng, p, g)
        shifted = theta.shift([g.index_of("h"), g.index_of("h^2")])
        for grade in range(g.order):
            assert (shifted.component_basis(grade)
                    == theta.component_basis(grade))

    def test_components_are_derived_once_and_read_only(self):
        g = cyclic_group(3)
        theta = gm(CORPUS["c3"], g, ["1", "h", "h^2"])
        first = theta.components()
        with pytest.raises(TypeError):
            first[g.index_of("h")] = ()
        with pytest.raises(AttributeError):
            first.clear()
        again = theta.components()
        assert again is first
        assert dict(again) == {0: ((0, 0), (1, 1), (2, 2)),
                               1: ((0, 1), (1, 2)), 2: ((0, 2),)}
        assert theta.support() == (0, 1, 2)

    def test_compose_with_automorphism(self):
        p = CORPUS["antichain2"]
        g = cyclic_group(2)
        theta = gm(p, g, ["1", "h"])
        moved = theta.compose_with_automorphism((1, 0))
        assert moved.names() == ["h", "1"]

    def test_label_count_must_match(self):
        with pytest.raises(MismatchError, match=(
                "^a grading needs one value per poset element: "
                "got 2 for 3 elements$")):
            GradingMap(CORPUS["c3"], cyclic_group(2), (0, 1))

    def test_labels_must_be_group_elements(self):
        with pytest.raises(MalformedInputError,
                           match="^theta value out of group range$"):
            GradingMap(CORPUS["c2"], cyclic_group(2), (0, 5))

    @pytest.mark.parametrize("theta", [[0.7, 1.9], [0, "1"], [None, 0]])
    def test_theta_values_are_not_truncated(self, theta):
        # 0.7 is not read as 0: a value must be an int (or a bool).
        with pytest.raises(MalformedInputError, match=(
                f"^theta values must be integers: {re.escape(repr(theta))}$")):
            GradingMap(CORPUS["c2"], cyclic_group(2), theta)

    def test_theta_takes_ints_and_bools(self):
        theta = GradingMap(CORPUS["c2"], cyclic_group(2), [True, 0]).theta
        assert theta == (1, 0)
        assert {type(v) for v in theta} == {int}


class TestCounting:
    def test_three_chain_over_two_elements(self):
        assert count_distinct_gradings(CORPUS["c3"], cyclic_group(2),
                                       verify=True) == 4

    def test_antichain_has_single_grading(self):
        assert count_distinct_gradings(CORPUS["antichain3"],
                                       cyclic_group(2)) == 1

    def test_example_poset_over_three_elements(self):
        assert count_distinct_gradings(CORPUS["example"], cyclic_group(3),
                                       verify=True) == 27

    def test_formula_matches_components(self):
        for p in CORPUS.values():
            g = cyclic_group(2)
            k = len(connected_components(p))
            assert count_distinct_gradings(p, g) == g.order ** (p.n - k)

    def test_budget_guard(self):
        # verify walks all 2^20 maps of the 20-chain, over the 10^6 cap.
        with pytest.raises(BudgetExceededError,
                           match="^1048576 maps exceed the enumeration budget 1000000$"):
            count_distinct_gradings(chain(20), cyclic_group(2), verify=True)


class TestEquivalence:
    def test_reflexive(self):
        rng = random.Random(43)
        for p in CORPUS.values():
            theta = random_grading(rng, p, cyclic_group(3))
            witness = equivalent(theta, theta)
            assert witness is not None
            assert witness.check(theta, theta)

    def test_example_pair_not_equivalent(self):
        p = CORPUS["example"]
        g = cyclic_group(3)
        theta = gm(p, g, ["1", "1", "h", "1"])
        mu = gm(p, g, ["1", "1", "h^2", "1"])
        assert equivalent(theta, mu) is None

    def test_two_chain_shift_witness(self):
        p = CORPUS["c2"]
        g = cyclic_group(3)
        theta = gm(p, g, ["1", "h"])
        mu = gm(p, g, ["h", "h^2"])
        witness = equivalent(theta, mu)
        assert witness is not None
        assert witness.check(theta, mu)

    def test_witness_transports_labels(self):
        rng = random.Random(44)
        p = CORPUS["c2_disjoint_c3"]
        g = cyclic_group(2)
        theta = random_grading(rng, p, g)
        sigma = automorphisms(p)[0]
        mu = theta.compose_with_automorphism(sigma).shift(
            [g.index_of("h"), g.identity])
        witness = equivalent(theta, mu)
        assert witness is not None
        assert witness.check(theta, mu)

    def test_symmetric_and_transitive(self):
        rng = random.Random(45)
        p = CORPUS["diamond"]
        g = cyclic_group(2)
        gradings = [random_grading(rng, p, g) for _ in range(6)]
        for a, b in itertools.combinations(gradings, 2):
            ab = equivalent(a, b)
            ba = equivalent(b, a)
            assert (ab is None) == (ba is None)
        for a in gradings:
            for b in gradings:
                for c in gradings:
                    if equivalent(a, b) and equivalent(b, c):
                        assert equivalent(a, c) is not None

    def test_matches_brute_force_search(self):
        # The reference tries each automorphism with the shifts it forces.
        p = CORPUS["diamond"]
        g = cyclic_group(2)
        rng = random.Random(46)
        for _ in range(20):
            theta = random_grading(rng, p, g)
            mu = random_grading(rng, p, g)
            assert (equivalent(theta, mu) is not None) == oracle.are_equivalent(
                reference_leq(p), reference_group(g), theta.theta, mu.theta)

    @pytest.mark.parametrize("group", [
        cyclic_group(2), cyclic_group(3), symmetric_group(3),
        relabelled_group(symmetric_group(3), [3, 1, 4, 0, 5, 2]),
    ], ids=["C2", "C3", "S3", "S3-relabelled"])
    def test_witness_matches_brute_force(self, group):
        # The relabelled S3 has a non-identity element at index 0.
        rng = random.Random(48)
        found = 0
        for _ in range(60):
            p = random_poset(rng, 6)
            theta = random_grading(rng, p, group)
            if rng.random() < 0.5:
                leq = reference_leq(p)
                sigma = rng.choice(oracle.automorphisms(leq))
                shifts = [rng.randrange(group.order)
                          for _ in oracle.components(leq)]
                mu = theta.compose_with_automorphism(sigma).shift(shifts)
            else:
                mu = random_grading(rng, p, group)
            witness = equivalent(theta, mu)
            got = None if witness is None else (witness.sigma, witness.shifts)
            assert got == brute_force_witness(theta, mu)
            found += witness is not None and witness.sigma != tuple(range(p.n))
        assert found

    def test_inequivalent_pair_builds_no_grading_per_automorphism(
            self, monkeypatch):
        # One bottom below four tops: Aut(P) = S4, and one top graded h
        # is not two.
        p = Poset(["b", "t1", "t2", "t3", "t4"],
                  [(0, i) for i in range(1, 5)])
        g = cyclic_group(2)
        theta = gm(p, g, ["1", "h", "1", "1", "1"])
        mu = gm(p, g, ["1", "h", "h", "1", "1"])
        automorphisms(p)
        built = []
        init = GradingMap.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(GradingMap, "__init__", counting_init)
        assert equivalent(theta, mu) is None
        assert built == []

    def test_group_mismatch_rejected(self):
        p = CORPUS["c2"]
        theta = GradingMap(p, cyclic_group(2), (0, 1))
        mu = GradingMap(p, cyclic_group(3), (0, 1))
        with pytest.raises(MismatchError,
                           match="^gradings live over different posets or groups$"):
            equivalent(theta, mu)

    def test_handcrafted_witness_checks(self):
        p = CORPUS["antichain2"]
        g = cyclic_group(2)
        h = g.index_of("h")
        theta = gm(p, g, ["1", "1"])
        witness = EquivalenceWitness(shifts=(h, h), sigma=(1, 0))
        assert witness.check(theta, gm(p, g, ["h", "h"]))
        assert not witness.check(theta, gm(p, g, ["1", "h"]))


def least_maps(poset, group):
    """The least map of each reference class, ascending: the first map of
    each class met in lexicographic order."""
    root_of, _ = oracle.grading_orbits(reference_leq(poset),
                                       reference_group(group))
    least = {}
    for theta in itertools.product(range(group.order), repeat=poset.n):
        least.setdefault(root_of(theta), theta)
    return list(least.values())


class TestClassification:
    def test_two_chain_over_two_elements(self):
        reps = classify_gradings(CORPUS["c2"], cyclic_group(2))
        assert len(reps) == 2

    def test_three_chain_over_three_elements(self):
        reps = classify_gradings(CORPUS["c3"], cyclic_group(3))
        assert len(reps) == 9

    def test_singleton_poset(self):
        reps = classify_gradings(CORPUS["c1"], symmetric_group(3))
        assert len(reps) == 1
        assert reps[0].names() == ["1"]

    def test_rigid_poset_counts_equal_classes(self):
        # No symmetry and one component: every grading is its own class.
        reps = classify_gradings(CORPUS["example"], cyclic_group(3))
        assert len(reps) == 27

    def test_representatives_are_canonical(self):
        g = cyclic_group(2)
        for name in ("c2", "c3", "antichain2", "diamond"):
            reps = classify_gradings(CORPUS[name], g)
            seen = set()
            for rep in reps:
                assert rep.theta not in seen
                seen.add(rep.theta)
            for a, b in itertools.combinations(reps, 2):
                assert equivalent(a, b) is None

    def test_budget_guard(self):
        # classify walks the 2^20 normal forms of the 21-chain, over the cap.
        with pytest.raises(BudgetExceededError,
                           match="^1048576 maps exceed the enumeration budget 1000000$"):
            classify_gradings(chain(21), cyclic_group(2))

    def test_marking_keeps_no_table_per_automorphism(self):
        # 7! = 5040 automorphisms and one map: a table of |Aut(P)| * n
        # index pairs peaked at 2.6 MiB here.
        p = Poset([f"a{i}" for i in range(7)], [])
        group = cyclic_group(1)
        automorphisms(p)
        tracemalloc.start()
        try:
            reps = classify_gradings(p, group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [rep.theta for rep in reps] == [(0,) * 7]
        assert peak < 1 << 20

    def test_budget_counts_walked_maps(self):
        # 24^4 maps, but one normal form: each element is its own component.
        reps = classify_gradings(CORPUS["antichain4"], symmetric_group(4))
        assert [rep.theta for rep in reps] == [(0, 0, 0, 0)]

    def test_burnside_agrees_with_enumeration(self):
        for name, p in CORPUS.items():
            for spec in ("C2", "C3", "C2xC2"):
                g = group_from_spec(spec)
                assert burnside_class_count(p, g) == len(
                    classify_gradings(p, g)), (name, spec)

    def test_matches_brute_force_oracles(self):
        groups = [group_from_spec(spec)
                  for spec in ("C1", "C2", "C3", "C2xC2", "S3")]
        # Index 0 is not the identity, so anchors normalized to the
        # identity would not give the least maps.
        groups.append(relabelled_group(symmetric_group(3), [3, 1, 4, 0, 5, 2]))
        assert groups[-1].identity != 0
        rng = random.Random(20)
        posets = list(CORPUS.values())
        for _ in range(40):
            n = rng.randint(1, 6)
            covers = [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.3]
            order = rng.sample(range(n), n)
            posets.append(Poset(
                [f"e{i}" for i in range(n)],
                [(order[i], order[j]) for i, j in covers]))
        for p in posets:
            for g in groups:
                if g.order ** p.n > 8000:
                    continue
                reps = [rep.theta for rep in classify_gradings(p, g)]
                assert reps == least_maps(p, g), (p, g)
                assert burnside_class_count(p, g) == brute_force_burnside(p, g)

    def test_two_antichain_over_two_elements(self):
        p = CORPUS["antichain2"]
        assert burnside_class_count(p, cyclic_group(2)) == 1
        assert len(classify_gradings(p, cyclic_group(2))) == 1

    def test_antichains_over_s3_have_one_class(self):
        g = symmetric_group(3)
        for n in range(1, 8):
            p = Poset([f"a{i}" for i in range(n)], [])
            assert [rep.theta for rep in classify_gradings(p, g)] == [(0,) * n]

    def test_burnside_chain_formula(self):
        # Chains are rigid, so classes = distinct gradings = |G|^(n-1).
        for n in (1, 2, 3, 4):
            p = CORPUS[f"c{n}"]
            for spec in ("C2", "C3", "C2xC2", "S3"):
                g = group_from_spec(spec)
                assert burnside_class_count(p, g) == g.order ** (n - 1)
